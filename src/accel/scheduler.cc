#include "src/accel/scheduler.hh"

#include "src/sim/log.hh"

namespace gmoms
{

Scheduler::Scheduler(const PartitionedGraph& pg, const GraphLayout& layout,
                     std::uint32_t qd_limit)
    : pg_(&pg), layout_(&layout),
      qd_(qd_limit == 0 ? pg.qd() : qd_limit),
      updated_(qd_limit == 0 ? pg.qd() : qd_limit, false)
{
    if (qd_ > pg.qd())
        panic("Scheduler: qd_limit exceeds the partition's qd");
    next_ = qd_;           // no iteration armed yet
    completed_ = qd_;
}

void
Scheduler::startIteration()
{
    if (!iterationDone())
        panic("startIteration while jobs are outstanding");
    next_ = 0;
    completed_ = 0;
    updated_.assign(qd_, false);
}

std::optional<Job>
Scheduler::pull()
{
    if (next_ >= qd_)
        return std::nullopt;
    const std::uint32_t d = next_++;
    Job job;
    job.d = d;
    job.base = pg_->dstIntervalBase(d);
    job.count = pg_->dstIntervalNodes(d);
    job.qs = pg_->qs();
    job.v_in_base = layout_->vInAddr(job.base);
    job.v_in_global = layout_->vInBase();
    job.v_out_base = layout_->vOutAddr(job.base);
    job.v_const_base =
        layout_->hasConst() ? layout_->vConstAddr(job.base) : 0;
    job.ptr_base = layout_->ptrAddr(0, d);
    return job;
}

void
Scheduler::complete(std::uint32_t d, bool updated)
{
    if (d >= qd_)
        panic("complete: bad interval index");
    updated_[d] = updated;
    ++completed_;
    if (completed_ > qd_)
        panic("more completions than jobs");
}

bool
Scheduler::anyUpdated() const
{
    for (bool u : updated_)
        if (u)
            return true;
    return false;
}

} // namespace gmoms
