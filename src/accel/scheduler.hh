/**
 * @file
 * Dynamic job scheduler (Section IV-B/IV-E).
 *
 * One job per destination interval per iteration. PEs pull jobs whenever
 * idle, which is what makes the paper's cache-line hashing sufficient
 * for load balance (no static PE assignment as in ForeGraph/FabGraph).
 */

#ifndef GMOMS_ACCEL_SCHEDULER_HH
#define GMOMS_ACCEL_SCHEDULER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "src/graph/layout.hh"
#include "src/graph/partition.hh"

namespace gmoms
{

/** Parameters handed to a PE with a job (Section IV-B). */
struct Job
{
    std::uint32_t d = 0;      //!< destination interval index
    NodeId base = 0;          //!< first node of the interval
    std::uint32_t count = 0;  //!< nodes in the interval
    std::uint32_t qs = 0;     //!< source intervals to scan
    Addr v_in_base = 0;       //!< V_DRAM,in base of this interval
    Addr v_in_global = 0;     //!< V_DRAM,in array base (source reads)
    Addr v_out_base = 0;      //!< V_DRAM,out base of this interval
    Addr v_const_base = 0;    //!< V_const base (0 when unused)
    Addr ptr_base = 0;        //!< first edge-pointer entry of the job
};

class Scheduler
{
  public:
    /**
     * @param qd_limit  Only the first qd_limit destination intervals
     *   become jobs (0 = all). Cluster boards pass their owned-interval
     *   count so the ghost tail of the local id space — sources only,
     *   never destinations — is neither initialized nor written back.
     */
    Scheduler(const PartitionedGraph& pg, const GraphLayout& layout,
              std::uint32_t qd_limit = 0);

    /** Arm a new iteration: every destination interval becomes a job.
     *  Job base addresses are re-derived from the (possibly swapped)
     *  layout. */
    void startIteration();

    /** Next unclaimed job, if any (PEs call this when idle). */
    std::optional<Job> pull();

    /** True while pull() would hand out a job (side-effect-free; used
     *  by idle PEs' quiescence checks). */
    bool hasJobs() const { return next_ < qd_; }

    /** PE completion callback with the interval's updated flag. */
    void complete(std::uint32_t d, bool updated);

    /** All jobs of the current iteration completed. */
    bool iterationDone() const { return completed_ == qd_; }

    /** Any interval updated during the current iteration. */
    bool anyUpdated() const;

    /** Per-destination-interval updated flags of the last iteration. */
    const std::vector<bool>& updatedFlags() const { return updated_; }

    /** Jobs completed per PE would be tracked by the caller; here we
     *  count total pulls for balance statistics. */
    std::uint32_t jobsPulled() const { return next_; }

    /** Destination intervals actually scheduled per iteration. */
    std::uint32_t numJobs() const { return qd_; }

  private:
    const PartitionedGraph* pg_;
    const GraphLayout* layout_;
    std::uint32_t qd_ = 0;         //!< intervals scheduled (<= pg qd)
    std::uint32_t next_ = 0;       //!< next interval to hand out
    std::uint32_t completed_ = 0;
    std::vector<bool> updated_;
};

} // namespace gmoms

#endif // GMOMS_ACCEL_SCHEDULER_HH
