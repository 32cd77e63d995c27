/**
 * @file
 * Top-level graph accelerator (Fig. 6): scheduler, PEs, MOMS and the
 * multi-channel DRAM system, driven through the Template 1 iteration
 * loop with active-shard tracking and synchronous array swapping.
 */

#ifndef GMOMS_ACCEL_ACCELERATOR_HH
#define GMOMS_ACCEL_ACCELERATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/accel/accel_config.hh"
#include "src/accel/pe.hh"
#include "src/accel/scheduler.hh"
#include "src/algo/spec.hh"
#include "src/cache/moms_system.hh"
#include "src/check/harness.hh"
#include "src/check/shadow_memory.hh"
#include "src/graph/layout.hh"
#include "src/graph/partition.hh"
#include "src/mem/memory_system.hh"
#include "src/sim/engine.hh"

namespace gmoms
{

/** Outcome of one accelerator run. */
struct RunResult
{
    Cycle cycles = 0;
    std::uint32_t iterations = 0;
    EdgeId edges_processed = 0;
    std::uint64_t dram_bytes_read = 0;
    std::uint64_t dram_bytes_written = 0;
    double moms_hit_rate = 0.0;
    std::uint64_t moms_requests = 0;
    std::uint64_t moms_secondary_misses = 0;
    std::uint64_t moms_lines_from_mem = 0;
    std::uint64_t pe_raw_stalls = 0;
    /** Final raw V_DRAM node values. */
    std::vector<std::uint32_t> raw_values;

    /** Telemetry summary; null unless AccelConfig::telemetry.enabled.
     *  Outlives the Accelerator (safe to export/print later). */
    std::shared_ptr<const TelemetrySummary> telemetry;

    /** Throughput in giga-traversed-edges/s at @p freq_mhz. */
    double
    gteps(double freq_mhz) const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(edges_processed) * freq_mhz /
               (static_cast<double>(cycles) * 1e3);
    }
};

class Accelerator
{
  public:
    /**
     * Assemble the full system for @p pg / @p spec. The partitioned
     * graph's interval sizes must match the config (they are taken
     * from @p pg).
     */
    Accelerator(const AccelConfig& cfg, const PartitionedGraph& pg,
                const AlgoSpec& spec);
    ~Accelerator();

    /** Execute until convergence or spec.max_iterations. */
    RunResult run();

    const Engine& engine() const { return engine_; }

    /** Attach (or detach, with nullptr) a host-time profile to the
     *  engine; see HostProfile. Results are unchanged. */
    void setHostProfile(HostProfile* profile)
    {
        engine_.setHostProfile(profile);
    }

    const MemorySystem& mem() const { return *mem_; }
    const MomsSystem& moms() const { return *moms_; }
    const std::vector<std::unique_ptr<Pe>>& pes() const { return pes_; }
    const GraphLayout& layout() const { return *layout_; }

    /** Mutable MOMS access for the hardening-layer regression tests
     *  (fault-hook attachment, direct MSHR pokes). */
    MomsSystem& momsForTest() { return *moms_; }

  private:
    /** Recompute per-shard active flags from the updated intervals
     *  (Template 1 lines 16-17 and 22). @return true if any source
     *  interval stays active. */
    bool updateActiveFlags();

    AccelConfig cfg_;
    const PartitionedGraph* pg_;
    AlgoSpec spec_;

    Engine engine_;
    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<MomsSystem> moms_;
    std::unique_ptr<GraphLayout> layout_;
    std::unique_ptr<Scheduler> sched_;
    std::vector<std::unique_ptr<Pe>> pes_;
    /** Hardening layer; both null unless cfg_.checks.enabled. */
    std::unique_ptr<ShadowMemory> shadow_;
    std::unique_ptr<CheckHarness> check_;
    /** Last member: destroyed first, while the components whose
     *  counters it references are still alive. */
    std::unique_ptr<Telemetry> tele_;
};

} // namespace gmoms

#endif // GMOMS_ACCEL_ACCELERATOR_HH
