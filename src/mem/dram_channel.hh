/**
 * @file
 * Timed model of one external-memory channel: a DDR4 channel behind
 * the AWS f1 shell, or an HBM2 pseudo-channel.
 *
 * The channel owns one (request, response) queue pair per attached
 * requester port. Each cycle it arbitrates round-robin among ports with a
 * pending request, charges bus occupancy (size / bus width + fixed
 * overhead + row-miss penalty) and schedules the completion after the
 * loaded latency. Bus service is serialized, which is what bounds the
 * channel's bandwidth.
 *
 * The two substrates share this model and differ only in timing
 * parameters (DramConfig) and in two places keyed on MemKind:
 *
 *  - HBM2 charges DramConfig::same_bank_gap_cycles when consecutive
 *    transactions hit the same bank (tCCD_L on the shared bank group)
 *    and counts it as `bank_gap_cycles`; DDR4 never does.
 *  - HBM2 registers telemetry per pseudo-channel under the channel's
 *    own name ("hbm.pc3"): with 16-32 narrow channels, which one is hot
 *    is the diagnosis. DDR4 aggregates under "dram".
 */

#ifndef GMOMS_MEM_DRAM_CHANNEL_HH
#define GMOMS_MEM_DRAM_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "src/mem/dram_config.hh"
#include "src/mem/mem_substrate.hh"
#include "src/mem/mem_types.hh"
#include "src/obs/telemetry.hh"
#include "src/sim/engine.hh"
#include "src/sim/occupancy_set.hh"
#include "src/sim/ring_deque.hh"
#include "src/sim/stats.hh"
#include "src/sim/timed_queue.hh"

namespace gmoms
{

class DramChannel : public Component
{
  public:
    /** Counters the accelerator's RunResult and the benches aggregate
     *  over. */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t bytes_read = 0;
        std::uint64_t bytes_written = 0;
        std::uint64_t row_hits = 0;
        std::uint64_t row_misses = 0;
        std::uint64_t busy_cycles = 0;  //!< cycles the data bus was busy
        /** Bus cycles lost to row activations (the stall-attribution
         *  view of row_misses: cycles, not transaction counts). */
        std::uint64_t row_miss_penalty_cycles = 0;
    };

    DramChannel(const Engine& engine, std::string name, MemKind kind,
                const DramConfig& cfg, std::uint32_t num_ports);

    /** Request queue for requester port @p port. */
    TimedQueue<MemReq>& reqPort(std::uint32_t port)
    {
        return req_ports_[port];
    }

    /** Response queue for requester port @p port. */
    TimedQueue<MemResp>& respPort(std::uint32_t port)
    {
        return resp_ports_[port];
    }

    std::uint32_t numPorts() const
    {
        return static_cast<std::uint32_t>(req_ports_.size());
    }

    void tick() override;

    /**
     * Quiescence: nothing happens between ticks except time passing —
     * the channel sleeps until the earliest of (a) the next in-flight
     * completion, (b) the bus freeing with a request pending. Request
     * arrivals and response-queue backpressure release are covered by
     * the queue wake hooks bound in the constructor.
     */
    Cycle nextActivity() const override;

    const Stats& stats() const { return stats_; }
    const DramConfig& config() const { return cfg_; }

    /** True when no request is queued or in flight. */
    bool idle() const;

    void registerStats(StatRegistry& reg) const;

    /** Attach stall channels, series and queue probes to @p tele
     *  (stall group "dram" on DDR4, the channel name on HBM2). */
    void registerTelemetry(Telemetry& tele);

  private:
    struct InFlight
    {
        MemResp resp;
        std::uint32_t port;
        Cycle complete_at;
    };

    /** Bus occupancy of @p req in cycles, including row-buffer and
     *  (HBM2) bank-group turnaround effects. */
    Cycle serviceCycles(const MemReq& req);

    const Engine& engine_;
    MemKind kind_;
    DramConfig cfg_;
    /** Same-bank turnaround charged per transaction: the configured
     *  gap on HBM2, 0 on DDR4. */
    std::uint32_t same_bank_gap_ = 0;
    std::vector<TimedQueue<MemReq>> req_ports_;
    std::vector<TimedQueue<MemResp>> resp_ports_;
    OccupancySet req_pending_;              //!< ports with a request
    std::vector<std::uint64_t> open_row_;   //!< open row per bank
    RingDeque<InFlight> in_flight_;         //!< completions in order
    Cycle bus_free_at_ = 0;
    std::uint32_t next_port_ = 0;           //!< round-robin pointer
    std::uint32_t last_bank_ = ~0u;         //!< bank of the previous txn
    Stats stats_;
    std::uint64_t bank_gap_cycles_ = 0;     //!< turnaround stall cycles
    mutable StatRegistry::Eraser stat_eraser_;
};

} // namespace gmoms

#endif // GMOMS_MEM_DRAM_CHANNEL_HH
