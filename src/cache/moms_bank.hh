/**
 * @file
 * One bank of a miss-optimized memory system (MOMS).
 *
 * A bank is a non-blocking read cache: an optional tag array, an MSHR
 * file (cuckoo-hashed for MOMS, fully associative for the traditional
 * baseline), and a subentry buffer.
 *
 * Timing model per cycle, following the paper's bank pipeline and its
 * documented contention points (Section V-E):
 *  - ONE input operation: a returning line from memory (priority) or
 *    one request — requests and responses compete for the pipeline;
 *  - the drain engine independently emits ONE pending subentry response
 *    per cycle;
 *  - a cache hit needs the response output port, so it stalls when the
 *    drain engine used it this cycle — the paper's "point of contention
 *    between hit and miss data from cache and subentry buffer
 *    respectively, just before the MOMS response output".
 */

#ifndef GMOMS_CACHE_MOMS_BANK_HH
#define GMOMS_CACHE_MOMS_BANK_HH

#include <cstdint>
#include <optional>
#include <utility>

#include "src/cache/cache_array.hh"
#include "src/cache/cache_types.hh"
#include "src/cache/mshr.hh"
#include "src/cache/subentry_store.hh"
#include "src/obs/telemetry.hh"
#include "src/sim/engine.hh"
#include "src/sim/ring_deque.hh"
#include "src/sim/stats.hh"
#include "src/sim/timed_queue.hh"

namespace gmoms
{

/** Downstream line-granular read interface of a bank. */
class LineDownstream
{
  public:
    virtual ~LineDownstream() = default;
    /** True when a line request would be accepted this cycle. */
    virtual bool canSend(Addr line) const = 0;
    /** Issue a line read; call only when canSend() returned true. */
    virtual void send(Addr line) = 0;
    /** Poll for a completed line. */
    virtual std::optional<Addr> receive() = 0;
    /**
     * Earliest cycle receive() may yield a line. Used by the bank's
     * quiescence check; implementations must report *in-flight* lines
     * (a token already pushed toward the bank but not yet poppable),
     * not just currently-deliverable ones — wake hooks only cover
     * pushes that happen while the bank is asleep, so an arrival the
     * bank learned of and then lost by ticking in between must be
     * re-reported here. The conservative default (always "now") keeps
     * hook-less implementations (test fakes) polled every cycle, which
     * is exactly the legacy behavior.
     */
    virtual Cycle lineReadyCycle() const { return 0; }
    /** Learn the owning bank, for wake-ups on line delivery. Overridden
     *  only by implementations that also override lineReadyCycle(). */
    virtual void bindUpstream(Component* bank) { (void)bank; }
};

/**
 * Default sizes follow the scaling rule of DESIGN.md section 5: cache
 * capacities shrink by the dataset scale (256 kB/bank -> 1 kB/bank) so
 * per-dataset cache coverage matches the paper, while MSHR/subentry
 * counts stay MLP-sized (they cover in-flight misses, which depend on
 * the bandwidth-delay product, not on the node-set size).
 */
struct MomsBankConfig
{
    std::uint64_t cache_bytes = 1024;  //!< 0 disables the array
    std::uint32_t cache_ways = 1;
    std::uint32_t num_mshrs = 1024;
    std::uint32_t mshr_tables = 4;     //!< cuckoo ways
    std::uint32_t max_kicks = 8;
    bool assoc_mshr = false;           //!< traditional fully-assoc file
    std::uint32_t num_subentries = 8192;
    /** Per-miss subentry cap; 0 = unlimited (MOMS), 8 = traditional. */
    std::uint32_t max_subentries_per_miss = 0;
    std::uint32_t req_queue_depth = 16;
    std::uint32_t resp_queue_depth = 16;
    Cycle req_latency = 1;   //!< input register stages
    Cycle resp_latency = 2;  //!< lookup + output register stages
};

class MomsBank : public Component
{
  public:
    struct Stats
    {
        std::uint64_t requests = 0;
        std::uint64_t hits = 0;
        std::uint64_t primary_misses = 0;
        std::uint64_t secondary_misses = 0;
        std::uint64_t responses = 0;
        std::uint64_t lines_from_mem = 0;
        std::uint64_t stall_mshr = 0;        //!< cuckoo/capacity stalls
        std::uint64_t stall_subentry = 0;    //!< pool or per-miss cap
        std::uint64_t stall_downstream = 0;  //!< mem request port full
        std::uint64_t stall_resp_out = 0;    //!< response queue full
        std::uint64_t drain_busy = 0;        //!< cycles spent draining
    };

    MomsBank(const Engine& engine, std::string name,
             const MomsBankConfig& cfg);

    /** Attach the memory side; must be called before the first tick. */
    void
    connectDownstream(LineDownstream* down)
    {
        down_ = down;
        down->bindUpstream(this);
    }

    TimedQueue<ReadReq>& cpuReqIn() { return cpu_req_in_; }
    TimedQueue<ReadResp>& cpuRespOut() { return cpu_resp_out_; }
    const TimedQueue<ReadReq>& cpuReqIn() const { return cpu_req_in_; }
    const TimedQueue<ReadResp>& cpuRespOut() const
    {
        return cpu_resp_out_;
    }

    void tick() override;

    /**
     * Quiescence: the bank must stay active whenever any per-cycle
     * work or stall accounting could occur — draining, a retried
     * request, a poppable input, or outstanding misses with a
     * downstream that may deliver a line. Otherwise it sleeps until a
     * queue hook or the downstream's bindUpstream() wake fires.
     */
    Cycle nextActivity() const override;

    /** Drop all cached lines (iteration boundary). */
    void invalidateCache() { cache_.invalidateAll(); }

    /** True when no request is buffered, pending or draining. */
    bool idle() const;

    const Stats& stats() const { return stats_; }
    const CacheArray& cache() const { return cache_; }
    const MshrFile& mshrs() const { return mshrs_; }
    const SubentryStore& subentries() const { return subentries_; }
    const MomsBankConfig& config() const { return cfg_; }

    /** Mutable MSHR file, for the hardening-layer regression tests
     *  (leak injection: insert() an entry nobody will ever free). */
    MshrFile& mshrsForTest() { return mshrs_; }

    void registerStats(StatRegistry& reg) const;

    /**
     * Attach this bank's stall channels, series and queue probes to
     * @p tele under stall group @p group. The semantic meaning of a
     * full downstream differs per topology (DRAM port vs die-crossing
     * queue), so the owner supplies @p downstream_cause.
     */
    void registerTelemetry(Telemetry& tele, const std::string& group,
                           StallCause downstream_cause);

  private:
    /** Handle one request; returns false if it must be retried. */
    bool processRequest(const ReadReq& req);

    const Engine& engine_;
    MomsBankConfig cfg_;
    CacheArray cache_;
    MshrFile mshrs_;
    SubentryStore subentries_;
    LineDownstream* down_ = nullptr;

    TimedQueue<ReadReq> cpu_req_in_;
    TimedQueue<ReadResp> cpu_resp_out_;

    std::optional<ReadReq> retry_;      //!< stalled request register
    /** Lines whose subentry list awaits draining (line, head index). */
    RingDeque<std::pair<Addr, std::uint32_t>> drain_pending_;
    Addr drain_line_ = 0;               //!< line being drained
    std::uint32_t drain_cursor_ = kNoSubentry;
    bool resp_port_used_ = false;       //!< drain claimed the output

    Stats stats_;
    mutable StatRegistry::Eraser stat_eraser_;
};

} // namespace gmoms

#endif // GMOMS_CACHE_MOMS_BANK_HH
