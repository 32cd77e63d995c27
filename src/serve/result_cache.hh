/**
 * @file
 * Deterministic result cache for the serving layer (ISSUE 9 tentpole):
 * most real graph-query traffic repeats (same dataset, same algorithm,
 * same source), and every simulation here is deterministic, so a repeat
 * query need not simulate at all — the same way MOMS converts repeat
 * misses into merged subentries in the source paper, the result cache
 * converts repeat jobs into O(1) lookups.
 *
 * Key: `dataset|prep|algo|source|iterations|configFingerprint` — every
 * input that can change the result summary. configFingerprint()
 * (src/accel/checkpoint.hh) covers the resolved AccelConfig including
 * cluster topology, and deliberately *ignores* the bit-exact engine
 * mode knob (full_tick_engine): a result cached under one engine
 * mode is valid under the other because the engine-equivalence tests
 * pin them bit-identical. The cached value is the full JobRecord result
 * summary (cycles, edges, DRAM bytes, gteps, values_checksum, replay
 * descriptor), so a hit answers poll() exactly as the cold run did.
 *
 * Caching policy (enforced by the service, documented here):
 *  - only JobState::Completed results are inserted — a Degraded run
 *    executed the fallback config, not the keyed one, and a Failed run
 *    has no result;
 *  - a job is looked up at submit and, if it missed and queued, again
 *    when a worker dispatches it. A repeat hits once its first
 *    instance has *finished*: live repeat traffic hits at submit, and
 *    in a batch-mode burst of one spec only the copies dispatched
 *    before the first one finished simulate. A dispatch-time hit
 *    counts as a hit and takes back the miss its submit counted, so
 *    hits + misses is the number of jobs looked up.
 *
 * This is the serving layer's only result memo. Each job that does
 * simulate builds its own Session and prepared views; that costs
 * 0.2-1.9% of the simulation that follows, so sessions are not pooled.
 *
 * Byte-budgeted LRU like the DatasetCache: entries are tiny (a key
 * string + a fixed summary), the budget exists so a long-lived service
 * with unbounded key cardinality cannot grow without bound. The entry
 * just inserted or hit is never the next eviction victim. Thread-compat
 * like AdmissionQueue: externally synchronized by the service mutex.
 */

#ifndef GMOMS_SERVE_RESULT_CACHE_HH
#define GMOMS_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/serve/job.hh"

namespace gmoms::serve
{

class ResultCache
{
  public:
    /** The cached summary: every result field of JobRecord plus the
     *  replay descriptor of the run that produced it. */
    struct Entry
    {
        Cycle cycles = 0;
        std::uint32_t iterations = 0;
        EdgeId edges_processed = 0;
        std::uint64_t dram_bytes_read = 0;
        std::uint64_t dram_bytes_written = 0;
        double moms_hit_rate = 0;
        double gteps = 0;
        std::uint64_t values_checksum = 0;
        std::string replay;
    };

    /** @param budget_bytes byte ceiling; 0 = unbounded. */
    explicit ResultCache(std::uint64_t budget_bytes)
        : budget_(budget_bytes)
    {
    }

    /** The canonical cache key (documented in docs/MODEL.md). @p spec
     *  must be valid; @p fingerprint is configFingerprint() of the
     *  *resolved* config (ValidatedJob::config). */
    static std::string keyFor(const JobSpec& spec,
                              std::uint64_t fingerprint);

    /** Lookup + LRU touch. A hit counts as a hit and a miss as a
     *  miss — unless @p recheck: a re-check of a key whose miss was
     *  already counted counts no second miss, and a hit takes that
     *  earlier miss back, so every job counts exactly once. */
    std::optional<Entry> get(const std::string& key,
                             bool recheck = false);

    /** Insert (or refresh) @p key, then evict LRU entries over budget
     *  (never the one just inserted). Deterministic repeat runs always
     *  produce the same entry, so refreshing is idempotent. */
    void put(const std::string& key, const Entry& entry);

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::uint64_t entries = 0;
        std::uint64_t bytes = 0;
        std::uint64_t budget_bytes = 0;

        double
        hitRate() const
        {
            const std::uint64_t total = hits + misses;
            return total > 0
                       ? static_cast<double>(hits) /
                             static_cast<double>(total)
                       : 0.0;
        }
    };

    Stats stats() const;

  private:
    struct Slot
    {
        Entry entry;
        std::uint64_t bytes = 0;
        std::uint64_t last_use = 0;
    };

    static std::uint64_t slotBytes(const std::string& key,
                                   const Entry& e);
    void evictOverBudget(const std::string& keep_key);

    const std::uint64_t budget_;
    std::map<std::string, Slot> entries_;
    std::uint64_t bytes_ = 0;
    std::uint64_t use_clock_ = 0;
    Stats stats_;
};

} // namespace gmoms::serve

#endif // GMOMS_SERVE_RESULT_CACHE_HH
