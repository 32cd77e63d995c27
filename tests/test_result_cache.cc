/**
 * @file
 * Tests for the deterministic result cache (src/serve/result_cache.hh)
 * and its wiring into GraphService: hits return the bit-identical
 * values_checksum of the cold run across the engine-mode x tick-threads
 * matrix (configFingerprint deliberately ignores both knobs), eviction
 * under a tiny budget rebuilds correctly, distinct config fingerprints
 * never collide, cluster (boards > 1) jobs cache correctly, Degraded
 * results are never cached, and a queued repeat whose twin finished
 * first replays at dispatch instead of simulating.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/accel/checkpoint.hh"
#include "src/serve/result_cache.hh"
#include "src/serve/service.hh"

namespace gmoms::serve
{
namespace
{

AccelConfig
tinyConfig()
{
    return AccelConfig::preset(MomsConfig::twoLevel(4), 4, 2);
}

JobSpec
tinyJob(const std::string& tenant, const std::string& algo,
        std::uint32_t priority = 0)
{
    JobSpec spec;
    spec.tenant = tenant;
    spec.dataset = "WT";
    spec.algo = algo;
    spec.iterations = 2;
    spec.config = tinyConfig();
    spec.priority = priority;
    return spec;
}

ResultCache::Entry
entryWithChecksum(std::uint64_t checksum)
{
    ResultCache::Entry e;
    e.cycles = 100;
    e.values_checksum = checksum;
    return e;
}

/** Cold-run a spec on a cache-less service: the checksum oracle. */
std::uint64_t
coldChecksum(const JobSpec& spec)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.enable_result_cache = false;
    GraphService service(cfg);
    const auto sub = service.submit(spec);
    EXPECT_TRUE(sub.ok());
    service.drain();
    const auto rec = service.poll(sub.id);
    EXPECT_TRUE(rec.has_value());
    EXPECT_EQ(rec->state, JobState::Completed);
    return rec->values_checksum;
}

// ---------------------------------------------------------------------
// Unit tests on the cache itself
// ---------------------------------------------------------------------

TEST(ResultCacheKey, CanonicalizesDefaultIterations)
{
    JobSpec implicit = tinyJob("a", "PageRank");
    implicit.iterations = 0;  // "algorithm default"
    JobSpec explicit_cap = tinyJob("a", "PageRank");
    explicit_cap.iterations = 10;  // PageRank's default, spelled out
    EXPECT_EQ(ResultCache::keyFor(implicit, 1),
              ResultCache::keyFor(explicit_cap, 1));

    JobSpec bfs = tinyJob("a", "BFS");
    bfs.iterations = 0;
    JobSpec bfs_cap = tinyJob("a", "BFS");
    bfs_cap.iterations = 1000;  // convergence-kernel default
    EXPECT_EQ(ResultCache::keyFor(bfs, 1),
              ResultCache::keyFor(bfs_cap, 1));
}

TEST(ResultCacheKey, SeparatesEveryInput)
{
    const JobSpec base = tinyJob("a", "BFS");
    const std::string key = ResultCache::keyFor(base, 7);

    JobSpec other = base;
    other.source = 5;
    EXPECT_NE(ResultCache::keyFor(other, 7), key);

    other = base;
    other.algo = "SSSP";
    EXPECT_NE(ResultCache::keyFor(other, 7), key);

    other = base;
    other.prep = Preprocessing::Hash;
    EXPECT_NE(ResultCache::keyFor(other, 7), key);

    other = base;
    other.iterations = 3;
    EXPECT_NE(ResultCache::keyFor(other, 7), key);

    // Same spec, different resolved-config fingerprint: never collide.
    EXPECT_NE(ResultCache::keyFor(base, 8), key);

    // Tenant is deliberately NOT part of the key: results are tenant-
    // agnostic (the simulation has no tenant input), so tenants share.
    other = base;
    other.tenant = "b";
    EXPECT_EQ(ResultCache::keyFor(other, 7), key);
}

TEST(ResultCacheUnit, MissThenHitAndStats)
{
    ResultCache cache(0);  // unbounded
    EXPECT_FALSE(cache.get("k1").has_value());
    cache.put("k1", entryWithChecksum(42));
    const auto hit = cache.get("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->values_checksum, 42u);
    EXPECT_EQ(hit->cycles, 100u);

    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, 0u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

TEST(ResultCacheUnit, EvictsLruNeverTheJustInserted)
{
    // Budget fits roughly one entry: every insert evicts the LRU
    // survivor, never the entry being inserted.
    ResultCache probe(0);
    probe.put("k0", entryWithChecksum(0));
    const std::uint64_t one_entry = probe.stats().bytes;

    ResultCache cache(one_entry + one_entry / 2);
    cache.put("k1", entryWithChecksum(1));
    cache.put("k2", entryWithChecksum(2));  // evicts k1 (LRU)
    EXPECT_FALSE(cache.get("k1").has_value());
    ASSERT_TRUE(cache.get("k2").has_value());

    cache.put("k3", entryWithChecksum(3));  // evicts k2
    const auto k3 = cache.get("k3");
    ASSERT_TRUE(k3.has_value());
    EXPECT_EQ(k3->values_checksum, 3u);
    EXPECT_GE(cache.stats().evictions, 2u);
    EXPECT_LE(cache.stats().entries, 2u);
}

TEST(ResultCacheUnit, RefreshIsIdempotent)
{
    ResultCache cache(0);
    cache.put("k", entryWithChecksum(9));
    cache.put("k", entryWithChecksum(9));
    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.insertions, 2u);
    EXPECT_EQ(cache.get("k")->values_checksum, 9u);
}

// ---------------------------------------------------------------------
// Service integration: the bit-exactness contract
// ---------------------------------------------------------------------

TEST(ServiceResultCache, HitsAcrossEngineModeAndTickThreads)
{
    // configFingerprint() deliberately ignores full_tick_engine (pinned
    // bit-identical by the engine-equivalence tests), so one cold run
    // must serve repeats under either engine mode.
    const std::uint64_t golden = coldChecksum(tinyJob("a", "PageRank"));

    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);

    // Cold run under the default idle-aware engine.
    const auto cold = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold.from_cache);
    service.drain();

    const bool full_tick[] = {false, true, true, false};
    for (int i = 0; i < 4; ++i) {
        JobSpec spec = tinyJob("a", "PageRank");
        spec.config->full_tick_engine = full_tick[i];
        const auto sub = service.submit(spec);
        ASSERT_TRUE(sub.ok());
        EXPECT_TRUE(sub.from_cache) << "full_tick=" << full_tick[i];
        const auto rec = service.poll(sub.id);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->state, JobState::Completed);
        EXPECT_TRUE(rec->from_cache);
        EXPECT_EQ(rec->values_checksum, golden);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.result_cache.hits, 4u);
    EXPECT_EQ(stats.result_cache_completed, 4u);
    EXPECT_EQ(stats.completed, 5u);
    EXPECT_EQ(stats.submitted,
              stats.rejected + stats.completed + stats.degraded +
                  stats.failed);
}

TEST(ServiceResultCache, HitCopiesTheWholeResultSummary)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    const auto cold = service.submit(tinyJob("a", "BFS"));
    ASSERT_TRUE(cold.ok());
    service.drain();
    const auto cold_rec = service.poll(cold.id);
    ASSERT_TRUE(cold_rec.has_value());

    const auto hit = service.submit(tinyJob("b", "BFS"));
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.from_cache);
    const auto rec = service.poll(hit.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->cycles, cold_rec->cycles);
    EXPECT_EQ(rec->iterations, cold_rec->iterations);
    EXPECT_EQ(rec->edges_processed, cold_rec->edges_processed);
    EXPECT_EQ(rec->dram_bytes_read, cold_rec->dram_bytes_read);
    EXPECT_EQ(rec->dram_bytes_written, cold_rec->dram_bytes_written);
    EXPECT_EQ(rec->values_checksum, cold_rec->values_checksum);
    EXPECT_EQ(rec->replay, cold_rec->replay);
    // The hit appears in the completion log like any terminal job.
    const auto log = service.completionLog();
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.back(), hit.id);
}

TEST(ServiceResultCache, EvictionRebuildsCorrectly)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.result_cache_budget_bytes = 1;  // at most one entry survives
    GraphService service(cfg);

    const auto first = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(first.ok());
    service.drain();
    const std::uint64_t golden =
        service.poll(first.id)->values_checksum;

    // The BFS insertion blows the 1-byte budget and evicts the LRU
    // survivor — the PageRank entry (sequential drains make the
    // insertion order deterministic).
    const auto other = service.submit(tinyJob("a", "BFS"));
    ASSERT_TRUE(other.ok());
    service.drain();

    // The evicted repeat re-simulates and lands on the same checksum.
    const auto again = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.from_cache);
    service.drain();
    EXPECT_EQ(service.poll(again.id)->values_checksum, golden);
    EXPECT_GE(service.stats().result_cache.evictions, 1u);
}

TEST(ServiceResultCache, DifferentFingerprintsNeverCollide)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    const auto base = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(base.ok());
    service.drain();

    // A cycle budget folds into the resolved config's max_cycles, so
    // the fingerprint — and the key — differ: no hit.
    JobSpec budgeted = tinyJob("a", "PageRank");
    budgeted.cycle_budget = 1u << 24;  // generous: still completes
    const auto sub = service.submit(budgeted);
    ASSERT_TRUE(sub.ok());
    EXPECT_FALSE(sub.from_cache);
    service.drain();
    EXPECT_EQ(service.poll(sub.id)->state, JobState::Completed);

    // A genuinely different accelerator config (1 memory channel
    // instead of 2 — note the "degraded" preset IS tinyConfig(), so a
    // preset spelling of the same config would rightly hit) likewise
    // keys its own entry.
    JobSpec narrower = tinyJob("a", "PageRank");
    narrower.config = AccelConfig::preset(MomsConfig::twoLevel(4), 4, 1);
    const auto sub2 = service.submit(narrower);
    ASSERT_TRUE(sub2.ok());
    EXPECT_FALSE(sub2.from_cache);
    service.drain();
    EXPECT_EQ(service.stats().result_cache.hits, 0u);
}

TEST(ServiceResultCache, ClusterJobsCacheCorrectly)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);

    // BFS run to its fixpoint: the fixpoint of an integer kernel is
    // unique, so the cluster checksum equals the single-board one.
    // (A truncating iteration cap or PageRank's MOMS-arrival-order f32
    // sums would legitimately differ per board topology — and that is
    // fine, because the config fingerprint keys them separately.)
    JobSpec cluster = tinyJob("a", "BFS");
    cluster.iterations = 0;  // algorithm default: run to the fixpoint
    cluster.boards = 2;
    const auto cold = service.submit(cluster);
    ASSERT_TRUE(cold.ok());
    service.drain();
    const auto cold_rec = service.poll(cold.id);
    ASSERT_TRUE(cold_rec.has_value());
    EXPECT_EQ(cold_rec->state, JobState::Completed);

    const auto hit = service.submit(cluster);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.from_cache);
    EXPECT_EQ(service.poll(hit.id)->values_checksum,
              cold_rec->values_checksum);

    // Cluster determinism contract: boards=2 computes the same values
    // as boards=1, so the cached cluster checksum equals the
    // single-board cold run.
    JobSpec single = tinyJob("a", "BFS");
    single.iterations = 0;
    EXPECT_EQ(cold_rec->values_checksum, coldChecksum(single));
}

TEST(ServiceResultCache, DegradedResultsAreNeverCached)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);

    JobSpec doomed = tinyJob("a", "PageRank");
    doomed.cycle_budget = 2000;  // far below what the run needs
    doomed.max_retries = 0;
    const auto first = service.submit(doomed);
    ASSERT_TRUE(first.ok());
    service.drain();
    ASSERT_EQ(service.poll(first.id)->state, JobState::Degraded);

    // The fallback ran a different config than the keyed one: the
    // repeat must simulate again, not hit.
    const auto again = service.submit(doomed);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.from_cache);
    service.drain();
    EXPECT_EQ(service.stats().result_cache.hits, 0u);
    EXPECT_EQ(service.stats().result_cache.insertions, 0u);
}

TEST(ServiceResultCache, QueuedRepeatsReplayAtDispatch)
{
    ServiceConfig cold_cfg;
    cold_cfg.workers = 1;
    cold_cfg.enable_result_cache = false;
    GraphService cold(cold_cfg);
    const JobId ref = cold.submit(tinyJob("t", "PageRank")).id;
    cold.drain();
    const JobRecord want = *cold.poll(ref);

    // One worker, paused: all three queue before anything runs, then
    // dispatch one at a time, so the first simulates and the other two
    // find its result when they are popped.
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.start_paused = true;
    GraphService service(cfg);
    std::vector<JobId> ids;
    for (int i = 0; i < 3; ++i) {
        const auto sub = service.submit(tinyJob("t", "PageRank"));
        ASSERT_TRUE(sub.ok());
        EXPECT_FALSE(sub.from_cache);
        ids.push_back(sub.id);
    }
    service.drain();

    for (std::size_t i = 0; i < ids.size(); ++i) {
        const JobRecord rec = *service.poll(ids[i]);
        EXPECT_EQ(rec.state, JobState::Completed);
        EXPECT_EQ(rec.from_cache, i > 0) << "job " << i;
        EXPECT_EQ(rec.attempts, i > 0 ? 0u : 1u) << "job " << i;
        EXPECT_EQ(rec.cycles, want.cycles);
        EXPECT_EQ(rec.values_checksum, want.values_checksum);
        EXPECT_TRUE(ReplayDescriptor::parse(rec.replay).has_value());
        if (i > 0) {
            EXPECT_EQ(rec.prep_seconds, 0.0);
            EXPECT_EQ(rec.sim_seconds, 0.0);
        }
    }
    EXPECT_EQ(service.completionLog(), ids);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.result_cache_completed, 2u);
    EXPECT_EQ(stats.result_cache.hits, 2u);
    // Each job counts once: the simulated one as a miss, each
    // dispatch-time replay as a hit that took back its submit miss.
    EXPECT_EQ(stats.result_cache.misses, 1u);
    EXPECT_EQ(stats.result_cache.insertions, 1u);
    // Only the simulated job built (and fetched) the dataset.
    EXPECT_EQ(stats.cache.misses + stats.cache.hits, 1u);
}

TEST(ServiceResultCache, BatchBurstReplaysOnlyAfterATwinFinished)
{
    // Lookups happen at submit and at dispatch. In paused (batch) mode
    // nothing has finished when the duplicates arrive, so no submit
    // hits; the two jobs the two workers dispatch together both
    // simulate, and the third, popped once one of them finished,
    // replays.
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.start_paused = true;
    GraphService service(cfg);
    const auto a = service.submit(tinyJob("a", "PageRank"));
    const auto b = service.submit(tinyJob("a", "PageRank"));
    const auto c = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_FALSE(a.from_cache || b.from_cache || c.from_cache);
    service.drain();

    EXPECT_FALSE(service.poll(a.id)->from_cache);
    EXPECT_FALSE(service.poll(b.id)->from_cache);
    EXPECT_TRUE(service.poll(c.id)->from_cache);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.result_cache.hits, 1u);
    EXPECT_EQ(stats.result_cache.misses, 2u);
    EXPECT_EQ(stats.result_cache_completed, 1u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(service.poll(a.id)->values_checksum,
              service.poll(c.id)->values_checksum);
    EXPECT_EQ(service.poll(b.id)->values_checksum,
              service.poll(c.id)->values_checksum);

    // After the batch finished, a live repeat hits at submit.
    const auto live = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(live.ok());
    EXPECT_TRUE(live.from_cache);
}

TEST(ServiceResultCache, DisabledCacheNeverHits)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.enable_result_cache = false;
    GraphService service(cfg);
    EXPECT_EQ(service.resultCache(), nullptr);
    const auto a = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(a.ok());
    service.drain();
    const auto b = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(b.ok());
    EXPECT_FALSE(b.from_cache);
    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.result_cache.hits, 0u);
    EXPECT_EQ(stats.result_cache.misses, 0u);
    EXPECT_EQ(stats.result_cache_completed, 0u);
}

} // namespace
} // namespace gmoms::serve
