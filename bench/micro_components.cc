/**
 * @file
 * Component microbenchmarks (google-benchmark): cuckoo MSHR file,
 * subentry store, cache array, DRAM channel model, partitioner and
 * reordering passes. These quantify simulator costs and document the
 * asymptotic behaviour of each substrate.
 */

#include <benchmark/benchmark.h>

#include "src/cache/cache_array.hh"
#include "src/cache/mshr.hh"
#include "src/cache/subentry_store.hh"
#include "src/graph/generator.hh"
#include "src/graph/partition.hh"
#include "src/graph/reorder.hh"
#include "src/mem/memory_system.hh"
#include "src/sim/rng.hh"

namespace gmoms
{
namespace
{

void
BM_CuckooMshrInsertFindErase(benchmark::State& state)
{
    const std::uint32_t capacity =
        static_cast<std::uint32_t>(state.range(0));
    MshrFile file = MshrFile::cuckoo(capacity, 4, 8);
    Rng rng(1);
    std::vector<Addr> lines;
    for (std::uint32_t i = 0; i < capacity / 2; ++i)
        lines.push_back(rng.below(1 << 24) * kLineBytes);
    for (auto _ : state) {
        for (Addr line : lines)
            if (!file.find(line))
                benchmark::DoNotOptimize(file.insert(line));
        for (Addr line : lines)
            if (file.find(line))
                file.erase(line);
    }
    state.SetItemsProcessed(state.iterations() * lines.size() * 2);
}
BENCHMARK(BM_CuckooMshrInsertFindErase)->Arg(1024)->Arg(8192);

void
BM_AssocMshrFind(benchmark::State& state)
{
    MshrFile file = MshrFile::associative(16);
    for (Addr i = 0; i < 16; ++i)
        file.insert(i * kLineBytes);
    Addr probe = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(file.find(probe * kLineBytes));
        probe = (probe + 1) % 32;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AssocMshrFind);

void
BM_SubentryAppendDrain(benchmark::State& state)
{
    SubentryStore store(8192);
    for (auto _ : state) {
        MshrEntry entry;
        for (std::uint64_t i = 0; i < 64; ++i)
            store.append(entry, i, 0, 0);
        std::uint32_t cursor = store.head(entry);
        while (cursor != kNoSubentry)
            cursor = store.free(cursor);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SubentryAppendDrain);

void
BM_CacheArrayLookup(benchmark::State& state)
{
    CacheArray cache(256 * 1024, 4);
    Rng rng(3);
    for (int i = 0; i < 4096; ++i)
        cache.fill(rng.below(1 << 20) * kLineBytes);
    Rng probe(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.lookup(probe.below(1 << 20) * kLineBytes));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayLookup);

void
BM_DramChannelRandomReads(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Engine eng;
        DramConfig cfg;
        MemorySystem mem(eng, cfg, 1, 1);
        mem.store().resize(1 << 22);
        MemPort port = mem.port(0);
        Rng rng(7);
        state.ResumeTiming();
        int sent = 0, recvd = 0;
        const int total = 2000;
        eng.runUntil(
            [&] {
                while (sent < total &&
                       port.send(MemReq{rng.below(1 << 16) * 64, 64,
                                        0, false}))
                    ++sent;
                while (port.receive())
                    ++recvd;
                return recvd == total;
            },
            1 << 22);
        benchmark::DoNotOptimize(recvd);
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_DramChannelRandomReads);

void
BM_Partition(benchmark::State& state)
{
    CooGraph g = rmat(16, 500000, RmatParams{}, 5);
    for (auto _ : state) {
        PartitionedGraph pg(g, 512, 1024);
        benchmark::DoNotOptimize(pg.numEdges());
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges());
}
BENCHMARK(BM_Partition);

void
BM_DbgReorder(benchmark::State& state)
{
    CooGraph g = rmat(16, 500000, RmatParams{}, 5);
    for (auto _ : state) {
        auto perm = dbgReorder(g);
        benchmark::DoNotOptimize(perm.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numNodes());
}
BENCHMARK(BM_DbgReorder);

void
BM_HashCacheLines(benchmark::State& state)
{
    for (auto _ : state) {
        auto perm = hashCacheLines(1 << 20, 2048);
        benchmark::DoNotOptimize(perm.data());
    }
    state.SetItemsProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_HashCacheLines);

} // namespace
} // namespace gmoms

BENCHMARK_MAIN();
