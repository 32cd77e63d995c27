#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "perfbench/bench.hh"
#include "src/accel/accel_config.hh"
#include "src/cache/trace_harness.hh"
#include "src/mem/memory_system.hh"
#include "src/sim/report.hh"
#include "src/sim/rng.hh"

namespace perfbench
{

void
Oracle::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (failed_ <= 8)
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void
Oracle::checksum(std::uint64_t got, std::uint64_t want,
                 const std::string& what)
{
    if (corrupt_) {
        corrupt_ = false;
        got ^= 1;
    }
    check(got == want, what + " (checksum " + std::to_string(got) +
                           ", expected " + std::to_string(want) + ")");
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[idx - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned
hostCpus()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

namespace
{

/** Host ns per random 64 B read through the memory-system interface,
 *  median of five passes of @p reads reads each. */
double
randomReadNs(const gmoms::MemSubstrateConfig& substrate,
             std::uint64_t reads)
{
    using namespace gmoms;
    std::vector<double> ns;
    for (int pass = 0; pass < 5; ++pass) {
        Engine engine;
        MemorySystem mem(engine, substrate, /*num_ports=*/1);
        mem.store().resize(16ull << 20);
        MemPort port = mem.port(0);
        Rng rng(11 + static_cast<std::uint64_t>(pass));
        std::uint64_t sent = 0, received = 0;
        WallTimer timer;
        engine.runUntil(
            [&] {
                while (sent < reads &&
                       port.send(MemReq{rng.below(1ull << 18) * 64, 64,
                                        sent, false}))
                    ++sent;
                while (port.receive())
                    ++received;
                return received == reads;
            },
            Cycle{1} << 32);
        if (received != reads)
            throw std::runtime_error("memory probe lost reads");
        ns.push_back(timer.elapsedSeconds() * 1e9 /
                     static_cast<double>(reads));
    }
    return median(ns);
}

} // namespace

void
memoryProbes(Metrics& m)
{
    m.add("mem.host_ns_per_access.ddr4",
          randomReadNs(gmoms::MemSubstrateConfig::ddr4(4), 40'000), "ns");
    m.add("mem.host_ns_per_access.hbm",
          randomReadNs(gmoms::MemSubstrateConfig::hbm2(16), 40'000), "ns");
}

void
momsProbe(Metrics& m, bool hbm_org)
{
    using namespace gmoms;
    const AccelConfig cfg = hbm_org ? AccelConfig::hbmTwoLevel()
                                    : AccelConfig::paper18x16TwoLevel();
    TraceConfig tc;
    tc.num_clients = 8;
    tc.num_channels = 4;
    tc.requests_per_client = 10'000;
    tc.footprint_words = 1 << 20;
    std::vector<double> ns;
    for (int pass = 0; pass < 3; ++pass) {
        tc.seed = 1 + static_cast<std::uint64_t>(pass);
        WallTimer timer;
        const TraceResult r = replayTrace(
            cfg.moms, tc, patterns::zipf(tc.footprint_words, 0.8));
        ns.push_back(timer.elapsedSeconds() * 1e9 /
                     static_cast<double>(std::max<std::uint64_t>(
                         r.requests, 1)));
    }
    m.add("moms.host_ns_per_request", median(ns), "ns");
}

} // namespace perfbench
