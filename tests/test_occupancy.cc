/**
 * @file
 * Occupancy-indexed polling: the bit a TimedQueue keeps for its
 * consumer, the rotation walk over those bits, and MemPort's response
 * polling, each checked against the full scan it replaces. Also the
 * 16-bit subentry client cap and the host-profile kind names.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/accel/accel_config.hh"
#include "src/mem/memory_system.hh"
#include "src/sim/engine.hh"
#include "src/sim/host_profile.hh"
#include "src/sim/occupancy_set.hh"
#include "src/sim/rng.hh"
#include "src/sim/timed_queue.hh"

namespace gmoms
{
namespace
{

TEST(TimedQueueOccupancy, BitTracksNonEmptyAcrossRandomSequences)
{
    Engine eng;
    // Two queues share one word, so a bit flip must leave the
    // neighbour's bit alone; capacity 5 makes the ring wrap often.
    TimedQueue<int> a(eng, 5, 1);
    TimedQueue<int> b(eng, 3, 2);
    std::uint64_t word = 0;
    a.trackOccupancy(&word, std::uint64_t{1} << 0);
    b.trackOccupancy(&word, std::uint64_t{1} << 63);
    Rng rng(17);
    for (int step = 0; step < 20000; ++step) {
        for (TimedQueue<int>* q : {&a, &b}) {
            switch (rng.below(4)) {
              case 0:
              case 1:
                q->push(step);  // may be rejected when full
                break;
              case 2:
                if (q->canPop())
                    q->pop();
                break;
              default:
                break;
            }
        }
        ASSERT_EQ((word & 1) != 0, !a.empty()) << "step " << step;
        ASSERT_EQ((word >> 63) != 0, !b.empty()) << "step " << step;
        ASSERT_EQ(word & ~(std::uint64_t{1} | std::uint64_t{1} << 63), 0u);
        if (rng.below(3) == 0)
            eng.tick();
    }
}

TEST(TimedQueueOccupancy, TrackingANonEmptyQueueSetsItsBit)
{
    Engine eng;
    TimedQueue<int> q(eng, 4, 1);
    q.push(1);
    std::uint64_t word = ~std::uint64_t{0};
    q.trackOccupancy(&word, 2);
    EXPECT_EQ(word, ~std::uint64_t{0});
    eng.tick();
    q.pop();
    EXPECT_EQ(word, ~std::uint64_t{2});
}

TEST(OccupancySet, RotationWalkMatchesReferenceScan)
{
    Rng rng(5);
    for (std::size_t n : {1u, 5u, 63u, 64u, 65u, 130u}) {
        std::vector<TimedQueue<int>> queues;
        Engine eng;
        queues.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            queues.emplace_back(eng, 2, 1);
        OccupancySet set(n);
        for (std::size_t i = 0; i < n; ++i)
            set.track(queues[i], i);
        for (int trial = 0; trial < 200; ++trial) {
            for (auto& q : queues)
                if (rng.below(3) == 0 && q.canPush())
                    q.push(0);
            eng.tick();
            for (auto& q : queues)
                if (q.canPop() && rng.below(2) == 0)
                    q.pop();
            const std::size_t start = rng.below(n);
            std::vector<std::size_t> want;
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = (start + k) % n;
                if (!queues[i].empty())
                    want.push_back(i);
            }
            std::vector<std::size_t> got;
            set.forEachFrom(start, [&](std::size_t i) {
                got.push_back(i);
                return false;
            });
            ASSERT_EQ(got, want) << "n=" << n << " start=" << start;
            EXPECT_EQ(set.none(), want.empty());

            // Early stop after the first visited bit.
            std::vector<std::size_t> first;
            set.forEachFrom(start, [&](std::size_t i) {
                first.push_back(i);
                return true;
            });
            EXPECT_EQ(first.size(), std::min<std::size_t>(want.size(), 1));

            std::vector<std::size_t> ascending;
            set.forEach([&](std::size_t i) { ascending.push_back(i); });
            std::sort(want.begin(), want.end());
            EXPECT_EQ(ascending, want);
        }
    }
}

/**
 * The round-robin full scan MemPort::receive() replaced: visit every
 * channel from @p rr, pop the first poppable response.
 */
std::optional<MemResp>
referenceReceive(MemorySystem& mem, std::uint32_t port, std::uint32_t& rr)
{
    const std::uint32_t n = mem.numChannels();
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t c = (rr + i) % n;
        TimedQueue<MemResp>& q = mem.channel(c).respPort(port);
        if (q.canPop()) {
            rr = (c + 1) % n;
            return q.front();
        }
    }
    return std::nullopt;
}

Cycle
referenceReadyCycle(MemorySystem& mem, std::uint32_t port)
{
    Cycle next = kCycleNever;
    for (std::uint32_t c = 0; c < mem.numChannels(); ++c)
        next = std::min(next,
                        mem.channel(c).respPort(port).peekReadyCycle());
    return next;
}

TEST(MemPortReceive, OrderMatchesFullScanReference)
{
    for (std::uint32_t channels : {1u, 3u, 4u, 8u, 16u}) {
        Engine eng;
        DramConfig cfg;
        cfg.resp_queue_depth = 6;  // deliveries back up: mixed readiness
        MemorySystem mem(eng, cfg, channels, /*num_ports=*/2);
        mem.store().resize(std::size_t{1} << 22);
        MemPort port = mem.port(1);
        Rng rng(100 + channels);
        std::uint32_t ref_rr = 0;
        std::uint64_t sent = 0, received = 0, tag = 0;
        const std::uint64_t total = 3000;
        while (received < total) {
            ASSERT_LT(eng.now(), Cycle{1} << 20) << "responses lost";
            // Random sizes and addresses: completions land on every
            // channel with different service times.
            for (int k = 0; k < 3 && sent < total; ++k) {
                const Addr addr = rng.below(1 << 14) * kLineBytes;
                const std::uint32_t bytes =
                    kLineBytes * static_cast<std::uint32_t>(
                                     1 + rng.below(4));
                if (addr % kInterleaveBytes + bytes > kInterleaveBytes)
                    continue;
                if (!port.send(MemReq{addr, bytes, tag, false}))
                    break;
                ++tag;
                ++sent;
            }
            ASSERT_EQ(port.responseReadyCycle(),
                      referenceReadyCycle(mem, 1));
            // Receive on some cycles only, sometimes several at once,
            // so responses of different ages coexist across channels.
            const std::uint64_t pops = rng.below(4);
            for (std::uint64_t k = 0; k < pops; ++k) {
                const std::optional<MemResp> want =
                    referenceReceive(mem, 1, ref_rr);
                const std::optional<MemResp> got = port.receive();
                ASSERT_EQ(got.has_value(), want.has_value())
                    << channels << " channels, cycle " << eng.now();
                if (!got)
                    break;
                ASSERT_EQ(got->tag, want->tag)
                    << channels << " channels, cycle " << eng.now();
                ++received;
            }
            eng.tick();
        }
        EXPECT_EQ(received, total);
    }
}

TEST(MemorySystem, RejectsMoreThan64Channels)
{
    Engine eng;
    EXPECT_THROW(MemorySystem(eng, DramConfig{}, 65, 1), FatalError);
}

TEST(SubentryClientCap, ValidateRejects65536PesBeforeBuilding)
{
    AccelConfig cfg = AccelConfig::paper18x16TwoLevel();
    cfg.num_pes = 65536;
    const std::vector<std::string> problems = cfg.validateProblems();
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(std::any_of(problems.begin(), problems.end(),
                            [](const std::string& p) {
                                return p.find("num_pes") !=
                                       std::string::npos;
                            }));
    cfg.num_pes = 65535;
    for (const std::string& p : cfg.validateProblems())
        EXPECT_EQ(p.find("num_pes must be <="), std::string::npos) << p;
}

TEST(HostProfile, KindStripsBoardPrefixAndIndex)
{
    EXPECT_EQ(HostProfile::kindOf("pe17"), "pe");
    EXPECT_EQ(HostProfile::kindOf("moms.private3"), "moms.private");
    EXPECT_EQ(HostProfile::kindOf("b2.moms.shared15"), "moms.shared");
    EXPECT_EQ(HostProfile::kindOf("dram.ch0"), "dram.ch");
    EXPECT_EQ(HostProfile::kindOf("hbm.pc31"), "hbm.pc");
    EXPECT_EQ(HostProfile::kindOf("moms"), "moms");
    EXPECT_EQ(HostProfile::kindOf("b12.link"), "link");
    EXPECT_EQ(HostProfile::kindOf("bx.pe1"), "bx.pe");
}

} // namespace
} // namespace gmoms
