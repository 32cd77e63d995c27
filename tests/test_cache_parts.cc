/**
 * @file
 * Unit tests for cache array, MSHR files and subentry store.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/cache/cache_array.hh"
#include "src/cache/mshr.hh"
#include "src/cache/subentry_store.hh"
#include "src/sim/log.hh"
#include "src/sim/rng.hh"

namespace gmoms
{

// The two MSHR organizations as typed-test parameters. Declared outside
// the anonymous namespace: ctest names the typed tests after them
// ("MshrFileTest.InsertFindErase<gmoms::CuckooMshr>").
struct CuckooMshr
{
    static std::unique_ptr<MshrFile>
    make()
    {
        return std::make_unique<MshrFile>(MshrFile::cuckoo(64, 4, 8));
    }
};

struct AssocMshr
{
    static std::unique_ptr<MshrFile>
    make()
    {
        return std::make_unique<MshrFile>(MshrFile::associative(16));
    }
};

namespace
{

TEST(CacheArray, DirectMappedConflict)
{
    // 4 KiB direct-mapped: 64 sets; lines 64 sets apart conflict.
    CacheArray c(4096, 1);
    EXPECT_FALSE(c.lookup(0));
    c.fill(0);
    EXPECT_TRUE(c.lookup(0));
    const Addr conflicting = 64ull * kLineBytes;
    c.fill(conflicting);
    EXPECT_TRUE(c.lookup(conflicting));
    EXPECT_FALSE(c.lookup(0));  // evicted
}

TEST(CacheArray, SetAssociativeLru)
{
    // 2 sets x 2 ways. Lines 0, 2, 4 map to set 0.
    CacheArray c(4 * kLineBytes, 2);
    auto line = [](Addr i) { return i * kLineBytes; };
    c.fill(line(0));
    c.fill(line(2));
    EXPECT_TRUE(c.lookup(line(0)));  // 0 most recent
    c.fill(line(4));                 // evicts 2 (LRU)
    EXPECT_TRUE(c.contains(line(0)));
    EXPECT_FALSE(c.contains(line(2)));
    EXPECT_TRUE(c.contains(line(4)));
}

TEST(CacheArray, DisabledAlwaysMisses)
{
    CacheArray c(0, 1);
    EXPECT_TRUE(c.disabled());
    c.fill(0);
    EXPECT_FALSE(c.lookup(0));
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheArray, InvalidateAllDropsEverything)
{
    CacheArray c(4096, 1);
    for (Addr i = 0; i < 16; ++i)
        c.fill(i * kLineBytes);
    c.invalidateAll();
    for (Addr i = 0; i < 16; ++i)
        EXPECT_FALSE(c.contains(i * kLineBytes));
}

TEST(CacheArray, FillIsIdempotent)
{
    CacheArray c(4 * kLineBytes, 2);
    c.fill(0);
    c.fill(0);
    c.fill(2 * kLineBytes);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(2 * kLineBytes));
}

TEST(CacheArray, RejectsBadGeometry)
{
    EXPECT_THROW(CacheArray(100, 1), FatalError);     // not line multiple
    EXPECT_THROW(CacheArray(3 * 64, 2), FatalError);  // lines % ways
    EXPECT_THROW(CacheArray(4096, 0), FatalError);
}

template <typename T>
class MshrFileTest : public ::testing::Test
{
  public:
    static std::unique_ptr<MshrFile> make() { return T::make(); }
};

using MshrImpls = ::testing::Types<CuckooMshr, AssocMshr>;
TYPED_TEST_SUITE(MshrFileTest, MshrImpls);

TYPED_TEST(MshrFileTest, InsertFindErase)
{
    auto file = TestFixture::make();
    EXPECT_EQ(file->find(0x1000), nullptr);
    MshrEntry* e = file->insert(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->line, 0x1000u);
    EXPECT_EQ(file->find(0x1000), e);
    EXPECT_EQ(file->occupancy(), 1u);
    file->erase(0x1000);
    EXPECT_EQ(file->find(0x1000), nullptr);
    EXPECT_EQ(file->occupancy(), 0u);
}

TYPED_TEST(MshrFileTest, ManyDistinctLines)
{
    auto file = TestFixture::make();
    std::set<Addr> inserted;
    Rng rng(5);
    // Fill to half capacity; every line must remain findable.
    while (inserted.size() < file->capacity() / 2) {
        const Addr line = rng.below(1 << 20) * kLineBytes;
        if (inserted.count(line))
            continue;
        if (file->insert(line) != nullptr)
            inserted.insert(line);
    }
    for (Addr line : inserted)
        EXPECT_NE(file->find(line), nullptr);
    for (Addr line : inserted)
        file->erase(line);
    EXPECT_EQ(file->occupancy(), 0u);
}

TEST(AssocMshr, FailsWhenFull)
{
    MshrFile file = MshrFile::associative(4);
    for (Addr i = 0; i < 4; ++i)
        ASSERT_NE(file.insert(i * kLineBytes), nullptr);
    EXPECT_EQ(file.insert(100 * kLineBytes), nullptr);
    EXPECT_EQ(file.stats().insert_failures, 1u);
    file.erase(0);
    EXPECT_NE(file.insert(100 * kLineBytes), nullptr);
}

TEST(CuckooMshr, KicksRelocateWithoutLosingEntries)
{
    // Small file forces kicks at moderate load.
    MshrFile file = MshrFile::cuckoo(16, 2, 16);
    std::set<Addr> inserted;
    Rng rng(11);
    // Keep inserting until at least 10 lines are in and some insert
    // had to kick a resident.
    for (int attempts = 0; attempts < 10000 &&
                           (inserted.size() < 10 ||
                            file.stats().cuckoo_kicks == 0);
         ++attempts) {
        const Addr line = rng.below(1 << 16) * kLineBytes;
        if (inserted.count(line))
            continue;
        if (file.insert(line) != nullptr)
            inserted.insert(line);
    }
    ASSERT_GT(file.stats().cuckoo_kicks, 0u) << "no insert kicked";
    for (Addr line : inserted)
        EXPECT_NE(file.find(line), nullptr) << line;
    // The dense probe keys moved with the entries they index.
    EXPECT_TRUE(file.keysMatchEntries());
}

TEST(CuckooMshr, FailedInsertIsFullyUndone)
{
    // Fill a tiny file until an insert fails, then verify every
    // previously inserted line is still findable (the kick chain must
    // have been unwound).
    MshrFile file = MshrFile::cuckoo(8, 2, 4);
    std::set<Addr> inserted;
    Rng rng(13);
    bool failed = false;
    for (int attempts = 0; attempts < 10000 && !failed; ++attempts) {
        const Addr line = rng.below(1 << 18) * kLineBytes;
        if (inserted.count(line))
            continue;
        if (MshrEntry* e = file.insert(line)) {
            e->subentry_count = static_cast<std::uint32_t>(line);
            inserted.insert(line);
        } else {
            failed = true;
            EXPECT_EQ(file.find(line), nullptr);
        }
    }
    ASSERT_TRUE(failed) << "test did not exercise the failure path";
    EXPECT_EQ(file.occupancy(), inserted.size());
    // The dense probe keys were unwound with the entries they index.
    EXPECT_TRUE(file.keysMatchEntries());
    for (Addr line : inserted) {
        MshrEntry* e = file.find(line);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->line, line);
        EXPECT_EQ(e->subentry_count, static_cast<std::uint32_t>(line));
    }
    // Erasing everything leaves only empty keys behind.
    for (Addr line : inserted)
        file.erase(line);
    EXPECT_EQ(file.occupancy(), 0u);
    EXPECT_TRUE(file.keysMatchEntries());
    for (Addr line : inserted)
        EXPECT_EQ(file.find(line), nullptr);
}

TEST(CuckooMshr, RejectsBadGeometry)
{
    EXPECT_THROW(MshrFile::cuckoo(10, 4, 8), FatalError);  // not divisible
    EXPECT_THROW(MshrFile::cuckoo(12, 4, 8), FatalError);  // 3 not pow2
    EXPECT_THROW(MshrFile::cuckoo(16, 0, 8), FatalError);
}

TEST(SubentryStore, AppendsPreserveFifoOrder)
{
    SubentryStore store(16);
    MshrEntry entry;
    entry.valid = true;
    for (std::uint64_t t = 0; t < 5; ++t)
        ASSERT_TRUE(store.append(entry, t, 0,
                                 static_cast<std::uint16_t>(4 * t)));
    EXPECT_EQ(entry.subentry_count, 5u);
    std::uint32_t cursor = store.head(entry);
    for (std::uint64_t t = 0; t < 5; ++t) {
        ASSERT_NE(cursor, kNoSubentry);
        EXPECT_EQ(store.at(cursor).tag, t);
        EXPECT_EQ(store.at(cursor).line_offset, 4 * t);
        cursor = store.free(cursor);
    }
    EXPECT_EQ(cursor, kNoSubentry);
    EXPECT_EQ(store.occupancy(), 0u);
}

TEST(SubentryStore, ExhaustionAndRecycling)
{
    SubentryStore store(4);
    MshrEntry a, b;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(store.append(a, i, 0, 0));
    EXPECT_TRUE(store.full());
    EXPECT_FALSE(store.append(b, 99, 0, 0));
    EXPECT_EQ(store.stats().alloc_failures, 1u);
    // Free one; the slot must be reusable.
    std::uint32_t head = store.head(a);
    store.free(head);
    EXPECT_FALSE(store.full());
    EXPECT_TRUE(store.append(b, 99, 0, 0));
    EXPECT_EQ(store.at(store.head(b)).tag, 99u);
}

TEST(SubentryStore, TracksPeakOccupancy)
{
    SubentryStore store(8);
    MshrEntry e;
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(store.append(e, i, 0, 0));
    std::uint32_t cursor = store.head(e);
    for (int i = 0; i < 6; ++i)
        cursor = store.free(cursor);
    EXPECT_EQ(store.stats().peak_occupancy, 6u);
    EXPECT_EQ(store.occupancy(), 0u);
}

} // namespace
} // namespace gmoms
