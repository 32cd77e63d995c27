/**
 * @file
 * Miss status holding register files.
 *
 * One concrete file in two organizations:
 *  - MshrFile::cuckoo(): the paper's RAM-resident, cuckoo-hashed file
 *    that scales to thousands of entries (Section II, [Asiatici & Ienne
 *    FPGA'19]);
 *  - MshrFile::associative(): the small fully-associative file of
 *    traditional non-blocking caches (16 entries in the paper's
 *    baselines).
 *
 * An entry maps a line address to the head/tail of its subentry list
 * (kept in a SubentryStore) plus a per-line subentry count used to
 * enforce the traditional caches' 8-subentries-per-MSHR limit.
 *
 * Every lookup probes a dense per-slot key array (8 B per slot, the
 * line address or kEmptyLine) and reads the 24 B entry only on a
 * match, so a probe of a 4-way cuckoo file touches four 8 B words.
 * Insertion, the cuckoo kick chain and its unwind keep the keys equal
 * to their entries' lines (keysMatchEntries()).
 */

#ifndef GMOMS_CACHE_MSHR_HH
#define GMOMS_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "src/sim/types.hh"

namespace gmoms
{

/** Sentinel index for "no subentry". */
inline constexpr std::uint32_t kNoSubentry = 0xffffffffu;

struct MshrEntry
{
    Addr line = 0;
    std::uint32_t subentry_head = kNoSubentry;
    std::uint32_t subentry_tail = kNoSubentry;
    std::uint32_t subentry_count = 0;
    bool valid = false;
};

/** MSHR file keyed by line address. */
class MshrFile
{
  public:
    struct Stats
    {
        std::uint64_t inserts = 0;
        std::uint64_t insert_failures = 0;  //!< full / cuckoo give-up
        std::uint64_t cuckoo_kicks = 0;
        std::uint64_t peak_occupancy = 0;
    };

    /** Key of an empty slot; never a line address (lines are
     *  kLineBytes-aligned). */
    static constexpr Addr kEmptyLine = ~Addr{0};

    /**
     * Cuckoo-hashed file: @p tables ways, each with capacity/tables
     * slots; insertion displaces residents for up to @p max_kicks hops
     * before giving up (the FPGA design stalls and retries in that
     * case, which is exactly what returning nullptr triggers in the
     * bank).
     */
    static MshrFile cuckoo(std::uint32_t capacity, std::uint32_t tables = 4,
                           std::uint32_t max_kicks = 8);

    /** Fully-associative file of @p capacity entries. */
    static MshrFile associative(std::uint32_t capacity);

    /** Entry for @p line, or nullptr when absent. Pointer is valid until
     *  the next insert/erase. */
    MshrEntry*
    find(Addr line)
    {
        const std::uint32_t i = indexOf(line);
        return i != kNotFound ? &entries_[i] : nullptr;
    }

    /**
     * Allocate an entry for @p line (must not be present).
     * @return the new entry, or nullptr when the file cannot take it
     *         (capacity or cuckoo insertion failure) — the caller stalls.
     */
    MshrEntry* insert(Addr line);

    /** Remove the entry for @p line (must be present). */
    void erase(Addr line);

    std::uint32_t capacity() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }
    std::uint32_t occupancy() const { return occupancy_; }
    const Stats& stats() const { return stats_; }

    /** True when every slot's key is its entry's line (valid entry)
     *  or kEmptyLine (free slot). The invariant lookups rely on. */
    bool keysMatchEntries() const;

  private:
    static constexpr std::uint32_t kNotFound = 0xffffffffu;

    /** @p tables == 0 selects the fully-associative organization. */
    MshrFile(std::uint32_t capacity, std::uint32_t tables,
             std::uint32_t max_kicks);

    std::uint32_t
    indexOf(Addr line) const
    {
        if (tables_ == 0) {
            for (std::uint32_t i = 0; i < keys_.size(); ++i)
                if (keys_[i] == line)
                    return i;
            return kNotFound;
        }
        for (std::uint32_t t = 0; t < tables_; ++t) {
            const std::uint32_t i = slotOf(line, t);
            if (keys_[i] == line)
                return i;
        }
        return kNotFound;
    }

    /** Per-table multiplicative hash constants (odd, high-entropy). */
    static constexpr std::uint64_t kHashMul[8] = {
        0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full,
        0x165667b19e3779f9ull, 0x27d4eb2f165667c5ull,
        0x94d049bb133111ebull, 0xbf58476d1ce4e5b9ull,
        0xff51afd7ed558ccdull, 0xc4ceb9fe1a85ec53ull,
    };

    /** Flat index of @p line's slot in cuckoo table @p table. */
    std::uint32_t
    slotOf(Addr line, std::uint32_t table) const
    {
        const std::uint64_t h = (line / kLineBytes) * kHashMul[table];
        return table * slots_per_table_ +
               (static_cast<std::uint32_t>(h >> 40) &
                (slots_per_table_ - 1));
    }

    /** Store @p entry at flat index @p i and mirror its key. */
    void
    place(std::uint32_t i, const MshrEntry& entry)
    {
        entries_[i] = entry;
        keys_[i] = entry.valid ? entry.line : kEmptyLine;
    }

    void noteInsert();

    std::uint32_t tables_;           //!< 0: fully associative
    std::uint32_t slots_per_table_;
    std::uint32_t max_kicks_;
    std::vector<Addr> keys_;         //!< per-slot line or kEmptyLine
    std::vector<MshrEntry> entries_;
    std::vector<std::uint32_t> kick_path_;  //!< insert()'s kick chain
    std::uint32_t occupancy_ = 0;
    Stats stats_;
};

} // namespace gmoms

#endif // GMOMS_CACHE_MSHR_HH
