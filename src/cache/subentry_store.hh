/**
 * @file
 * Subentry buffer: per-miss bookkeeping shared by all MSHRs of a bank.
 *
 * Each pending read (primary or secondary miss) occupies one subentry
 * carrying the client's tag and the word offset within the line. MSHR
 * entries chain their subentries through a free-list-managed pool —
 * the RAM-resident equivalent of the paper's URAM subentry buffers
 * (32,768 slots per shared bank, 49,152 per private bank).
 */

#ifndef GMOMS_CACHE_SUBENTRY_STORE_HH
#define GMOMS_CACHE_SUBENTRY_STORE_HH

#include <cstdint>
#include <vector>

#include "src/cache/mshr.hh"
#include "src/sim/types.hh"

namespace gmoms
{

class SubentryStore
{
  public:
    /** 16 B: the client index fits 16 bits because
     *  AccelConfig::validateProblems() caps num_pes at 65535. */
    struct Subentry
    {
        std::uint64_t tag = 0;
        std::uint16_t client = 0;
        std::uint16_t line_offset = 0;  //!< byte offset within the line
        std::uint32_t next = kNoSubentry;
    };
    static_assert(sizeof(Subentry) == 16);

    /** Most clients (PEs) a bank can serve: indices fit 16 bits. */
    static constexpr std::uint32_t kMaxClients = 0xffff;

    struct Stats
    {
        std::uint64_t allocations = 0;
        std::uint64_t alloc_failures = 0;  //!< pool exhausted -> stall
        std::uint64_t peak_occupancy = 0;
    };

    explicit SubentryStore(std::uint32_t capacity);

    /**
     * Append a subentry to @p entry's list.
     * @return false when the pool is exhausted (the bank stalls).
     */
    bool
    append(MshrEntry& entry, std::uint64_t tag, std::uint32_t client,
           std::uint16_t line_offset)
    {
        if (free_head_ == kNoSubentry) {
            ++stats_.alloc_failures;
            return false;
        }
        const std::uint32_t idx = free_head_;
        free_head_ = pool_[idx].next;
        pool_[idx] = Subentry{tag, static_cast<std::uint16_t>(client),
                              line_offset, kNoSubentry};
        if (entry.subentry_head == kNoSubentry)
            entry.subentry_head = idx;
        else
            pool_[entry.subentry_tail].next = idx;
        entry.subentry_tail = idx;
        ++entry.subentry_count;
        ++occupancy_;
        ++stats_.allocations;
        if (occupancy_ > stats_.peak_occupancy)
            stats_.peak_occupancy = occupancy_;
        return true;
    }

    /**
     * Detach @p entry's list head for draining. Returns kNoSubentry when
     * the list is empty.
     */
    std::uint32_t head(const MshrEntry& entry) const
    {
        return entry.subentry_head;
    }

    const Subentry& at(std::uint32_t index) const
    {
        return pool_[index];
    }

    /** Free one subentry, returning the index of the next in the chain. */
    std::uint32_t
    free(std::uint32_t index)
    {
        if (index >= pool_.size())
            badFree();
        const std::uint32_t next = pool_[index].next;
        pool_[index].next = free_head_;
        free_head_ = index;
        --occupancy_;
        return next;
    }

    std::uint32_t capacity() const
    {
        return static_cast<std::uint32_t>(pool_.size());
    }
    std::uint32_t occupancy() const { return occupancy_; }
    bool full() const { return free_head_ == kNoSubentry; }

    const Stats& stats() const { return stats_; }

  private:
    [[noreturn]] static void badFree();

    std::vector<Subentry> pool_;
    std::uint32_t free_head_ = kNoSubentry;
    std::uint32_t occupancy_ = 0;
    Stats stats_;
};

} // namespace gmoms

#endif // GMOMS_CACHE_SUBENTRY_STORE_HH
