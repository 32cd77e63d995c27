/**
 * @file
 * Bit set of the queues that hold tokens, for many-queue consumers.
 *
 * A consumer that arbitrates over N TimedQueues (a memory channel over
 * its request ports, the MOMS crossbar over its clients and banks)
 * binds queue i to bit i with track(). The queue then keeps the bit set
 * exactly while it holds a token (see TimedQueue::trackOccupancy), so
 * arbitration visits only the set bits instead of polling every queue.
 *
 * Visiting set bits in rotation order is exact: an empty queue can
 * never be popped, so a full scan that skips it and a scan that never
 * looks at it take the same decisions, in the same order.
 */

#ifndef GMOMS_SIM_OCCUPANCY_SET_HH
#define GMOMS_SIM_OCCUPANCY_SET_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gmoms
{

class OccupancySet
{
  public:
    /** @p n bits, all clear. The word storage never moves afterwards,
     *  so tracked queues may keep pointers into it. */
    explicit OccupancySet(std::size_t n = 0) : words_((n + 63) / 64, 0) {}

    OccupancySet(const OccupancySet&) = delete;
    OccupancySet& operator=(const OccupancySet&) = delete;

    /** Bind @p q so that bit @p i mirrors !q.empty(). */
    template <typename Queue>
    void
    track(Queue& q, std::size_t i)
    {
        q.trackOccupancy(&words_[i / 64], std::uint64_t{1} << (i % 64));
    }

    /** True when no tracked queue holds a token. */
    bool
    none() const
    {
        for (std::uint64_t w : words_)
            if (w != 0)
                return false;
        return true;
    }

    /**
     * Call @p fn(i) for every set bit i in rotation order start,
     * start+1, ..., then wrapping to 0, ..., start-1 — the order of a
     * round-robin scan that begins at @p start. @p fn returns true to
     * stop. Bits may be cleared by @p fn for already-visited queues;
     * bits of queues not yet visited must not change during the walk.
     */
    template <typename Fn>
    void
    forEachFrom(std::size_t start, Fn&& fn) const
    {
        const std::size_t nw = words_.size();
        if (nw == 0)
            return;
        const std::size_t sw = start / 64;
        const std::uint64_t high = ~std::uint64_t{0} << (start % 64);
        if (visit(sw, words_[sw] & high, fn))
            return;
        for (std::size_t w = sw + 1; w < nw; ++w)
            if (visit(w, words_[w], fn))
                return;
        for (std::size_t w = 0; w < sw; ++w)
            if (visit(w, words_[w], fn))
                return;
        visit(sw, words_[sw] & ~high, fn);
    }

    /** Call @p fn(i) for every set bit i in ascending order. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            for (std::uint64_t bits = words_[w]; bits != 0;
                 bits &= bits - 1)
                fn(w * 64 +
                   static_cast<std::size_t>(std::countr_zero(bits)));
    }

  private:
    template <typename Fn>
    static bool
    visit(std::size_t w, std::uint64_t bits, Fn& fn)
    {
        while (bits != 0) {
            const std::size_t i =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            if (fn(i))
                return true;
        }
        return false;
    }

    std::vector<std::uint64_t> words_;
};

} // namespace gmoms

#endif // GMOMS_SIM_OCCUPANCY_SET_HH
