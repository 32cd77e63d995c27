/**
 * @file
 * Functional memory image backing the timed DRAM model.
 */

#ifndef GMOMS_MEM_BACKING_STORE_HH
#define GMOMS_MEM_BACKING_STORE_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/sim/log.hh"
#include "src/sim/types.hh"

namespace gmoms
{

/**
 * Flat byte-addressable memory image.
 *
 * The timed pipelines move only (addr, size, tag) tokens; all data lives
 * here. Producers commit data at issue time, consumers read at response
 * delivery time — see DESIGN.md section 5 for why this preserves
 * correctness for the monotone asynchronous algorithms.
 */
class BackingStore
{
  public:
    explicit BackingStore(std::size_t bytes = 0) : mem_(bytes, 0) {}

    void resize(std::size_t bytes) { mem_.assign(bytes, 0); }
    std::size_t size() const { return mem_.size(); }

    std::uint32_t
    read32(Addr addr) const
    {
        checkRange(addr, 4);
        std::uint32_t v;
        std::memcpy(&v, &mem_[addr], 4);
        return v;
    }

    void
    write32(Addr addr, std::uint32_t v)
    {
        checkRange(addr, 4);
        std::memcpy(&mem_[addr], &v, 4);
    }

    std::uint64_t
    read64(Addr addr) const
    {
        checkRange(addr, 8);
        std::uint64_t v;
        std::memcpy(&v, &mem_[addr], 8);
        return v;
    }

    void
    write64(Addr addr, std::uint64_t v)
    {
        checkRange(addr, 8);
        std::memcpy(&mem_[addr], &v, 8);
    }

    void
    readBytes(Addr addr, void* dst, std::size_t n) const
    {
        checkRange(addr, n);
        std::memcpy(dst, &mem_[addr], n);
    }

    void
    writeBytes(Addr addr, const void* src, std::size_t n)
    {
        checkRange(addr, n);
        std::memcpy(&mem_[addr], src, n);
    }

  private:
    void
    checkRange(Addr addr, std::size_t n) const
    {
        if (addr + n > mem_.size()) [[unlikely]]
            outOfRange(addr, n);
    }

    /** Cold path of checkRange(): kept out of line so the check
     *  itself inlines into every access. */
    [[noreturn]] [[gnu::noinline]] [[gnu::cold]] void
    outOfRange(Addr addr, std::size_t n) const
    {
        panic("BackingStore access out of range: addr=" +
              std::to_string(addr) + " size=" + std::to_string(n) +
              " mem=" + std::to_string(mem_.size()));
    }

    std::vector<std::uint8_t> mem_;
};

} // namespace gmoms

#endif // GMOMS_MEM_BACKING_STORE_HH
