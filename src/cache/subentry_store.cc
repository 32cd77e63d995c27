#include "src/cache/subentry_store.hh"

#include "src/sim/log.hh"

namespace gmoms
{

SubentryStore::SubentryStore(std::uint32_t capacity)
{
    if (capacity == 0)
        fatal("SubentryStore capacity must be >= 1");
    pool_.resize(capacity);
    // Thread the free list through the pool.
    for (std::uint32_t i = 0; i + 1 < capacity; ++i)
        pool_[i].next = i + 1;
    pool_[capacity - 1].next = kNoSubentry;
    free_head_ = 0;
}

void
SubentryStore::badFree()
{
    panic("SubentryStore::free: bad index");
}

} // namespace gmoms
