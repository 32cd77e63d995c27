/**
 * @file
 * Latency- and capacity-bounded FIFO link between components.
 *
 * A TimedQueue models a registered point-to-point link: tokens pushed in
 * cycle c become poppable at cycle c + latency. Capacity provides
 * backpressure: push() fails when the queue is full, and the producer must
 * retry in a later cycle (exactly like a ready/valid handshake).
 *
 * Storage is a preallocated ring buffer (capacity is fixed at
 * construction), so pushes and pops never allocate. T must be
 * default-constructible (all link payloads are plain aggregates).
 *
 * Wake hooks for the idle-aware engine: when a producer/consumer
 * component is bound via setProducer()/setConsumer(), a push wakes the
 * consumer at the cycle the token becomes poppable, and a pop that frees
 * a slot of a previously-full queue wakes the producer so it can retry a
 * rejected push. Unbound endpoints (test harnesses driving queues from
 * runUntil predicates) simply get no wakes — they are covered by the
 * engine's every-cycle predicate polling.
 *
 * Occupancy hook for many-queue consumers: trackOccupancy() binds a
 * caller-owned bit that the queue keeps set exactly while it holds a
 * token (an OccupancySet word), so arbitration over dozens of queues
 * touches only the non-empty ones. It costs one branch, taken only on
 * the empty <-> non-empty edge of push()/pop().
 *
 * Die crossings (Fig. 5 of the paper) are modelled by raising the latency
 * to the crossing delay and ensuring capacity >= latency + 2, mirroring the
 * paper's "queue needs at least four slots" observation for a 2-cycle
 * ready-propagation delay.
 */

#ifndef GMOMS_SIM_TIMED_QUEUE_HH
#define GMOMS_SIM_TIMED_QUEUE_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/sim/engine.hh"
#include "src/sim/queue_probe.hh"
#include "src/sim/types.hh"

namespace gmoms
{

template <typename T>
class TimedQueue
{
  public:
    /**
     * @param engine   Engine providing the clock.
     * @param capacity Maximum number of in-flight tokens.
     * @param latency  Cycles between push and earliest pop (>= 1).
     */
    TimedQueue(const Engine& engine, std::size_t capacity, Cycle latency = 1)
        : engine_(&engine), ring_(new Slot[capacity]),
          capacity_(static_cast<std::uint32_t>(capacity)),
          latency_(static_cast<std::uint32_t>(latency))
    {
        assert(latency_ >= 1 && "zero-latency links break tick-order "
               "independence");
        assert(capacity_ >= 1);
    }

    /** Component woken when a pop frees a slot of a full queue. */
    void setProducer(Component* p) { producer_ = p; }
    /** Component woken when a pushed token becomes poppable. */
    void setConsumer(Component* c) { consumer_ = c; }

    /** Keep @p mask set in @p *word exactly while the queue holds a
     *  token (see OccupancySet::track); @p word must outlive the
     *  queue's last push or pop. */
    void
    trackOccupancy(std::uint64_t* word, std::uint64_t mask)
    {
        occ_word_ = word;
        occ_mask_ = mask;
        if (size_ != 0)
            *occ_word_ |= occ_mask_;
        else
            *occ_word_ &= ~occ_mask_;
    }

    /** Attach an occupancy probe (telemetry); nullptr detaches. The
     *  probe must outlive the queue or be detached first. */
    void
    attachProbe(QueueProbe* probe)
    {
        probe_ = probe;
        if (probe_)
            probe_->onChange(engine_->now(), size_);
    }

    /** True if a push this cycle would be accepted. */
    bool canPush() const { return size_ < capacity_; }

    /** Free slots right now. */
    std::size_t freeSlots() const { return capacity_ - size_; }

    /**
     * Push a token; visible to the consumer after the link latency.
     * @return false (token not enqueued) when the queue is full.
     */
    bool
    push(T item)
    {
        if (size_ == capacity_)
            return false;
        Slot& slot = ring_[wrap(head_ + size_)];
        slot.item = std::move(item);
        slot.ready = engine_->now() + latency_;
        if (size_ == 0 && occ_word_ != nullptr)
            *occ_word_ |= occ_mask_;
        ++size_;
        if (probe_)
            probe_->onChange(engine_->now(), size_);
        Engine::wake(consumer_, slot.ready);
        return true;
    }

    /** True if the head token has arrived and can be popped this cycle. */
    bool
    canPop() const
    {
        return size_ != 0 && ring_[head_].ready <= engine_->now();
    }

    /** Head token; only valid when canPop(). */
    const T&
    front() const
    {
        assert(canPop());
        return ring_[head_].item;
    }

    /** Remove and return the head token; only valid when canPop(). */
    T
    pop()
    {
        assert(canPop());
        const bool was_full = size_ == capacity_;
        T item = std::move(ring_[head_].item);
        head_ = wrap(head_ + 1);
        --size_;
        if (size_ == 0 && occ_word_ != nullptr)
            *occ_word_ &= ~occ_mask_;
        if (probe_)
            probe_->onChange(engine_->now(), size_);
        if (was_full)
            Engine::wake(producer_, engine_->now());
        return item;
    }

    /** Cycle the head token becomes poppable; kCycleNever when empty
     *  (for the wake calendar). */
    Cycle
    peekReadyCycle() const
    {
        return size_ != 0 ? ring_[head_].ready : kCycleNever;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }
    Cycle latency() const { return latency_; }

  private:
    struct Slot
    {
        T item{};
        Cycle ready = 0;
    };

    std::uint32_t wrap(std::uint32_t i) const
    {
        return i >= capacity_ ? i - capacity_ : i;
    }

    // Everything push/pop/canPop read fits the first 64 bytes;
    // producer_ is read only when a full queue is popped.
    const Engine* engine_;
    std::unique_ptr<Slot[]> ring_;
    std::uint32_t head_ = 0;  //!< index of the oldest token
    std::uint32_t size_ = 0;
    std::uint32_t capacity_;
    std::uint32_t latency_;
    std::uint64_t* occ_word_ = nullptr;  //!< see trackOccupancy()
    std::uint64_t occ_mask_ = 0;
    Component* consumer_ = nullptr;
    QueueProbe* probe_ = nullptr;
    Component* producer_ = nullptr;
};

} // namespace gmoms

#endif // GMOMS_SIM_TIMED_QUEUE_HH
