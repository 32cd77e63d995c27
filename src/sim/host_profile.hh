/**
 * @file
 * Opt-in host-time profile of a simulation, by component kind.
 *
 * Attach one to an Engine (Engine::setHostProfile) and the engine
 * stamps the host clock around every component tick. Time is summed
 * per component *kind*: the component name with its instance index
 * (trailing digits) and any cluster board prefix ("b2.") stripped, so
 * "moms.private7" and "b1.moms.private0" both land in "moms.private".
 * Everything between component ticks — building the due list,
 * nextActivity() queries, the wake calendar, the runUntil predicate —
 * is charged to the pseudo-kind "engine".
 *
 * Stamps are raw time-stamp-counter reads on x86-64 (a few ns each),
 * converted to ns by the TSC rate measured against steady_clock over
 * the profile's lifetime; elsewhere they are steady_clock ns.
 *
 * Off (the default: a null pointer in the engine) it costs one branch
 * per engine cycle. On, it costs two stamps per component tick; it
 * never changes what is simulated (bench_engine checks cycles and
 * values are identical and reports the overhead).
 */

#ifndef GMOMS_SIM_HOST_PROFILE_HH
#define GMOMS_SIM_HOST_PROFILE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace gmoms
{

class Component;

class HostProfile
{
  public:
    struct Row
    {
        std::string kind;
        std::uint64_t ticks = 0;  //!< component ticks (0 for "engine")
        std::uint64_t ns = 0;     //!< host nanoseconds
    };

    HostProfile();

    /** One row per kind, "engine" first, then kinds in the order their
     *  first component was registered. */
    std::vector<Row> rows() const;

    /** Sum of every row's host time. */
    std::uint64_t totalNs() const;

    /** @p name with its board prefix and instance index stripped. */
    static std::string kindOf(const std::string& name);

  private:
    using Clock = std::chrono::steady_clock;

    friend class Engine;

    struct Bucket
    {
        std::string kind;
        std::uint64_t ticks = 0;
        std::uint64_t stamps = 0;  //!< raw stamp units
    };

    static std::uint64_t
    stamp()
    {
#if defined(__x86_64__)
        return __rdtsc();
#else
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count());
#endif
    }

    /** Map every component (engine index order) to its kind bucket. */
    void bind(const std::vector<Component*>& components);

    /** Charge the time since the last stamp to "engine". */
    void
    enter()
    {
        const std::uint64_t t = stamp();
        buckets_[0].stamps += t - last_;
        last_ = t;
    }

    /** Charge the time since enter() to component @p index. */
    void
    leave(std::size_t index)
    {
        const std::uint64_t t = stamp();
        Bucket& b = buckets_[bucket_of_[index]];
        b.stamps += t - last_;
        ++b.ticks;
        last_ = t;
    }

    /** Restart the clock without charging anyone (run entry). */
    void restart() { last_ = stamp(); }

    /** Host ns per raw stamp unit since construction. */
    double nsPerStamp() const;

    std::vector<Bucket> buckets_;
    std::vector<std::size_t> bucket_of_;  //!< component index -> bucket
    std::uint64_t last_ = 0;
    std::uint64_t start_stamp_ = 0;
    Clock::time_point start_wall_;
};

} // namespace gmoms

#endif // GMOMS_SIM_HOST_PROFILE_HH
