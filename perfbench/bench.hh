/**
 * @file
 * Shared pieces of the gmoms benchmark program: command-line arguments,
 * the metric sink every workload fills, and the correctness oracle that
 * counts failed operations against attempted ones.
 *
 * The program only calls public APIs (Session/Accelerator for
 * simulation, GraphService behind net::TcpServer for serving); it
 * never reaches into src/ internals.
 */

#ifndef GMOMS_PERFBENCH_BENCH_HH
#define GMOMS_PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/accel/session.hh"
#include "src/sim/report.hh"

namespace perfbench
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Tiny inputs (the WT stand-in everywhere, short windows): checks
     *  the wiring, not performance. */
    bool smoke = false;
    /** Corrupt the first checksum the oracle compares, to prove that
     *  the oracle does fail (used by the smoke test). */
    bool corrupt_oracle = false;
};

/** Metrics in emission order; `value` is reported with all digits. */
class Metrics
{
  public:
    struct Entry
    {
        std::string name;
        double value = 0;
        std::string unit;
    };

    void
    add(const std::string& name, double value, const std::string& unit)
    {
        entries_.push_back({name, value, unit});
    }

    const std::vector<Entry>& entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/**
 * Counts operations and the ones that failed a correctness check.
 * Every failure is reported on stderr (the first few in full).
 */
class Oracle
{
  public:
    explicit Oracle(bool corrupt_first) : corrupt_(corrupt_first) {}

    /** Record one attempted operation; @p ok false counts it failed. */
    void check(bool ok, const std::string& what);

    /** Compare two checksums as one operation. The first comparison
     *  sees a flipped @p got when the oracle was built to corrupt. */
    void checksum(std::uint64_t got, std::uint64_t want,
                  const std::string& what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    bool corrupt_ = false;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Workload notes stamped on the context record (sample counts,
 *  generator lateness, bases of ratios), and the run's validity. */
struct Context
{
    gmoms::JsonReport notes;
    /** A run whose measurement is invalid (e.g. the open-loop generator
     *  fell behind) prints no result and exits non-zero. */
    bool valid = true;
    std::string invalid_reason;

    void note(const std::string& key, gmoms::JsonReport::Value value)
    {
        notes.set(key, std::move(value));
    }
};

/** Nearest-rank percentile (the repo's LatencyStats rule) of @p v. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/** Peak resident set size of this process so far, in MiB. Workloads
 *  read it when their measured phases end, before untimed checks. */
double peakRssMb();

unsigned hostCpus();

/** Per-layer micro-probes shared by every traced workload. */
void memoryProbes(Metrics& m);
void momsProbe(Metrics& m, bool hbm_org);

/** Engine, MOMS, memory and PE counters of one untraced run. */
void runLayerMetrics(const gmoms::SessionResult& res, Metrics& m);

/**
 * Run @p spec once more on a telemetry-enabled Accelerator over @p pg,
 * check that it is bit-identical to @p untraced (cycles and values),
 * and emit the telemetry-derived layer metrics plus the tracing
 * overhead with its base.
 */
void tracedRun(const gmoms::AccelConfig& cfg,
               const gmoms::PartitionedGraph& pg,
               const gmoms::AlgoSpec& spec,
               const gmoms::SessionResult& untraced, Metrics& m,
               Oracle& oracle, Context& ctx);

/** Workload entry points. Each fills its end-to-end metrics, and its
 *  per-layer metrics too when Args::trace is set; perfbench/run.py
 *  narrows the output to the set BENCHMARK.json declares. */
void runSimWorkload(const Args& args, Metrics& m, Oracle& oracle,
                    Context& ctx);
void runServeWorkload(const Args& args, Metrics& m, Oracle& oracle,
                      Context& ctx);

} // namespace perfbench

#endif // GMOMS_PERFBENCH_BENCH_HH
