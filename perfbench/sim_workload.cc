/**
 * @file
 * The two simulation workloads. They use the same layers in different
 * regimes:
 *
 *  - sim-pagerank-uk: the UK stand-in, PageRank for 4 iterations on
 *    the paper's 18-PE / 16-bank two-level MOMS over 4 DDR4 channels.
 *    Dense: every interval is active every iteration and most MOMS
 *    requests merge as secondary misses, so host time goes to PEs,
 *    MOMS banks and the crossbar.
 *  - sim-bfs-mp-hbm: the MP stand-in, BFS to convergence from the node
 *    with the highest out-degree on the 16-pseudo-channel HBM2
 *    two-level preset. A min-kernel frontier that grows then shrinks:
 *    low MOMS hit rate, row misses dominate, HBM substrate.
 *
 * Only sim-pagerank-uk is declared in BENCHMARK.json. An MP experiment
 * takes 6-8 s on a 4-CPU host, too few per run for steady figures on a
 * shared host, so sim-bfs-mp-hbm is kept for runs by hand.
 *
 * One run: set up K times (dataset build, DBG+hash preprocessing,
 * partitioning, Accelerator construction; the median is setup_s),
 * then repeat the simulation ("an experiment") while the next one should
 * end within --seconds, answering the same experiment again from a
 * session checkpoint's result memo after each (the "hit" path: no
 * simulation). Every experiment is checked against src/algo/golden and
 * against every other experiment (bit-identical cycles and values).
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "perfbench/bench.hh"
#include "src/accel/checkpoint.hh"
#include "src/accel/session.hh"
#include "src/algo/golden.hh"
#include "src/graph/datasets.hh"
#include "src/graph/reorder.hh"
#include "src/serve/job.hh"
#include "src/sim/report.hh"

namespace perfbench
{

using namespace gmoms;
using gmoms::serve::valuesChecksum;

namespace
{

constexpr std::uint32_t kPageRankIterations = 4;
constexpr int kSetups = 5;
constexpr int kHitsPerExperiment = 40;

struct SimShape
{
    std::string dataset;
    AccelConfig config;
    bool pagerank = true;
    bool hbm = false;
};

SimShape
shapeFor(const Args& args)
{
    SimShape s;
    if (args.workload == "sim-pagerank-uk") {
        s.dataset = "UK";
        s.config = AccelConfig::paper18x16TwoLevel();
    } else {
        s.dataset = "MP";
        s.config = AccelConfig::hbmTwoLevel();
        s.pagerank = false;
        s.hbm = true;
    }
    if (args.smoke)
        s.dataset = "WT";
    return s;
}

/** The node with the highest out-degree (lowest id on ties). */
NodeId
highestOutDegree(const CooGraph& g)
{
    const std::vector<std::uint32_t> od = g.outDegrees();
    return static_cast<NodeId>(std::max_element(od.begin(), od.end()) -
                               od.begin());
}

struct Setup
{
    std::shared_ptr<const CooGraph> graph;  //!< preprocessed
    std::unique_ptr<Session> session;       //!< partitioned
    NodeId source = 0;
    double build_s = 0, prep_s = 0, partition_s = 0, construct_s = 0;

    double total() const
    {
        return build_s + prep_s + partition_s + construct_s;
    }
};

AlgoSpec
specFor(const SimShape& shape, const Session& s, NodeId source)
{
    return shape.pagerank ? AlgoSpec::pageRank(s.graph(),
                                               kPageRankIterations)
                          : AlgoSpec::bfs(source);
}

Setup
setUp(const SimShape& shape, std::uint64_t seed)
{
    Setup out;
    WallTimer t;
    const CooGraph raw = buildDataset(datasetByTag(shape.dataset), seed);
    out.build_s = t.elapsedSeconds();

    t.restart();
    const std::uint32_t nd =
        defaultIntervalsFor(raw.numNodes(), raw.numEdges()).first;
    out.graph = std::make_shared<const CooGraph>(
        applyPreprocessing(raw, Preprocessing::DbgHash, nd));
    out.prep_s = t.elapsedSeconds();

    t.restart();
    out.session = std::make_unique<Session>(out.graph, shape.config);
    out.session->partition();
    out.partition_s = t.elapsedSeconds();

    out.source = highestOutDegree(*out.graph);
    t.restart();
    {
        Accelerator accel(out.session->config(), out.session->partition(),
                          specFor(shape, *out.session, out.source));
    }
    out.construct_s = t.elapsedSeconds();
    return out;
}

SessionResult
experiment(const SimShape& shape, Session& s, NodeId source)
{
    return shape.pagerank ? s.pageRank(kPageRankIterations)
                          : s.bfs(source);
}

/** Check @p res against the golden implementation. */
void
checkGolden(const SimShape& shape, const Session& s, NodeId source,
            const SessionResult& res, Oracle& oracle, const char* what)
{
    const CooGraph& g = s.graph();
    if (shape.pagerank) {
        const std::vector<double> golden =
            goldenPageRank(g, kPageRankIterations);
        std::size_t bad = 0;
        for (NodeId i = 0; i < g.numNodes(); ++i)
            if (!(std::fabs(res.values[i] - golden[i]) <=
                  2e-4 * golden[i] + 1e-8))
                ++bad;
        oracle.check(bad == 0 && res.run.iterations == kPageRankIterations,
                     std::string(what) + ": " + std::to_string(bad) +
                         " PageRank values outside 2e-4 relative of "
                         "goldenPageRank");
        return;
    }
    const std::vector<std::uint32_t> golden = goldenBfs(g, source);
    const std::size_t reached = static_cast<std::size_t>(
        std::count_if(golden.begin(), golden.end(),
                      [](std::uint32_t d) { return d != kInfDist; }));
    oracle.check(reached > 1, std::string(what) + ": BFS from " +
                                  std::to_string(source) +
                                  " reaches only its source");
    oracle.checksum(valuesChecksum(res.run.raw_values),
                    valuesChecksum(golden),
                    std::string(what) + ": BFS depths vs goldenBfs");
}

void
telemetryMetrics(const TelemetrySummary& t, Metrics& m)
{
    m.add("moms.xbar.bank_conflict",
          static_cast<double>(t.stallCycles("moms.xbar",
                                            StallCause::BankConflict)),
          "cycles");
    m.add("moms.l1.crossing_credit",
          static_cast<double>(t.stallCycles("moms.l1",
                                            StallCause::CrossingCredit)),
          "cycles");
    m.add("moms.l2.backpressure",
          static_cast<double>(t.stallCycles(
              "moms.l2", StallCause::DownstreamBackpressure)),
          "cycles");
    m.add("pe.backpressure_cycles",
          static_cast<double>(
              t.stallCycles("pe", StallCause::DownstreamBackpressure)),
          "cycles");
    // Memory stalls are registered per channel ("dram") or per
    // pseudo-channel ("hbm.pcN"): sum every memory group.
    std::uint64_t row_miss = 0, bank_conflict = 0;
    for (const TelemetrySummary::StallTotal& s : t.stalls) {
        const bool mem = s.group == "dram" || s.group.rfind("hbm.", 0) == 0;
        if (mem && s.cause == StallCause::RowMiss)
            row_miss += s.cycles;
        if (mem && s.cause == StallCause::BankConflict)
            bank_conflict += s.cycles;
    }
    m.add("mem.row_miss_cycles", static_cast<double>(row_miss), "cycles");
    m.add("mem.bank_conflict_cycles", static_cast<double>(bank_conflict),
          "cycles");
}

} // namespace

void
runLayerMetrics(const SessionResult& res, Metrics& m)
{
    const Engine::Stats& e = res.engine;
    const double cycles = static_cast<double>(std::max<Cycle>(e.cycles, 1));
    const double ticks = static_cast<double>(e.ticks_executed);
    m.add("engine.ticks_per_cycle", ticks / cycles, "ticks/cycle");
    m.add("engine.wakes_per_cycle", static_cast<double>(e.wakes) / cycles,
          "wakes/cycle");
    m.add("engine.skip_share",
          static_cast<double>(e.ticks_skipped) /
              std::max(1.0, ticks + static_cast<double>(e.ticks_skipped)),
          "ratio");
    m.add("engine.host_ns_per_tick",
          res.wall_seconds * 1e9 / std::max(1.0, ticks), "ns");
    const RunResult& r = res.run;
    m.add("moms.hit_rate", r.moms_hit_rate, "ratio");
    m.add("moms.secondary_share",
          r.moms_requests ? static_cast<double>(r.moms_secondary_misses) /
                                static_cast<double>(r.moms_requests)
                          : 0.0,
          "ratio");
    m.add("moms.lines_from_mem", static_cast<double>(r.moms_lines_from_mem),
          "count");
    m.add("mem.bytes_read", static_cast<double>(r.dram_bytes_read), "B");
    m.add("pe.raw_stalls", static_cast<double>(r.pe_raw_stalls), "cycles");
}

void
tracedRun(const AccelConfig& cfg, const PartitionedGraph& pg,
          const AlgoSpec& spec, const SessionResult& untraced, Metrics& m,
          Oracle& oracle, Context& ctx)
{
    AccelConfig traced_cfg = cfg;
    traced_cfg.telemetry.enabled = true;
    Accelerator accel(traced_cfg, pg, spec);
    WallTimer t;
    const RunResult traced = accel.run();
    const double traced_s = t.elapsedSeconds();
    oracle.check(traced.cycles == untraced.run.cycles,
                 "traced run cycles " + std::to_string(traced.cycles) +
                     " differ from untraced " +
                     std::to_string(untraced.run.cycles));
    oracle.checksum(valuesChecksum(traced.raw_values),
                    valuesChecksum(untraced.run.raw_values),
                    "traced run values vs untraced run");
    if (traced.telemetry)
        telemetryMetrics(*traced.telemetry, m);
    else
        oracle.check(false, "traced run produced no telemetry summary");
    m.add("obs.telemetry_overhead", traced_s / untraced.wall_seconds,
          "ratio");
    m.add("obs.untraced_run_s", untraced.wall_seconds, "s");
    ctx.note("obs.traced_run_s", traced_s);
}

void
runSimWorkload(const Args& args, Metrics& m, Oracle& oracle,
               Context& ctx)
{
    const SimShape shape = shapeFor(args);
    ctx.note("dataset", shape.dataset);
    ctx.note("config", shape.config.label());

    std::vector<double> setups, build, prep, part, construct;
    Setup s;
    for (int i = 0; i < kSetups; ++i) {
        s = Setup{};  // free the previous set-up before building anew
        s = setUp(shape, args.seed);
        setups.push_back(s.total());
        build.push_back(s.build_s);
        prep.push_back(s.prep_s);
        part.push_back(s.partition_s);
        construct.push_back(s.construct_s);
    }
    m.add("setup_s", median(setups), "s");
    m.add("graph.build_s", median(build), "s");
    m.add("graph.prep_s", median(prep), "s");
    m.add("graph.partition_s", median(part), "s");
    m.add("accel.construct_s", median(construct), "s");
    ctx.note("nodes", static_cast<std::uint64_t>(s.graph->numNodes()));
    ctx.note("edges", static_cast<std::uint64_t>(s.graph->numEdges()));
    ctx.note("source", static_cast<std::uint64_t>(s.source));

    // A plain copy simulates every time; forks of the checkpoint share
    // one result memo, so only their first run simulates.
    Session cold = *s.session;
    const SessionCheckpoint ckpt = SessionCheckpoint::capture(*s.session);

    // Every experiment is followed by kHitsPerExperiment replays from
    // the memo, so hit samples span the window as experiments do. Each
    // experiment is checked as it ends and only the first and the last
    // are kept, so the peak RSS does not grow with their number.
    SessionResult first, last;
    std::vector<double> latency, hits;
    double sim_cycles = 0, sim_seconds = 0;
    std::uint64_t want = 0;
    WallTimer window;
    // Start another experiment only if it should end within the window.
    while (latency.empty() ||
           window.elapsedSeconds() + latency.back() <= args.seconds) {
        WallTimer t;
        if (latency.empty()) {
            Session fork = ckpt.restore();
            first = experiment(shape, fork, s.source);
            want = valuesChecksum(first.run.raw_values);
            last = first;
        } else {
            last = experiment(shape, cold, s.source);
            const std::string what =
                "experiment " + std::to_string(latency.size());
            oracle.check(last.run.cycles == first.run.cycles,
                         what + " cycles differ from experiment 0");
            oracle.checksum(valuesChecksum(last.run.raw_values), want,
                            what + " values vs experiment 0");
        }
        latency.push_back(t.elapsedSeconds());
        sim_cycles += static_cast<double>(last.run.cycles);
        sim_seconds += last.wall_seconds;
        for (int i = 0; i < kHitsPerExperiment; ++i) {
            t.restart();
            Session fork = ckpt.restore();
            const SessionResult r = experiment(shape, fork, s.source);
            hits.push_back(t.elapsedSeconds());
            oracle.checksum(valuesChecksum(r.run.raw_values), want,
                            "memo hit " + std::to_string(hits.size()));
        }
    }
    const double window_s = window.elapsedSeconds();

    oracle.check(ckpt.memo()->misses() == 1 &&
                     ckpt.memo()->hits() == hits.size(),
                 "memo served " + std::to_string(ckpt.memo()->hits()) +
                     " hits, " + std::to_string(ckpt.memo()->misses()) +
                     " misses");
    m.add("peak_rss_mb", peakRssMb(), "MiB");
    checkGolden(shape, *s.session, s.source, first, oracle,
                "experiment 0");

    double latency_sum = 0;
    for (double l : latency)
        latency_sum += l;
    m.add("sim_cycles_per_s", sim_cycles / sim_seconds, "cycles/s");
    m.add("sim_gteps", first.gteps, "GTEPS");
    m.add("hit_p50_ms", percentile(hits, 50) * 1e3, "ms");
    m.add("job_p50_ms", percentile(latency, 50) * 1e3, "ms");
    m.add("capacity_jobs_per_s",
          static_cast<double>(latency.size()) / latency_sum, "jobs/s");
    ctx.note("experiments", static_cast<std::uint64_t>(latency.size()));
    ctx.note("job_max_ms", percentile(latency, 100) * 1e3);
    ctx.note("window_s", window_s);
    ctx.note("memo_hits", static_cast<std::uint64_t>(hits.size()));
    ctx.note("hit_p95_ms", percentile(hits, 95) * 1e3);
    ctx.note("sim_cycles", static_cast<std::uint64_t>(first.run.cycles));
    ctx.note("iterations",
             static_cast<std::uint64_t>(first.run.iterations));

    if (!args.trace)
        return;
    runLayerMetrics(last, m);
    tracedRun(s.session->config(), s.session->partition(),
              specFor(shape, *s.session, s.source), last, m,
              oracle, ctx);
    momsProbe(m, shape.hbm);
    memoryProbes(m);
}

} // namespace perfbench
