/**
 * @file
 * Architecture explorer: a small CLI that sweeps MOMS organizations
 * for a workload you describe and reports throughput, frequency,
 * resources and power per design point — the "reprogrammability
 * dividend" of Section V-F's specialized configurations, as a tool.
 *
 * Usage:
 *   example_arch_explorer [algo] [dataset-tag] [--json]
 *                         [--telemetry] [--trace=FILE] [--help]
 *     algo:    PageRank | SCC | SSSP        (default SCC)
 *     dataset: WT DB UK IT SK MP RV FR WB 24 25 26  (default 24)
 *
 * Arguments are checked before anything is built: --help prints the
 * usage and exits 0; an unknown flag, algorithm or dataset tag prints
 * it to stderr and exits 2.
 *
 * --telemetry adds each design point's top bottleneck (stall group and
 * cause) to the report; --trace=FILE additionally writes all runs into
 * one Chrome trace-event JSON for https://ui.perfetto.dev.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/accel/resource_model.hh"
#include "src/accel/session.hh"
#include "src/algo/spec.hh"
#include "src/graph/datasets.hh"
#include "src/graph/generator.hh"
#include "src/obs/trace_export.hh"
#include "src/sim/parallel.hh"
#include "src/sim/report.hh"

using namespace gmoms;

namespace
{

constexpr const char* kUsage =
    "usage: example_arch_explorer [algo] [dataset-tag] [--json]\n"
    "                             [--telemetry] [--trace=FILE] [--help]\n"
    "  algo:    PageRank | SCC | SSSP        (default SCC)\n"
    "  dataset: WT DB UK IT SK MP RV FR WB 24 25 26  (default 24)\n";

/** Print @p problem and the usage to stderr; the exit code for bad
 *  arguments. */
int
usageError(const std::string& problem)
{
    std::fprintf(stderr, "example_arch_explorer: %s\n%s",
                 problem.c_str(), kUsage);
    return 2;
}

bool
knownDatasetTag(const std::string& tag)
{
    for (const DatasetProfile& p : table2Profiles())
        if (p.tag == tag)
            return true;
    return false;
}

/** Probe spec for the resource/frequency model (the actual run goes
 *  through the Session, which builds its own spec). */
AlgoSpec
makeSpec(const std::string& algo, const CooGraph& g)
{
    if (algo == "PageRank")
        return AlgoSpec::pageRank(g, 3);
    if (algo == "SSSP")
        return AlgoSpec::sssp(0, 4);
    return AlgoSpec::scc(g.numNodes(), 4);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string algo = "SCC";
    std::string tag = "24";
    bool json = false;
    bool telemetry = false;
    std::string trace_path;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--telemetry") {
            telemetry = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_path = arg.substr(8);
            if (trace_path.empty())
                return usageError("--trace= needs a file name");
            telemetry = true;
        } else if (arg.rfind("-", 0) == 0) {
            return usageError("unknown flag '" + arg + "'");
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() > 2)
        return usageError("unexpected argument '" + positional[2] + "'");
    if (positional.size() > 0)
        algo = positional[0];
    if (positional.size() > 1)
        tag = positional[1];
    if (algo != "PageRank" && algo != "SCC" && algo != "SSSP")
        return usageError("unknown algorithm '" + algo + "'");
    if (!knownDatasetTag(tag))
        return usageError("unknown dataset tag '" + tag + "'");

    // Preprocess once; every design point's session shares the graph
    // (SSSP sessions add their own deterministic weights, seed 7).
    CooGraph g = buildDataset(datasetByTag(tag));
    auto [nd, ns] = defaultIntervalsFor(g.numNodes(), g.numEdges());
    auto dataset = std::make_shared<const CooGraph>(
        applyPreprocessing(g, Preprocessing::DbgHash, nd));
    const AlgoSpec probe = makeSpec(algo, *dataset);

    struct Candidate
    {
        const char* name;
        std::uint32_t pes;
        MomsConfig moms;
    };
    const Candidate candidates[] = {
        {"16/16 two-level", 16, MomsConfig::twoLevel(16)},
        {"18/16 two-level 2k", 18, MomsConfig::twoLevel(16, 2048)},
        {"20/8 two-level", 20, MomsConfig::twoLevel(8)},
        {"16/16 shared", 16, MomsConfig::shared(16)},
        {"20 private", 20, MomsConfig::privateOnly()},
        {"16/16 traditional", 16, MomsConfig::traditionalTwoLevel(16)},
    };

    if (!json)
        std::printf("exploring %zu design points for %s on '%s' "
                    "(%u nodes, %llu edges)\n\n",
                    std::size(candidates), algo.c_str(), tag.c_str(),
                    dataset->numNodes(),
                    static_cast<unsigned long long>(
                        dataset->numEdges()));

    // Run every design point on the worker pool (each session builds
    // its own Accelerator+Engine; the dataset is shared read-only),
    // buffering per-candidate output so it prints in candidate order.
    struct Explored
    {
        double gteps = 0;
        std::string line;
        std::shared_ptr<const TelemetrySummary> telemetry;
    };
    std::vector<Explored> results(std::size(candidates));
    std::vector<ThreadPool::Job> tasks;
    for (std::size_t i = 0; i < std::size(candidates); ++i)
        tasks.push_back([&, i] {
            const Candidate& cand = candidates[i];
            AccelConfig cfg =
                AccelConfig::preset(cand.moms, cand.pes);
            cfg.nd = nd;
            cfg.ns = ns;
            cfg.telemetry.enabled = telemetry;
            cfg.telemetry.label = std::string(cand.name) + " " + algo +
                                  " " + tag;
            SessionResult res = SessionBuilder()
                                    .dataset(dataset)
                                    .config(cfg)
                                    .weightSeed(7)
                                    .algo(algo)
                                    .iterations(algo == "PageRank" ? 3
                                                                   : 4)
                                    .run();
            results[i].telemetry = res.run.telemetry;
            std::string bottleneck;
            if (res.run.telemetry) {
                if (const auto* top = res.run.telemetry->topStall())
                    bottleneck = top->group + "/" +
                                 stallCauseName(top->cause);
                else
                    bottleneck = "none";
            }
            const ResourceBreakdown rb = estimateResources(cfg, probe);

            results[i].gteps = res.gteps;
            if (json) {
                JsonReport report;
                report.set("design", std::string(cand.name))
                    .set("algo", algo)
                    .set("dataset", tag)
                    .set("gteps", res.gteps)
                    .set("fmax_mhz", res.fmax_mhz)
                    .set("power_w", res.power_watts)
                    .set("lut_util", rb.lut_util)
                    .set("cycles", res.run.cycles)
                    .set("hit_rate", res.run.moms_hit_rate)
                    .set("dram_bytes_read", res.run.dram_bytes_read)
                    .set("discarded", res.fmax_mhz < kMinFrequencyMhz);
                if (!bottleneck.empty())
                    report.set("top_bottleneck", bottleneck);
                results[i].line = report.str() + "\n";
            } else {
                char buf[200];
                std::snprintf(buf, sizeof(buf),
                              "  %-20s %6.3f GTEPS  %3.0f MHz  %4.1f W"
                              "  LUT %4.1f%%  %6.2f MTEPS/W%s%s\n",
                              cand.name, res.gteps, res.fmax_mhz,
                              res.power_watts, 100 * rb.lut_util,
                              1000.0 * res.gteps / res.power_watts,
                              bottleneck.empty() ? "" : "  bottleneck ",
                              bottleneck.c_str());
                results[i].line = buf;
            }
        });
    ThreadPool::shared().runAll(std::move(tasks));

    double best = 0;
    const char* best_name = "";
    for (std::size_t i = 0; i < std::size(candidates); ++i) {
        if (json)
            std::cout << results[i].line;
        else
            std::fputs(results[i].line.c_str(), stdout);
        if (results[i].gteps > best) {
            best = results[i].gteps;
            best_name = candidates[i].name;
        }
    }
    if (!json)
        std::printf("\nbest design for this workload: %s "
                    "(%.3f GTEPS)\n",
                    best_name, best);

    if (!trace_path.empty()) {
        std::vector<TelemetrySummaryPtr> summaries;
        for (const Explored& r : results)
            summaries.push_back(r.telemetry);
        if (writeChromeTraceFile(trace_path, summaries)) {
            if (!json)
                std::printf("wrote Chrome trace: %s (open at "
                            "https://ui.perfetto.dev)\n",
                            trace_path.c_str());
        } else {
            std::fprintf(stderr, "could not write trace file %s\n",
                         trace_path.c_str());
            return 1;
        }
    }
    return 0;
}
