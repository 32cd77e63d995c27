/**
 * @file
 * The bandwidth-efficiency frontier: DDR4 versus the HBM2
 * pseudo-channel substrate at MATCHED aggregate peak bandwidth, on the
 * paper's 32-bit compressed edge words.
 *
 * Matched pairs (aggregate peak bytes/cycle):
 *   ddr4-2ch vs hbm-4pc   @128 B/cyc
 *   ddr4-4ch vs hbm-8pc   @256 B/cyc
 *   ddr4-8ch vs hbm-16pc  @512 B/cyc
 *
 * There is no counterpart figure in the paper — its design targets
 * DDR4 boards and Section VII names HBM as the natural extension. The
 * trade the frontier exposes: at equal aggregate bandwidth HBM splits
 * it over more, narrower buses, so streaming transactions pay more
 * overhead per byte (lower single-transaction efficiency) while random
 * 64-byte vertex misses enjoy more channel-level parallelism. On the
 * full sweep the streaming side dominates: DDR4 wins 35 of the 36
 * matched pairs (HBM/DDR4 GTEPS 0.79-1.02x).
 *
 * Invariant checked here (and fatal when violated): the converged SCC
 * values_checksum is identical across every substrate and both engine
 * modes — substrates move timing, never results.
 *
 * Flags: --smoke (tiny sweep for CI), --json=FILE (machine-readable
 * artifact; --smoke defaults it to BENCH_hbm.json), plus the shared
 * --telemetry/--trace=FILE. --help prints the usage and exits 0; an
 * unknown flag prints it to stderr and exits 2.
 */

#include "bench/bench_common.hh"
#include "src/serve/job.hh"

using namespace gmoms;
using namespace gmoms::bench;

namespace
{

constexpr const char* kUsage =
    "usage: fig_hbm [--smoke] [--json=FILE] [--telemetry] "
    "[--trace=FILE] [--help]\n";

/** One substrate point of the frontier. */
struct Substrate
{
    std::string key;          //!< e.g. "hbm-8pc"
    MemSubstrateConfig mem;
    std::uint32_t peak = 0;   //!< aggregate peak bytes/cycle
    int pair = -1;            //!< matched-bandwidth pair index
};

std::vector<Substrate>
substratePoints(bool smoke)
{
    auto point = [](const char* key, MemSubstrateConfig mem, int pair) {
        Substrate s;
        s.key = key;
        s.peak = mem.channels * mem.timing.bus_bytes_per_cycle;
        s.mem = std::move(mem);
        s.pair = pair;
        return s;
    };
    if (smoke)
        return {point("ddr4-2ch", MemSubstrateConfig::ddr4(2), 0),
                point("hbm-4pc", MemSubstrateConfig::hbm2(4), 0)};
    return {point("ddr4-2ch", MemSubstrateConfig::ddr4(2), 0),
            point("hbm-4pc", MemSubstrateConfig::hbm2(4), 0),
            point("ddr4-4ch", MemSubstrateConfig::ddr4(4), 1),
            point("hbm-8pc", MemSubstrateConfig::hbm2(8), 1),
            point("ddr4-8ch", MemSubstrateConfig::ddr4(8), 2),
            point("hbm-16pc", MemSubstrateConfig::hbm2(16), 2)};
}

/** One (dataset, algo, substrate) frontier point. */
struct Point
{
    std::string tag;
    std::string algo;
    std::size_t sub = 0;
};

AccelConfig
pointConfig(const Substrate& sub)
{
    // The compute side stays fixed (16 PEs, 16 shared banks — a
    // multiple of every channel count here) so the frontier isolates
    // the memory substrate. Init bursts are pipelined on BOTH
    // substrates: otherwise HBM's 256 B interleave units turn the
    // node-array streams round-trip-latency-bound and the frontier
    // measures a DMA artifact, not the memories.
    AccelConfig cfg =
        AccelConfig::preset(MomsConfig::twoLevel(16), /*pes=*/16);
    cfg.mem = sub.mem;
    cfg.init_outstanding_bursts = 8;
    return cfg;
}

/** Frontier datasets use degree-grouped relabeling without the hash
 *  scatter; every published frontier number was measured on it. */
DatasetPtr
frontierDataset(const std::string& tag)
{
    return loadDataset(tag, Preprocessing::Dbg);
}

} // namespace

int
main(int argc, char** argv)
{
    TelemetryCli cli;
    cli.parse(argc, argv);
    bool smoke = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg != "--telemetry" &&
                   arg.rfind("--trace=", 0) != 0) {
            std::fprintf(stderr, "fig_hbm: unknown argument '%s'\n%s",
                         arg.c_str(), kUsage);
            return 2;
        }
    }
    if (smoke && json_path.empty())
        json_path = "BENCH_hbm.json";

    const std::vector<Substrate> subs = substratePoints(smoke);
    const std::vector<std::string> algos =
        smoke ? std::vector<std::string>{"PageRank", "SCC"}
              : std::vector<std::string>{"PageRank", "SCC", "SSSP"};
    const std::vector<std::string> tags =
        smoke ? std::vector<std::string>{"WT"} : benchDatasetTags();

    std::printf("=== Bandwidth-efficiency frontier: DDR4 vs HBM2 "
                "pseudo-channels at matched aggregate\n    peak "
                "bandwidth (16 PEs, 16/16 two-level MOMS) ===\n\n");

    std::vector<Point> jobs;
    for (const std::string& tag : tags)
        for (const std::string& algo : algos)
            for (std::size_t s = 0; s < subs.size(); ++s)
                jobs.push_back({tag, algo, s});

    const std::vector<RunOutcome> outcomes =
        sweep(jobs, [&](const Point& j) {
            const Substrate& sub = subs[j.sub];
            AccelConfig cfg = pointConfig(sub);
            cli.apply(cfg, j.algo + " " + j.tag + " " + sub.key);
            return runOn(*frontierDataset(j.tag), j.algo, cfg);
        });

    JsonReport report;
    report.set("smoke", smoke);

    auto at = [&](std::size_t i) -> const RunOutcome& {
        return outcomes[i];
    };

    // --- Frontier tables: one per (dataset, algo) ---------------------
    // Substrates come in (ddr4, hbm) pairs at matched peak bandwidth,
    // so each HBM row compares against the row just above it.
    std::size_t next = 0;
    std::uint32_t pairs = 0;
    std::vector<std::string> hbm_wins;
    for (const std::string& tag : tags) {
        for (const std::string& algo : algos) {
            std::printf("--- %s %s ---\n", tag.c_str(), algo.c_str());
            Table table({"substrate", "peak-B/cyc", "GTEPS",
                         "hbm/ddr4", "DRAM-B/edge"});
            double ddr_gteps = 0;
            for (const Substrate& sub : subs) {
                const RunOutcome& o = at(next++);
                const bool is_hbm = sub.mem.kind == MemKind::Hbm2;
                std::string ratio = "-";
                if (is_hbm) {
                    ++pairs;
                    ratio = fmt(o.gteps / std::max(ddr_gteps, 1e-12),
                                2) + "x";
                    if (o.gteps > ddr_gteps)
                        hbm_wins.push_back(tag + " " + algo + " @" +
                                           std::to_string(sub.peak) +
                                           " B/cyc");
                } else {
                    ddr_gteps = o.gteps;
                }
                table.addRow(
                    {sub.key, std::to_string(sub.peak), fmt(o.gteps, 3),
                     ratio,
                     fmt(static_cast<double>(o.result.dram_bytes_read) /
                             static_cast<double>(std::max<EdgeId>(
                                 o.result.edges_processed, 1)),
                         1)});
                const std::string base =
                    tag + "." + algo + "." + sub.key;
                report.set(base + ".peak_bytes_per_cycle",
                           static_cast<std::uint64_t>(sub.peak));
                report.set(base + ".gteps", o.gteps);
                report.set(base + ".dram_bytes_read",
                           o.result.dram_bytes_read);
            }
            table.print();
            std::printf("\n");
        }
    }

    std::printf("=== Matched-bandwidth winners: HBM wins %zu of %u "
                "pairs ===\n",
                hbm_wins.size(), pairs);
    for (const std::string& row : hbm_wins)
        std::printf("%s\n", row.c_str());
    std::printf("\n");

    // --- Per-pseudo-channel attribution (--telemetry) -----------------
    if (cli.enabled()) {
        // The largest HBM point, PageRank, first dataset: where the
        // per-channel stall attribution shows whether the narrow buses
        // spend their cycles on data or on row misses / bank gaps.
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Point& j = jobs[i];
            const Substrate& sub = subs[j.sub];
            if (j.tag != tags.front() || j.algo != "PageRank" ||
                sub.mem.kind != MemKind::Hbm2 ||
                sub.key != subs.back().key)
                continue;
            const auto& s = at(i).result.telemetry;
            if (!s)
                break;
            std::printf("=== Per-pseudo-channel occupancy: %s PageRank "
                        "%s ===\n",
                        j.tag.c_str(), sub.key.c_str());
            Table pc({"pc", "bytes-read", "busy%", "row-miss-cyc",
                      "bank-gap-cyc"});
            const double cyc =
                static_cast<double>(at(i).result.cycles);
            for (std::uint32_t c = 0; c < sub.mem.channels; ++c) {
                const std::string g = "hbm.pc" + std::to_string(c);
                pc.addRow(
                    {std::to_string(c),
                     std::to_string(static_cast<std::uint64_t>(
                         s->total(g + ".bytes_read"))),
                     fmt(100.0 * s->total(g + ".busy_cycles") / cyc,
                         1) + "%",
                     std::to_string(
                         s->stallCycles(g, StallCause::RowMiss)),
                     std::to_string(
                         s->stallCycles(g, StallCause::BankConflict))});
            }
            pc.print();
            std::printf("\n");
            break;
        }
    }

    // --- Checksum invariance (fatal on violation) ---------------------
    // Converged SCC has a unique fixpoint: its values_checksum may not
    // move with the substrate or the engine mode.
    std::printf("=== values_checksum invariance (converged SCC, %s) "
                "===\n",
                tags.front().c_str());
    const DatasetPtr check_g = frontierDataset(tags.front());
    auto checksum = [&](AccelConfig cfg) {
        Session session = SessionBuilder()
                              .datasetView(*check_g)
                              .config(std::move(cfg))
                              .build();
        return serve::valuesChecksum(session.scc(1000).run.raw_values);
    };
    std::uint64_t want = 0;
    bool first = true;
    std::uint32_t checked = 0;
    for (const Substrate& sub : subs) {
        AccelConfig base = pointConfig(sub);
        std::vector<AccelConfig> variants;
        variants.push_back(base);
        // Engine-mode variants on the first and last substrate keep
        // the block CI-sized.
        if (sub.key == subs.front().key || sub.key == subs.back().key) {
            AccelConfig full = base;
            full.full_tick_engine = true;
            variants.push_back(full);
        }
        for (AccelConfig& v : variants) {
            const std::uint64_t got = checksum(std::move(v));
            if (first) {
                want = got;
                first = false;
            } else if (got != want) {
                fatal("values_checksum broke invariance on " + sub.key +
                      ": got " + std::to_string(got) + ", want " +
                      std::to_string(want));
            }
            ++checked;
        }
    }
    std::printf("checksum %016llx identical across %u runs "
                "(substrates x engine modes)\n\n",
                static_cast<unsigned long long>(want), checked);
    report.set("values_checksum", want);
    report.set("checksum_runs",
               static_cast<std::uint64_t>(checked));

    std::printf(
        "Reading the frontier: at matched aggregate bandwidth DDR4's "
        "wide buses stream the\nedge lists with less per-transaction "
        "overhead, while HBM's many narrow pseudo-\nchannels serve "
        "random 64 B vertex misses with more parallelism. Edge "
        "streaming\ndominates these workloads, so DDR4 wins nearly "
        "every pair; HBM wins only where\nvertex misses outweigh the "
        "stream (the list above).\n");

    if (!json_path.empty()) {
        if (writeReportAtomically(json_path, report))
            std::printf("\nwrote %s\n", json_path.c_str());
        else
            std::printf("\ncould not write %s\n", json_path.c_str());
    }

    if (cli.enabled()) {
        std::vector<TelemetrySummaryPtr> summaries;
        for (const RunOutcome& out : outcomes)
            summaries.push_back(out.result.telemetry);
        cli.maybeWriteTrace(summaries);
    }
    return 0;
}
