/**
 * @file
 * Simulator-speed bench: idle-aware engine versus legacy full-tick.
 *
 * Runs the same latency-bound workloads (high SLR-crossing latency and
 * cache-less MOMS configurations, the slowest points of
 * ablation_die_crossing and fig12_hitrate) under both engine modes,
 * checks bit-exact cycle/result agreement, and reports wall-clock
 * speedup. Further sections cover the telemetry and hardening overhead
 * contracts, a per-component-kind host profile of the dense UK
 * PageRank run (paper18x16TwoLevel) with its own overhead, and
 * checkpoint capture/restore/fork latency. main() owns
 * the EngineRecord below and writes it once, atomically, as
 * BENCH_engine.json ($GMOMS_BENCH_ENGINE_JSON overrides the path); no
 * other binary writes that file. Exits 1 if any bit-exactness check
 * fails.
 */

#include "bench/bench_common.hh"
#include "src/accel/checkpoint.hh"
#include "src/serve/job.hh"
#include "src/sim/host_profile.hh"

using namespace gmoms;
using namespace gmoms::bench;

namespace
{

/**
 * Simulator-speed record of the head-to-head section: its runs summed
 * into one bucket per engine mode, plus the idle/full-tick
 * cycles-per-second ratio ("speedup") when both modes ran.
 */
class EngineRecord
{
  public:
    void
    add(const RunOutcome& o)
    {
        Bucket& b = o.full_tick ? full_ : idle_;
        ++b.runs;
        b.stats.cycles += o.engine.cycles;
        b.stats.cycles_skipped += o.engine.cycles_skipped;
        b.stats.ticks_executed += o.engine.ticks_executed;
        b.stats.ticks_skipped += o.engine.ticks_skipped;
        b.stats.wakes += o.engine.wakes;
        b.wall_seconds += o.wall_seconds;
    }

    void
    appendTo(JsonReport& report) const
    {
        appendBucket(report, "idle", idle_);
        appendBucket(report, "full_tick", full_);
        const double idle_rate = idle_.cyclesPerSec();
        const double full_rate = full_.cyclesPerSec();
        if (idle_rate > 0 && full_rate > 0)
            report.set("speedup", idle_rate / full_rate);
    }

  private:
    struct Bucket
    {
        std::uint64_t runs = 0;
        Engine::Stats stats;
        double wall_seconds = 0;

        double
        cyclesPerSec() const
        {
            return wall_seconds > 0
                       ? static_cast<double>(stats.cycles) / wall_seconds
                       : 0.0;
        }
    };

    static void
    appendBucket(JsonReport& report, const std::string& prefix,
                 const Bucket& b)
    {
        if (b.runs == 0)
            return;
        report.set(prefix + "_runs", b.runs)
            .set(prefix + "_sim_cycles", b.stats.cycles)
            .set(prefix + "_cycles_skipped", b.stats.cycles_skipped)
            .set(prefix + "_ticks_executed", b.stats.ticks_executed)
            .set(prefix + "_ticks_skipped", b.stats.ticks_skipped)
            .set(prefix + "_wakes", b.stats.wakes)
            .set(prefix + "_wall_seconds", b.wall_seconds)
            .set(prefix + "_cycles_per_sec", b.cyclesPerSec());
    }

    Bucket idle_;
    Bucket full_;
};

} // namespace

int
main()
{
    EngineRecord record;

    std::printf("=== Engine speed: idle-aware vs legacy full-tick "
                "===\n\n");

    struct Workload
    {
        std::string name;
        std::string algo;
        std::string dataset;
        AccelConfig config;
    };

    std::vector<Workload> workloads;
    {
        // Deeply latency-bound: a single PE, one 64 B edge burst in
        // flight, no cache arrays and the deepest die-crossing
        // latency. Each 16-word decode phase is followed by a full
        // DRAM round trip during which every component sleeps.
        AccelConfig cfg = AccelConfig::preset(
            MomsConfig::twoLevel(16).withoutCacheArrays(), /*pes=*/1);
        cfg.max_edge_bursts = 1;
        cfg.edge_burst_lines = 1;
        cfg.moms.crossing_latency = 32;
        workloads.push_back(
            {"1pe mlp1 64B nocache x32", "SCC", "UK", cfg});
    }
    {
        // Latency-bound: a single PE with one edge burst in flight
        // alternates decode bursts with full (cache-less, deep
        // die-crossing) DRAM round trips, so most components sleep
        // most cycles — the regime the wake calendar targets.
        AccelConfig cfg = AccelConfig::preset(
            MomsConfig::twoLevel(16).withoutCacheArrays(), /*pes=*/1);
        cfg.max_edge_bursts = 1;
        cfg.moms.crossing_latency = 32;
        workloads.push_back(
            {"1pe mlp1 nocache x32", "SCC", "UK", cfg});
    }
    {
        // Same low-MLP point at 16 PEs: enough threads in flight to
        // keep most components busy, so skipping buys little — kept
        // to show the idle-aware engine does not regress saturated
        // (throughput-bound) runs.
        AccelConfig cfg =
            AccelConfig::preset(MomsConfig::twoLevel(16), /*pes=*/16);
        cfg.max_edge_bursts = 1;
        cfg.moms.crossing_latency = 32;
        workloads.push_back(
            {"16pe mlp1 crossing-32", "SCC", "UK", cfg});
    }

    Table table({"workload", "cycles", "full-tick s", "idle s",
                 "skip %", "speedup"});
    bool exact = true;
    for (const Workload& w : workloads) {
        const CooGraph& g = *loadDataset(w.dataset);

        AccelConfig full = w.config;
        full.full_tick_engine = true;
        RunOutcome f = runOn(g, w.algo, full);
        record.add(f);

        AccelConfig idle = w.config;
        idle.full_tick_engine = false;
        RunOutcome i = runOn(g, w.algo, idle);
        record.add(i);

        if (f.result.cycles != i.result.cycles ||
            f.result.raw_values != i.result.raw_values) {
            std::printf("MISMATCH on %s: full-tick %llu cycles, "
                        "idle-aware %llu cycles\n", w.name.c_str(),
                        static_cast<unsigned long long>(f.result.cycles),
                        static_cast<unsigned long long>(i.result.cycles));
            exact = false;
        }

        const std::uint64_t ticks = i.engine.ticks_executed +
                                    i.engine.ticks_skipped;
        table.addRow(
            {w.name, std::to_string(i.result.cycles),
             fmt(f.wall_seconds, 2), fmt(i.wall_seconds, 2),
             fmt(ticks ? 100.0 *
                             static_cast<double>(i.engine.ticks_skipped) /
                             static_cast<double>(ticks)
                       : 0.0,
                 1),
             fmt(i.wall_seconds > 0 ? f.wall_seconds / i.wall_seconds
                                    : 0.0,
                 2) +
                 "x"});
    }
    table.print();
    std::printf("\n%s; aggregate rates land in BENCH_engine.json.\n",
                exact ? "Both engines agreed bit-for-bit on every run"
                      : "ENGINES DISAGREED — idle-aware mode is broken");

    // Telemetry cost contract (docs/MODEL.md): collection off must be
    // free (no sampler component, null probe pointers), and collection
    // on must not change simulation results. The saturated 16-PE
    // workload is the worst case for per-push/pop probe overhead.
    std::printf("\n=== Telemetry overhead (idle-aware engine) ===\n");
    Table tele_table(
        {"workload", "off s", "on s", "overhead", "stall cyc"});
    bool tele_exact = true;
    for (const Workload& w : workloads) {
        const CooGraph& g = *loadDataset(w.dataset);

        AccelConfig off = w.config;
        RunOutcome base = runOn(g, w.algo, off);

        AccelConfig on = w.config;
        on.telemetry.enabled = true;
        on.telemetry.label = w.name;
        RunOutcome instr = runOn(g, w.algo, on);

        if (base.result.cycles != instr.result.cycles ||
            base.result.raw_values != instr.result.raw_values) {
            std::printf("TELEMETRY PERTURBED %s: off %llu cycles, "
                        "on %llu cycles\n", w.name.c_str(),
                        static_cast<unsigned long long>(
                            base.result.cycles),
                        static_cast<unsigned long long>(
                            instr.result.cycles));
            tele_exact = false;
        }
        if (!instr.result.telemetry) {
            std::printf("NO SUMMARY on %s despite telemetry on\n",
                        w.name.c_str());
            tele_exact = false;
        }

        const double overhead =
            base.wall_seconds > 0
                ? instr.wall_seconds / base.wall_seconds - 1.0
                : 0.0;
        tele_table.addRow(
            {w.name, fmt(base.wall_seconds, 2),
             fmt(instr.wall_seconds, 2),
             fmt(100.0 * overhead, 1) + "%",
             instr.result.telemetry
                 ? std::to_string(
                       instr.result.telemetry->totalStallCycles())
                 : "-"});
    }
    tele_table.print();
    std::printf("\n%s.\n",
                tele_exact
                    ? "Telemetry left every result bit-identical"
                    : "TELEMETRY CHANGED RESULTS — collection is not "
                      "observation-only");

    // Hardening cost contract (docs/MODEL.md "Invariants & watchdog"):
    // checks off must be free (no harness component, no shadow memory),
    // and checks on — watchdog, conservation checkers, shadow-memory
    // verification — must only *observe*, leaving results bit-identical
    // at, per the acceptance bar, <= 5% wall-clock overhead.
    std::printf("\n=== Hardening overhead (idle-aware engine) ===\n");
    Table check_table({"workload", "off s", "on s", "overhead"});
    bool check_exact = true;
    for (const Workload& w : workloads) {
        const CooGraph& g = *loadDataset(w.dataset);

        AccelConfig off = w.config;
        RunOutcome base = runOn(g, w.algo, off);

        AccelConfig on = w.config;
        on.checks.enabled = true;
        RunOutcome hard = runOn(g, w.algo, on);

        if (base.result.cycles != hard.result.cycles ||
            base.result.raw_values != hard.result.raw_values) {
            std::printf("CHECKS PERTURBED %s: off %llu cycles, "
                        "on %llu cycles\n", w.name.c_str(),
                        static_cast<unsigned long long>(
                            base.result.cycles),
                        static_cast<unsigned long long>(
                            hard.result.cycles));
            check_exact = false;
        }

        const double overhead =
            base.wall_seconds > 0
                ? hard.wall_seconds / base.wall_seconds - 1.0
                : 0.0;
        check_table.addRow({w.name, fmt(base.wall_seconds, 2),
                            fmt(hard.wall_seconds, 2),
                            fmt(100.0 * overhead, 1) + "%"});
    }
    check_table.print();
    std::printf("\n%s.\n",
                check_exact
                    ? "The hardening layer left every result "
                      "bit-identical"
                    : "CHECKS CHANGED RESULTS — the hardening layer is "
                      "not observation-only");

    // Host profile: where serial simulator time goes, per component
    // kind, on the dense UK PageRank run. Profiling must only read the
    // host clock: cycles and values are checked against a plain run.
    std::printf("\n=== Host profile: UK PageRank, paper18x16TwoLevel "
                "(ns of host time per simulated cycle) ===\n");
    const CooGraph& uk = *loadDataset("UK");
    Session prof_session = SessionBuilder()
                               .datasetView(uk)
                               .config(AccelConfig::paper18x16TwoLevel())
                               .build();
    struct ProfiledRun
    {
        RunResult result;
        double wall_seconds = 0;
    };
    auto runProfiled = [&](HostProfile* profile) {
        Accelerator accel(prof_session.config(), prof_session.partition(),
                          AlgoSpec::pageRank(uk, pagerankIterations()));
        accel.setHostProfile(profile);
        ProfiledRun out;
        WallTimer timer;
        out.result = accel.run();
        out.wall_seconds = timer.elapsedSeconds();
        return out;
    };
    const ProfiledRun plain = runProfiled(nullptr);
    HostProfile profile;
    const ProfiledRun profiled = runProfiled(&profile);
    const std::uint64_t plain_sum =
        serve::valuesChecksum(plain.result.raw_values);
    const std::uint64_t profiled_sum =
        serve::valuesChecksum(profiled.result.raw_values);
    const bool profile_exact = plain.result.cycles ==
                                   profiled.result.cycles &&
                               plain_sum == profiled_sum;
    const double cycles = static_cast<double>(profiled.result.cycles);
    const double total_ns = static_cast<double>(profile.totalNs());
    Table prof_table({"kind", "ticks/cycle", "ns/cycle", "share"});
    JsonReport prof_json;
    for (const HostProfile::Row& row : profile.rows()) {
        const double ns_per_cycle = static_cast<double>(row.ns) / cycles;
        prof_table.addRow(
            {row.kind, fmt(static_cast<double>(row.ticks) / cycles, 2),
             fmt(ns_per_cycle, 1),
             fmt(100.0 * static_cast<double>(row.ns) / total_ns, 1) +
                 "%"});
        prof_json.set(row.kind + ".ns_per_cycle", ns_per_cycle);
    }
    prof_table.print();
    const double profile_overhead =
        plain.wall_seconds > 0
            ? profiled.wall_seconds / plain.wall_seconds - 1.0
            : 0.0;
    std::printf("\n%llu cycles, %.0f simulated cycles/s unprofiled; "
                "profiling overhead %.1f%% (%.2f s vs %.2f s).\n",
                static_cast<unsigned long long>(plain.result.cycles),
                plain.wall_seconds > 0 ? cycles / plain.wall_seconds : 0.0,
                100.0 * profile_overhead, profiled.wall_seconds,
                plain.wall_seconds);
    std::printf("%s.\n",
                profile_exact
                    ? "Profiling left cycles and values_checksum "
                      "bit-identical"
                    : "PROFILING CHANGED RESULTS — the host profile is "
                      "not observation-only");
    prof_json.set("cycles", static_cast<std::uint64_t>(plain.result.cycles))
        .set("values_checksum", plain_sum)
        .set("plain_wall_seconds", plain.wall_seconds)
        .set("profiled_wall_seconds", profiled.wall_seconds)
        .set("overhead", profile_overhead);

    // Checkpoint latency: what a library caller pays to save a warm
    // session once versus forking it per run.
    const AccelConfig ref_cfg =
        AccelConfig::preset(MomsConfig::twoLevel(16, 2048), /*pes=*/18,
                            /*channels=*/4);
    const CooGraph& ref_g = *loadDataset("WT");
    std::printf("\n=== Warm-session checkpoint: capture / restore / "
                "fork (Fig. 11 reference, 18/16 two-level 2k) ===\n");
    Session warm = SessionBuilder()
                       .datasetView(ref_g)
                       .config(ref_cfg)
                       .build();
    WallTimer capture_timer;
    SessionCheckpoint cp = SessionCheckpoint::capture(warm);
    const double capture_s = capture_timer.elapsedSeconds();

    WallTimer restore_timer;
    Session restored = cp.restore();
    const double restore_s = restore_timer.elapsedSeconds();

    constexpr int kForks = 1000;
    WallTimer fork_timer;
    for (int i = 0; i < kForks; ++i)
        Session forked = cp.restore();
    const double fork_avg_s =
        fork_timer.elapsedSeconds() / static_cast<double>(kForks);

    std::printf("capture (incl. partition warm-up): %.3f ms\n"
                "first restore:                     %.6f ms\n"
                "fork (avg of %d):                  %.6f ms\n",
                capture_s * 1e3, restore_s * 1e3, kForks,
                fork_avg_s * 1e3);

    JsonReport ckpt;
    ckpt.set("capture_seconds", capture_s)
        .set("restore_seconds", restore_s)
        .set("fork_seconds_avg", fork_avg_s)
        .set("forks_timed", static_cast<std::uint64_t>(kForks));

    JsonReport report;
    record.appendTo(report);
    report.set("host_profile", JsonReport::Raw{prof_json.str()});
    report.set("checkpoint", JsonReport::Raw{ckpt.str()});
    const char* env = std::getenv("GMOMS_BENCH_ENGINE_JSON");
    const std::string path = env ? env : "BENCH_engine.json";
    if (writeReportAtomically(path, report))
        std::printf("\nwrote %s\n", path.c_str());
    else
        std::printf("\ncould not write %s\n", path.c_str());

    return exact && tele_exact && check_exact && profile_exact ? 0 : 1;
}
