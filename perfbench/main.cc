/**
 * @file
 * perfbench: the gmoms benchmark program.
 *
 *   perfbench --workload <sim-pagerank-uk|sim-bfs-mp-hbm|serve-wt-mix>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--smoke] [--corrupt-oracle] [--git-describe <text>]
 *
 * Prints two JSON lines on stdout: a context record (host, build,
 * seed, workload notes) and the result (correct, attempted, failed and
 * every metric the run measured, by name with its unit). perfbench/
 * run.py builds this program and narrows the result to the metric set
 * BENCHMARK.json declares for the chosen --trace mode.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "perfbench/bench.hh"
#include "src/sim/report.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<sim-pagerank-uk|sim-bfs-mp-hbm|serve-wt-mix> --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--corrupt-oracle] "
                 "[--git-describe TEXT]\n",
                 why);
    std::exit(2);
}

std::string
jsonLine(const gmoms::JsonReport& r)
{
    std::ostringstream os;
    os.precision(17);
    r.write(os);
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    std::string git_describe = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            args.workload = value();
        else if (a == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::atof(value().c_str());
        else if (a == "--trace")
            args.trace = value() == "1";
        else if (a == "--smoke")
            args.smoke = true;
        else if (a == "--corrupt-oracle")
            args.corrupt_oracle = true;
        else if (a == "--git-describe")
            git_describe = value();
        else
            usage(("unknown argument " + a).c_str());
    }
    const bool sim = args.workload == "sim-pagerank-uk" ||
                     args.workload == "sim-bfs-mp-hbm";
    if (!sim && args.workload != "serve-wt-mix")
        usage("unknown or missing --workload");
    if (!(args.seconds > 0))
        usage("--seconds must be positive");

    Metrics metrics;
    Oracle oracle(args.corrupt_oracle);
    Context ctx;
    try {
        if (sim)
            runSimWorkload(args, metrics, oracle, ctx);
        else
            runServeWorkload(args, metrics, oracle, ctx);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s aborted: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }

    gmoms::JsonReport context;
    context.set("workload", args.workload)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("smoke", args.smoke)
        .set("host_cpus", static_cast<std::uint64_t>(hostCpus()))
        .set("build_type", std::string(PERFBENCH_BUILD_TYPE))
        .set("compiler", std::string(PERFBENCH_COMPILER))
        .set("git_describe", git_describe)
        .set("valid", ctx.valid);
    if (!ctx.valid)
        context.set("invalid_reason", ctx.invalid_reason);
    for (const auto& [key, value] : ctx.notes.entries())
        context.set(key, value);
    gmoms::JsonReport wrapper;
    wrapper.set("context", gmoms::JsonReport::Raw{jsonLine(context)});
    std::printf("%s\n", jsonLine(wrapper).c_str());

    if (!ctx.valid) {
        std::fprintf(stderr, "perfbench: run invalid: %s\n",
                     ctx.invalid_reason.c_str());
        return 3;
    }

    gmoms::JsonReport values;
    for (const Metrics::Entry& e : metrics.entries()) {
        gmoms::JsonReport one;
        one.set("value", e.value).set("unit", e.unit);
        values.set(e.name, gmoms::JsonReport::Raw{jsonLine(one)});
    }
    gmoms::JsonReport result;
    result.set("correct", oracle.failed() == 0)
        .set("attempted", oracle.attempted())
        .set("failed", oracle.failed())
        .set("metrics", gmoms::JsonReport::Raw{jsonLine(values)});
    std::printf("%s\n", jsonLine(result).c_str());
    return 0;
}
