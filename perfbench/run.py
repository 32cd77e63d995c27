#!/usr/bin/env python3
"""Build and run the gmoms benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-pagerank-uk --seed 1 \
        --seconds 35 --trace 0

Builds perfbench/ (the gmoms library from src/ plus the benchmark
program) into .bench_build/perfbench with CMake, runs one workload and
prints two JSON lines: a context record, then the result. The result carries the
end-to-end metrics BENCHMARK.json declares with --trace 0, and its
per-layer metrics with --trace 1. A per-layer metric the workload does
not exercise (the serving layers on a simulation workload) reads 0 and
is listed under "not_exercised" in the context record.

--smoke and --corrupt-oracle pass through to the benchmark program (see
perfbench/test_smoke.py).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail(f"failed: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("the gmoms sources (src/) are not next to perfbench/")
    jobs = str(max(1, min(3, (os.cpu_count() or 1))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs],
              BUILD_TIMEOUT_S)


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=REPO, env=env, capture_output=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    out = proc.stdout.decode().strip()
    return out if proc.returncode == 0 and out else "none"


def declared_metrics(trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-describe", git_describe()]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    proc = subprocess.Popen(cmd, cwd=REPO, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("perfbench timed out", 1)
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}", proc.returncode)

    lines = out.decode().strip().splitlines()
    if len(lines) < 2:
        fail("perfbench printed no result", 1)
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])

    measured = result["metrics"]
    metrics = {}
    not_exercised = []
    for m in declared_metrics(args.trace):
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured", 1)
            got = {"value": 0, "unit": m["unit"]}
            not_exercised.append(m["name"])
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, declared in "
                 f"{m['unit']}", 1)
        metrics[m["name"]] = got
    context["not_exercised"] = not_exercised
    context["measured_not_declared"] = sorted(
        set(measured) - {m["name"] for m in declared_metrics(0)} -
        {m["name"] for m in declared_metrics(1)})

    print(json.dumps({"context": context}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
