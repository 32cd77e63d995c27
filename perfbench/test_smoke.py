#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not of gmoms performance).

    python3 perfbench/test_smoke.py

Runs every workload of BENCHMARK.json, and sim-bfs-mp-hbm, which is
kept for runs by hand, in smoke mode (the small WT stand-in everywhere,
one-second windows), with tracing off and on, and checks that:
  - each run succeeds with zero failed operations;
  - the emitted metric names and units are exactly the ones
    BENCHMARK.json declares for that mode, and the program measured no
    metric that BENCHMARK.json does not declare;
  - every end-to-end metric is nonzero, and every per-layer metric is
    exercised by at least one workload;
  - the oracle fails a run whose first compared checksum is corrupted.
Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace",
           str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, timeout=900,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"FAIL {workload} trace={trace}: exit "
                         f"{proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def expect(ok, what):
    if not ok:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]] + ["sim-bfs-mp-hbm"]
    exercised = set()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for w in workloads:
            ctx, res = run(w, trace)
            tag = f"{w} trace={trace}"
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] >= 1, f"{tag}: all operations pass")
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            expect(got == declared, f"{tag}: metric names and units match "
                                    f"BENCHMARK.json {key}")
            expect(not ctx["measured_not_declared"],
                   f"{tag}: every measured metric is declared")
            if trace == 0:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       f"{tag}: every end-to-end metric is nonzero")
            else:
                exercised |= set(declared) - set(ctx["not_exercised"])
    missing = {m["name"] for m in spec["per_layer"]} - exercised
    expect(not missing, f"every per-layer metric is exercised by some "
                        f"workload (missing: {sorted(missing)})")
    for w in workloads:
        _, res = run(w, 0, "--corrupt-oracle")
        expect(not res["correct"] and res["failed"] >= 1,
               f"{w}: the oracle fails a corrupted checksum")


if __name__ == "__main__":
    main()
