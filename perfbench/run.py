#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The workloads and the default run length (run_seconds) come from
BENCHMARK.json. The first form builds perfbench/perfbench.exe with dune
and runs one workload; the last line of its standard output is the
JSON result.
--trace 1 also writes the traced run's spans to
perfbench/out/spans-NAME.csv. The second form runs every workload with
tracing off and prints each end-to-end metric, with its unit, and the
error rate (failed ops / attempted ops).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def build():
    """Build the benchmark from source; exit non-zero if that is impossible."""
    missing = [p for p in ("dune-project", "lib", os.path.join("perfbench", "dune"))
               if not os.path.exists(p)]
    if missing:
        sys.exit("perfbench: not at the root of a source checkout (missing %s)"
                 % ", ".join(missing))
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        sys.exit("perfbench: dune not found on PATH")
    # No shared build cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    # Build output goes to stderr: stdout's last line is the result.
    done = subprocess.run(dune + ["build", "--root", ".", "./" + EXE],
                          stdout=sys.stderr, stderr=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % done.returncode)


def run(workload, seed, seconds, trace, capture):
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out = os.path.join("perfbench", "out")
        os.makedirs(out, exist_ok=True)
        args += ["--spans-out", os.path.join(out, "spans-%s.csv" % workload)]
    return subprocess.run(args, stdout=subprocess.PIPE if capture else None,
                          text=True)


def run_all(workloads, seed, seconds):
    ok = True
    print("%-14s %-16s %14s  %s" % ("workload", "metric", "value", "unit"))
    for w in workloads:
        done = run(w, seed, seconds, 0, capture=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("%-14s FAILED (exit %d)" % (w, done.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print("%-14s %-16s %14.4f  %s" % (w, name, m["value"], m["unit"]))
        for line in lines[:-1]:
            if line.endswith("(not gated)"):
                name, value, unit = line.split()[:3]
                print("%-14s %-16s %14.4f  %s (not gated)" % (w, name, float(value), unit))
        rate = result["failed"] / result["attempted"]
        print("%-14s %-16s %14.4f  %s   (%d ops, correct=%s)"
              % (w, "error_rate", rate, "ratio", result["attempted"],
                 result["correct"]))
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def main():
    if not os.path.exists("BENCHMARK.json"):
        sys.exit("perfbench: no BENCHMARK.json; run from the root of a source checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if not a.all and a.workload is None:
        p.error("give --workload NAME or --all")
    build()
    if a.all:
        return run_all(workloads, a.seed, a.seconds)
    return run(a.workload, a.seed, a.seconds, a.trace, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
