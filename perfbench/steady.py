#!/usr/bin/env python3
"""Steadiness evidence: run each workload on ten seeds and report, per
end-to-end metric, the median, the quartiles and their spread
(q3 - q1) / median against the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--out FILE]

Run from the root of a source checkout. Every workload in
BENCHMARK.json runs once per seed 1..10. Quartiles are
statistics.quantiles(values, n=4). --out writes the table as Markdown.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--out")
    a = p.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    rows = []
    ok = True
    for w in names:
        values = {}
        for seed in range(1, RUNS + 1):
            done = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print("%s seed %d: incorrect or failed" % (w, seed))
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2
            bound = bounds[name]
            mark = "" if spread < bound / 3 else "  <-- over bound/3"
            rows.append((w, name, q2, q1, q3, spread, bound))
            print("%-14s %-14s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f  bound %.2f%s"
                  % (w, name, q2, q1, q3, spread, bound, mark), flush=True)
    if a.out:
        with open(a.out, "w") as f:
            f.write("# Steadiness of the gated end-to-end metrics\n\n"
                    "`python3 perfbench/steady.py`: one %d s run per seed "
                    "(seeds 1..%d) on each workload, tracing off. Quartiles "
                    "are `statistics.quantiles(values, n=4)`; spread is "
                    "(q3 - q1) / median.\n\n"
                    % (spec["run_seconds"], RUNS))
            f.write("| workload | metric | median | q1 | q3 | spread | bound |\n")
            f.write("|---|---|---|---|---|---|---|\n")
            for w, name, q2, q1, q3, spread, bound in rows:
                f.write("| %s | %s | %.4f | %.4f | %.4f | %.4f | %.2f |\n"
                        % (w, name, q2, q1, q3, spread, bound))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
