#!/usr/bin/env python3
"""Steadiness report: do two sets of runs of one commit agree?

    python3 bench/steadiness.py

Runs ``bench/run.py`` untraced ten times per workload of ``BENCHMARK.json``
in each of two sets, every run with its own seed (set k uses seeds
k*100+1 ... k*100+10), one run at a time.  For every end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance over
the median), and whether

* both sets' spreads stay within the metric's bound,
* the two medians differ, either way, by no more than the bound (as a
  share of the first), and
* the share of failed operations is the same in every run.

The table and the raw runs go to ``bench/results/steadiness.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = 10
SETS = 2


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [[one_run(spec, w, k * 100 + i + 1) for i in range(RUNS)] for k in range(SETS)]
            for w in names}

    ok = True
    table = []
    for w in names:
        shares = {r["failed"] / r["attempted"] for s in runs[w] for r in s}
        correct = all(r["correct"] for s in runs[w] for r in s)
        print(f"{w}: failed share {sorted(shares)}, all correct {correct}")
        ok &= len(shares) == 1 and correct
        for m in spec["end_to_end"]:
            sets = [summarize([r["metrics"][m["name"]]["value"] for r in s]) for s in runs[w]]
            spread_ok = all(s["spread"] <= m["bound"] for s in sets)
            drift = worse_by(sets[0]["median"], sets[1]["median"], m["better"])
            agree = spread_ok and abs(drift) <= m["bound"]
            ok &= agree
            cells = "  ".join(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['spread']:.1%}"
                              for s in sets)
            print(f"  {m['name']:<12} {cells}  worse by {drift:+.1%}  bound {m['bound']:.0%}  "
                  f"{'agree' if agree else 'DISAGREE'}")
            table.append({"workload": w, "metric": m["name"], "bound": m["bound"], "sets": sets,
                          "later_worse_by": drift, "agree": agree})
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    with open(os.path.join(BENCH, "results", "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump({"table": table, "runs": runs}, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
