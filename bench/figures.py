#!/usr/bin/env python3
"""Reference figures for the slow cases, outside the workloads.

    python3 bench/figures.py

Each case runs once in a fresh interpreter, under a 2 GiB address-space
limit and a 600 s timeout, and reports its wall time, its peak resident set
and how it ended: ``ok``, ``error`` (with the exception), ``resource`` (out
of memory) or ``timeout``.  Slow and failing cases are the point, so they
stay in the table.  The table goes to stdout and to
``bench/results/figures.json``.

Cases: ``csr3/c`` is the three-symbol rule with weights 1/c and threshold 1
(uniform bound 3c - 2); ``chain1500`` is {a: 1/1500, b: 1}, threshold 1
(1502 states).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MEMORY_LIMIT = 2 << 30
TIMEOUT_S = 600


def csr3(c: int) -> dict:
    return {"kind": "csr", "alphabet": ["a", "b", "c"],
            "weights": {s: f"1/{c}" for s in "abc"}, "threshold": "1"}


CHAIN1500 = {"kind": "csr", "alphabet": ["a", "b"],
             "weights": {"a": "1/1500", "b": "1"}, "threshold": "1"}


def cli(*argv: str):
    """(prepare, call) for a seqdec command line on the case's document."""

    def call(seqdec, path):
        with contextlib.redirect_stdout(io.StringIO()):
            code = seqdec.cli.main([argv[0], path, *argv[1:]])
        if code != 0:
            raise RuntimeError(f"exit code {code}")

    return (lambda seqdec, path: path), call


def checker(name: str):
    """(prepare, call) for one axiom checker; the facts build is not timed."""

    def prepare(seqdec, path):
        with open(path, encoding="utf-8") as fh:
            spec = seqdec.heuristics.rule_from_dict(json.load(fh))
        handle = seqdec.RuleHandle.from_rule(spec)
        seqdec.uniform_bound_search(handle)
        return handle

    return prepare, lambda seqdec, handle: getattr(seqdec.analysis, name)(handle)


def automaton_pass(name: str):
    """(prepare, call) for one automaton pass; compiling is not timed."""

    def prepare(seqdec, path):
        with open(path, encoding="utf-8") as fh:
            return seqdec.compile_rule(seqdec.heuristics.rule_from_dict(json.load(fh)))

    return prepare, lambda seqdec, aut: getattr(seqdec.automaton, name)(aut)


CASES = {
    "eval csr3/3": (csr3(3), *cli("eval", "|a b c")),
    "eval csr3/4": (csr3(4), *cli("eval", "|a b c")),
    "eval csr3/5": (csr3(5), *cli("eval", "|a b c")),
    "check_informational_dominance csr3/3": (csr3(3), *checker("check_informational_dominance")),
    "check_informational_dominance csr3/4": (csr3(4), *checker("check_informational_dominance")),
    "identify csr3/4": (csr3(4), *cli("identify", "--as", "csr")),
    "decidedness chain1500": (CHAIN1500, *automaton_pass("decidedness")),
    "minimize chain1500": (CHAIN1500, *automaton_pass("minimize")),
    "verify_stopping chain1500": (CHAIN1500, *automaton_pass("verify_stopping")),
    "compile chain1500": (CHAIN1500, *cli("compile")),
}


def run_case(name: str) -> dict:
    """Runs in the child: time one case, report it as JSON."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import seqdec
    import seqdec.cli

    doc, prepare, call = CASES[name]
    path = os.path.join(BENCH, "work", f"figure-{os.getpid()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    status, seconds = "ok", None
    try:
        prepared = prepare(seqdec, path)
        start = time.perf_counter()
        try:
            call(seqdec, prepared)
        finally:
            seconds = time.perf_counter() - start
    except MemoryError:
        status = "resource"
    except Exception as exc:  # noqa: BLE001 - the failure is the figure
        status = f"error: {type(exc).__name__}"
    finally:
        os.remove(path)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"case": name, "seconds": seconds, "peak_rss_mb": peak, "status": status}


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--case":
        print(json.dumps(run_case(sys.argv[2])))
        return 0
    rows = []
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    for name in CASES:
        cmd = [sys.executable, os.path.abspath(__file__), "--case", name]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S,
                                  preexec_fn=limit_memory, env=env)
            row = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {
                "case": name, "seconds": None, "peak_rss_mb": None,
                "status": f"died: exit {proc.returncode}"}
        except subprocess.TimeoutExpired:
            row = {"case": name, "seconds": TIMEOUT_S, "peak_rss_mb": None, "status": "timeout"}
        rows.append(row)
        secs = "-" if row["seconds"] is None else f"{row['seconds']:.3f} s"
        rss = "-" if row["peak_rss_mb"] is None else f"{row['peak_rss_mb']:.0f} MB"
        print(f"{name:<40} {secs:>12} {rss:>8}  {row['status']}", flush=True)
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    with open(os.path.join(BENCH, "results", "figures.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
