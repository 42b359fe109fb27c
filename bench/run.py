#!/usr/bin/env python3
"""Benchmark of seqdec, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload query-cold --seed 1 --seconds 25 --trace 0

The run builds its seeded corpus (the set-up), then repeats one fixed round
of operations, each a ``seqdec`` command line called in-process through
``seqdec.cli.main`` by one caller, one operation at a time, until the timed
phase has lasted ``--seconds``; it always ends on a whole round.  Every
timing, the length of the timed phase too, is at a reference speed of the
host, read from a calibration loop run next to it (see ``calibrate``), so
the number of rounds follows seqdec's speed and not the host's.  After timing,
every output is checked against ``reference.py``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every other round runs under the span recorder of ``spans.py`` and the
metrics are per layer, as means per traced operation.  A longer record goes
to ``bench/results/``.

``--smoke`` runs one round of a few operations of the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
# set iteration order inside seqdec follows string hashes; fixing the hash
# seed makes two runs of one seed do the same work
HASH_SEED = "0"
# besides the run's own set-up, set-up is timed this many times more in
# fresh interpreters, spread over the timed phase, and the median reported
SETUP_SAMPLES = 8
SMOKE_OPS = 6
# The host's speed drifts by 1.4x and more, in phases from under a second
# to tens of seconds, often longer than a run.  A fixed pure-Python loop,
# timed right before and right after every operation (and around every
# set-up), reads the speed of the moment; each timing is scaled by
# CAL_REF_MS over the mean of the two, so it reads as on a host where the
# loop takes CAL_REF_MS.
CAL_LOOPS = 4000
CAL_REF_MS = 1.0
# calibrations timed before and after a set-up, of which the median counts
CAL_SETUP_REPEATS = 5

sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one round of a few operations")
    return p.parse_args(argv)


def import_seqdec():
    """Import seqdec from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "seqdec", "cli.py")):
        raise SystemExit(f"bench: no seqdec source at {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    seqdec = importlib.import_module("seqdec")
    importlib.import_module("seqdec.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(seqdec.__file__))) != SRC:
        raise SystemExit(f"bench: imported seqdec from {seqdec.__file__}, not from src/")
    return seqdec


def build(workload: str, seed: int, workdir: str, seqdec, smoke: bool):
    make_ops = workloads.WORKLOADS[workload]
    shutil.rmtree(workdir, ignore_errors=True)
    ops = make_ops(random.Random(f"{workload}:{seed}"), workloads.Corpus(workdir), seqdec)
    if smoke:
        ops = ops[:: max(1, len(ops) // SMOKE_OPS)][:SMOKE_OPS]
    return ops


def calibrate() -> float:
    """Milliseconds that a fixed piece of pure-Python work takes now."""
    start = time.perf_counter_ns()
    table: dict = {}
    for i in range(CAL_LOOPS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return (time.perf_counter_ns() - start) / 1e6


def calibrate_median() -> float:
    return statistics.median(calibrate() for _ in range(CAL_SETUP_REPEATS))


def at_reference_speed(value: float, *cal_ms: float) -> float:
    """``value``, timed while the calibration loop took ``cal_ms``, at the
    speed where it takes CAL_REF_MS."""
    return value * CAL_REF_MS / statistics.mean(cal_ms)


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(code, stdout: str, out_file: str | None) -> str:
    h = hashlib.sha256(f"{code}\n{stdout}".encode())
    if out_file and os.path.exists(out_file):
        with open(out_file, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Timed:
    """What the timed phase leaves behind for metrics and checks."""

    def __init__(self, n_ops: int):
        # (milliseconds at the reference speed, nanoseconds as measured,
        # traced, raised) of every operation, in the order run
        self.samples: list[tuple[float, int, bool, bool]] = []
        self.cal_ms: list[float] = []  # the calibration each was scaled by
        self.elapsed_ms = 0.0  # sum of the first field
        self.untraced_rounds = 0
        self.traced_rounds = 0
        self.attempted = 0
        self.first: list = [None] * n_ops  # (code, stdout) of round one
        self.digests: list[set] = [set() for _ in range(n_ops)]
        self.exceptions: list[list] = [[] for _ in range(n_ops)]



def timed_phase(cli, ops, seconds: float, min_rounds: int, tracer: Tracer | None,
                between_rounds=None) -> Timed:
    """Whole rounds until ``seconds`` of operation time and ``min_rounds``
    rounds have passed; a traced run alternates untraced and traced rounds.
    ``between_rounds(elapsed_s)`` runs off the clock after every round.
    Both count operation time at the reference speed; the calibration
    loop runs off the clock, before the first operation of each round and
    after every operation."""
    t = Timed(len(ops))
    clock = time.perf_counter_ns
    op_id = 0
    r = 0
    while r < min_rounds or t.elapsed_ms < seconds * 1e3:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        results = []
        cal_before = calibrate()
        for op in ops:
            if traced:
                span = tracer.begin_op(op_id)
            exc = None
            start = clock()
            try:
                code, stdout = call(cli, op.argv)
            except (Exception, SystemExit) as e:  # noqa: BLE001 - every failure is counted
                code, stdout, exc = None, "", e
            end = clock()
            if traced:
                tracer.end_op(span, start, end)
            op_id += 1
            cal_after = calibrate()
            results.append((code, stdout, exc, end - start, (cal_before + cal_after) / 2))
            cal_before = cal_after
        if traced:
            tracer.uninstall()
            t.traced_rounds += 1
        else:
            t.untraced_rounds += 1
        # outside the timed phase: keep round one's outputs, digest the rest
        for i, (op, (code, stdout, exc, ns, cal)) in enumerate(zip(ops, results)):
            t.attempted += 1
            ms = at_reference_speed(ns / 1e6, cal)
            t.samples.append((ms, ns, traced, exc is not None))
            t.cal_ms.append(cal)
            t.elapsed_ms += ms
            if exc is not None:
                # the type and message only: a kept traceback would hold
                # every frame of a deep recursion, and peak memory with it
                t.exceptions[i].append((type(exc), str(exc)))
            if t.first[i] is None:
                t.first[i] = (code, stdout)
            t.digests[i].add(digest(code, stdout, op.out_file))
        r += 1
        if between_rounds is not None:
            between_rounds(t.elapsed_ms / 1e3)
    return t


def verify(ops, t: Timed) -> tuple[int, list[str]]:
    """Failed operations and every error found in the outputs."""
    failed, errors = 0, []
    for i, op in enumerate(ops):
        for kind, message in t.exceptions[i]:
            failed += 1
            if op.known_fault is None or not issubclass(kind, op.known_fault):
                errors.append(f"{op.label}: raised {kind.__name__}: {message}")
        if t.exceptions[i]:
            continue
        code, stdout = t.first[i]
        problem = op.check(code, stdout)
        if problem is None and op.late_check is not None:
            problem = op.late_check()
        if problem is not None:
            errors.append(f"{op.label}: {problem}")
        if len(t.digests[i]) != 1:
            errors.append(f"{op.label}: output differs between rounds")
    return failed, errors


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten operations beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def timed_setup(workload: str, seed: int, smoke: bool) -> float:
    """Seconds from just before ``import seqdec`` to the end of set-up, at
    the reference speed.

    Run in a fresh interpreter, because an import can be timed only once
    per process; ``setup_sample`` prints the result for the parent.
    """
    workdir = os.path.join(BENCH, "work", f"{workload}-{os.getpid()}")
    cal_before = calibrate_median()
    start = time.perf_counter()
    try:
        build(workload, seed, workdir, import_seqdec(), smoke)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return at_reference_speed(elapsed, cal_before, calibrate_median())


def setup_sample(args) -> float:
    """Set-up time of one fresh interpreter."""
    code = (
        f"import sys; sys.path.insert(0, {BENCH!r}); import run; "
        f"print(run.timed_setup({args.workload!r}, {args.seed}, {args.smoke}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run(args) -> dict:
    workdir = os.path.join(BENCH, "work", f"{args.workload}-{os.getpid()}")
    cal_before = calibrate_median()
    start = time.perf_counter()
    seqdec = import_seqdec()
    try:
        ops = build(args.workload, args.seed, workdir, seqdec, args.smoke)
        setup_times = [at_reference_speed(time.perf_counter() - start, cal_before,
                                          calibrate_median())]
        tracer = Tracer() if args.trace else None
        # a traced run needs one untraced and one traced round at least
        seconds = 0.0 if args.smoke else args.seconds

        def sample_setup(elapsed_s: float) -> None:
            # one set-up sample each time another SETUP_SAMPLES-th of the
            # timed phase has passed, so that the samples span the run
            while len(setup_times) <= SETUP_SAMPLES * min(1.0, elapsed_s / max(seconds, 1e-9)):
                setup_times.append(setup_sample(args))

        t = timed_phase(seqdec.cli, ops, seconds, 2 if args.trace else 1, tracer,
                        None if args.trace else sample_setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, errors = verify(ops, t)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "operations_per_round": len(ops),
        "rounds": t.untraced_rounds + t.traced_rounds,
        "errors": errors,
        "setup_samples_s": setup_times,
        "calibration_ms": statistics.median(t.cal_ms),
    }
    untraced_ms = sum(ms for ms, _, traced, _ in t.samples if not traced)
    if args.trace:
        traced_ms = t.elapsed_ms - untraced_ms
        traced_ops = t.traced_rounds * len(ops)
        overhead = (traced_ms / t.traced_rounds) / (untraced_ms / t.untraced_rounds) - 1
        values = tracer.metrics(traced_ops)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        record.update(
            trace_overhead=overhead,
            layer_shares=tracer.layer_shares(),
            absent=tracer.absent,
            spans=len(tracer.names),
        )
        spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.tsv")
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write_spans(spans_path)
    else:
        latencies = [ms for ms, _, _, raised in t.samples if not raised]
        percentile, tail_ms = tail(latencies)
        metrics = {
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "ops_per_s": (t.attempted / (untraced_ms / 1e3), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        measured = [ns / 1e6 for _, ns, _, raised in t.samples if not raised]
        record.update(samples=len(latencies), tail_percentile=percentile,
                      measured_op_p50_ms=statistics.median(measured),
                      measured_ops_per_s=t.attempted / (sum(ns for _, ns, _, _ in t.samples) / 1e9))
    result = {
        "correct": not errors,
        "attempted": t.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record["result"] = result
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    record = run(args)
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for err in record["errors"]:
        print(f"bench: {err}", file=sys.stderr)
    if args.trace:
        print(
            f"bench: trace overhead {record['trace_overhead']:+.1%} against untraced rounds; "
            f"layer shares {json.dumps({k: round(v, 3) for k, v in record['layer_shares'].items()})}",
            file=sys.stderr,
        )
        for fn in record["absent"]:
            print(f"bench: absent, reported as 0: {fn}", file=sys.stderr)
    else:
        print(
            f"bench: {record['samples']} samples, tail is p{record['tail_percentile']:.2f}; "
            f"calibration loop median {record['calibration_ms']:.3f} ms, "
            f"timings scaled to {CAL_REF_MS} ms; as measured, op_p50_ms "
            f"{record['measured_op_p50_ms']:.3f}",
            file=sys.stderr,
        )
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
