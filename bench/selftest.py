#!/usr/bin/env python3
"""Self-test of the benchmark's checks, plus a smoke run of every workload.

    python3 bench/selftest.py

Planted faults: real outputs of seqdec are taken, one field is made wrong
(a flipped decision, an off-by-one stop, a wrong bound, a witness that does
not replay, a wrong recovered count, a flipped automaton output), and the
workload's check must reject each one while accepting the true output.

Reference: the score-threshold closed forms are compared with brute force
on small rules.

Smoke: ``run.py --smoke`` runs a few operations of each workload, traced
and untraced, and must report correct results under the metric names of
``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(what: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def find(ops, prefix: str):
    return next(op for op in ops if op.label.startswith(prefix))


def planted(cli, op, what: str, mutate) -> None:
    """The check accepts the true stdout payload and rejects a mutated one."""
    code, stdout = run.call(cli, op.argv)
    expect(f"{op.label}: true output accepted", op.check(code, stdout) is None)
    bad = json.dumps(mutate(json.loads(stdout)))
    expect(f"{op.label}: {what} rejected", op.check(code, bad) is not None)


def other(symbols, s):
    return next(x for x in symbols if x != s)


def planted_file(cli, op, what: str, mutate) -> None:
    """The check rejects a mutated automaton file behind a true payload."""
    code, stdout = run.call(cli, op.argv)
    expect(f"{op.label}: true output accepted", op.check(code, stdout) is None)
    doc = load(op.out_file)
    with open(op.out_file, "w", encoding="utf-8") as fh:
        json.dump(mutate(copy.deepcopy(doc)), fh)
    expect(f"{op.label}: {what} rejected", op.check(code, stdout) is not None)


def query_cold_faults(cli, ops) -> None:
    for family in ("csr", "osr", "config"):
        op = find(ops, f"eval {family}")
        alphabet = load(op.argv[1])["alphabet"]
        planted(cli, op, "flipped decision",
                lambda p: {**p, "decision": other(alphabet, p["decision"])})
        seq = ref.parse_seq(op.argv[2])

        def late_stop(p, seq=seq):
            stop = p["stop_position"] + 1
            return {**p, "stop_position": stop,
                    "minimal_sufficient_prefix": " ".join(ref.window(seq, stop))}

        planted(cli, op, "off-by-one stop", late_stop)
        op = find(ops, f"analyze {family}")
        planted(cli, op, "wrong uniform bound", lambda p: {**p, "uniform_bound": p["uniform_bound"] + 1})
        planted(cli, op, "dropped minimal segment",
                lambda p: {**p, "minimal_sufficient": p["minimal_sufficient"][1:]})


# one subtle change per axiom that the witness must not survive
WITNESS_FAULTS = {
    "monotonicity": lambda w, ab: {**w, "position": w["position"] + 1},
    "informational-dominance": lambda w, ab: {**w, "decision": other(ab, w["decision"])},
    "replacement": lambda w, ab: {**w, "decision_a": w["decision_b"]},
    "sequential-alpha": lambda w, ab: {**w, "decision_m": w["decision_m_prime"]},
    "sequential-nbc": lambda w, ab: {**w, "segment_xy": w["segment_yz"], "segment_yz": w["segment_xy"]},
    "neutrality": lambda w, ab: {**w, "decision": other(ab, w["decision"])},
    "acyclicity": lambda w, ab: {
        **w, "edges": [{**w["edges"][0], "winner": w["edges"][0]["loser"],
                        "loser": w["edges"][0]["winner"]}] + w["edges"][1:]},
}


def audit_faults(cli, ops) -> None:
    for axiom, fault in WITNESS_FAULTS.items():
        op = find(ops, f"axioms broken {axiom} automaton")
        alphabet = load(op.argv[1])["alphabet"]

        def bad_witness(reports, axiom=axiom, fault=fault, alphabet=alphabet):
            return [{**r, "witness": fault(r["witness"], alphabet)} if r["axiom"] == axiom else r
                    for r in reports]

        planted(cli, op, f"{axiom} witness that does not replay", bad_witness)
        planted(cli, op, f"{axiom} reported as passing",
                lambda rs, axiom=axiom: [{**r, "verdict": "pass", "witness": None}
                                         if r["axiom"] == axiom else r for r in rs])
    op = find(ops, "axioms csr (2, 2, 2) rule")
    planted(cli, op, "wrong horizon", lambda rs: [{**r, "horizon": r["horizon"] + 1} for r in rs])
    planted(cli, op, "flipped verdict", lambda rs: [{**rs[0], "verdict": "fail"}] + rs[1:])
    op = find(ops, "identify csr (2, 2, 2) machine")

    def wrong_count(p):
        weights = dict(p["rule"]["weights"])
        s = sorted(weights)[0]
        weights[s] = "1/7"
        return {**p, "rule": {**p["rule"], "weights": weights}}

    planted(cli, op, "wrong critical count", wrong_count)
    op = find(ops, "identify osr (4, 3, 1) automaton")
    planted(cli, op, "recovered rule that disagrees",
            lambda p: {**p, "rule": {**p["rule"], "order": p["rule"]["order"][::-1]}})


def compile_faults(cli, ops) -> None:
    op = find(ops, "compile csr3/8 --minimize")
    planted(cli, op, "wrong bound", lambda p: {**p, "uniform_bound": p["uniform_bound"] - 1})
    planted(cli, op, "wrong state count", lambda p: {**p, "state_count": p["state_count"] + 1})

    def flip_output(doc):
        state, out = sorted(doc["terminal"].items())[0]
        doc["terminal"][state] = other(doc["alphabet"], out)
        return doc

    planted_file(cli, op, "flipped automaton output", flip_output)
    op = find(ops, "compile chain100")

    def shortcut(doc):
        # the second chain state jumps straight to a decision
        start = doc["transitions"][doc["initial"]]
        inner = [t for t in start.values() if t not in doc["terminal"]][0]
        row = doc["transitions"][inner]
        target = [t for t in doc["terminal"]][0]
        for s in row:
            if row[s] not in doc["terminal"]:
                row[s] = target
        return doc

    planted_file(cli, op, "automaton with its chain cut short", shortcut)


def reference_consistency() -> None:
    rng = random.Random(7)
    for counts in [(1, 2), (2, 3), (2, 2, 2), (1, 3, 3), (3, 2, 1, 2)]:
        doc = workloads.csr_doc(rng, counts)
        rule = ref.Csr.from_doc(doc)
        bound, minimal = ref.brute_minimal_sufficient(rule)
        expect(f"csr {counts}: closed-form bound equals brute force", bound == rule.uniform_bound())
        expect(f"csr {counts}: minimal segments equal brute force",
               sorted(minimal) == sorted(rule.minimal_sufficient()))
        seqs = [workloads.random_seq(rng, rule.alphabet, bound) for _ in range(50)]
        expect(f"csr {counts}: first crossing equals brute-force stop",
               all(rule.stop(s) == ref.brute_stop(rule, s) for s in seqs))
        aut = ref.tabulate(rule)
        expect(f"csr {counts}: tabulated automaton walks to the bound",
               ref.longest_undecided_path(aut) == bound)
        expect(f"csr {counts}: tabulated automaton decides like the rule",
               all(ref.automaton_decide(aut, s)[0] == rule.decide(s) for s in seqs))


def smoke(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, "bench/run.py", "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            ok = proc.returncode == 0
            if ok:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
                ok = result["correct"] and sorted(result["metrics"]) == sorted(names)
            expect(f"smoke {w['name']} trace {trace}", ok)
            if not ok:
                print(proc.stderr[-2000:])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seqdec = run.import_seqdec()
    workdir = os.path.join(BENCH, "work", f"selftest-{os.getpid()}")
    try:
        for name, faults in (("query-cold", query_cold_faults), ("audit", audit_faults),
                             ("compile-scale", compile_faults)):
            ops = run.build(name, 1, os.path.join(workdir, name), seqdec, smoke=False)
            faults(seqdec.cli, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference_consistency()
    smoke(spec)
    print(f"{len(FAILURES)} failures" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
