"""The three workloads: seeded inputs, the operations run on them, and the
check of every output against the reference.

``build`` is the set-up step.  It writes the corpus documents under a work
directory and returns one round of operations.  Each operation is a
``seqdec`` command line run in-process through ``seqdec.cli.main``.  Its
check reads the exit code, the stdout payload and any written file, and
returns None or a message saying what is wrong.

Shapes are fixed per workload.  The seed picks symbol names, which symbol
gets which weight or rank, thresholds, comparator tables and sequences, so
every seed does the same amount of work on different inputs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref

# Symbol names are two lower-case letters, so documents and literals keep
# the same size under every seed.
NAME_POOL = ["".join(p) for p in itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=2)]


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    # the output file an operation writes, hashed after every round
    out_file: str | None = None
    # an exception the operation raises every time today (a known fault)
    known_fault: type | None = None
    # checks that need seqdec itself, run after timing with tracing off
    late_check: Callable[[], str | None] | None = None


class Corpus:
    """Writes documents into the work directory under stable names."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def write(self, stem: str, doc: dict) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:04d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def out_path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:04d}-{stem}.out.json")


# ------------------------------------------------------------ seeded inputs


def csr_doc(rng: random.Random, counts) -> dict:
    names = rng.sample(NAME_POOL, len(counts))
    shuffled = list(counts)
    rng.shuffle(shuffled)
    t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return {
        "kind": "csr",
        "alphabet": names,
        "weights": {s: str(t / n) for s, n in zip(names, shuffled)},
        "threshold": str(t),
    }


def osr_doc(rng: random.Random, size: int, span: int, above: int) -> dict:
    names = rng.sample(NAME_POOL, size)
    order = list(names)
    rng.shuffle(order)
    return {
        "kind": "osr",
        "alphabet": names,
        "order": order,
        "threshold_alt": order[above],
        "span": span,
    }


def config_doc(rng: random.Random, window: int) -> dict:
    words = ["".join(b) for b in itertools.product("01", repeat=window)]
    ranks = list(range(len(words)))
    rng.shuffle(ranks)
    return {
        "kind": "config",
        "alphabet": rng.sample(NAME_POOL, 3),
        "window": window,
        "comparator": {"table": dict(zip(words, ranks))},
    }


def random_seq(rng: random.Random, alphabet, horizon: int):
    prefix = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, horizon + 1)))
    cycle = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
    return prefix, cycle


def _payload(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


# -------------------------------------------------------------- query-cold

# (family, shape, evals, analyzes per round): CSR critical counts; OSR
# (symbols, span, symbols above the threshold); config window.  CSR tables
# span 81 to 65536 windows.  `eval` on CSR (3,3,4) costs the same under
# every seed and is mostly the facts build inside `stopping_time`; eighteen
# per round put the median operation inside that one shape, away from the
# config rules, whose cost follows their random tables.
QUERY_SHAPES = [
    ("csr", (2, 2, 2), 2, 2),
    ("csr", (3, 3, 3), 2, 2),
    ("csr", (3, 3, 4), 18, 2),
    ("csr", (4, 4, 4), 2, 2),
    ("csr", (2, 2, 2, 2), 2, 2),
    ("csr", (2, 2, 3, 3), 2, 2),
    ("csr", (2, 3, 3, 3), 2, 2),
    ("osr", (4, 3, 1), 2, 2),
    ("osr", (4, 6, 1), 2, 2),
    ("osr", (5, 4, 2), 2, 2),
    ("osr", (5, 5, 2), 2, 2),
    ("osr", (6, 5, 2), 2, 2),
    ("osr", (6, 6, 3), 2, 2),
    ("config", 3, 2, 2),
    ("config", 4, 2, 2),
    ("config", 5, 2, 2),
    ("config", 6, 2, 2),
]


def _rule_doc(rng, family, shape) -> dict:
    if family == "csr":
        return csr_doc(rng, shape)
    if family == "osr":
        return osr_doc(rng, *shape)
    return config_doc(rng, shape)


def check_eval(rule: ref.WindowRule, seq) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        got = _payload(stdout)
        if code != 0 or not isinstance(got, dict):
            return f"exit {code}, payload {stdout[:200]!r}"
        stop = ref.stop_position(rule, seq)
        want = {
            "decision": rule.decide(seq),
            "stop_position": stop,
            "minimal_sufficient_prefix": " ".join(ref.window(seq, stop)),
        }
        return None if got == want else f"got {got}, reference {want}"

    return check


def check_analyze(rule: ref.WindowRule, seq) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        got = _payload(stdout)
        if code != 0 or not isinstance(got, dict):
            return f"exit {code}, payload {stdout[:200]!r}"
        bound, minimal = ref.minimal_sufficient(rule)
        if got.get("uniform_bound") != bound:
            return f"uniform bound {got.get('uniform_bound')}, reference {bound}"
        segs = [(m["segment"], m["decision"]) for m in got.get("minimal_sufficient", [])]
        want = {(" ".join(w), d) for w, d in minimal}
        if len(segs) != len(want) or set(segs) != want:
            return f"{len(segs)} minimal sufficient segments, reference {len(want)} differ"
        dec, non_dec = ref.decisive(rule.alphabet, minimal)
        if set(got.get("decisive", ())) != set(dec) or set(got.get("non_decisive", ())) != set(
            non_dec
        ):
            return f"decisive {got.get('decisive')}, reference {dec}"
        if got.get("sequence") != ref.seq_text(*seq):
            return f"sequence echoed as {got.get('sequence')!r}"
        stop = ref.stop_position(rule, seq)
        if got.get("stopping_time") != stop or got.get("decision") != rule.decide(seq):
            return (
                f"stop {got.get('stopping_time')} decision {got.get('decision')}, "
                f"reference {stop} {rule.decide(seq)}"
            )
        return None

    return check


def build_query_cold(rng: random.Random, corpus: Corpus, seqdec) -> list[Op]:
    ops = []
    for family, shape, evals, analyzes in QUERY_SHAPES:
        for kind, count in (("eval", evals), ("analyze", analyzes)):
            for _ in range(count):
                doc = _rule_doc(rng, family, shape)
                rule = ref.rule_from_doc(doc)
                seq = random_seq(rng, rule.alphabet, rule.horizon)
                path = corpus.write(f"{family}", doc)
                text = ref.seq_text(*seq)
                if kind == "eval":
                    argv, check = ["eval", path, text], check_eval(rule, seq)
                else:
                    argv, check = ["analyze", path, "--seq", text], check_analyze(rule, seq)
                ops.append(Op(f"{kind} {family} {shape}", argv, check))
    return ops


# ------------------------------------------------------------------- audit

# the larger shapes appear twice, with different seeded rules, so that the
# checkers outweigh the agreement pass's candidate evaluations
AUDIT_CSR_AXIOMS = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (3, 3, 3), (2, 2, 2, 2), (2, 2, 2, 2)]
AUDIT_CSR_IDENTIFY = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)]
AUDIT_OSR = [(4, 3, 1), (4, 3, 2), (5, 3, 2), (5, 4, 2)]
AUDIT_CONFIG = [3, 4, 5]


def _machine_args(horizon: int) -> list[str]:
    # an embedded automaton halts after stop position + 2 steps
    return ["--horizon", str(horizon), "--budget", str(2 * horizon + 4)]


class AuditDocs:
    """Rule, compiled automaton and embedded machine documents of a rule."""

    def __init__(self, corpus: Corpus, seqdec):
        self.corpus = corpus
        self.seqdec = seqdec

    def automaton_doc(self, rule_doc: dict) -> dict:
        sd = self.seqdec
        aut = sd.compile_rule(sd.heuristics.rule_from_dict(rule_doc))
        return sd.automaton.to_json_dict(aut)

    def machine_doc(self, automaton_doc: dict) -> dict:
        sd = self.seqdec
        tm = sd.automaton_to_tm(sd.automaton.from_json_dict(automaton_doc))
        doc = sd.machines.to_json_dict(tm)
        doc["input_alphabet"] = list(automaton_doc["alphabet"])
        return doc

    def all_kinds(self, stem: str, rule_doc: dict, horizon: int):
        """(document kind, path, extra arguments) for the three kinds."""
        aut = self.automaton_doc(rule_doc)
        return [
            ("rule", self.corpus.write(stem, rule_doc), []),
            ("automaton", self.corpus.write(stem + "-aut", aut), []),
            (
                "machine",
                self.corpus.write(stem + "-tm", self.machine_doc(aut)),
                _machine_args(horizon),
            ),
        ]


def _reports(code: int, stdout: str, want_code: int, suite: str):
    got = _payload(stdout)
    if code != want_code or not isinstance(got, list):
        return None, f"exit {code} (want {want_code}), payload {stdout[:200]!r}"
    axioms = [r.get("axiom") for r in got]
    if axioms != list(ref.SUITES[suite]):
        return None, f"suite {suite} reported {axioms}"
    return got, None


def check_suite_passes(suite: str, bound: int) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        reports, err = _reports(code, stdout, 0, suite)
        if err:
            return err
        for r in reports:
            if r["verdict"] != "pass":
                return f"{r['axiom']} failed on a {suite} rule: {r['witness']}"
            if r["horizon"] != bound:
                return f"{r['axiom']} horizon {r['horizon']}, reference bound {bound}"
        return None

    return check


def check_broken(rule: ref.WindowRule, axiom: str, suite: str) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        reports, err = _reports(code, stdout, 1, suite)
        if err:
            return err
        by_axiom = {r["axiom"]: r for r in reports}
        if by_axiom[axiom]["verdict"] != "fail":
            return f"broken rule for {axiom} passed it"
        for r in reports:
            if r["verdict"] == "fail" and not ref.replay(rule, r["axiom"], r["witness"]):
                return f"{r['axiom']} witness does not replay: {r['witness']}"
        return None

    return check


def check_identify_csr(rule: ref.Csr) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        got = _payload(stdout)
        if code != 0 or not isinstance(got, dict) or got.get("rule", {}).get("kind") != "csr":
            return f"exit {code}, payload {stdout[:200]!r}"
        if not isinstance(got.get("checked"), int) or got["checked"] < 1:
            return f"agreement checked {got.get('checked')!r} inputs"
        recovered = ref.Csr.from_doc(got["rule"])
        if recovered.counts != rule.counts:
            return f"critical counts {recovered.counts}, reference {rule.counts}"
        return None

    return check


def check_identify_osr(rule: ref.Osr) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        got = _payload(stdout)
        if code != 0 or not isinstance(got, dict) or got.get("rule", {}).get("kind") != "osr":
            return f"exit {code}, payload {stdout[:200]!r}"
        if not isinstance(got.get("checked"), int) or got["checked"] < 1:
            return f"agreement checked {got.get('checked')!r} inputs"
        recovered = ref.Osr.from_doc(got["rule"])
        depth = max(rule.horizon, recovered.horizon)
        for word in itertools.product(rule.alphabet, repeat=depth):
            for cyc in rule.alphabet:
                seq = ref.closure(word, cyc)
                if recovered.decide(seq) != rule.decide(seq):
                    return f"recovered rule disagrees on {ref.seq_text(*seq)!r}"
        return None

    return check


def build_audit(rng: random.Random, corpus: Corpus, seqdec) -> list[Op]:
    docs = AuditDocs(corpus, seqdec)
    ops = []

    def add_suite(family, shape, doc, suite):
        rule = ref.rule_from_doc(doc)
        bound, _ = ref.minimal_sufficient(rule)
        for kind, path, extra in docs.all_kinds(family, doc, rule.horizon):
            ops.append(
                Op(
                    f"axioms {family} {shape} {kind}",
                    ["axioms", path, "--suite", suite, *extra],
                    check_suite_passes(suite, bound),
                )
            )

    for shape in AUDIT_CSR_AXIOMS:
        add_suite("csr", shape, csr_doc(rng, shape), "csr")
    for shape in AUDIT_OSR:
        add_suite("osr", shape, osr_doc(rng, *shape), "osr")
    for window in AUDIT_CONFIG:
        add_suite("config", window, config_doc(rng, window), "config")

    # the broken rules do not depend on the seed
    for axiom, (rule, suite) in ref.broken_rules().items():
        aut = ref.tabulate(rule)
        kinds = [
            ("automaton", corpus.write("broken-aut", aut), []),
            ("machine", corpus.write("broken-tm", docs.machine_doc(aut)), _machine_args(rule.horizon)),
        ]
        for kind, path, extra in kinds:
            ops.append(
                Op(
                    f"axioms broken {axiom} {kind}",
                    ["axioms", path, "--suite", suite, *extra],
                    check_broken(rule, axiom, suite),
                )
            )

    for shape in AUDIT_CSR_IDENTIFY:
        doc = csr_doc(rng, shape)
        rule = ref.Csr.from_doc(doc)
        for kind, path, extra in docs.all_kinds("csr", doc, rule.horizon):
            ops.append(
                Op(f"identify csr {shape} {kind}", ["identify", path, "--as", "csr", *extra],
                   check_identify_csr(rule))
            )
    for shape in AUDIT_OSR:
        doc = osr_doc(rng, *shape)
        rule = ref.Osr.from_doc(doc)
        for kind, path, extra in docs.all_kinds("osr", doc, rule.horizon):
            ops.append(
                Op(f"identify osr {shape} {kind}", ["identify", path, "--as", "osr", *extra],
                   check_identify_osr(rule))
            )
    return ops


# ----------------------------------------------------------- compile-scale

COMPILE_CSR3 = [8, 10, 12]  # csr3/c: weights 1/c, 3 symbols, c^3 + 3 states
# {a: 1/n, b: 1}: n + 2 states.  Minimizing chain300 is the slowest
# operation; three of them per round keep the tail inside one shape.
COMPILE_CHAINS = [100, 200, 300, 300, 300]
COMPILE_OSR = [(24, 6, 8), (40, 5, 12)]  # wide: (symbols, span, symbols above)
COMPILE_CONFIG = [6, 7]
# compiled without --minimize only, so that fewer small minimize operations
# sit just above the median group; the rest are compiled both ways
COMPILE_PLAIN_ONLY = {"osr24/6", "config6"}
# Compiling csr3/10 without --minimize costs the same under every seed and
# is compiler, verify_stopping and JSON output; these extra ones put the
# median operation in that group, away from the seeded config tables.
COMPILE_MEDIAN_CSR3 = 12
KNOWN_FAULT_CHAIN = 1500
SAMPLE_SEQUENCES = 40


def check_compile(rule: ref.WindowRule, bound: int, out_file: str, sample_seed: int):
    def check(code: int, stdout: str) -> str | None:
        got = _payload(stdout)
        if code != 0 or not isinstance(got, dict):
            return f"exit {code}, payload {stdout[:200]!r}"
        with open(out_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        if got.get("state_count") != len(doc["states"]):
            return f"state_count {got.get('state_count')} but {len(doc['states'])} states written"
        walked = ref.longest_undecided_path(doc)
        if got.get("uniform_bound") != walked or walked != bound:
            return f"bound {got.get('uniform_bound')}, walked {walked}, reference {bound}"
        if isinstance(rule, ref.Csr) and len(doc["states"]) != rule.minimal_states():
            return f"{len(doc['states'])} states, closed form {rule.minimal_states()}"
        rng = random.Random(sample_seed)
        seqs = [((), (s,)) for s in rule.alphabet]
        seqs += [random_seq(rng, rule.alphabet, bound) for _ in range(SAMPLE_SEQUENCES)]
        for seq in seqs:
            run = ref.automaton_decide(doc, seq)
            if run is None or run[0] != rule.decide(seq):
                return f"decides {run} on {ref.seq_text(*seq)!r}, reference {rule.decide(seq)}"
        return None

    return check


def idempotent_minimize(seqdec, out_file: str) -> Callable[[], str | None]:
    """Minimizing an emitted minimal automaton changes nothing."""

    def check() -> str | None:
        with open(out_file, encoding="utf-8") as fh:
            aut = seqdec.automaton.from_json_dict(json.load(fh))
        again = seqdec.minimize(aut)
        if len(again.states) != len(aut.states) or not seqdec.isomorphic(aut, again):
            return f"minimizing again gives {len(again.states)} states, not {len(aut.states)}"
        return None

    return check


def build_compile_scale(rng: random.Random, corpus: Corpus, seqdec) -> list[Op]:
    rules = [(f"csr3/{c}", csr_doc(rng, (c, c, c))) for c in COMPILE_CSR3]
    rules += [(f"chain{n}", csr_doc(rng, (n, 1))) for n in COMPILE_CHAINS]
    rules += [(f"osr{size}/{span}", osr_doc(rng, size, span, above)) for size, span, above in COMPILE_OSR]
    rules += [(f"config{w}", config_doc(rng, w)) for w in COMPILE_CONFIG]
    rules = [(label, doc, (False,) if label in COMPILE_PLAIN_ONLY else (False, True))
             for label, doc in rules]
    rules += [("csr3/10", csr_doc(rng, (10, 10, 10)), (False,)) for _ in range(COMPILE_MEDIAN_CSR3)]
    ops = []
    for label, doc, variants in rules:
        rule = ref.rule_from_doc(doc)
        bound, _ = (
            (rule.horizon, None)
            if not isinstance(rule, ref.Config)
            else ref.brute_minimal_sufficient(rule)
        )
        path = corpus.write(label.replace("/", "-"), doc)
        for minimize in variants:
            out = corpus.out_path(label.replace("/", "-"))
            argv = ["compile", path, "--out", out] + (["--minimize"] if minimize else [])
            ops.append(
                Op(
                    f"compile {label}" + (" --minimize" if minimize else ""),
                    argv,
                    check_compile(rule, bound, out, rng.randrange(2**32)),
                    out_file=out,
                    late_check=idempotent_minimize(seqdec, out) if minimize else None,
                )
            )
    # Kept failure: verify_stopping recurses once per chain link and raises
    # RecursionError on this chain every time, so the operation is counted as
    # failed until that is mended; it checks like any other compile after.
    doc = csr_doc(rng, (KNOWN_FAULT_CHAIN, 1))
    rule = ref.Csr.from_doc(doc)
    path = corpus.write(f"chain{KNOWN_FAULT_CHAIN}", doc)
    out = corpus.out_path(f"chain{KNOWN_FAULT_CHAIN}")
    ops.append(
        Op(
            f"compile chain{KNOWN_FAULT_CHAIN}",
            ["compile", path, "--out", out],
            check_compile(rule, rule.horizon, out, rng.randrange(2**32)),
            out_file=out,
            known_fault=RecursionError,
        )
    )
    return ops


WORKLOADS = {
    "query-cold": build_query_cold,
    "audit": build_audit,
    "compile-scale": build_compile_scale,
}
