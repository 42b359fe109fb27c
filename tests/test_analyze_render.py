"""The bytes ``seqdec analyze`` prints and writes.

``analyze`` renders its minimal-segment list one open word at a time, from
one plan of record text per open state, and splices it into the dumped rest
of the payload.
``oracle_analyze_text`` is the rendering it replaced: one dict per segment,
words walked breadth first from the automaton, and the whole payload dumped
with ``json.dumps(indent=2, sort_keys=True)``.  Stdout and ``--out`` bytes
must equal the oracle's on the acceptance corpus, the mutants' tabulated
automata, a machine document, random rules whose symbol names need
escaping, the benchmark's largest query shapes, a rule decided before any
symbol and an automaton with no decided word of length one, and SHA-256
prefixes of stdout are pinned for fixed documents.  Rendering steps each
open state's successors once.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import seqdec.cli
from seqdec.analysis import RuleHandle, decisive_set, stopping_time, tabulate_automaton
from seqdec.automaton import to_json as automaton_to_json
from seqdec.cli import _load, build_parser, main
from seqdec.core import Alphabet
from seqdec.heuristics import (
    Comparator, ConfigRuleSpec, CsrSpec, OsrSpec, compile_rule, rule_to_json,
)
from seqdec.machines import automaton_to_tm, to_json as tm_to_json
from tests.conftest import build_twosym_threshold2
from tests.mutants import MUTANTS
from tests.test_acceptance import build_corpus
from tests.test_facts import rule_specs

ABC = Alphabet(("a", "b", "c"))
# symbol names JSON escapes, none with a space: a quote, a backslash, a
# slash (left as it is), non-ASCII in and past the BMP, a control character
# and a name that reads like an escape
ESCAPED_NAMES = ['"', "\\", "/", "é", "😀", "\x07", 'a"b', "\\u0041"]
MACHINE_FLAGS = ["--horizon", "4", "--budget", "100", "--alphabet", "a b c"]


def oracle_analyze_text(rule: RuleHandle, literal: str | None = None) -> str:
    """What ``analyze`` printed when it built a dict per minimal segment
    and dumped the whole payload."""
    facts, names = rule.facts, rule.alphabet.symbols
    minimal, frontier = [], [((), facts.start)]
    while frontier:
        nxt = []
        for word, state in frontier:
            got = facts.decision(state)
            if got is not None:
                minimal.append((word, got))
            else:
                nxt.extend((word + (i,), r) for i, r in enumerate(facts.automaton.rows[state]))
        frontier = nxt
    payload = {
        "uniform_bound": facts.bound,
        "minimal_sufficient": [
            {"segment": " ".join(names[i] for i in word), "decision": dec} for word, dec in minimal
        ],
    }
    dset = decisive_set(rule)
    payload["decisive"] = list(dset.decisive)
    payload["non_decisive"] = list(dset.complement)
    if literal is not None:
        seq = rule.alphabet.sequence(literal)
        payload["sequence"] = seq.text()
        payload["stopping_time"] = stopping_time(rule, seq)
        payload["decision"] = rule.decide(seq)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def literal_of(names) -> str:
    return f"{names[-1]}|{names[0]} {names[-1]}"


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def assert_renders_as_oracle(tmp_path, text: str, flags=()) -> None:
    """Stdout and ``--out`` bytes equal the oracle's, with and without ``--seq``."""
    path, out_file = tmp_path / "doc.json", tmp_path / "out.json"
    path.write_text(text, encoding="utf-8")
    argv = ["analyze", str(path), *flags]
    rule = _load(str(path), build_parser().parse_args(argv))
    for literal in (None, literal_of(rule.alphabet.symbols)):
        seq = [] if literal is None else ["--seq", literal]
        want = oracle_analyze_text(rule, literal)
        assert run(argv + seq) == (0, want)
        assert run(argv + seq + ["--out", str(out_file)]) == (0, "")
        assert out_file.read_bytes() == want.encode()


def machine_text() -> str:
    spec = CsrSpec(ABC, {s: Fraction(1) for s in ABC}, Fraction(2))
    return tm_to_json(automaton_to_tm(compile_rule(spec)))


def test_corpus_mutants_and_a_machine_render_as_the_oracle(tmp_path):
    for spec in build_corpus():
        assert_renders_as_oracle(tmp_path, rule_to_json(spec))
    for make in MUTANTS.values():
        assert_renders_as_oracle(tmp_path, automaton_to_json(tabulate_automaton(make())))
    assert_renders_as_oracle(tmp_path, machine_text(), MACHINE_FLAGS)


escaped_alphabets = st.lists(
    st.sampled_from(ESCAPED_NAMES), min_size=2, max_size=3, unique=True
).map(lambda names: Alphabet(tuple(names)))


@settings(max_examples=60, deadline=None)
@given(spec=rule_specs(escaped_alphabets))
def test_escaped_symbol_names_render_as_the_oracle(tmp_path_factory, spec):
    assert_renders_as_oracle(tmp_path_factory.mktemp("doc"), rule_to_json(spec))


TWO_LETTERS = ["".join(p) for p in itertools.product(string.ascii_lowercase, repeat=2)]


def query_document(family: str, shape, seed: int) -> str:
    """A rule of one of the benchmark's query shapes, drawn from ``seed``:
    CSR critical counts, OSR (symbols, span, symbols above the threshold)
    or a config window with a random rank table."""
    rng = random.Random(seed)
    if family == "csr":
        names = rng.sample(TWO_LETTERS, len(shape))
        t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        counts = rng.sample(shape, len(shape))
        return rule_to_json(CsrSpec(Alphabet(tuple(names)), {s: t / c for s, c in zip(names, counts)}, t))
    if family == "osr":
        size, span, above = shape
        order = tuple(rng.sample(TWO_LETTERS, size))
        return rule_to_json(OsrSpec(Alphabet(tuple(sorted(order))), order, order[above], span))
    words = [format(i, f"0{shape}b") for i in range(2 ** shape)]
    table = dict(zip(words, rng.sample(range(len(words)), len(words))))
    alphabet = Alphabet(tuple(rng.sample(TWO_LETTERS, 3)))
    return rule_to_json(ConfigRuleSpec(alphabet, shape, Comparator(shape, table=table)))


QUERY_SHAPES = [("csr", (4, 4, 4)), ("csr", (2, 3, 3, 3)), ("osr", (6, 6, 3)), ("config", 6)]


@pytest.mark.parametrize("family, shape", QUERY_SHAPES)
def test_query_shapes_render_as_the_oracle(tmp_path, family, shape):
    for seed in (1, 2):
        assert_renders_as_oracle(tmp_path, query_document(family, shape, seed))


def late_automaton() -> dict:
    # no word of length one decides, so the start's state lists no segment
    absorbing = {"x": "tx", "y": "tx"}, {"x": "ty", "y": "ty"}
    return {
        "alphabet": ["x", "y"], "states": ["q0", "q1", "q2", "tx", "ty"], "initial": "q0",
        "transitions": {
            "q0": {"x": "q1", "y": "q2"}, "q1": {"x": "tx", "y": "q2"},
            "q2": {"x": "ty", "y": "tx"}, "tx": absorbing[0], "ty": absorbing[1],
        },
        "terminal": {"tx": "x", "ty": "y"},
    }


def test_edge_shapes_render_as_the_oracle(tmp_path):
    assert_renders_as_oracle(tmp_path, json.dumps(constant_automaton()))
    assert_renders_as_oracle(tmp_path, json.dumps(late_automaton()))
    # 26 symbols, every name escaped but the three that end in a slash, which JSON keeps
    names = tuple(c + ESCAPED_NAMES[k % len(ESCAPED_NAMES)] for k, c in enumerate(string.ascii_lowercase))
    assert_renders_as_oracle(tmp_path, rule_to_json(OsrSpec(Alphabet(names), names[::-1], names[20], 2)))


def test_rendering_steps_once_per_open_state_and_symbol(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(query_document("csr", (4, 4, 4), 1), encoding="utf-8")
    argv = ["analyze", str(path)]
    rule = _load(str(path), build_parser().parse_args(argv))
    want, facts = oracle_analyze_text(rule), rule.facts
    # built before counting: the count check reads the open states
    opened, steps = facts.open_states, []

    class CountedRows(tuple):
        def __getitem__(self, state):
            steps.append(state)
            return tuple.__getitem__(self, state)

    vars(facts.automaton)["rows"] = CountedRows(facts.automaton.rows)
    monkeypatch.setattr(seqdec.cli, "_load", lambda *_: rule)
    assert run(argv) == (0, want)
    assert len(opened) == 64 and want.count('"segment"') == 10497
    # each open state's row is read once, for all its symbols
    assert sorted(steps) == sorted(opened)


def constant_automaton() -> dict:
    # decided before the first symbol: its one minimal segment is empty
    return {
        "alphabet": ["x", "y"], "states": ["q", "t"], "initial": "q",
        "transitions": {"q": {"x": "t", "y": "t"}, "t": {"x": "t", "y": "t"}},
        "terminal": {"t": "x"},
    }


def golden_document(case: str) -> tuple[str, list[str]]:
    """Document text and flags of one pinned case."""
    kind, _, shape = case.partition(":")
    if kind == "csr":
        names, weights, threshold = shape.split()
        return json.dumps({
            "kind": "csr", "alphabet": list(names),
            "weights": dict(zip(names, weights.split(","))), "threshold": threshold,
        }), []
    if kind == "csr-escaped":
        names = ESCAPED_NAMES[:3] if shape == "low" else ESCAPED_NAMES[3:6]
        weights = dict(zip(names, map(Fraction, (1, 1, 2))))
        return rule_to_json(CsrSpec(Alphabet(tuple(names)), weights, Fraction(2))), []
    if kind == "osr":
        names, threshold, span = shape.split()
        alphabet = Alphabet(tuple(names))
        return rule_to_json(OsrSpec(alphabet, tuple(names), threshold, int(span))), []
    if kind == "osr-escaped":
        names = tuple(ESCAPED_NAMES[4:])
        return rule_to_json(OsrSpec(Alphabet(names), names, names[1], 2)), []
    if kind == "config":
        names, window, comparator = shape.split()
        if comparator == "table":
            words = [format(i, f"0{window}b") for i in range(2 ** int(window))]
            table = {w: (3 * int(w, 2) + 1) % len(words) for w in words}
            comp = Comparator(int(window), table=table)
        else:
            comp = Comparator(int(window), builtin=comparator)
        alphabet = Alphabet(tuple(ESCAPED_NAMES[:3] if names == "escaped" else names))
        return rule_to_json(ConfigRuleSpec(alphabet, int(window), comp)), []
    if kind == "automaton":
        if shape == "constant":
            return json.dumps(constant_automaton()), []
        if shape == "threshold2":
            return automaton_to_json(build_twosym_threshold2()), []
        return automaton_to_json(tabulate_automaton(MUTANTS[shape]())), []
    assert kind == "machine"
    return machine_text(), MACHINE_FLAGS if shape == "horizon" else MACHINE_FLAGS[2:]


# SHA-256 prefixes of ``seqdec analyze`` stdout, plain then with ``--seq``,
# as printed when every segment was a dict and the payload one dump
GOLDEN = {
    "csr:abc 1,1,1 3": ["513ee8fdbac38500", "6ec591aec5b2bbc7"],
    "csr:xy 1/2,1 2": ["2ae2a95d471aa44e", "722ed8f0bb08ce12"],
    "csr:ab 1/5,1 1": ["90e63896e33fad19", "e68ac6b1170e50b8"],
    "csr:abcd 1,1,1,1 2": ["5bdd99d3dee1395c", "fe1af471a177eccd"],
    "csr:abc 1/2,1,3/2 2": ["3151a64cf6c63a25", "68e0532a83f7031d"],
    "csr-escaped:low": ["365d5854f3e3cc09", "cbae4687c6dee85e"],
    "csr-escaped:high": ["601ca26d3da0f979", "729720f6fbc36bd5"],
    "osr:abc b 2": ["aaa97e5f74ac80a1", "dd79a72538ca65fc"],
    "osr:abc a 3": ["4d500f0aab0fa12f", "d45c28f9690abba7"],
    "osr:abcd c 3": ["ce04772a21bf3827", "22a377198b73f67c"],
    "osr:xy y 1": ["27cb7bacf4dbb315", "40086b3fff4608fb"],
    "osr-escaped:": ["ee08925dabaf453a", "c350855e6f018442"],
    "config:abc 3 numeric-value": ["a871aa9cc22144eb", "2a8623dc0637cd30"],
    "config:xy 3 table": ["64a8b5fad791607a", "4fb2229f7139f6e5"],
    "config:abcd 2 table": ["29195ecc033386d0", "b641a831850795d4"],
    "config:escaped 3 table": ["189057d4d6fd466e", "38ac6c9be4de85e8"],
    "automaton:constant": ["dc489a4db411990d", "2cd4efbbd1e7c0bc"],
    "automaton:threshold2": ["8bf2f154fe4578c3", "617795becec27611"],
    "automaton:sequential-nbc": ["b23a2173ff5d23f5", "f06f9025ba288643"],
    "machine:horizon": ["b83a664ba04c9eb2", "e12a4ddb663ccd4d"],
    "machine:budget": ["b83a664ba04c9eb2", "e12a4ddb663ccd4d"],
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_analyze_output_is_unchanged(tmp_path, case):
    text, flags = golden_document(case)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    names = json.loads(text).get("alphabet") or ["a", "b", "c"]
    digests = []
    for seq in ([], ["--seq", literal_of(names)]):
        code, out = run(["analyze", str(path), *flags, *seq])
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert digests == GOLDEN[case]
