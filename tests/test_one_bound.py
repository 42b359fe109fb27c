"""One stopping bound, whichever command reports it.

A rule has one number: the least K such that every length-K window forces
the decision.  ``eval``'s stop positions peak at it, and ``analyze``,
``compile``, ``compile --minimize`` and ``minimize`` print it.  The oracle
is brute force: all |alphabet|^K windows for K = 0, 1, ..., each judged by
the sweep oracle's decision of the state it reaches (``conftest``'s
``oracle_least_bound``).  Where the absorption oracle finds a loop there
is no K: ``analyze`` exits 3 naming an input ``u|v`` that parses back and
that ``evaluate`` never decides, ``eval`` of it exits 3 with the same
message, and ``compile`` and ``minimize`` exit 0 and print a null bound.
The documents are the acceptance corpus, the mutants' tabulated automata
and random automata, cyclic and acyclic.  The bound the CSR and OSR
compilers hand on from their parameters is the peel's on the same rows.
"""

import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from seqdec.analysis import RuleHandle, stopping_time, tabulate_automaton
from seqdec.automaton import (
    DecisionAutomaton, NonStoppingRuleError, to_json,
)
from seqdec.cli import main
from seqdec.core import Alphabet, Segment, SeqSpec
from seqdec.heuristics import Comparator, ConfigRuleSpec, CsrSpec, OsrSpec, compile_rule, rule_to_json
from tests.conftest import XY, oracle_decidedness, oracle_least_bound
from tests.definitions import DivergenceError, absorbing_terminal_row, evaluate, run
from tests.mutants import MUTANTS
from tests.test_acceptance import build_corpus
from tests.test_automaton import random_automata, tail_into_loop


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_bound(tmp_path, aut: DecisionAutomaton, text: str) -> int | None:
    """Every command on the document ``text``, which compiles to ``aut`` or is
    it, reports the brute-force bound, which is returned."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    want = oracle_least_bound(aut)
    if json.loads(text).get("kind") is None:
        reports = [["compile", str(path)], ["minimize", str(path)]]
    else:
        reports = [["compile", str(path)], ["compile", str(path), "--minimize"]]
    for argv in reports:
        code, out, _ = run_cli(argv)
        assert code == 0 and json.loads(out)["uniform_bound"] == want, argv
    code, out, err = run_cli(["analyze", str(path)])
    if want is None:
        with pytest.raises(NonStoppingRuleError) as info:
            RuleHandle.from_automaton(aut).facts
        literal = info.value.sequence.text()
        assert code == 3 and err == f"seqdec: {info.value}\n" and repr(literal) in err
        assert aut.alphabet.sequence(literal) == info.value.sequence
        with pytest.raises(DivergenceError):
            evaluate(aut, info.value.sequence)
        assert run_cli(["eval", str(path), literal]) == (3, "", f"seqdec: {info.value}\n")
        return None
    assert code == 0 and json.loads(out)["uniform_bound"] == want
    # a length-K window settles the stop, so one closure per window shows them all
    rule, decided, alphabet = RuleHandle.from_automaton(aut), oracle_decidedness(aut), aut.alphabet
    stops = {}
    for word in itertools.product(range(len(alphabet)), repeat=want):
        seq = SeqSpec(alphabet, Segment(alphabet, word), Segment(alphabet, (0,)))
        first = next(
            k for k in range(want + 1) if decided[run(aut, Segment(alphabet, word[:k]))] is not None
        )
        stops[seq.text()] = stopping_time(rule, seq)
        assert stops[seq.text()] == first
    literal = max(stops, key=stops.get)
    assert stops[literal] == want
    code, out, _ = run_cli(["eval", str(path), literal])
    assert code == 0 and json.loads(out)["stop_position"] == want
    return want


def test_corpus_rules_and_mutant_automata(tmp_path):
    for spec in build_corpus():
        assert assert_one_bound(tmp_path, compile_rule(spec), rule_to_json(spec)) is not None
    for make in MUTANTS.values():
        aut = tabulate_automaton(make())
        assert assert_one_bound(tmp_path, aut, to_json(aut)) is not None


@st.composite
def choosing_automata(draw):
    """Up to six open states over two or three symbols, with one terminal
    choosing each symbol; acyclic draws point only forward or at terminals,
    cyclic ones anywhere."""
    alphabet = Alphabet(("a", "b", "c")[: draw(st.integers(2, 3))])
    opens = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
    terminal = {f"t{name}": name for name in alphabet}
    acyclic = draw(st.booleans())
    transitions = {t: absorbing_terminal_row(alphabet, t) for t in terminal}
    for i, q in enumerate(opens):
        targets = (opens[i + 1 :] if acyclic else opens) + list(terminal)
        transitions[q] = {sym: draw(st.sampled_from(targets)) for sym in alphabet}
    return DecisionAutomaton(alphabet, tuple(opens) + tuple(terminal), "s0", transitions, terminal)


@settings(max_examples=150, deadline=None)
@given(aut=random_automata(max_open=5) | choosing_automata())
def test_random_automata(tmp_path_factory, aut):
    assert_one_bound(tmp_path_factory.mktemp("doc"), aut, to_json(aut))


def test_first_symbol_decides_a_config_rule(tmp_path):
    # its prefix tree absorbs only at the window, 3
    spec = ConfigRuleSpec(XY, 3, Comparator(3, builtin="first-position-priority"))
    assert assert_one_bound(tmp_path, compile_rule(spec), rule_to_json(spec)) == 1


def test_constant_automaton_is_decided_before_any_symbol(tmp_path):
    aut = DecisionAutomaton(
        XY, ("q0", "mid", "t"), "q0",
        {
            "q0": {"x": "mid", "y": "mid"},
            "mid": {"x": "t", "y": "t"},
            "t": absorbing_terminal_row(XY, "t"),
        },
        {"t": "y"},
    )
    assert assert_one_bound(tmp_path, aut, to_json(aut)) == 0


def test_long_chain_and_long_loop(tmp_path):
    spec = CsrSpec(XY, {"x": Fraction(1, 12), "y": Fraction(1)}, Fraction(1))
    assert assert_one_bound(tmp_path, compile_rule(spec), rule_to_json(spec)) == 12
    aut = tail_into_loop(12, 2)
    assert assert_one_bound(tmp_path, aut, to_json(aut)) is None


AMOUNTS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


@st.composite
def csr_and_osr_specs(draw):
    """One to five symbols: weights and thresholds among ``AMOUNTS``, so critical
    counts run from 1 to 4, or any order, threshold alternative and a span of 1 to 4."""
    alphabet = Alphabet(("a", "b", "c", "d", "e")[: draw(st.integers(1, 5))])
    if draw(st.booleans()):
        weights = {name: draw(st.sampled_from(AMOUNTS)) for name in alphabet}
        return CsrSpec(alphabet, weights, draw(st.sampled_from(AMOUNTS)))
    order = tuple(draw(st.permutations(alphabet.symbols)))
    return OsrSpec(alphabet, order, draw(st.sampled_from(order)), draw(st.integers(1, 4)))


@settings(max_examples=300, deadline=None)
@given(spec=csr_and_osr_specs())
@example(spec=CsrSpec(Alphabet(("a",)), {"a": Fraction(1, 2)}, Fraction(2)))  # one symbol
@example(spec=CsrSpec(XY, {"x": Fraction(2), "y": Fraction(1)}, Fraction(1)))  # critical counts 1
@example(spec=OsrSpec(Alphabet(("a",)), ("a",), "a", 3))  # one symbol
@example(spec=OsrSpec(XY, ("y", "x"), "x", 1))  # span 1
@example(spec=OsrSpec(XY, ("y", "x"), "y", 3))  # the threshold alternative at the top rank
def test_the_bound_a_compiler_hands_on_is_the_peels(spec):
    aut = compile_rule(spec)
    assert "bound" in vars(aut)  # handed on, not peeled
    peeled = DecisionAutomaton.from_rows(aut.alphabet, aut.states, aut.rows, aut.outputs, aut.start)
    assert aut.bound == peeled.bound
