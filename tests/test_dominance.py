"""Informational dominance by product search against the enumeration it replaced.

``oracle_informational_dominance`` is that enumeration: for every minimal
sufficient segment m deciding d, every minimal sufficient segment n without
d and every strict truncation of m, it fills m[:cut] + n out to the bound
in every way and looks the window up in the table of all |alphabet|^K
window decisions.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqdec.core import Segment
from seqdec.heuristics import CsrSpec, compile_rule, rule_to_json, segment_tree_automaton
from seqdec.analysis import (
    AxiomReport,
    RuleHandle,
    _closure_text,
    _word_text,
    check_informational_dominance,
    replay_witness,
)
from seqdec.cli import main
from tests.conftest import ABC, XY, minimal_words, oracle_verify_stopping, window_table
from tests.mutants import MUTANTS
from tests.test_facts import rule_specs


def oracle_informational_dominance(rule: RuleHandle) -> AxiomReport:
    facts = rule.facts
    k, table, minimal = facts.bound, window_table(facts), minimal_words(facts)
    n = len(rule.alphabet)
    pool = [
        (word, dec, Segment(rule.alphabet, word).symbol_set()) for word, dec in minimal
    ]
    checked = 0
    for m_word, m_dec, _ in pool:
        blockers = [n_word for n_word, _, n_set in pool if m_dec not in n_set]
        for n_word in blockers:
            for cut in range(len(m_word)):
                combined = m_word[:cut] + n_word
                fill_len = max(k - len(combined), 0)
                for fill in itertools.product(range(n), repeat=fill_len):
                    window = (combined + fill)[:k]
                    checked += 1
                    if table[window] == m_dec:
                        return AxiomReport(
                            "informational-dominance",
                            False,
                            {
                                "minimal_sufficient": _word_text(rule.alphabet, m_word),
                                "decision": m_dec,
                                "sufficient": _word_text(rule.alphabet, n_word),
                                "truncation": cut,
                                "composite": _closure_text(rule.alphabet, combined + fill),
                                "composite_decision": m_dec,
                            },
                            checked,
                            k,
                        )
    return AxiomReport("informational-dominance", True, None, checked, k)


def assert_agrees_with_oracle(rule: RuleHandle) -> AxiomReport:
    report = check_informational_dominance(rule)
    expected = oracle_informational_dominance(rule)
    assert (report.passed, report.horizon) == (expected.passed, expected.horizon)
    if not report.passed:
        assert report.witness["composite_decision"] == report.witness["decision"]
        assert replay_witness(rule, report)
    return report


def both_handles(aut):
    rule = RuleHandle.from_automaton(aut)
    box = RuleHandle.from_callable(aut.alphabet, rule.decide, oracle_verify_stopping(aut).bound)
    return rule, box


@st.composite
def tree_automata(draw):
    """Random window tables of depth 1-3, some with an output outside the alphabet."""
    alphabet = draw(st.sampled_from((XY, ABC)))
    depth = draw(st.integers(1, 3 if alphabet is XY else 2))
    outputs = list(alphabet.symbols) + draw(st.sampled_from(([], ["none"])))
    cells = draw(
        st.lists(
            st.sampled_from(outputs),
            min_size=len(alphabet) ** depth,
            max_size=len(alphabet) ** depth,
        )
    )
    return segment_tree_automaton(alphabet, depth, cells)  # in lexicographic order of the windows


@settings(max_examples=60, deadline=None)
@given(spec=rule_specs())
def test_rule_specs_match_the_enumeration(spec):
    for rule in both_handles(compile_rule(spec)):
        assert_agrees_with_oracle(rule)


@settings(max_examples=150, deadline=None)
@given(aut=tree_automata())
def test_window_tables_match_the_enumeration(aut):
    for rule in both_handles(aut):
        assert_agrees_with_oracle(rule)


@pytest.mark.parametrize("axiom", sorted(MUTANTS))
def test_mutants_match_the_enumeration(axiom):
    assert_agrees_with_oracle(MUTANTS[axiom]())


def test_decision_reachable_only_through_its_own_symbol():
    # y first decides y, else the third symbol decides: after "x" + "y" the
    # pair's first component is still open and reaches x only by reading x
    words = itertools.product(range(2), repeat=3)
    aut = segment_tree_automaton(XY, 3, ("y" if w[0] == 1 else XY.name(w[2]) for w in words))
    for rule in both_handles(aut):
        report = assert_agrees_with_oracle(rule)
        assert not report.passed and report.witness["composite"] == "x y x|x"


CSR3_5 = CsrSpec(ABC, {s: Fraction(1, 5) for s in ABC}, Fraction(1))


def test_csr3_5_past_the_window_cap():
    # bound 13: its 3^13 windows are over the cap, yet the search needs no table
    begin = time.perf_counter()
    report = check_informational_dominance(RuleHandle.from_rule(CSR3_5))
    assert time.perf_counter() - begin < 1.0
    assert report.passed and report.horizon == 13


def test_csr3_5_csr_suite_passes(capsys, tmp_path):
    # monotonicity searches state pairs too; in the config suite neutrality
    # answers, but acyclicity lists all 3^13 windows
    path = tmp_path / "csr3_5.json"
    path.write_text(rule_to_json(CSR3_5))
    assert main(["axioms", str(path), "--suite", "csr"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(r["verdict"], r["horizon"]) for r in payload] == [("pass", 13), ("pass", 13)]
    assert main(["axioms", str(path), "--suite", "config"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("seqdec: ") and "3^13 windows" in err and "Traceback" not in err
