"""Monotonicity and identification by product search against the
enumerations they replaced.

``oracle_monotonicity`` is the monotonicity enumeration: every window one
past the bound, every position, each legal shift or deletion, looked up in
the table of all |alphabet|^K window decisions.  ``oracle_agreement`` is the
agreement enumeration: the rule's evaluator on every single-symbol closure
of every window as long as the longer of the two bounds, against the
recovered spec's compiled decision.
"""

import itertools
import json
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from seqdec import analysis
from seqdec.core import Segment, SeqSpec
from seqdec.heuristics import (
    CsrSpec,
    OsrSpec,
    compile_rule,
    rule_to_dict,
    rule_to_json,
    segment_tree_automaton,
)
from seqdec.analysis import (
    AxiomReport,
    NotCsr,
    NotOsr,
    RuleHandle,
    _closure_text,
    agreement_count,
    check_monotonicity,
    identify_csr,
    identify_osr,
    replay_witness,
)
from seqdec.cli import main
from tests.conftest import ABC, XY, window_table
from tests.definitions import csr_uniform_bound, evaluate_rule
from tests.mutants import MUTANTS
from tests.test_acceptance import build_corpus
from tests.test_dominance import both_handles, tree_automata
from tests.test_facts import rule_specs


def oracle_monotonicity(rule: RuleHandle) -> AxiomReport:
    facts = rule.facts
    k, table = facts.bound, window_table(facts)
    n = len(rule.alphabet)
    checked = 0
    for word in itertools.product(range(n), repeat=k + 1):
        chosen = table[word[:k]]
        chosen_idx = rule.alphabet.index(chosen) if chosen in rule.alphabet else None
        for pos in range(1, k + 1):
            moves = []
            if chosen_idx is not None and word[pos] == chosen_idx:
                swapped = list(word)
                swapped[pos - 1], swapped[pos] = swapped[pos], swapped[pos - 1]
                moves.append(("shift", tuple(swapped)))
            if chosen_idx is None or word[pos - 1] != chosen_idx:
                moves.append(("deletion", word[: pos - 1] + word[pos:]))
            for transform, moved in moves:
                checked += 1
                if table[moved[:k]] != chosen:
                    return AxiomReport(
                        "monotonicity",
                        False,
                        {
                            "sequence": _closure_text(rule.alphabet, word),
                            "decision": chosen,
                            "transform": transform,
                            "position": pos,
                            "transformed": _closure_text(rule.alphabet, moved),
                            "transformed_decision": table[moved[:k]],
                        },
                        checked,
                        k,
                    )
    return AxiomReport("monotonicity", True, None, checked, k)


def oracle_agreement(rule: RuleHandle, spec) -> SeqSpec | None:
    """First disagreeing closure in window order, or None when they agree."""
    depth = csr_uniform_bound(spec) if isinstance(spec, CsrSpec) else spec.span
    length = max(rule.facts.bound, depth)
    compiled = RuleHandle.from_rule(spec).facts
    n = len(rule.alphabet)
    for word in itertools.product(range(n), repeat=length):
        theirs = compiled.decided(word[: compiled.bound])
        for cyc in range(n):
            seq = SeqSpec(rule.alphabet, Segment(rule.alphabet, word), Segment(rule.alphabet, (cyc,)))
            if rule.decide(seq) != theirs:
                return seq
    return None


def assert_monotonicity_agrees(rule: RuleHandle) -> AxiomReport:
    report = check_monotonicity(rule)
    expected = oracle_monotonicity(rule)
    assert (report.passed, report.horizon) == (expected.passed, expected.horizon)
    if not report.passed:
        assert replay_witness(rule, report)
    return report


def assert_agreement_agrees(rule: RuleHandle, spec) -> None:
    expected = oracle_agreement(rule, spec)
    try:
        checked = agreement_count(rule, spec)
    except (NotCsr, NotOsr) as exc:
        assert expected is not None
        assert isinstance(exc, NotCsr if isinstance(spec, CsrSpec) else NotOsr)
        # a shortest disagreement is never longer than the windows the oracle reads
        assert len(exc.sequence.prefix) <= len(expected.prefix)
        assert rule.decide(exc.sequence) != evaluate_rule(spec, exc.sequence)
    else:
        assert expected is None and checked > 0


def assert_identification_agrees(rule: RuleHandle) -> None:
    """Both identifications, each checked against the oracle on its own spec."""
    recovered = []
    real = agreement_count

    def spy(rule_, spec):
        recovered.append(spec)
        return real(rule_, spec)

    for identify in (identify_csr, identify_osr):
        with mock.patch.object(analysis, "agreement_count", spy):
            try:
                identify(rule)
            except (NotCsr, NotOsr):
                pass
        assert_agreement_agrees(rule, recovered[-1])


@settings(max_examples=60, deadline=None)
@given(spec=rule_specs())
def test_rule_specs_match_the_enumerations(spec):
    for rule in both_handles(compile_rule(spec)):
        assert_monotonicity_agrees(rule)
        assert_identification_agrees(rule)


@settings(max_examples=150, deadline=None)
@given(aut=tree_automata())
def test_window_tables_match_the_enumerations(aut):
    for rule in both_handles(aut):
        assert_monotonicity_agrees(rule)
        assert_identification_agrees(rule)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unrelated_specs_match_the_enumeration(data):
    # a rule against a spec of another rule over the same alphabet
    spec = data.draw(rule_specs())
    other = data.draw(rule_specs().filter(
        lambda s: s.alphabet == spec.alphabet and isinstance(s, (CsrSpec, OsrSpec))
    ))
    for rule in both_handles(compile_rule(spec)):
        assert_agreement_agrees(rule, other)


@pytest.mark.parametrize("axiom", sorted(MUTANTS))
def test_mutants_match_the_enumerations(axiom):
    rule = MUTANTS[axiom]()
    assert_monotonicity_agrees(rule)
    assert_identification_agrees(rule)


def test_corpus_matches_the_enumerations():
    for spec in build_corpus():
        for rule in both_handles(compile_rule(spec)):
            assert_monotonicity_agrees(rule)
            assert_identification_agrees(rule)


def test_shift_of_the_last_window_symbol_replays():
    # the rule picks the symbol other than the first: moving x ahead of y in
    # "y x" flips it; closing the two texts with different cycle symbols
    # would make the shifted sequence differ past the window
    aut = segment_tree_automaton(XY, 1, ["y", "x"])
    for rule in both_handles(aut):
        report = assert_monotonicity_agrees(rule)
        assert report.witness == {
            "sequence": "y x|x", "decision": "x", "transform": "shift", "position": 1,
            "transformed": "x y|x", "transformed_decision": "y",
        }


CSR3_5 = CsrSpec(ABC, {s: Fraction(1, 5) for s in ABC}, Fraction(1))


def test_csr3_5_past_the_window_cap(capsys, tmp_path):
    # bound 13: its 3^13 windows are over the cap, yet neither search needs a table
    path = tmp_path / "csr3_5.json"
    path.write_text(rule_to_json(CSR3_5))
    begin = time.perf_counter()
    report = check_monotonicity(RuleHandle.from_rule(CSR3_5))
    assert main(["identify", str(path), "--as", "csr"]) == 0
    assert time.perf_counter() - begin < 1.0
    assert report.passed and report.horizon == 13
    assert json.loads(capsys.readouterr().out)["rule"] == rule_to_dict(CSR3_5)
