"""Neutrality by adjacent-swap pair searches, and the choice-rule check from
``Facts.outcomes``, against the window scans they replaced.

``oracle_neutrality`` is the neutrality enumeration: every window of the
table of all |alphabet|^K window decisions under every relabeling of the
alphabet.  ``oracle_require_choice_rule`` scans that table for a decision
outside the alphabet or, for acyclicity, one that does not occur in its
nonempty window.  The checks run on both handle kinds of random rules,
window tables (some deciding outside the alphabet) and four-symbol rules,
where three swaps stand for 23 relabelings, and on the corpus and the
mutants.
"""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqdec.core import Alphabet, Relabeling
from seqdec.heuristics import (
    Comparator,
    ConfigRuleSpec,
    CsrSpec,
    OsrSpec,
    compile_rule,
    segment_tree_automaton,
)
from seqdec.analysis import (
    AxiomReport,
    NotAChoiceRule,
    RuleHandle,
    _closure_text,
    _require_choice_rule,
    _word_text,
    check_neutrality,
    replay_witness,
)
from tests.conftest import ABC, window_table
from tests.mutants import MUTANTS
from tests.test_acceptance import build_corpus
from tests.test_dominance import both_handles, tree_automata
from tests.test_facts import rule_specs

ABCD = Alphabet(("a", "b", "c", "d"))


def oracle_require_choice_rule(rule: RuleHandle, *, in_window: bool) -> None:
    for word, dec in window_table(rule.facts).items():
        if dec not in rule.alphabet:
            raise NotAChoiceRule(
                f"decision {dec!r} after {_word_text(rule.alphabet, word)!r} "
                "is not an alternative"
            )
        if in_window and word and rule.alphabet.index(dec) not in word:
            raise NotAChoiceRule(
                f"decision {dec!r} does not occur in its window "
                f"{_word_text(rule.alphabet, word)!r}"
            )


def oracle_neutrality(rule: RuleHandle) -> AxiomReport:
    oracle_require_choice_rule(rule, in_window=False)
    facts = rule.facts
    k, table = facts.bound, window_table(facts)
    n = len(rule.alphabet)
    checked = 0
    for word in itertools.product(range(n), repeat=k):
        decision = table[word]
        for perm in itertools.permutations(range(n)):
            mapped = tuple(perm[i] for i in word)
            expected = rule.alphabet.name(perm[rule.alphabet.index(decision)])
            checked += 1
            if table[mapped] != expected:
                sigma = Relabeling(rule.alphabet, perm)
                return AxiomReport(
                    "neutrality",
                    False,
                    {
                        "sequence": _closure_text(rule.alphabet, word),
                        "decision": decision,
                        "sigma": sigma.as_dict(),
                        "relabeled": _closure_text(rule.alphabet, mapped),
                        "relabeled_decision": table[mapped],
                        "expected": expected,
                    },
                    checked,
                    k,
                )
    return AxiomReport("neutrality", True, None, checked, k)


def not_a_choice(check, rule: RuleHandle, in_window: bool) -> bool:
    try:
        check(rule, in_window=in_window)
    except NotAChoiceRule:
        return True
    return False


def assert_agrees_with_oracle(rule: RuleHandle) -> AxiomReport | None:
    """Equal choice verdicts both ways, then equal neutrality verdicts and
    horizons, and a replaying witness; the report, or None for a non-choice rule."""
    rejected = [not_a_choice(oracle_require_choice_rule, rule, w) for w in (False, True)]
    assert [not_a_choice(_require_choice_rule, rule, w) for w in (False, True)] == rejected
    if rejected[0]:
        with pytest.raises(NotAChoiceRule):
            check_neutrality(rule)
        return None
    report = check_neutrality(rule)
    expected = oracle_neutrality(rule)
    assert (report.passed, report.horizon) == (expected.passed, expected.horizon)
    if not report.passed:
        assert replay_witness(rule, report)
    return report


@st.composite
def four_symbol_automata(draw):
    """Rules over four symbols with at most 4^5 windows, neutral or not."""
    kind = draw(st.sampled_from(("csr", "osr", "config", "table")))
    if kind == "csr":
        # critical counts 1 or 2, all equal about half the time, so bounds stay at most 5
        counts = draw(st.lists(st.integers(1, 2), min_size=4, max_size=4))
        if draw(st.booleans()):
            counts = counts[:1] * 4
        weights = {s: Fraction(1, c) for s, c in zip(ABCD, counts)}
        return compile_rule(CsrSpec(ABCD, weights, Fraction(1)))
    if kind == "osr":
        order = tuple(draw(st.permutations(ABCD.symbols)))
        span = draw(st.integers(1, 3))
        return compile_rule(OsrSpec(ABCD, order, draw(st.sampled_from(order)), span))
    if kind == "config":
        window = draw(st.integers(1, 3))
        if draw(st.booleans()):
            builtin = draw(st.sampled_from(("first-position-priority", "numeric-value")))
            comparator = Comparator(window, builtin=builtin)
        else:
            words = ["".join(bits) for bits in itertools.product("01", repeat=window)]
            ranks = draw(st.permutations(range(len(words))))
            comparator = Comparator(window, table=dict(zip(words, ranks)))
        return compile_rule(ConfigRuleSpec(ABCD, window, comparator))
    outputs = list(ABCD.symbols) + draw(st.sampled_from(([], ["none"])))
    cells = draw(st.lists(st.sampled_from(outputs), min_size=16, max_size=16))
    return segment_tree_automaton(ABCD, 2, cells)  # in lexicographic order of the windows


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


@settings(max_examples=100, deadline=None)
@given(aut=four_symbol_automata())
def test_four_symbol_rules_match_the_enumeration(aut):
    for rule in both_handles(aut):
        assert_agrees_with_oracle(rule)


@pytest.mark.parametrize("axiom", sorted(MUTANTS))
def test_mutants_match_the_enumeration(axiom):
    rule = MUTANTS[axiom]()
    for handle in (rule, *both_handles(rule.facts.automaton)):
        assert_agrees_with_oracle(handle)


def test_corpus_matches_the_enumeration():
    for spec in build_corpus():
        for rule in both_handles(compile_rule(spec)):
            assert_agrees_with_oracle(rule)


def test_witness_is_the_first_failing_swap():
    # critical counts (1, 3): "x" decides x, swapped "y" is still open, and
    # "y x" decides x where y was expected
    rule = MUTANTS["neutrality"]()
    report = assert_agrees_with_oracle(rule)
    assert report.witness == {
        "sequence": "x y|y", "decision": "x", "sigma": {"x": "y", "y": "x"},
        "relabeled": "y x|x", "relabeled_decision": "x", "expected": "y",
    }


def test_decided_start_is_closed_by_the_first_symbol():
    # the empty window decides b, which the first swap should turn into a
    rule = RuleHandle.from_callable(ABC, lambda seq: "b", horizon=1)
    report = assert_agrees_with_oracle(rule)
    assert report.horizon == 0 and report.witness["sigma"] == {"a": "b", "b": "a", "c": "c"}
    assert (report.witness["sequence"], report.witness["relabeled"]) == ("|a", "|b")


@pytest.mark.parametrize("count", [5, 8, 12])
def test_csr3_past_the_window_cap(count):
    # bound 3c - 2: 3^13 windows and up are over the cap, yet no swap needs them;
    # the window loop it replaced raised ResourceLimit on each of these
    rule = RuleHandle.from_rule(CsrSpec(ABC, {s: Fraction(1, count) for s in ABC}, Fraction(1)))
    begin = time.perf_counter()
    report = check_neutrality(rule)
    assert time.perf_counter() - begin < 1.0
    assert report.passed and report.horizon == 3 * count - 2


def test_choice_check_names_a_minimal_segment():
    # "a" then anything decides c, else a: "a" is the first segment without its decision
    words = itertools.product(range(3), repeat=2)
    aut = segment_tree_automaton(ABC, 2, ("c" if w[0] == 0 else "a" for w in words))
    rule = RuleHandle.from_automaton(aut)
    with pytest.raises(NotAChoiceRule, match="does not occur in its segment 'a'$"):
        _require_choice_rule(rule, in_window=True)
