"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All checks are exact at desk scale: alphabets of at most three symbols,
stopping bounds at most eight, exhaustive enumeration throughout.
"""

import itertools
import random
from fractions import Fraction

import pytest

from seqdec.core import Segment, SeqSpec
from seqdec.automaton import evaluate, isomorphic, minimize
from seqdec.heuristics import (
    Comparator,
    ConfigRuleSpec,
    CsrSpec,
    OsrSpec,
    compile_rule,
    csr_uniform_bound,
)
from seqdec.machines import automaton_to_tm, tm_run
from seqdec.analysis import (
    CHECKERS,
    RuleHandle,
    agreement_count,
    enumerate_minimal_sufficient,
    identify_csr,
    identify_osr,
    replay_witness,
    run_suite,
    stopping_time,
    sufficiency_of,
    uniform_bound_search,
)
from tests.conftest import ABC, XY, build_twosym_threshold2, oracle_verify_stopping
from tests.mutants import MUTANTS
from tests.test_analysis import oracle_minimal_sufficient

MAX_BOUND = 8
WEIGHT_POOL = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
THRESHOLD_POOL = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]


def _alphabet(rng):
    return rng.choice((XY, ABC))


def _random_csr(rng):
    while True:
        alphabet = _alphabet(rng)
        spec = CsrSpec(
            alphabet,
            {name: rng.choice(WEIGHT_POOL) for name in alphabet},
            rng.choice(THRESHOLD_POOL),
        )
        if csr_uniform_bound(spec) <= 7:
            return spec


def _random_osr(rng):
    alphabet = _alphabet(rng)
    order = list(alphabet.symbols)
    rng.shuffle(order)
    return OsrSpec(alphabet, tuple(order), rng.choice(order), rng.randint(1, 4))


def _random_config(rng):
    alphabet = _alphabet(rng)
    window = rng.randint(2, 3)
    if rng.random() < 0.4:
        comparator = Comparator(
            window, builtin=rng.choice(("first-position-priority", "numeric-value"))
        )
    else:
        words = ["".join(bits) for bits in itertools.product("01", repeat=window)]
        ranks = list(range(len(words)))
        rng.shuffle(ranks)
        comparator = Comparator(window, table=dict(zip(words, ranks)))
    return ConfigRuleSpec(alphabet, window, comparator)


def build_corpus():
    """Deterministic corpus of at least fifty rule specs of all three kinds."""
    rng = random.Random(74)
    corpus = [
        CsrSpec(ABC, {s: Fraction(1) for s in ABC}, Fraction(3)),
        CsrSpec(XY, {s: Fraction(1) for s in XY}, Fraction(2)),
        OsrSpec(ABC, ("a", "b", "c"), "b", 2),
        OsrSpec(ABC, ("a", "b", "c"), "a", 3),
    ]
    corpus += [_random_csr(rng) for _ in range(20)]
    corpus += [_random_osr(rng) for _ in range(16)]
    corpus += [_random_config(rng) for _ in range(14)]
    return corpus


@pytest.fixture(scope="module")
def corpus():
    specs = build_corpus()
    assert len(specs) >= 50
    return [(spec, compile_rule(spec)) for spec in specs]


def _closed(alphabet, word, cyc):
    return SeqSpec(alphabet, Segment(alphabet, word), Segment(alphabet, (cyc,)))


def test_criterion_1_six_state_reproduction():
    """Compiling the two-symbol unit-weight threshold-two rule and minimizing
    reproduces the hand-built six-state machine exactly."""
    spec = CsrSpec(XY, {s: Fraction(1) for s in XY}, Fraction(2))
    small = minimize(compile_rule(spec))
    assert len(small.states) == 6
    assert isomorphic(small, build_twosym_threshold2())
    print("\nACCEPTANCE 1 six-state reproduction: PASS")


def test_criterion_2_threshold_three_walkthrough():
    """Unit weights, threshold three, cycling input: choice a at exactly
    position seven, with the prefix classifications around it."""
    spec = CsrSpec(ABC, {s: Fraction(1) for s in ABC}, Fraction(3))
    rule = RuleHandle.from_rule(spec)
    seq = ABC.sequence("|a b c")
    assert rule.decide(seq) == "a"
    assert stopping_time(rule, seq) == 7
    assert sufficiency_of(rule, ABC.segment("a b c a b c")).status == "not_sufficient"
    seven = sufficiency_of(rule, ABC.segment("a b c a b c a"))
    assert seven.status == "minimal_sufficient" and seven.decision == "a"
    eight = sufficiency_of(rule, ABC.segment("a b c a b c a b"))
    assert eight.status == "sufficient" and eight.decision == "a"
    print("\nACCEPTANCE 2 threshold-three walkthrough: PASS")


def test_criterion_3_ranked_threshold_choices():
    """Ranked rule with middle threshold and span two: b from (b c a a ...),
    a from (a b c c ...)."""
    spec = OsrSpec(ABC, ("a", "b", "c"), "b", 2)
    rule = RuleHandle.from_rule(spec)
    assert rule.decide(ABC.sequence("b c|a")) == "b"
    assert rule.decide(ABC.sequence("a b|c")) == "a"
    print("\nACCEPTANCE 3 ranked-threshold choices: PASS")


def test_criterion_4_uniform_bound_is_tight(corpus):
    """Every corpus rule compiles to a machine with a finite absorption bound
    that the brute-force maximum stopping position matches exactly."""
    for spec, aut in corpus:
        verdict = oracle_verify_stopping(aut)
        assert verdict.stops, f"{spec} compiled to a non-stopping machine"
        k = verdict.bound
        assert k <= MAX_BOUND
        n = len(aut.alphabet)
        stops = []
        for word in itertools.product(range(n), repeat=k):
            seq = _closed(aut.alphabet, word, word[-1] if word else 0)
            stops.append(evaluate(aut, seq)[1])
        assert max(stops) == k, f"bound {k} not tight for {spec}"
    print(f"\nACCEPTANCE 4 uniform bounds tight on {len(corpus)} rules: PASS")


def test_criterion_5_axiom_suites_pass(corpus):
    """Every generated rule passes the axiom suite of its family."""
    failures = []
    for spec, aut in corpus:
        rule = RuleHandle.from_automaton(aut)
        if isinstance(spec, CsrSpec):
            suite = "csr"
        elif isinstance(spec, OsrSpec):
            suite = "osr"
        else:
            suite = "config"
        for report in run_suite(rule, suite):
            if not report.passed:
                failures.append((spec, report.axiom, report.witness))
    assert not failures, failures
    print(f"\nACCEPTANCE 5 axiom suites on {len(corpus)} rules, zero failures: PASS")


def test_criterion_6_mutation_discrimination():
    """Each checker fails its documented mutant with a witness that replays
    exactly, and reports are reproducible bit for bit."""
    for axiom in sorted(MUTANTS):
        rule = MUTANTS[axiom]()
        report = CHECKERS[axiom](rule)
        assert not report.passed, f"{axiom} checker passed its mutant"
        assert replay_witness(rule, report), f"{axiom} witness did not replay"
        again = CHECKERS[axiom](MUTANTS[axiom]())
        assert report == again, f"{axiom} report not reproducible"
    report = CHECKERS["acyclicity"](MUTANTS["acyclicity"]())
    assert len(report.witness["cycle"]) == 3
    print(f"\nACCEPTANCE 6 mutation discrimination on {len(MUTANTS)} checkers: PASS")


def test_criterion_7_identification_round_trips(corpus):
    """Recovered parameters agree with the source rule on the whole witness
    family; the verification raises on the first disagreement."""
    csr_count = osr_count = 0
    for spec, aut in corpus:
        rule = RuleHandle.from_automaton(aut)
        if isinstance(spec, CsrSpec):
            recovered = identify_csr(rule).spec
            assert agreement_count(rule, recovered) > 0
            csr_count += 1
        elif isinstance(spec, OsrSpec):
            recovered = identify_osr(rule).spec
            assert agreement_count(rule, recovered) > 0
            osr_count += 1
    assert csr_count >= 20 and osr_count >= 16
    print(
        f"\nACCEPTANCE 7 identification round trips "
        f"({csr_count} score rules, {osr_count} ranked rules): PASS"
    )


def test_criterion_8_machine_embedding(corpus):
    """The embedded machine halts with the automaton's decision on every
    bound-length window, within eight steps per bound unit."""
    for spec, aut in corpus:
        tm = automaton_to_tm(aut)
        k = oracle_verify_stopping(aut).bound
        n = len(aut.alphabet)
        budget = 8 * k + 8
        for word in itertools.product(range(n), repeat=k):
            seq = _closed(aut.alphabet, word, word[-1] if word else 0)
            decision, stop = evaluate(aut, seq)
            got = tm_run(tm, seq, budget)
            assert got.decision == decision
            assert got.steps <= 8 * k
    print(f"\nACCEPTANCE 8 machine embedding on {len(corpus)} rules: PASS")


def test_criterion_9_pruned_equals_exhaustive(corpus):
    """Pruned minimal-sufficient enumeration equals the unpruned tail-basis
    oracle on every corpus rule."""
    for spec, aut in corpus:
        rule = RuleHandle.from_automaton(aut)
        bound = uniform_bound_search(rule)
        assert bound <= MAX_BOUND
        pruned = sorted(
            (tuple(seg.word), dec) for seg, dec in enumerate_minimal_sufficient(rule)
        )
        assert pruned == sorted(oracle_minimal_sufficient(rule, bound)), spec
    print(f"\nACCEPTANCE 9 pruned vs exhaustive enumeration on {len(corpus)} rules: PASS")
