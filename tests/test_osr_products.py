"""The decisive set, the OSR axioms and ``identify_osr`` from the symbol-set
product against the enumerations they replaced.

Each oracle walks ``minimal_words``, the list of every minimal sufficient
segment in breadth-first, lexicographic order.  ``oracle_decisive_set``
records for each symbol the first segment that holds it and decides
otherwise.  ``oracle_replacement`` swaps every position of every segment
over non-decisive symbols for every non-decisive symbol and, on the first
swap that leaves the segment open, finds two full windows extending it
that decide differently in the table of all |alphabet|^K window decisions.
``oracle_sequential_alpha`` compares every pair of segments and
``oracle_snbc`` every triple of two-symbol segments.  ``oracle_osr_spec``
ranks the non-decisive symbols by whom they beat across the whole list.
The checks run on both handle kinds of random rules, window tables and
stopping automata whose states merge words over different symbol sets,
and on the corpus and the mutants.
"""

import itertools
import json
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from seqdec import analysis
from seqdec.core import Alphabet, Segment
from seqdec.automaton import DecisionAutomaton
from seqdec.heuristics import CsrSpec, OsrSpec, compile_rule, rule_to_json, segment_tree_automaton
from seqdec.analysis import (
    AxiomReport,
    DecisiveSet,
    NotOsr,
    RuleHandle,
    Word,
    _closure_text,
    _word_text,
    check_replacement,
    check_sequential_alpha,
    check_snbc,
    decisive_set,
    identify_osr,
    replay_witness,
)
from seqdec.cli import main
from tests.conftest import ABC, minimal_words, window_table
from tests.mutants import MUTANTS
from tests.test_acceptance import build_corpus
from tests.test_dominance import both_handles, tree_automata
from tests.test_facts import rule_specs


def oracle_decisive_set(rule: RuleHandle) -> DecisiveSet:
    alphabet = rule.alphabet
    witnesses: dict[str, tuple[str, str]] = {}
    for word, dec in minimal_words(rule.facts):
        seg = Segment(alphabet, word)
        for name in seg.symbol_set():
            if name != dec and name not in witnesses:
                witnesses[name] = (seg.text(), dec)
    complement = tuple(s for s in alphabet if s in witnesses)
    decisive = tuple(s for s in alphabet if s not in witnesses)
    return DecisiveSet(decisive, complement, witnesses)


def distinguishing_extensions(
    rule: RuleHandle, word: Word
) -> tuple[tuple[Word, str], tuple[Word, str]]:
    """Two full windows extending an open word that decide differently."""
    facts = rule.facts
    k, table = facts.bound, window_table(facts)
    first: tuple[Word, str] | None = None
    for fill in itertools.product(range(len(rule.alphabet)), repeat=max(k - len(word), 0)):
        dec = table[(word + fill)[:k]]
        if first is None:
            first = (word + fill, dec)
        elif dec != first[1]:
            return first, (word + fill, dec)
    raise AssertionError("word was expected to be non-sufficient")


def oracle_replacement(rule: RuleHandle) -> AxiomReport:
    facts = rule.facts
    k = facts.bound
    dset = oracle_decisive_set(rule)
    dprime = set(dset.complement)
    checked = 0
    for m_word, _ in minimal_words(facts):
        if not Segment(rule.alphabet, m_word).symbol_set() <= dprime:
            continue
        for pos in range(1, len(m_word) + 1):
            for name in dset.complement:
                replaced = m_word[: pos - 1] + (rule.alphabet.index(name),) + m_word[pos:]
                checked += 1
                if facts.decided(replaced) is None:
                    (ext_a, dec_a), (ext_b, dec_b) = distinguishing_extensions(rule, replaced)
                    witness = {
                        "segment": _word_text(rule.alphabet, m_word),
                        "position": pos,
                        "replacement": name,
                        "replaced": _word_text(rule.alphabet, replaced),
                        "extension_a": _closure_text(rule.alphabet, ext_a),
                        "decision_a": dec_a,
                        "extension_b": _closure_text(rule.alphabet, ext_b),
                        "decision_b": dec_b,
                    }
                    return AxiomReport("replacement", False, witness, checked, k)
    return AxiomReport("replacement", True, None, checked, k)


def non_decisive_segments(rule: RuleHandle) -> list[tuple[Word, str, frozenset[str]]]:
    dprime = set(oracle_decisive_set(rule).complement)
    return [
        (word, dec, Segment(rule.alphabet, word).symbol_set())
        for word, dec in minimal_words(rule.facts)
        if Segment(rule.alphabet, word).symbol_set() <= dprime
    ]


def oracle_sequential_alpha(rule: RuleHandle) -> AxiomReport:
    k = rule.facts.bound
    pool = non_decisive_segments(rule)
    checked = 0
    for m_word, m_dec, m_set in pool:
        for p_word, p_dec, p_set in pool:
            if m_set <= p_set and p_dec in m_set:
                checked += 1
                if p_dec != m_dec:
                    witness = {
                        "segment_m": _word_text(rule.alphabet, m_word),
                        "decision_m": m_dec,
                        "segment_m_prime": _word_text(rule.alphabet, p_word),
                        "decision_m_prime": p_dec,
                    }
                    return AxiomReport("sequential-alpha", False, witness, checked, k)
    return AxiomReport("sequential-alpha", True, None, checked, k)


def oracle_snbc(rule: RuleHandle) -> AxiomReport:
    k = rule.facts.bound
    buckets: dict[frozenset[str], list[tuple[Word, str]]] = {}
    for word, dec, sset in non_decisive_segments(rule):
        if len(sset) == 2:
            buckets.setdefault(sset, []).append((word, dec))
    checked = 0
    dprime = sorted(oracle_decisive_set(rule).complement)
    for x, y, z in itertools.permutations(dprime, 3):
        for m_word, m_dec in buckets.get(frozenset((x, y)), []):
            if m_dec != x:
                continue
            for p_word, p_dec in buckets.get(frozenset((y, z)), []):
                if p_dec != y:
                    continue
                for q_word, q_dec in buckets.get(frozenset((x, z)), []):
                    checked += 1
                    if q_dec == z:
                        witness = {
                            "x": x,
                            "y": y,
                            "z": z,
                            "segment_xy": _word_text(rule.alphabet, m_word),
                            "segment_yz": _word_text(rule.alphabet, p_word),
                            "segment_xz": _word_text(rule.alphabet, q_word),
                            "decisions": [m_dec, p_dec, q_dec],
                        }
                        return AxiomReport("sequential-nbc", False, witness, checked, k)
    return AxiomReport("sequential-nbc", True, None, checked, k)


def oracle_osr_spec(rule: RuleHandle) -> OsrSpec:
    dset = oracle_decisive_set(rule)
    beaten: dict[str, set[str]] = {name: set() for name in dset.complement}
    for _, dec, sset in non_decisive_segments(rule):
        if dec in beaten:
            beaten[dec] |= sset - {dec}
    ranked = sorted(dset.complement, key=lambda s: (-len(beaten[s]), rule.alphabet.index(s)))
    order = tuple(dset.decisive) + tuple(ranked)
    return OsrSpec(rule.alphabet, order, ranked[0] if ranked else order[-1], max(rule.facts.bound, 1))


def recovered_osr_spec(rule: RuleHandle) -> OsrSpec:
    """The spec ``identify_osr`` hands to its agreement check, agreeing or not."""
    recovered = []
    real = analysis.agreement_count

    def spy(rule_, spec):
        recovered.append(spec)
        return real(rule_, spec)

    with mock.patch.object(analysis, "agreement_count", spy):
        try:
            identify_osr(rule)
        except NotOsr:
            pass
    return recovered[-1]


def assert_agrees_with_oracles(rule: RuleHandle) -> list[AxiomReport]:
    got, want = decisive_set(rule), oracle_decisive_set(rule)
    assert (got.decisive, got.complement, got.witnesses) == (
        want.decisive, want.complement, want.witnesses
    )
    replacement, expected = check_replacement(rule), oracle_replacement(rule)
    assert (replacement.passed, replacement.horizon) == (expected.passed, expected.horizon)
    if not replacement.passed:
        assert replay_witness(rule, replacement), replacement.witness
    reports = [replacement]
    for check, oracle in ((check_sequential_alpha, oracle_sequential_alpha), (check_snbc, oracle_snbc)):
        report, expected = check(rule), oracle(rule)
        assert (report.passed, report.horizon, report.witness) == (
            expected.passed, expected.horizon, expected.witness
        )
        if not report.passed:
            assert replay_witness(rule, report)
        reports.append(report)
    assert recovered_osr_spec(rule) == oracle_osr_spec(rule)
    return reports


@settings(max_examples=60, deadline=None)
@given(spec=rule_specs())
def test_rule_specs_match_the_enumerations(spec):
    for rule in both_handles(compile_rule(spec)):
        assert_agrees_with_oracles(rule)


@settings(max_examples=150, deadline=None)
@given(aut=tree_automata())
def test_window_tables_match_the_enumerations(aut):
    for rule in both_handles(aut):
        assert_agrees_with_oracles(rule)


@st.composite
def dag_automata(draw):
    """Stopping automata whose open states only move to later ones, so that
    one state is reached by words over different symbol sets."""
    alphabet = Alphabet(tuple("abcd"[: draw(st.integers(2, 4))]))
    terminal = {f"t{o}": o for o in (*alphabet.symbols, "none")}
    count = draw(st.integers(1, 6))
    transitions = {}
    for i in range(count):
        targets = st.sampled_from([f"q{j}" for j in range(i + 1, count)] + list(terminal))
        transitions[f"q{i}"] = {s: draw(targets) for s in alphabet}
    transitions.update({t: {s: t for s in alphabet} for t in terminal})
    return DecisionAutomaton(alphabet, list(transitions), "q0", transitions, terminal)


@settings(max_examples=150, deadline=None)
@given(aut=dag_automata())
def test_dag_automata_match_the_enumerations(aut):
    for rule in both_handles(aut):
        assert_agrees_with_oracles(rule)


def test_symbol_set_beside_a_larger_one():
    # {a, b, d} holds b but is no subset of {a, b, c}, whose class decides b
    abcd = Alphabet(tuple("abcd"))
    transitions = {
        "q0": {"a": "q1", "b": "tb", "c": "ta", "d": "ta"},
        "q1": {"a": "tn", "b": "q2", "c": "tb", "d": "tc"},
        "q2": {"a": "tb", "b": "tb", "c": "tb", "d": "tn"},
    }
    terminal = {"ta": "a", "tb": "b", "tc": "c", "tn": "none"}
    transitions.update({t: {s: t for s in abcd} for t in terminal})
    aut = DecisionAutomaton(abcd, list(transitions), "q0", transitions, terminal)
    for rule in both_handles(aut):
        assert check_sequential_alpha(rule).passed
        assert_agrees_with_oracles(rule)


@pytest.mark.parametrize("axiom", sorted(MUTANTS))
def test_mutants_match_the_enumerations(axiom):
    assert_agrees_with_oracles(MUTANTS[axiom]())


def test_corpus_matches_the_enumerations():
    for spec in build_corpus():
        for rule in both_handles(compile_rule(spec)):
            assert_agrees_with_oracles(rule)


def test_decision_outside_the_alphabet():
    # "none" on a repeat is never a member of a symbol set; replacement
    # passes, and sequential-alpha and SNBC fail
    words = itertools.product(range(3), repeat=2)
    aut = segment_tree_automaton(ABC, 2, ("none" if a == b else ABC.name(b) for a, b in words))
    for rule in both_handles(aut):
        verdicts = [r.verdict for r in assert_agrees_with_oracles(rule)]
        assert verdicts == ["pass", "fail", "fail"]


CSR3_5 = CsrSpec(ABC, {s: Fraction(1, 5) for s in ABC}, Fraction(1))


@pytest.mark.parametrize("command", [["axioms", "--suite", "osr"], ["identify", "--as", "osr"]])
def test_csr3_5_osr_questions_need_no_segment_list(capsys, tmp_path, command):
    # 220,503 minimal sufficient segments, but only 12 (set, decision) pairs
    path = tmp_path / "csr3_5.json"
    path.write_text(rule_to_json(CSR3_5))
    begin = time.perf_counter()
    assert main([command[0], str(path), *command[1:]]) == 1
    assert time.perf_counter() - begin < 1.0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if command[0] == "axioms":
        payload = json.loads(captured.out)
        assert [(r["verdict"], r["horizon"]) for r in payload] == [("fail", 13)] * 3


def test_wide_osr_past_the_segment_cap(capsys, tmp_path):
    # 16 symbols, span 6: 1,666,666 minimal sufficient segments, over the cap
    sixteen = Alphabet(tuple("abcdefghijklmnop"))
    spec = OsrSpec(sixteen, tuple(reversed(sixteen.symbols)), "j", 6)
    path = tmp_path / "osr16_6.json"
    path.write_text(rule_to_json(spec))
    begin = time.perf_counter()
    assert main(["axioms", str(path), "--suite", "osr"]) == 0
    assert [r["verdict"] for r in json.loads(capsys.readouterr().out)] == ["pass"] * 3
    assert main(["identify", str(path), "--as", "osr"]) == 0
    assert time.perf_counter() - begin < 1.0
    assert json.loads(capsys.readouterr().out)["rule"]["span"] == 6
    assert main(["analyze", str(path)]) == 3
    assert "minimal sufficient segments" in capsys.readouterr().err


def test_the_osr_questions_build_the_decisive_set_once(monkeypatch):
    built = []
    monkeypatch.setattr(analysis, "DecisiveSet", lambda *a: built.append(a) or DecisiveSet(*a))
    rule = RuleHandle.from_rule(OsrSpec(ABC, ("c", "b", "a"), "b", 2))
    assert [r.verdict for r in analysis.run_suite(rule, "osr")] == ["pass"] * 3
    identify_osr(rule)
    assert decisive_set(rule) == DecisiveSet(*built[0]) and len(built) == 1
