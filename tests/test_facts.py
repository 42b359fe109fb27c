"""Lazy, state-walking facts against the eager enumeration they replaced,
and compiled rule facts against the rule evaluators.

``oracle_facts`` is that enumeration: it classifies every word by walking
it from the initial state (automata) or by looking it up in the black box's
folded window layers, searches breadth first by re-walking each word, and
fills the whole window table up front.
"""

import itertools
import tracemalloc
from fractions import Fraction
from typing import Callable, NamedTuple

from hypothesis import assume, given, settings, strategies as st

from seqdec.core import Alphabet, Segment, SeqSpec
from seqdec.automaton import (
    MINIMAL_SUFFICIENT,
    NOT_SUFFICIENT,
    SUFFICIENT,
    Sufficiency,
)
from seqdec.heuristics import (
    Comparator,
    ConfigRuleSpec,
    CsrSpec,
    OsrSpec,
    compile_rule,
)
import seqdec.analysis
import seqdec.automaton
from seqdec.analysis import (
    WINDOW_CAP,
    RuleHandle,
    _word_text,
    enumerate_minimal_sufficient,
    stopping_time,
    sufficiency_of,
    uniform_bound_search,
)
from tests.conftest import (
    ABC, XY, minimal_words, oracle_decidedness, oracle_verify_stopping, window_table,
)
from tests.definitions import csr_uniform_bound, evaluate_rule


class OracleFacts(NamedTuple):
    bound: int
    minimal: list
    table: dict
    sufficient: Callable


def blackbox_layers(rule: RuleHandle) -> list[dict]:
    """Decision maps for all window lengths up to the horizon.

    The full-length layer holds each window's decision; a shorter layer
    holds the common decision of all its extensions, or None where they
    disagree (the window is not yet sufficient).
    """
    h, alphabet = rule.horizon, rule.alphabet
    layers = [dict() for _ in range(h + 1)]
    for word in itertools.product(range(len(alphabet)), repeat=h):
        seq = SeqSpec(alphabet, Segment(alphabet, word), Segment(alphabet, (0,)))
        layers[h][word] = rule.decide(seq)
    for m in range(h - 1, -1, -1):
        for word, dec in layers[m + 1].items():
            short = word[:m]
            layers[m][short] = dec if layers[m].get(short, dec) == dec else None
    return layers


def oracle_facts(rule: RuleHandle) -> OracleFacts:
    if rule.automaton is not None:
        aut = rule.automaton
        verdict = oracle_verify_stopping(aut)
        assert verdict.stops
        dec = oracle_decidedness(aut)

        def sufficient(word):
            state = aut.initial
            for idx in word:
                state = aut.transitions[state][aut.alphabet.name(idx)]
            return dec[state]

        depth_limit = verdict.bound
    else:
        layers = blackbox_layers(rule)

        def sufficient(word):
            return layers[len(word)][word]

        depth_limit = rule.horizon

    n = len(rule.alphabet)
    minimal = []
    max_open = -1
    frontier = [()]
    depth = 0
    while frontier:
        assert depth <= depth_limit
        nxt = []
        for word in frontier:
            got = sufficient(word)
            if got is not None:
                minimal.append((word, got))
            else:
                max_open = depth
                nxt.extend(word + (i,) for i in range(n))
        frontier = nxt
        depth += 1
    bound = max_open + 1
    table = {}
    for word in itertools.product(range(n), repeat=bound):
        got = sufficient(word)
        assert got is not None
        table[word] = got
    return OracleFacts(bound, minimal, table, sufficient)


def oracle_stopping_time(facts: OracleFacts, seq: SeqSpec) -> int:
    for k in range(facts.bound + 1):
        if facts.sufficient(seq.window(k)) is not None:
            return k
    raise AssertionError("bound-length windows are sufficient")


def oracle_sufficiency(facts: OracleFacts, word: tuple) -> Sufficiency:
    got = facts.sufficient(word)
    if got is None:
        return Sufficiency(NOT_SUFFICIENT, None)
    if word and facts.sufficient(word[:-1]) is not None:
        return Sufficiency(SUFFICIENT, got)
    return Sufficiency(MINIMAL_SUFFICIENT, got)


WEIGHTS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
THRESHOLDS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]


@st.composite
def rule_specs(draw, alphabets=st.sampled_from((XY, ABC))):
    alphabet = draw(alphabets)
    kind = draw(st.sampled_from(("csr", "osr", "config")))
    if kind == "csr":
        spec = CsrSpec(
            alphabet,
            {name: draw(st.sampled_from(WEIGHTS)) for name in alphabet},
            draw(st.sampled_from(THRESHOLDS)),
        )
        assume(csr_uniform_bound(spec) <= 6)
        return spec
    if kind == "osr":
        order = tuple(draw(st.permutations(alphabet.symbols)))
        return OsrSpec(alphabet, order, draw(st.sampled_from(order)), draw(st.integers(1, 3)))
    window = draw(st.integers(2, 3))
    if draw(st.booleans()):
        builtin = draw(st.sampled_from(("first-position-priority", "numeric-value")))
        comparator = Comparator(window, builtin=builtin)
    else:
        words = ["".join(bits) for bits in itertools.product("01", repeat=window)]
        ranks = draw(st.permutations(range(len(words))))
        comparator = Comparator(window, table=dict(zip(words, ranks)))
    return ConfigRuleSpec(alphabet, window, comparator)


def indices(alphabet, min_size, max_size):
    return st.lists(st.integers(0, len(alphabet) - 1), min_size=min_size, max_size=max_size)


@settings(max_examples=100, deadline=None)
@given(spec=rule_specs(), black_box=st.booleans(), data=st.data())
def test_facts_match_the_enumeration(spec, black_box, data):
    aut = compile_rule(spec)
    rule = RuleHandle.from_automaton(aut)
    horizon = oracle_verify_stopping(aut).bound
    if black_box:
        rule = RuleHandle.from_callable(spec.alphabet, rule.decide, horizon)
    oracle = oracle_facts(rule)
    alphabet = rule.alphabet

    assert uniform_bound_search(rule) == oracle.bound
    got = [(tuple(seg.word), dec) for seg, dec in enumerate_minimal_sufficient(rule)]
    assert got == oracle.minimal
    opened = rule.facts.open_states
    assert (opened[rule.facts.start].segments if opened else 1) == len(oracle.minimal)
    for _ in range(5):
        seq = SeqSpec(
            alphabet,
            Segment(alphabet, tuple(data.draw(indices(alphabet, 0, oracle.bound + 2)))),
            Segment(alphabet, tuple(data.draw(indices(alphabet, 1, 3)))),
        )
        assert stopping_time(rule, seq) == oracle_stopping_time(oracle, seq)
        word = tuple(data.draw(indices(alphabet, 0, horizon)))
        assert sufficiency_of(rule, Segment(alphabet, word)) == oracle_sufficiency(oracle, word)
    assert list(window_table(rule.facts).items()) == list(oracle.table.items())
    for window, dec in oracle.table.items():
        assert rule.facts.decided(window) == dec


@settings(max_examples=100, deadline=None)
@given(spec=rule_specs())
def test_compiled_spec_matches_evaluate_rule(spec):
    # agreement_count reads the recovered spec's decisions off its compiled facts
    facts = RuleHandle.from_rule(spec).facts
    alphabet = spec.alphabet
    for word in itertools.product(range(len(alphabet)), repeat=facts.bound):
        for cyc in range(len(alphabet)):
            seq = SeqSpec(alphabet, Segment(alphabet, word), Segment(alphabet, (cyc,)))
            assert facts.decided(word) == evaluate_rule(spec, seq)


def open_states_held(n: int):
    """The open states of the chain {a: 1/n, b: 1}, and the bytes they hold once built."""
    ab = Alphabet(("a", "b"))
    facts = RuleHandle.from_rule(CsrSpec(ab, {"a": Fraction(1, n), "b": Fraction(1)}, Fraction(1))).facts
    tracemalloc.start()
    try:
        opened = facts.open_states
        return facts, opened, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_open_states_hold_memory_linear_in_their_number():
    # parent pointers, not words: a word per state held 65.7 MB on the 4,000-link chain
    _, small, held_small = open_states_held(1000)
    facts, opened, held = open_states_held(4000)
    assert len(small) == 1000 and len(opened) == 4000
    assert held < 1000 * len(opened) and held < 6 * held_small
    deepest = next(q for q, state in opened.items() if state.depth == 3999)
    assert facts.word_to(deepest) == (0,) * 3999 and facts.word_to(facts.start) == ()


def first_segments(facts) -> list:
    """Each (symbol set, decision) pair with the text of its first minimal
    segment, in the order the segments are listed."""
    names, firsts = facts.alphabet.symbols, {}
    for word, dec in minimal_words(facts):
        firsts.setdefault((frozenset(names[i] for i in word), dec), _word_text(facts.alphabet, word))
    return list(firsts.items())


def search_nodes(facts) -> int:
    """The (open state, symbols read) nodes that ``Facts.outcomes`` searches."""
    seen = {(facts.start, frozenset())} if facts.decision(facts.start) is None else set()
    order = list(seen)
    for state, read in order:
        for i, name in enumerate(facts.alphabet):
            child = (facts.automaton.rows[state][i], read | {name})
            if facts.decision(child[0]) is None and child not in seen:
                seen.add(child)
                order.append(child)
    return len(order)


@settings(max_examples=100, deadline=None)
@given(spec=rule_specs())
def test_outcomes_link_the_first_segment_of_each_pair(spec):
    facts = RuleHandle.from_rule(spec).facts
    got = [(pair, facts.first_segment(pair)) for pair in facts.outcomes]
    assert got == first_segments(facts)


def outcomes_peak(spec) -> tuple[int, int]:
    """Nodes plus pairs of the outcomes search, and the peak bytes it traced."""
    facts = RuleHandle.from_rule(spec).facts
    facts.open_states
    tracemalloc.start()
    try:
        outcomes = facts.outcomes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return search_nodes(facts) + len(outcomes), peak


def test_outcomes_hold_memory_linear_in_nodes_plus_pairs():
    # a node keeps its parent's link, not its word: a word per node peaked at
    # 16.6 MB on the 2,000-link chain, about 8.3 KB per node
    wide = Alphabet(tuple(f"s{i}" for i in range(20)))
    entries, peak = outcomes_peak(OsrSpec(wide, wide.symbols, "s0", 4))
    assert entries * len(wide) < WINDOW_CAP and entries > 6000
    assert peak < 1000 * entries
    ab = Alphabet(("a", "b"))
    chains = [CsrSpec(ab, {"a": Fraction(1, k), "b": Fraction(1)}, Fraction(1)) for k in (500, 2000)]
    (short, short_peak), (entries, peak) = map(outcomes_peak, chains)
    assert short > 500 and entries > 2000
    assert peak < 1000 * entries and peak < 6 * short_peak


def test_csr3_5_lists_every_minimal_segment():
    # counted first, 220,503 stays under the cap and is listed in full
    rule = RuleHandle.from_rule(CsrSpec(ABC, {s: Fraction(1, 5) for s in ABC}, Fraction(1)))
    segments = minimal_words(rule.facts)
    assert len(segments) == rule.facts.open_states[rule.facts.start].segments == 220503
    assert segments[0] == ((0, 0, 0, 0, 0), "a")


def test_one_peel_per_facts_build(monkeypatch):
    # decisions, the stopping check and open_states all read the same peel
    calls = []
    peel = seqdec.automaton._escaping_states

    def counted(aut):
        calls.append(aut)
        return peel(aut)

    monkeypatch.setattr(seqdec.automaton, "_escaping_states", counted)
    automaton = RuleHandle.from_rule(CsrSpec(ABC, {s: Fraction(1) for s in ABC}, Fraction(2)))
    for rule in (automaton, RuleHandle.from_callable(ABC, automaton.decide, horizon=4)):
        calls.clear()
        facts = rule.facts
        assert facts.bound == 4 and facts.open_states and minimal_words(facts)
        assert len(calls) == 1
