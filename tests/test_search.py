"""The one breadth-first search against the walks it replaced.

``DecisionAutomaton.reach``, ``Facts.open_states``, ``Facts.outcomes`` and
acyclicity's shortest cycle each run on ``seqdec.automaton.search``; the
oracles in ``tests/definitions.py`` are the walks they replaced, each with
its own queue and parent pointers.  They must agree on random automata over
one to four symbols, cyclic and acyclic, and on random graphs.
"""

import re
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import seqdec.analysis
from seqdec.analysis import RuleHandle, _shortest_cycle
from seqdec.automaton import DecisionAutomaton, NonStoppingRuleError
from seqdec.core import Alphabet, ResourceLimit
from tests.definitions import (
    breadth_first, open_states_by_queue, outcomes_by_links, shortest_cycle_by_queue,
)

CONFIGS = ("001", "010", "011", "100", "101", "110", "111")


@st.composite
def automata(draw):
    """Up to eight open states and one to three terminals over one to four
    symbols; acyclic draws point only forward or at terminals, cyclic ones
    anywhere.  Unreachable states are left in."""
    alphabet = Alphabet(("a", "b", "c", "d")[: draw(st.integers(1, 4))])
    n = draw(st.integers(1, 8))
    outputs = draw(st.lists(st.sampled_from(alphabet.symbols), min_size=1, max_size=3))
    terminals = list(range(n, n + len(outputs)))
    acyclic = draw(st.booleans())
    rows = [
        tuple(draw(st.sampled_from([*range(i + 1 if acyclic else 0, n), *terminals])) for _ in alphabet)
        for i in range(n)
    ]
    rows += [(t,) * len(alphabet) for t in terminals]
    names = [f"s{i}" for i in range(n)] + [f"t{j}" for j in range(len(outputs))]
    return DecisionAutomaton.from_rows(alphabet, names, rows, [None] * n + outputs, 0)


@settings(max_examples=200, deadline=None)
@given(aut=automata(), cap=st.integers(1, 48))
def test_search_matches_the_walks_it_replaced(aut, cap):
    want = [(q, (None, None) if via is None else via) for q, via in breadth_first(aut).items()]
    assert list(aut.reach.items()) == want
    try:
        facts = RuleHandle.from_automaton(aut).facts
    except NonStoppingRuleError:
        return
    got = [
        (q, facts.word_to(q), s.depth, list(s.toward.items()), s.segments)
        for q, s in facts.open_states.items()
    ]
    want = [
        (q, word, depth, list(toward.items()), segments)
        for q, (word, depth, toward, segments) in open_states_by_queue(facts).items()
    ]
    assert got == want
    # a small cap, so both sides of the outcomes cap are drawn
    firsts, message = outcomes_by_links(facts, cap)
    if len(aut.alphabet) > cap and facts.decision(facts.start) is None:
        # checked before the start's children are read, not after: the one
        # difference, and only past WINDOW_CAP symbols
        message = f"1 (state, symbol set) nodes times {len(aut.alphabet)} symbols"
    with patch.object(seqdec.analysis, "WINDOW_CAP", cap):
        if message is None:
            assert [(pair, facts.first_segment(pair)) for pair in facts.outcomes] == firsts
        else:
            with pytest.raises(ResourceLimit, match=re.escape(message)):
                facts.outcomes


@settings(max_examples=200, deadline=None)
@given(edges=st.lists(st.tuples(st.sampled_from(CONFIGS), st.sampled_from(CONFIGS)), max_size=16))
def test_shortest_cycle_matches_the_queue(edges):
    succ: dict[str, list[str]] = {}
    for a, b in dict.fromkeys(edges):
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    for out in succ.values():
        out.sort()
    assert _shortest_cycle(succ) == shortest_cycle_by_queue(succ)
