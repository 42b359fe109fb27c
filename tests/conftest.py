"""Shared fixtures: the two-alternative score-threshold automaton and friends,
and the window table and minimal segments the test oracles read."""

import pytest

from seqdec.core import Alphabet
from seqdec.automaton import DecisionAutomaton, absorbing_terminal_row

XY = Alphabet(("x", "y"))
ABC = Alphabet(("a", "b", "c"))


def window_table(facts) -> dict[tuple[int, ...], str]:
    """Decision of every length-``bound`` window, in lexicographic order.

    Built a layer of windows at a time, each window with its state, so every
    window costs one step.
    """
    n = len(facts.alphabet)
    layer = [((), facts.start)]
    for _ in range(facts.bound):
        layer = [(w + (i,), facts.step(q, i)) for w, q in layer for i in range(n)]
    table = {word: facts.decision(state) for word, state in layer}
    assert None not in table.values(), "full-depth windows must be decided"
    return table


def minimal_words(facts) -> list[tuple[tuple[int, ...], str]]:
    """Every minimal sufficient segment as a word, with its decision."""
    return list(facts.segments((), [(i,) for i in range(len(facts.alphabet))]))


def build_twosym_threshold2():
    """Hand-built six-state machine: stop at the second occurrence of x or y.

    States track occurrence counts below the threshold of two; the two
    absorbing states output the symbol that reached the threshold first.
    """
    return DecisionAutomaton(
        alphabet=XY,
        states=("q0", "1_x", "1_y", "1_x1_y", "2_x", "2_y"),
        initial="q0",
        transitions={
            "q0": {"x": "1_x", "y": "1_y"},
            "1_x": {"x": "2_x", "y": "1_x1_y"},
            "1_y": {"x": "1_x1_y", "y": "2_y"},
            "1_x1_y": {"x": "2_x", "y": "2_y"},
            "2_x": absorbing_terminal_row(XY, "2_x"),
            "2_y": absorbing_terminal_row(XY, "2_y"),
        },
        terminal={"2_x": "x", "2_y": "y"},
    )


@pytest.fixture
def twosym_threshold2():
    return build_twosym_threshold2()
