"""Tests for the two-tape machine interpreter and the automaton embedding."""

import sys
import threading
from fractions import Fraction

import pytest

from seqdec.core import Alphabet, constant
from seqdec.automaton import DecisionAutomaton
from seqdec.heuristics import CsrSpec, csr_compile
from seqdec.machines import (
    BLANK,
    START,
    BudgetExhausted,
    InvalidMachineError,
    TmRuns,
    TwoTapeTm,
    automaton_to_tm,
    from_json,
    tm_run,
    to_json,
)
from tests.conftest import ABC, XY
from tests.definitions import (
    DivergenceError, absorbing_terminal_row, concat, enumerate_segments, evaluate,
)


def echo_machine(alphabet):
    """Read the first symbol, copy it to the output tape, halt."""
    syms = tuple(alphabet.symbols) + (START, BLANK)
    rules = [("q0", START, "*", "q0", "*", "R", "S")]
    states = ["q0", "halt"]
    for name in alphabet:
        states.append(f"w_{name}")
        rules.append(("q0", name, "*", f"w_{name}", "*", "S", "S"))
        rules.append((f"w_{name}", "*", "*", "halt", name, "S", "S"))
    rules.append(("q0", BLANK, "*", "q0", "*", "S", "S"))
    return TwoTapeTm(states, "q0", ("halt",), syms, rules)


def spinner_machine(alphabet):
    """Two states bouncing with stay moves: never halts."""
    syms = tuple(alphabet.symbols) + (START, BLANK)
    rules = [("p", "*", "*", "q", "*", "S", "S"), ("q", "*", "*", "p", "*", "S", "S")]
    return TwoTapeTm(("p", "q"), "p", (), syms, rules)


def peek_back_machine(alphabet):
    """Read the first symbol, step onto the second and back, copy the first, halt."""
    syms = tuple(alphabet.symbols) + (START, BLANK)
    rules = [("q0", START, "*", "q0", "*", "R", "S"), ("back", "*", "*", "back", "*", "S", "S")]
    states = ["q0", "back", "halt"]
    for name in alphabet:
        states += [f"r_{name}", f"w_{name}"]
        rules.append(("q0", name, "*", f"r_{name}", "*", "R", "S"))
        rules.append((f"r_{name}", "*", "*", f"r_{name}", "*", "S", "S"))
        rules += [(f"r_{name}", ahead, "*", "back", "*", "L", "S") for ahead in alphabet]
        rules.append(("back", name, "*", f"w_{name}", "*", "S", "S"))
        rules.append((f"w_{name}", "*", "*", "halt", name, "S", "S"))
    rules.append(("q0", "*", "*", "q0", "*", "S", "S"))
    return TwoTapeTm(states, "q0", ("halt",), syms, rules)


def scanner_machine(alphabet):
    """Move the input head right forever, never halting."""
    syms = tuple(alphabet.symbols) + (START, BLANK)
    return TwoTapeTm(("q0",), "q0", (), syms, [("q0", "*", "*", "q0", "*", "R", "S")])


def zigzag_machine(alphabet, move_out="S"):
    """Step the input head right twice and left once, forever: a two-way
    machine that reads right without halting.  With ``move_out="R"`` its
    output tape grows a cell a step."""
    syms = tuple(alphabet.symbols) + (START, BLANK)
    rules = [("a", "*", "*", "b", "*", "R", move_out), ("b", "*", "*", "c", "*", "R", move_out)]
    # the input head never reads the start marker in state c; the rule keeps the table total
    rules += [("c", "*", "*", "a", "*", "L", move_out), ("c", START, "*", "a", "*", "R", move_out)]
    return TwoTapeTm(("a", "b", "c"), "a", (), syms, rules)


def copier_machine(alphabet):
    """Copy each input symbol to the output tape, moving both heads right, forever."""
    syms = tuple(alphabet.symbols) + (START, BLANK)
    rules = [("q0", "*", "*", "q0", "*", "R", "S")]
    rules += [("q0", name, "*", "q0", name, "R", "R") for name in alphabet]
    return TwoTapeTm(("q0",), "q0", (), syms, rules)


class TestConstruction:
    def test_totality_enforced(self):
        with pytest.raises(InvalidMachineError):
            TwoTapeTm(
                states=("p", "h"),
                initial="p",
                terminal=frozenset(["h"]),
                tape_alphabet=("x", START, BLANK),
                rules=[("p", "x", BLANK, "h", "x", "S", "S")],
            )

    def test_left_from_start_marker_rejected(self):
        syms = ("x", START, BLANK)
        with pytest.raises(InvalidMachineError):
            TwoTapeTm(
                ("p", "h"), "p", ("h",), syms, [("p", START, "*", "h", "*", "L", "S")]
            )

    def test_left_moves_are_judged_on_resolved_cells(self):
        syms = ("x", START, BLANK)

        def machine(*overrides):
            return TwoTapeTm(("p", "h"), "p", ("h",), syms, [("p", "*", "*", "h", "*", "L", "S"), *overrides])

        # overridden on every read, the left default survives on no cell
        assert TmRuns(machine(*[("p", a, "*", "h", "*", "R", "S") for a in syms]), XY, 5).keyed
        # overridden on the start marker only, it survives on the other reads
        assert not TmRuns(machine(("p", START, "*", "h", "*", "R", "S")), XY, 5).keyed
        # overridden on one start cell, it survives on the other start cells
        with pytest.raises(InvalidMachineError, match="input head cannot move left of the start cell"):
            machine(("p", START, BLANK, "h", "*", "R", "S"))

    def test_terminal_outgoing_rejected(self):
        syms = ("x", START, BLANK)
        with pytest.raises(InvalidMachineError):
            TwoTapeTm(
                ("p", "h"), "p", ("h",), syms,
                [("p", "*", "*", "h", "*", "S", "S"), ("h", "*", "*", "h", "*", "S", "S")],
            )

    def test_wildcard_expansion_is_total(self):
        tm = echo_machine(XY)
        nonterm = [q for q in tm.states if q not in tm.terminal]
        assert len(tm.transitions) == len(nonterm) * len(tm.tape_alphabet) ** 2


class TestTmRun:
    def test_echo_three_steps(self):
        tm = echo_machine(XY)
        got = tm_run(tm, XY.sequence("y|x"), budget=10)
        assert got.decision == "y" and got.steps <= 3 and got.halted

    def test_budget_exhausted_at_exactly_budget(self):
        with pytest.raises(BudgetExhausted) as err:
            tm_run(spinner_machine(XY), constant(XY, "x"), budget=17)
        assert err.value.steps == 17

    def test_deterministic(self):
        tm = echo_machine(ABC)
        seq = ABC.sequence("b a|c")
        assert tm_run(tm, seq, 10) == tm_run(tm, seq, 10)

    def test_alphabet_must_embed_in_tape_alphabet(self):
        with pytest.raises(InvalidMachineError):
            tm_run(echo_machine(XY), constant(ABC, "a"), 10)

    def test_threads_share_the_cell_cache(self):
        # more threads than cores, switching every microsecond, fill one fresh
        # machine's cell cache: each must get every result a lone run gets
        def machine():
            return automaton_to_tm(csr_compile(CsrSpec(ABC, {s: Fraction(1) for s in ABC}, Fraction(3))))

        seqs = [concat(seg, constant(ABC, "a")) for seg in enumerate_segments(ABC, 4)]
        lone = machine()
        want = [tm_run(lone, seq, 100) for seq in seqs]
        shared, got = machine(), {}
        threads = [
            threading.Thread(target=lambda i=i: got.__setitem__(i, [tm_run(shared, seq, 100) for seq in seqs]))
            for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [got[i] for i in range(8)] == [want] * 8


class TestAutomatonEmbedding:
    def test_figure_automaton_agrees_everywhere(self, twosym_threshold2):
        aut = twosym_threshold2
        tm = automaton_to_tm(aut)
        for seg in enumerate_segments(XY, 3):
            for name in XY:
                seq = concat(seg, constant(XY, name))
                decision, stop = evaluate(aut, seq)
                got = tm_run(tm, seq, budget=50)
                assert got.decision == decision
                assert got.steps == stop + 2

    def test_immediate_decision_is_three_states(self):
        one = Alphabet(("x",))
        aut = DecisionAutomaton(
            one,
            ("q0", "t"),
            "q0",
            {"q0": {"x": "t"}, "t": absorbing_terminal_row(one, "t")},
            {"t": "x"},
        )
        tm = automaton_to_tm(aut)
        assert len(tm.states) == 3  # read, write, halt
        assert tm_run(tm, constant(one, "x"), 10).decision == "x"

    def test_embedded_score_threshold_rule(self):
        spec = CsrSpec(ABC, {s: Fraction(1) for s in ABC}, Fraction(3))
        tm = automaton_to_tm(csr_compile(spec))
        got = tm_run(tm, ABC.sequence("|a b c"), budget=100)
        assert got.decision == "a" and got.steps == 7 + 2

    def test_output_outside_the_input_alphabet(self):
        # "none" joins the tape alphabet, so every open state needs a rule for it
        aut = DecisionAutomaton(
            XY,
            ("q0", "t0"),
            "q0",
            {"q0": {"x": "t0", "y": "t0"}, "t0": absorbing_terminal_row(XY, "t0")},
            {"t0": "none"},
        )
        tm = automaton_to_tm(aut)
        assert "none" in tm.tape_alphabet
        for name in XY:
            got = tm_run(tm, constant(XY, name), budget=10)
            assert (got.decision, got.steps) == ("none", 3)

    def test_non_stopping_automaton_rejected(self):
        loop = DecisionAutomaton(
            XY, ("q0",), "q0", {"q0": {"x": "q0", "y": "q0"}}, {}
        )
        with pytest.raises(InvalidMachineError):
            automaton_to_tm(loop)

    def test_non_stopping_refusal_names_a_never_deciding_input(self):
        # y leads into a loop that never absorbs; x absorbs at once
        aut = DecisionAutomaton(
            XY,
            ("q0", "p", "t"),
            "q0",
            {
                "q0": {"x": "t", "y": "p"},
                "p": {"x": "p", "y": "p"},
                "t": absorbing_terminal_row(XY, "t"),
            },
            {"t": "x"},
        )
        with pytest.raises(InvalidMachineError, match=r"never decides on 'y\|x'"):
            automaton_to_tm(aut)
        with pytest.raises(DivergenceError):
            evaluate(aut, XY.sequence("y|x"))


class TestBalancedWordFixture:
    """A machine deciding a^n b^n (end-marked) shows the interpreter handles
    left moves and a writable work tape; no automaton can do this."""

    @staticmethod
    def machine():
        alpha = ("a", "b", "e")
        syms = alpha + (START, BLANK, "1", "Y", "N")
        rules = [
            ("q0", START, "*", "count", "*", "R", "R"),
            ("q0", "*", "*", "no_w", "*", "S", "S"),
            ("count", "a", "*", "count", "1", "R", "R"),
            ("count", "b", "*", "match", "*", "S", "L"),
            ("count", "*", "*", "no_w", "*", "S", "S"),
            ("match", "b", "1", "match", "1", "R", "L"),
            ("match", "e", START, "yes_w", "*", "S", "S"),
            ("match", "*", "*", "no_w", "*", "S", "S"),
            ("yes_w", "*", "*", "halt", "Y", "S", "S"),
            ("no_w", "*", "*", "halt", "N", "S", "S"),
        ]
        states = ("q0", "count", "match", "yes_w", "no_w", "halt")
        return TwoTapeTm(states, "q0", ("halt",), syms, rules)

    @staticmethod
    def word_input(text):
        alpha = Alphabet(("a", "b", "e"))
        return concat(alpha.segment(text), constant(alpha, "e"))

    @pytest.mark.parametrize(
        "text,expect",
        [
            ("a b e", "Y"),
            ("a a b b e", "Y"),
            ("a a a b b b e", "Y"),
            ("a b b e", "N"),
            ("a a b e", "N"),
            ("b e", "N"),
            ("a e", "N"),
            ("a b a e", "N"),
        ],
    )
    def test_decides_balanced_words(self, text, expect):
        got = tm_run(self.machine(), self.word_input(text), budget=200)
        assert got.decision == expect


class TestJson:
    def test_round_trip(self):
        tm = echo_machine(XY)
        assert from_json(to_json(tm)) == tm

    def test_malformed_rejected(self):
        with pytest.raises(InvalidMachineError):
            from_json('{"kind": "tm", "states": ["p"]}')
