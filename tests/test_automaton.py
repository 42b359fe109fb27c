"""Tests for decision automata: runs, decidedness, stopping, minimization."""

import pytest

from seqdec.core import SeqSpec, concat, constant, enumerate_segments
from seqdec.automaton import (
    MINIMAL_SUFFICIENT,
    NOT_SUFFICIENT,
    SUFFICIENT,
    DecisionAutomaton,
    DivergenceError,
    InvalidAutomatonError,
    absorbing_terminal_row,
    decidedness,
    evaluate,
    from_json,
    isomorphic,
    minimize,
    reachable_states,
    run,
    sufficiency,
    to_dot,
    to_json,
    verify_stopping,
)
from tests.conftest import XY, build_twosym_threshold2


def spinner():
    """Single non-terminal state looping on every symbol: never stops."""
    return DecisionAutomaton(
        alphabet=XY,
        states=("loop",),
        initial="loop",
        transitions={"loop": {"x": "loop", "y": "loop"}},
        terminal={},
    )


def one_step_chooser(alphabet):
    """Absorb immediately, outputting the first symbol read."""
    terminals = {f"t_{s}": s for s in alphabet}
    states = ("q0",) + tuple(terminals)
    transitions = {"q0": {s: f"t_{s}" for s in alphabet}}
    for t in terminals:
        transitions[t] = absorbing_terminal_row(alphabet, t)
    return DecisionAutomaton(alphabet, states, "q0", transitions, terminals)


def oracle_sufficiency(aut, seg, bound):
    """Brute-force sufficiency: compare decisions over the whole tail basis.

    Independent of the graph analysis: extends the segment by every word up
    to the uniform bound and by every single-symbol cycle, and evaluates
    each continuation directly.
    """
    decisions = set()
    for name in seg.alphabet:
        decisions.add(evaluate(aut, concat(seg, constant(seg.alphabet, name)))[0])
    for fill in enumerate_segments(seg.alphabet, max(bound - len(seg), 0)):
        closed = concat(seg + fill, constant(seg.alphabet, seg.alphabet.symbols[0]))
        decisions.add(evaluate(aut, closed)[0])
    return decisions.pop() if len(decisions) == 1 else None


class TestConstruction:
    def test_missing_transition_rejected(self):
        with pytest.raises(InvalidAutomatonError):
            DecisionAutomaton(XY, ("a", "b"), "a", {"a": {"x": "b"}, "b": {}}, {})

    def test_non_absorbing_terminal_rejected(self):
        with pytest.raises(InvalidAutomatonError):
            DecisionAutomaton(
                XY,
                ("a", "t"),
                "a",
                {"a": {"x": "t", "y": "t"}, "t": {"x": "a", "y": "t"}},
                {"t": "x"},
            )

    def test_terminal_initial_rejected(self):
        with pytest.raises(InvalidAutomatonError):
            DecisionAutomaton(
                XY, ("t",), "t", {"t": absorbing_terminal_row(XY, "t")}, {"t": "x"}
            )

    def test_unknown_target_rejected(self):
        with pytest.raises(InvalidAutomatonError):
            DecisionAutomaton(XY, ("a",), "a", {"a": {"x": "a", "y": "ghost"}}, {})


class TestRun:
    def test_double_occurrence_absorbs(self, twosym_threshold2):
        assert run(twosym_threshold2, XY.segment("x x")) == "2_x"

    def test_empty_segment_stays_initial(self, twosym_threshold2):
        assert run(twosym_threshold2, XY.segment("")) == "q0"

    def test_traced_path(self, twosym_threshold2):
        assert run(twosym_threshold2, XY.segment("x y x")) == "2_x"

    def test_absorbing_after_terminal(self, twosym_threshold2):
        assert run(twosym_threshold2, XY.segment("x x y y y")) == "2_x"


class TestEvaluate:
    def test_constant_input(self, twosym_threshold2):
        assert evaluate(twosym_threshold2, constant(XY, "x")) == ("x", 2)

    def test_alternating_cycle(self, twosym_threshold2):
        assert evaluate(twosym_threshold2, XY.sequence("|x y")) == ("x", 3)

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            evaluate(spinner(), XY.sequence("x|y x"))

    def test_stop_position_matches_run(self, twosym_threshold2):
        # entry position is the least k whose window reaches a terminal state
        aut = twosym_threshold2
        for seq in (XY.sequence("|x y"), XY.sequence("y|x"), constant(XY, "y")):
            _, stop = evaluate(aut, seq)
            from seqdec.core import prefix_of

            assert run(aut, prefix_of(seq, stop)) in aut.terminal
            assert run(aut, prefix_of(seq, stop - 1)) not in aut.terminal


class TestDecidedness:
    def test_terminals_decided_on_output(self, twosym_threshold2):
        dec = decidedness(twosym_threshold2)
        assert dec["2_x"].decision == "x" and dec["2_y"].decision == "y"

    def test_mixed_state_undecided(self, twosym_threshold2):
        dec = decidedness(twosym_threshold2)
        assert not dec["1_x1_y"].is_decided
        assert not dec["q0"].is_decided

    def test_single_output_forces_decision(self):
        # A -> B -> T(y); F unavoidable from both, so both decided on y
        aut = DecisionAutomaton(
            XY,
            ("A", "B", "T"),
            "A",
            {
                "A": {"x": "B", "y": "B"},
                "B": {"x": "T", "y": "T"},
                "T": absorbing_terminal_row(XY, "T"),
            },
            {"T": "y"},
        )
        dec = decidedness(aut)
        assert dec["A"].decision == "y" and dec["B"].decision == "y"

    def test_avoidable_terminal_leaves_state_undecided(self):
        # same unique output, but a self-loop makes absorption avoidable
        aut = DecisionAutomaton(
            XY,
            ("A", "T"),
            "A",
            {"A": {"x": "A", "y": "T"}, "T": absorbing_terminal_row(XY, "T")},
            {"T": "y"},
        )
        assert not decidedness(aut)["A"].is_decided

    def test_monotone_along_runs(self, twosym_threshold2):
        aut = twosym_threshold2
        dec = decidedness(aut)
        for length in range(4):
            for seg in enumerate_segments(XY, length):
                state = run(aut, seg)
                if dec[state].is_decided:
                    for sym in XY:
                        nxt = aut.transitions[state][sym]
                        assert dec[nxt].decision == dec[state].decision


class TestSufficiency:
    def test_classification(self, twosym_threshold2):
        aut = twosym_threshold2
        assert sufficiency(aut, XY.segment("x")).status == NOT_SUFFICIENT
        v = sufficiency(aut, XY.segment("x x"))
        assert v.status == MINIMAL_SUFFICIENT and v.decision == "x"
        v = sufficiency(aut, XY.segment("x x y"))
        assert v.status == SUFFICIENT and v.decision == "x"

    def test_matches_bruteforce_oracle(self, twosym_threshold2):
        aut = twosym_threshold2
        bound = verify_stopping(aut).bound
        for length in range(bound + 1):
            for seg in enumerate_segments(XY, length):
                expect = oracle_sufficiency(aut, seg, bound)
                got = sufficiency(aut, seg)
                assert (got.decision if got.is_sufficient else None) == expect


class TestVerifyStopping:
    def test_bound_three(self, twosym_threshold2):
        assert verify_stopping(twosym_threshold2).bound == 3

    def test_bound_is_tight(self, twosym_threshold2):
        aut = twosym_threshold2
        bound = verify_stopping(aut).bound
        stops = []
        for seg in enumerate_segments(XY, bound):
            seq = concat(seg, constant(XY, "x"))
            stops.append(evaluate(aut, seq)[1])
        assert max(stops) == bound

    def test_one_step_machine(self):
        assert verify_stopping(one_step_chooser(XY)).bound == 1

    def test_long_chain_needs_no_recursion(self):
        # 1499 undecided states in a row: deeper than the recursion limit
        from fractions import Fraction

        from seqdec.heuristics import CsrSpec, csr_compile

        spec = CsrSpec(XY, {"x": Fraction(1, 1500), "y": Fraction(1)}, Fraction(1))
        assert verify_stopping(csr_compile(spec)).bound == 1500

    def test_nonterminal_cycle_witnessed(self):
        aut = DecisionAutomaton(
            XY,
            ("q0", "p", "q", "t"),
            "q0",
            {
                "q0": {"x": "p", "y": "t"},
                "p": {"x": "q", "y": "q"},
                "q": {"x": "p", "y": "p"},
                "t": absorbing_terminal_row(XY, "t"),
            },
            {"t": "y"},
        )
        verdict = verify_stopping(aut)
        assert not verdict.stops
        # replay: the reach segment hits the loop head, the loop returns to it
        state = run(aut, verdict.reach)
        assert state == verdict.cycle_states[0]
        for sym in verdict.cycle_symbols:
            assert state not in aut.terminal
            state = aut.transitions[state][sym]
        assert state == verdict.cycle_states[0]


class TestMinimize:
    def test_already_minimal_six_states(self, twosym_threshold2):
        small = minimize(twosym_threshold2)
        assert len(small.states) == 6
        assert isomorphic(small, twosym_threshold2)

    def test_duplicate_terminals_merged(self):
        aut = DecisionAutomaton(
            XY,
            ("q0", "t1", "t2"),
            "q0",
            {
                "q0": {"x": "t1", "y": "t2"},
                "t1": absorbing_terminal_row(XY, "t1"),
                "t2": absorbing_terminal_row(XY, "t2"),
            },
            {"t1": "x", "t2": "x"},
        )
        small = minimize(aut)
        assert len(small.states) == 2
        assert len(small.terminal) == 1

    def test_unreachable_states_dropped(self, twosym_threshold2):
        aut = twosym_threshold2
        bloated = DecisionAutomaton(
            aut.alphabet,
            aut.states + ("orphan",),
            aut.initial,
            {**aut.transitions, "orphan": {"x": "orphan", "y": "orphan"}},
            aut.terminal,
        )
        assert len(minimize(bloated).states) == 6

    def test_decisions_preserved_exhaustively(self, twosym_threshold2):
        # every input with prefix and cycle lengths up to one past the bound
        aut = twosym_threshold2
        small = minimize(aut)
        bound = verify_stopping(aut).bound
        for plen in range(bound + 2):
            for pre in enumerate_segments(XY, plen):
                for clen in (1, 2, bound + 1):
                    for cyc in enumerate_segments(XY, clen):
                        seq = SeqSpec(XY, pre, cyc)
                        assert evaluate(small, seq)[0] == evaluate(aut, seq)[0]

    def test_constant_rule_collapses_to_two_states(self):
        aut = DecisionAutomaton(
            XY,
            ("q0", "mid", "t"),
            "q0",
            {
                "q0": {"x": "mid", "y": "mid"},
                "mid": {"x": "t", "y": "t"},
                "t": absorbing_terminal_row(XY, "t"),
            },
            {"t": "y"},
        )
        small = minimize(aut)
        assert len(small.states) == 2
        assert evaluate(small, constant(XY, "x"))[0] == "y"


class TestIsomorphic:
    def test_renaming_is_isomorphic(self, twosym_threshold2):
        aut = twosym_threshold2
        renamed = DecisionAutomaton(
            aut.alphabet,
            tuple(f"s_{q}" for q in aut.states),
            f"s_{aut.initial}",
            {f"s_{q}": {s: f"s_{t}" for s, t in row.items()} for q, row in aut.transitions.items()},
            {f"s_{q}": o for q, o in aut.terminal.items()},
        )
        assert isomorphic(aut, renamed)

    def test_different_structure_not_isomorphic(self, twosym_threshold2):
        assert not isomorphic(twosym_threshold2, one_step_chooser(XY))


class TestDot:
    def test_node_and_terminal_counts(self, twosym_threshold2):
        dot = to_dot(twosym_threshold2)
        assert dot.count("shape=doublecircle") == 2
        assert dot.count("shape=circle") == 4

    def test_self_loop_labels_merged(self):
        dot = to_dot(spinner())
        assert dot.count("shape=circle") == 1
        assert '[label="x, y"]' in dot

    def test_round_trip_node_count(self, twosym_threshold2):
        dot = to_dot(twosym_threshold2)
        rendered = dot.count("shape=circle") + dot.count("shape=doublecircle")
        assert rendered == len(reachable_states(twosym_threshold2))


class TestJson:
    def test_round_trip(self, twosym_threshold2):
        again = from_json(to_json(twosym_threshold2))
        assert again == twosym_threshold2

    def test_loader_enforces_invariants(self):
        import json as _json

        doc = _json.loads(to_json(build_twosym_threshold2()))
        doc["transitions"]["2_x"]["x"] = "q0"  # break the absorbing invariant
        with pytest.raises(InvalidAutomatonError):
            from_json(_json.dumps(doc))

    def test_malformed_document(self):
        with pytest.raises(InvalidAutomatonError):
            from_json('{"alphabet": ["x"]}')
