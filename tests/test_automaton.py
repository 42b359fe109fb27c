"""Tests for decision automata: runs, the peel's decisions and stopping
verdict against the sweep and absorption oracles, minimization."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from seqdec.core import Alphabet, SeqSpec, constant
from seqdec.automaton import (
    MINIMAL_SUFFICIENT,
    NOT_SUFFICIENT,
    SUFFICIENT,
    DecisionAutomaton,
    InvalidAutomatonError,
    NonStoppingRuleError,
    _escaping_states,
    absorbing_terminal_row,
    from_json,
    isomorphic,
    minimize,
    reachable_states,
    to_dot,
    stopping_bound,
    to_json,
)
from seqdec.analysis import RuleHandle, sufficiency_of, tabulate_automaton
from seqdec.heuristics import compile_rule
from tests.conftest import (
    XY, build_twosym_threshold2, oracle_decidedness, oracle_least_bound, oracle_verify_stopping,
)
from tests.definitions import DivergenceError, concat, enumerate_segments, evaluate, run
from tests.mutants import MUTANTS
from tests.test_acceptance import build_corpus


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


def decisions(aut):
    """Each state's decision as the peel gives it: a terminal's output, else
    the forced one, else None."""
    peel = _escaping_states(aut)
    return {
        q: aut.terminal[q] if q in aut.terminal else peel.get(q, (0, None))[1] for q in aut.states
    }


def oracle_minimize(aut):
    """Minimization by Moore refinement, one round over every reachable state
    per depth level.

    Starts from the sweep oracle's decision classes and splits blocks by their
    successors' blocks until a round splits nothing; the blocks are then
    renamed breadth first, each represented by its first state in breadth-first
    order, exactly as ``minimize`` does.
    """
    dec = oracle_decidedness(aut)
    if dec[aut.initial] is not None:
        return DecisionAutomaton(
            alphabet=aut.alphabet,
            states=("q0", "q1"),
            initial="q0",
            transitions={
                "q0": {sym: "q1" for sym in aut.alphabet},
                "q1": absorbing_terminal_row(aut.alphabet, "q1"),
            },
            terminal={"q1": dec[aut.initial]},
        )
    reach = reachable_states(aut)
    classes = {}
    block = {q: classes.setdefault(dec[q], len(classes)) for q in reach}
    while True:
        refined = {}
        new_block = {
            q: refined.setdefault(
                (block[q], tuple(block[aut.transitions[q][sym]] for sym in aut.alphabet)),
                len(refined),
            )
            for q in reach
        }
        if len(refined) == len(classes):
            break
        block, classes = new_block, refined

    names, order = {}, []
    queue = deque([block[aut.initial]])
    names[block[aut.initial]] = "q0"
    rep = {block[q]: q for q in reversed(reach)}
    while queue:
        b = queue.popleft()
        order.append(b)
        for sym in aut.alphabet:
            nb = block[aut.transitions[rep[b]][sym]]
            if nb not in names:
                names[nb] = f"q{len(names)}"
                queue.append(nb)
    transitions, terminal = {}, {}
    for b in order:
        q = rep[b]
        transitions[names[b]] = {
            sym: names[block[aut.transitions[q][sym]]] for sym in aut.alphabet
        }
        if dec[q] is not None:
            terminal[names[b]] = dec[q]
    return DecisionAutomaton(
        alphabet=aut.alphabet,
        states=tuple(names[b] for b in order),
        initial="q0",
        transitions=transitions,
        terminal=terminal,
    )


def tail_into_loop(length, period):
    """Non-stopping: a tail of ``length`` states read on ``a`` into a loop.

    Every tail and loop state moves on ``b`` into a small acyclic part with
    three undecided states, the tail state ``s{i}`` to ``d{i % 3}`` and the
    loop state ``l{j}`` to ``d{j % 3}``.  With a period of 3 the loop goes on
    with the tail's pattern, so each tail state matches a loop state; with
    another period the pattern breaks, and only the distance to the loop
    tells tail states apart.
    """
    ab = Alphabet(("a", "b"))
    tail = [f"s{i}" for i in range(length)]
    loop = [f"l{j}" for j in range(period)]
    transitions = {
        "d0": {"a": "tx", "b": "ty"},
        "d1": {"a": "ty", "b": "tx"},
        "d2": {"a": "d0", "b": "d1"},
        "tx": absorbing_terminal_row(ab, "tx"),
        "ty": absorbing_terminal_row(ab, "ty"),
    }
    for i, q in enumerate(tail):
        transitions[q] = {"a": tail[i + 1] if i + 1 < length else loop[0], "b": f"d{i % 3}"}
    for j, q in enumerate(loop):
        transitions[q] = {"a": loop[(j + 1) % period], "b": f"d{j % 3}"}
    states = tuple(tail + loop) + ("d0", "d1", "d2", "tx", "ty")
    return DecisionAutomaton(ab, states, "s0", transitions, {"tx": "a", "ty": "b"})


@st.composite
def random_automata(draw, max_open=10):
    """Up to ``max_open`` open states and three terminals over one to three symbols.

    Acyclic draws only point forward or at terminals (the last open state
    loops on itself when there is no terminal); cyclic ones point anywhere.
    Unreachable states are left in.
    """
    alphabet = Alphabet(("a", "b", "c")[: draw(st.integers(1, 3))])
    n_open = draw(st.integers(1, max_open))
    opens = [f"s{i}" for i in range(n_open)]
    outputs = draw(st.lists(st.sampled_from(alphabet.symbols), max_size=3))
    terminal = {f"t{i}": out for i, out in enumerate(outputs)}
    acyclic = draw(st.booleans())
    transitions = {t: absorbing_terminal_row(alphabet, t) for t in terminal}
    for i, q in enumerate(opens):
        targets = (opens[i + 1 :] if acyclic else opens) + list(terminal)
        if not targets:
            targets = opens[i:]
        transitions[q] = {sym: draw(st.sampled_from(targets)) for sym in alphabet}
    return DecisionAutomaton(alphabet, tuple(opens) + tuple(terminal), "s0", transitions, terminal)


def on_open_cycle(aut, start):
    """True when ``start`` returns to itself through non-terminal states."""
    stack, seen = [start], set()
    while stack:
        q = stack.pop()
        for sym in aut.alphabet:
            t = aut.transitions[q][sym]
            if t == start:
                return True
            if t not in aut.terminal and t not in seen:
                seen.add(t)
                stack.append(t)
    return False


def longest_open_path(aut, start):
    """Edges on the longest path from ``start`` through non-terminal states.

    Only meaningful when no such path loops; memoized depth-first search.
    """
    memo = {}

    def depth(q):
        if q not in memo:
            succ = [aut.transitions[q][sym] for sym in aut.alphabet]
            memo[q] = max((1 + depth(t) for t in succ if t not in aut.terminal), default=0)
        return memo[q]

    return depth(start)


def decision_or_divergence(aut, seq):
    try:
        return evaluate(aut, seq)[0]
    except DivergenceError:
        return DivergenceError


class TestOnePeel:
    @settings(max_examples=150, deadline=None)
    @given(aut=random_automata())
    def test_matches_sweep_oracle(self, aut):
        assert decisions(aut) == oracle_decidedness(aut)

        verdict = oracle_verify_stopping(aut)
        looping = [
            q for q in reachable_states(aut) if q not in aut.terminal and on_open_cycle(aut, q)
        ]
        assert verdict.stops == (not looping)
        if verdict.stops:
            assert verdict.bound == 1 + longest_open_path(aut, aut.initial)
            assert stopping_bound(aut) == oracle_least_bound(aut) <= verdict.bound
        else:
            state = run(aut, verdict.reach)
            assert state == verdict.cycle_states[0]
            for sym in verdict.cycle_symbols:
                assert state not in aut.terminal
                state = aut.transitions[state][sym]
            assert state == verdict.cycle_states[0]
            with pytest.raises(NonStoppingRuleError) as info:
                stopping_bound(aut)
            assert run(aut, info.value.sequence.prefix) == verdict.cycle_states[0]
            with pytest.raises(DivergenceError):
                evaluate(aut, info.value.sequence)

        small = minimize(aut)
        assert isomorphic(minimize(small), small)
        for plen in range(4):
            for pre in enumerate_segments(aut.alphabet, plen):
                for clen in (1, 2):
                    for cyc in enumerate_segments(aut.alphabet, clen):
                        seq = SeqSpec(aut.alphabet, pre, cyc)
                        expect = decision_or_divergence(aut, seq)
                        assert decision_or_divergence(small, seq) == expect


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

    def test_row_for_an_unlisted_state_rejected(self):
        rows = {"a": {"x": "a", "y": "a"}, "zz": {"x": 5}}
        with pytest.raises(InvalidAutomatonError, match="^transitions row 'zz' not in state set$"):
            DecisionAutomaton(XY, ("a",), "a", rows, {})

    def test_unknown_symbol_named_in_the_message(self):
        row = {"x": "a", "y": "a", "z": "a"}
        with pytest.raises(InvalidAutomatonError) as info:
            DecisionAutomaton(XY, ("a",), "a", {"a": row}, {})
        assert str(info.value) == "transitions on unknown symbols {'z'} from 'a'"


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
        dec = decisions(twosym_threshold2)
        assert dec == oracle_decidedness(twosym_threshold2)
        assert dec["2_x"] == "x" and dec["2_y"] == "y"

    def test_mixed_state_undecided(self, twosym_threshold2):
        dec = decisions(twosym_threshold2)
        assert dec["1_x1_y"] is None and oracle_decidedness(twosym_threshold2)["1_x1_y"] is None
        assert dec["q0"] is None

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
        dec = decisions(aut)
        assert dec == oracle_decidedness(aut)
        assert dec["A"] == "y" and dec["B"] == "y"
        # decided before any symbol, though every run absorbs only at the second
        assert stopping_bound(aut) == 0 and oracle_verify_stopping(aut).bound == 2

    def test_avoidable_terminal_leaves_state_undecided(self):
        # same unique output, but a self-loop makes absorption avoidable
        aut = DecisionAutomaton(
            XY,
            ("A", "T"),
            "A",
            {"A": {"x": "A", "y": "T"}, "T": absorbing_terminal_row(XY, "T")},
            {"T": "y"},
        )
        assert decisions(aut)["A"] is None and oracle_decidedness(aut)["A"] is None

    def test_monotone_along_runs(self, twosym_threshold2):
        aut = twosym_threshold2
        dec = decisions(aut)
        for length in range(4):
            for seg in enumerate_segments(XY, length):
                state = run(aut, seg)
                if dec[state] is not None:
                    for sym in XY:
                        nxt = aut.transitions[state][sym]
                        assert dec[nxt] == dec[state]


class TestSufficiency:
    def test_classification(self, twosym_threshold2):
        rule = RuleHandle.from_automaton(twosym_threshold2)
        assert sufficiency_of(rule, XY.segment("x")).status == NOT_SUFFICIENT
        v = sufficiency_of(rule, XY.segment("x x"))
        assert v.status == MINIMAL_SUFFICIENT and v.decision == "x"
        v = sufficiency_of(rule, XY.segment("x x y"))
        assert v.status == SUFFICIENT and v.decision == "x"

    def test_matches_bruteforce_oracle(self, twosym_threshold2):
        aut = twosym_threshold2
        rule = RuleHandle.from_automaton(aut)
        bound = oracle_verify_stopping(aut).bound
        for length in range(bound + 1):
            for seg in enumerate_segments(XY, length):
                expect = oracle_sufficiency(aut, seg, bound)
                got = sufficiency_of(rule, seg)
                assert (got.decision if got.is_sufficient else None) == expect


class TestVerifyStopping:
    def test_bound_three(self, twosym_threshold2):
        assert oracle_verify_stopping(twosym_threshold2).bound == 3
        assert stopping_bound(twosym_threshold2) == 3

    def test_bound_is_tight(self, twosym_threshold2):
        aut = twosym_threshold2
        bound = oracle_verify_stopping(aut).bound
        stops = []
        for seg in enumerate_segments(XY, bound):
            seq = concat(seg, constant(XY, "x"))
            stops.append(evaluate(aut, seq)[1])
        assert max(stops) == bound

    def test_one_step_machine(self):
        assert oracle_verify_stopping(one_step_chooser(XY)).bound == 1
        assert stopping_bound(one_step_chooser(XY)) == 1

    def test_long_chain_needs_no_recursion(self):
        # 1499 undecided states in a row: deeper than the recursion limit
        from fractions import Fraction

        from seqdec.heuristics import CsrSpec, csr_compile

        spec = CsrSpec(XY, {"x": Fraction(1, 1500), "y": Fraction(1)}, Fraction(1))
        aut = csr_compile(spec)
        assert oracle_verify_stopping(aut).bound == stopping_bound(aut) == 1500

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
        verdict = oracle_verify_stopping(aut)
        assert not verdict.stops
        # replay: the reach segment hits the loop head, the loop returns to it
        state = run(aut, verdict.reach)
        assert state == verdict.cycle_states[0]
        for sym in verdict.cycle_symbols:
            assert state not in aut.terminal
            state = aut.transitions[state][sym]
        assert state == verdict.cycle_states[0]
        # the one verdict names the same loop, entered by the same word
        with pytest.raises(NonStoppingRuleError, match=r"never decides on 'x\|x x'") as info:
            stopping_bound(aut)
        assert info.value.sequence == XY.sequence("x|x x")
        with pytest.raises(DivergenceError):
            evaluate(aut, info.value.sequence)


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
        bound = oracle_verify_stopping(aut).bound
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


class TestMinimizeAgainstRefinement:
    """``minimize`` against the per-depth refinement it replaced, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(aut=random_automata())
    def test_random_automata(self, aut):
        assert to_json(minimize(aut)) == to_json(oracle_minimize(aut))

    def test_corpus_and_mutants(self):
        automata = [compile_rule(spec) for spec in build_corpus()]
        automata += [tabulate_automaton(make()) for make in MUTANTS.values()]
        assert len(automata) == 61
        for aut in automata:
            assert to_json(minimize(aut)) == to_json(oracle_minimize(aut))

    @pytest.mark.parametrize("period, states", [(3, 8), (2, 307)])
    def test_long_tail_into_a_loop(self, period, states):
        aut = tail_into_loop(300, period)
        assert not oracle_verify_stopping(aut).stops
        with pytest.raises(NonStoppingRuleError):
            stopping_bound(aut)
        small = minimize(aut)
        assert to_json(small) == to_json(oracle_minimize(aut))
        assert len(small.states) == states


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
