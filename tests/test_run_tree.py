"""Black-box tabulation by one walk of the run tree against fresh runs.

A machine's input head moves one cell a step, so a run within a budget of
B steps reads at most B - 1 symbols.  ``oracle_tabulate_machine`` therefore
tabulates every window of length B - 1 by a fresh ``tm_run`` from the start
marker on one closure of it, in lexicographic window order.  The walk,
which has no horizon and goes on until every run decides, must give an
automaton with the same stopping facts and the same minimal automaton, or
raise the same first exception with the same message, on random total
machines (two-way and one-way), on embedded stopping automata and compiled
rules, on a machine that reads one cell past its horizon and on a spinner.
A declared horizon H must raise ``HorizonViolation`` exactly where the
oracle's bound passes H, naming the first open window of length H.

``oracle_tabulate_blackbox`` is the per-closure tabulation of a plain
evaluator with a declared horizon H: it calls the evaluator on every
single-symbol closure of every length-H window, in lexicographic window
order, and raises ``HorizonViolation`` where a window's closures disagree.
The walk of an evaluator must make the same calls in the same order.
"""

import itertools

from hypothesis import given, settings, strategies as st

from seqdec.core import Alphabet, SeqdecError, Segment
from seqdec.automaton import isomorphic, minimize, verify_stopping
from seqdec.heuristics import compile_rule, segment_tree_automaton
from seqdec.machines import BLANK, START, TwoTapeTm, automaton_to_tm, tm_run
from seqdec.analysis import (
    HorizonViolation,
    RuleHandle,
    _closure,
    _require_windows,
    _tabulate_blackbox,
    tabulate_automaton,
)
from tests.conftest import ABC, XY
from tests.mutants import MUTANTS
from tests.test_acceptance import build_corpus
from tests.test_dominance import tree_automata
from tests.test_facts import rule_specs
from tests.test_machines import echo_machine, peek_back_machine, spinner_machine

# small enough that the oracle's |alphabet|^(B - 1) windows stay few
BUDGETS = (1, 2, 3, 5, 8)
HORIZONS = st.one_of(st.none(), st.integers(1, 3))


def oracle_tabulate_machine(tm: TwoTapeTm, alphabet: Alphabet, budget: int):
    def decide(word):
        return tm_run(tm, _closure(alphabet, word, 0), budget).decision

    # a run within the budget reads no symbol past the window
    return segment_tree_automaton(alphabet, max(budget - 1, 1), decide)


def oracle_tabulate_blackbox(alphabet: Alphabet, evaluator, horizon: int):
    _require_windows(alphabet, horizon)
    n = len(alphabet)

    def decide(word):
        got = {evaluator(_closure(alphabet, word, c)) for c in range(n)}
        if len(got) > 1:
            text = Segment(alphabet, word).text()
            raise HorizonViolation(
                text, horizon, f"decisions after window {text!r} differ across closures {sorted(got)}"
            )
        return got.pop()

    return segment_tree_automaton(alphabet, horizon, decide)


def outcome(tabulate, horizon=None) -> tuple:
    """The automaton's stopping facts and minimal automaton, or the
    exception's type, message and, for a horizon violation, its fields.

    With a ``horizon``, an automaton whose bound passes it stands for the
    violation that names its first open window of that length.
    ``minimize`` names states breadth first, so two minimal automata are
    equal exactly when they are isomorphic.
    """
    try:
        aut = tabulate()
    except HorizonViolation as exc:
        return "HorizonViolation", str(exc), exc.window, exc.horizon
    except SeqdecError as exc:
        return type(exc).__name__, str(exc)
    facts = RuleHandle.from_automaton(aut).facts
    if horizon is not None and facts.bound > horizon:
        words = itertools.product(range(len(aut.alphabet)), repeat=horizon)
        text = Segment(aut.alphabet, next(w for w in words if facts.decided(w) is None)).text()
        message = (
            f"the decision after window {text!r} is still open; "
            f"the rule reads past the declared horizon {horizon}"
        )
        return "HorizonViolation", message, text, horizon
    payload = facts.bound, facts.minimal, list(facts.outcomes.items()), facts.decisive
    return "automaton", payload, minimize(aut)


def assert_walk_matches(tm: TwoTapeTm, alphabet: Alphabet, budget: int, horizon=None):
    box = RuleHandle.from_machine(tm, alphabet, budget, horizon)
    walked = outcome(lambda: tabulate_automaton(box))
    assert walked == outcome(lambda: oracle_tabulate_machine(tm, alphabet, budget), horizon)
    return walked


@st.composite
def total_machines(draw, moves_in="LSR", moves_out="LSR", layered=False):
    """Random total machines over one to three input symbols.

    Both heads move L, S or R, except that the input head may not move left
    from the start marker, so runs may halt, run off the tape, spin, or read
    past any horizon.  Some have no halting state at all.  With
    ``moves_in="SR"`` the input head never moves left, so the walk keys
    nodes by configuration.  With ``layered`` each open state moves only to
    later ones or to a halting state, so every run halts within as many
    steps as there are open states, unless its output head runs off the
    tape first, which ``moves_out="SR"`` rules out.
    """
    alphabet = Alphabet(tuple("xyz"[: draw(st.integers(1, 3))]))
    opened = [f"q{i}" for i in range(draw(st.integers(1, 6 if layered else 3)))]
    halts = [f"h{i}" for i in range(draw(st.integers(1 if layered else 0, 2)))]
    syms = alphabet.symbols + (START, BLANK)
    # each strategy is built once: building one per transition took most of the time
    nexts = [st.sampled_from((opened[i + 1:] if layered else opened) + halts) for i in range(len(opened))]
    writes, outs = st.sampled_from(syms), st.sampled_from(moves_out)
    ins = {a: st.sampled_from("SR" if a == START else moves_in) for a in syms}
    transitions = {
        (q, a, b): (draw(nexts[i]), draw(writes), draw(ins[a]), draw(outs))
        for i, q in enumerate(opened)
        for a in syms
        for b in syms
    }
    return alphabet, TwoTapeTm(tuple(opened + halts), "q0", halts, syms, transitions)


@settings(max_examples=300, deadline=None)
@given(machine=total_machines(), budget=st.sampled_from(BUDGETS), horizon=HORIZONS)
def test_random_machines_match_the_per_closure_runs(machine, budget, horizon):
    alphabet, tm = machine
    assert_walk_matches(tm, alphabet, budget, horizon)


@settings(max_examples=300, deadline=None)
@given(machine=total_machines(moves_in="SR"), budget=st.sampled_from(BUDGETS), horizon=HORIZONS)
def test_random_one_way_machines_match_the_per_closure_runs(machine, budget, horizon):
    alphabet, tm = machine
    assert RuleHandle.from_machine(tm, alphabet, budget).runs.keyed
    assert_walk_matches(tm, alphabet, budget, horizon)


@settings(max_examples=100, deadline=None)
@given(
    machine=total_machines(moves_out="SR", layered=True),
    budget=st.sampled_from(BUDGETS),
    horizon=HORIZONS,
)
def test_random_halting_machines_match_the_fresh_runs(machine, budget, horizon):
    alphabet, tm = machine
    assert_walk_matches(tm, alphabet, budget, horizon)


@settings(max_examples=40, deadline=None)
@given(aut=tree_automata(), extra=st.integers(0, 2), data=st.data())
def test_embedded_tree_automata_match(aut, extra, data):
    # an embedded run takes its stop position plus two steps, and it stops
    # where the automaton reaches a terminal, maybe past the uniform bound
    bound = verify_stopping(aut).bound
    horizon = data.draw(st.one_of(st.none(), st.integers(1, bound + 1)))
    got = assert_walk_matches(automaton_to_tm(aut), aut.alphabet, bound + 2 + extra, horizon)
    uniform = RuleHandle.from_automaton(aut).facts.bound
    assert got[0] == ("automaton" if horizon is None or horizon >= uniform else "HorizonViolation")


@settings(max_examples=40, deadline=None)
@given(spec=rule_specs(), short=st.booleans())
def test_embedded_rules_match(spec, short):
    aut = compile_rule(spec)
    bound = verify_stopping(aut).bound
    # one step short of the budget an embedded run needs, so some runs exhaust it
    budget = bound + (1 if short else 2)
    assert_walk_matches(automaton_to_tm(aut), aut.alphabet, budget, max(bound, 1))


def test_corpus_and_mutant_machines_round_trip():
    # automaton to machine and back: the paper's two computability theorems
    automata = [compile_rule(spec) for spec in build_corpus()]
    automata += [tabulate_automaton(make()) for make in MUTANTS.values()]
    for aut in automata:
        bound = verify_stopping(aut).bound
        back = tabulate_automaton(RuleHandle.from_machine(automaton_to_tm(aut), aut.alphabet, 2 * bound + 4))
        assert isomorphic(minimize(back), minimize(aut))
        # one state per configuration, so no more than the embedded automaton's
        assert len(back.states) <= len(aut.states)


def test_reading_one_cell_past_the_horizon():
    # the echo machine decides on cell 2, the first symbol: horizon 1 holds
    assert assert_walk_matches(echo_machine(ABC), ABC, 5, 1)[0] == "automaton"
    # a machine that skips one symbol and echoes the next reads past horizon 1
    syms = ABC.symbols + (START, BLANK)
    rules = [("q0", START, "*", "skip", "*", "R", "S"), ("skip", "*", "*", "q1", "*", "R", "S")]
    for name in ABC:
        rules += [("q1", name, "*", f"w_{name}", "*", "S", "S"), (f"w_{name}", "*", "*", "halt", name, "S", "S")]
    rules += [("q0", "*", "*", "q0", "*", "S", "S"), ("q1", "*", "*", "q1", "*", "S", "S")]
    states = ["q0", "skip", "q1", "halt"] + [f"w_{name}" for name in ABC]
    second = TwoTapeTm.build(states, "q0", ("halt",), syms, rules)
    assert assert_walk_matches(second, ABC, 5, 1) == (
        "HorizonViolation",
        "the decision after window 'a' is still open; the rule reads past the declared horizon 1",
        "a",
        1,
    )
    assert assert_walk_matches(second, ABC, 5, 2)[0] == "automaton"
    # with no horizon the walk finds the bound
    got = assert_walk_matches(second, ABC, 5)
    assert got[0] == "automaton" and got[1][0] == 2


def test_spinner_exhausts_the_budget():
    for horizon in (None, 3):
        assert assert_walk_matches(spinner_machine(XY), XY, 17, horizon) == (
            "BudgetExhausted", "no terminal state within 17 steps"
        )


def test_the_start_checks_come_first():
    # a machine that moves its input head left is capped as it is walked, like a one-way one
    two_way = peek_back_machine(XY)
    assert not RuleHandle.from_machine(two_way, XY, 10).runs.keyed
    assert assert_walk_matches(two_way, XY, 10, 1)[0] == "automaton"
    for budget, alphabet, error in ((0, XY, "ValidationError"), (10, ABC, "InvalidMachineError")):
        assert assert_walk_matches(two_way, alphabet, budget, 19)[0] == error
        assert assert_walk_matches(two_way, alphabet, budget)[0] == error


def test_a_one_way_machine_is_capped_as_it_is_walked():
    # no window count is checked up front, so the start checks come first
    for budget, alphabet, error in ((0, XY, "ValidationError"), (10, ABC, "InvalidMachineError")):
        box = RuleHandle.from_machine(echo_machine(XY), alphabet, budget, 19)
        assert outcome(lambda: _tabulate_blackbox(box))[0] == error
    # the echo machine decides on its first symbol, with any horizon or none
    for horizon in (None, 10**10):
        box = RuleHandle.from_machine(echo_machine(XY), XY, 50, horizon)
        got = outcome(lambda: tabulate_automaton(box))
        assert got[0] == "automaton" and got[1][:2] == (1, [((0,), "x"), ((1,), "y")])


@settings(max_examples=40, deadline=None)
@given(spec=rule_specs(), horizon=st.integers(1, 3))
def test_a_plain_evaluator_is_called_as_before(spec, horizon):
    calls, expected = [], []
    rule = RuleHandle.from_rule(spec)

    def recording(log):
        return lambda seq: log.append(seq.text()) or rule.decide(seq)

    walked = outcome(lambda: _tabulate_blackbox(RuleHandle.from_callable(spec.alphabet, recording(calls), horizon)))
    assert walked == outcome(lambda: oracle_tabulate_blackbox(spec.alphabet, recording(expected), horizon))
    assert calls == expected


def test_a_callable_reading_past_its_horizon():
    box = RuleHandle.from_callable(XY, lambda s: s.symbol_at(3), horizon=2)
    got = outcome(lambda: _tabulate_blackbox(box))
    assert got == outcome(lambda: oracle_tabulate_blackbox(XY, lambda s: s.symbol_at(3), 2))
    assert got == (
        "HorizonViolation",
        "decisions after window 'x x' differ across closures ['x', 'y']; "
        "the rule reads past the declared horizon 2",
        "x x",
        2,
    )
