"""Black-box tabulation by one walk of the run tree against the per-closure runs.

``oracle_tabulate_blackbox`` is the tabulation the walk replaced: it calls
the evaluator on every single-symbol closure of every length-H window, in
lexicographic window order, and raises ``HorizonViolation`` where a
window's closures disagree.  For a machine each call is a fresh
``tm_run`` from the start marker.  The walk must give an automaton with the
same stopping facts and the same minimal automaton, or raise the same first
exception with the same message, on random total machines (two-way and
one-way), on embedded stopping automata, on a machine that reads one cell
past its horizon and on a spinner; for a plain evaluator it must make the
same calls in the same order.
"""

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

BUDGETS = (1, 3, 8, 20, 60)


def oracle_tabulate_blackbox(alphabet: Alphabet, evaluator, horizon: int):
    _require_windows(alphabet, horizon)
    n = len(alphabet)

    def decide(word):
        got = {evaluator(_closure(alphabet, word, c)) for c in range(n)}
        if len(got) > 1:
            text = Segment(alphabet, word).text()
            raise HorizonViolation(
                f"decisions after window {text!r} differ across closures {sorted(got)}; "
                f"the rule reads past the declared horizon {horizon}"
            )
        return got.pop()

    return segment_tree_automaton(alphabet, horizon, decide)


def outcome(tabulate) -> tuple:
    """The automaton's stopping facts and minimal automaton, or the
    exception's type and message.

    ``minimize`` names states breadth first, so two minimal automata are
    equal exactly when they are isomorphic.
    """
    try:
        aut = tabulate()
    except SeqdecError as exc:
        return type(exc).__name__, str(exc)
    facts = RuleHandle.from_automaton(aut).facts
    payload = facts.bound, facts.minimal, list(facts.outcomes.items()), facts.decisive
    return "automaton", payload, minimize(aut)


def assert_walk_matches(tm: TwoTapeTm, alphabet: Alphabet, horizon: int, budget: int):
    walked = outcome(lambda: _tabulate_blackbox(RuleHandle.from_machine(tm, alphabet, horizon, budget)))
    expected = outcome(lambda: oracle_tabulate_blackbox(
        alphabet, lambda seq: tm_run(tm, seq, budget).decision, horizon
    ))
    assert walked == expected
    return walked


@st.composite
def total_machines(draw, moves_in="LSR"):
    """Random total machines over one to three input symbols.

    Both heads move L, S or R, except that the input head may not move left
    from the start marker, so runs may halt, run off the tape, spin, or read
    past any horizon.  Some have no halting state at all.  With
    ``moves_in="SR"`` the input head never moves left, so the walk keys
    nodes by configuration.
    """
    alphabet = Alphabet(tuple("xyz"[: draw(st.integers(1, 3))]))
    opened = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    halts = [f"h{i}" for i in range(draw(st.integers(0, 2)))]
    syms = alphabet.symbols + (START, BLANK)
    transitions = {
        (q, a, b): (
            draw(st.sampled_from(opened + halts)),
            draw(st.sampled_from(syms)),
            draw(st.sampled_from("SR" if a == START else moves_in)),
            draw(st.sampled_from("LSR")),
        )
        for q in opened
        for a in syms
        for b in syms
    }
    return alphabet, TwoTapeTm(tuple(opened + halts), "q0", halts, syms, transitions)


@settings(max_examples=300, deadline=None)
@given(
    machine=total_machines(),
    horizon=st.integers(1, 4),
    budget=st.sampled_from(BUDGETS),
)
def test_random_machines_match_the_per_closure_runs(machine, horizon, budget):
    alphabet, tm = machine
    assert_walk_matches(tm, alphabet, horizon, budget)


@settings(max_examples=300, deadline=None)
@given(
    machine=total_machines(moves_in="SR"),
    horizon=st.integers(1, 4),
    budget=st.sampled_from(BUDGETS),
)
def test_random_one_way_machines_match_the_per_closure_runs(machine, horizon, budget):
    alphabet, tm = machine
    assert RuleHandle.from_machine(tm, alphabet, horizon, budget).runs.keyed
    assert_walk_matches(tm, alphabet, horizon, budget)


@settings(max_examples=40, deadline=None)
@given(aut=tree_automata(), extra=st.integers(0, 2))
def test_embedded_tree_automata_match(aut, extra):
    bound = verify_stopping(aut).bound
    got = assert_walk_matches(automaton_to_tm(aut), aut.alphabet, max(bound, 1) + extra, 2 * bound + 8)
    assert got[0] == "automaton"


@settings(max_examples=40, deadline=None)
@given(spec=rule_specs(), short=st.booleans())
def test_embedded_rules_match(spec, short):
    aut = compile_rule(spec)
    bound = verify_stopping(aut).bound
    # one step short of the budget an embedded run needs, so some runs exhaust it
    budget = bound + (1 if short else 2)
    assert_walk_matches(automaton_to_tm(aut), aut.alphabet, max(bound, 1), budget)


def test_corpus_and_mutant_machines_round_trip():
    # automaton to machine and back: the paper's two computability theorems
    automata = [compile_rule(spec) for spec in build_corpus()]
    automata += [tabulate_automaton(make()) for make in MUTANTS.values()]
    for aut in automata:
        bound = verify_stopping(aut).bound
        box = RuleHandle.from_machine(automaton_to_tm(aut), aut.alphabet, bound, 2 * bound + 4)
        back = tabulate_automaton(box)
        assert isomorphic(minimize(back), minimize(aut))
        # one state per configuration, so no more than the embedded automaton's
        assert len(back.states) <= len(aut.states)


def test_reading_one_cell_past_the_horizon():
    # the echo machine decides on cell 2, the first symbol: horizon 1 holds
    assert assert_walk_matches(echo_machine(ABC), ABC, 1, 10)[0] == "automaton"
    # a machine that skips one symbol and echoes the next reads past horizon 1
    syms = ABC.symbols + (START, BLANK)
    rules = [("q0", START, "*", "skip", "*", "R", "S"), ("skip", "*", "*", "q1", "*", "R", "S")]
    for name in ABC:
        rules += [("q1", name, "*", f"w_{name}", "*", "S", "S"), (f"w_{name}", "*", "*", "halt", name, "S", "S")]
    rules += [("q0", "*", "*", "q0", "*", "S", "S"), ("q1", "*", "*", "q1", "*", "S", "S")]
    states = ["q0", "skip", "q1", "halt"] + [f"w_{name}" for name in ABC]
    second = TwoTapeTm.build(states, "q0", ("halt",), syms, rules)
    kind, message = assert_walk_matches(second, ABC, 1, 10)
    assert kind == "HorizonViolation" and "window 'a'" in message
    assert assert_walk_matches(second, ABC, 2, 10)[0] == "automaton"


def test_spinner_exhausts_the_budget():
    assert assert_walk_matches(spinner_machine(XY), XY, 3, 17) == (
        "BudgetExhausted", "no terminal state within 17 steps"
    )


def test_the_start_checks_come_after_the_caps():
    # a machine that moves its input head left is capped before it is run
    two_way = peek_back_machine(XY)
    assert not RuleHandle.from_machine(two_way, XY, 1, 10).runs.keyed
    assert assert_walk_matches(two_way, XY, 1, 10)[0] == "automaton"
    # 2^19 windows pass the window cap, but their tree is over the state cap
    for budget, alphabet in ((0, XY), (10, ABC)):
        assert assert_walk_matches(two_way, alphabet, 19, budget)[0] == "ResourceLimit"
    assert assert_walk_matches(two_way, XY, 3, 0)[0] == "ValidationError"
    assert assert_walk_matches(two_way, ABC, 3, 10)[0] == "InvalidMachineError"


def test_a_one_way_machine_is_capped_as_it_is_walked():
    # no window count is checked up front, so the start checks come first
    for budget, alphabet, error in ((0, XY, "ValidationError"), (10, ABC, "InvalidMachineError")):
        box = RuleHandle.from_machine(echo_machine(XY), alphabet, 19, budget)
        assert outcome(lambda: _tabulate_blackbox(box))[0] == error
    # the echo machine decides on its first symbol at any horizon
    got = outcome(lambda: _tabulate_blackbox(RuleHandle.from_machine(echo_machine(XY), XY, 10**10, 50)))
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
    assert outcome(lambda: _tabulate_blackbox(box)) == outcome(
        lambda: oracle_tabulate_blackbox(XY, lambda s: s.symbol_at(3), 2)
    )
    assert outcome(lambda: _tabulate_blackbox(box))[0] == "HorizonViolation"
