"""Machine documents in wildcard form, and the filed rules that load them.

``oracle_build`` is the eager bucket search: four lookups per cell, most
specific first, into a full table.  On well-formed rule lists, whose
rules name live states and tape symbols only, it and ``TwoTapeTm``, which
files the rules and resolves a cell when a run first reaches it, must give
the same machine, or refuse the same missing cell, and their runs must
agree.  Where a rule names an unknown state, read or peek symbol, the
bucket search dropped it, and ``TwoTapeTm`` refuses it, as it refuses a
rule whose next state, write symbol or moves are unknown even where other
rules override all its cells.  ``to_json_dict`` writes the wildcard form,
``expanded_json_dict`` one rule per cell; both load back to the machine
they came from, and the written rules mean the same machine under the
bucket search too.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from seqdec.analysis import tabulate_automaton
from seqdec.core import Alphabet, SeqdecError
from seqdec.heuristics import compile_rule
from seqdec.machines import (
    BLANK,
    RULE_FIELDS,
    START,
    InvalidMachineError,
    TmRuns,
    TwoTapeTm,
    automaton_to_tm,
    from_json,
    from_json_dict,
    tm_run,
    to_json,
    to_json_dict,
)
from tests.conftest import XY, expanded_json_dict, oracle_build
from tests.mutants import MUTANTS
from tests.test_acceptance import build_corpus
from tests.test_machines import echo_machine
from tests.test_run_tree import total_machines


@st.composite
def rule_lists(draw):
    """Random rule lists over one to three live states and one to three
    input symbols, mixing ``*`` in read, peek and write.

    Keys come from a small space, so specificities overlap and a key often
    comes back later in the list with another action; most states get a
    ``(q, *, *)`` default somewhere in the list, so many lists are total.
    """
    syms = tuple("xyz"[: draw(st.integers(1, 3))]) + (START, BLANK)
    live = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    halts = [f"h{i}" for i in range(draw(st.integers(0, 2)))]
    slot = st.sampled_from(syms + ("*", "*"))
    rule = st.tuples(
        st.sampled_from(live), slot, slot, st.sampled_from(live + halts), slot,
        # reading the start marker with a left move is refused in any table
        st.sampled_from("SR"), st.sampled_from("LSR"),
    )
    rules = draw(st.lists(rule, max_size=12))
    for q in live:
        if draw(st.integers(0, 4)):
            default = draw(rule.map(lambda r: (q, "*", "*", *r[3:])))
            rules.insert(draw(st.integers(0, len(rules))), default)
    return live + halts, live[0], halts, syms, rules


def outcome(build, machine):
    try:
        return build(*machine)
    except InvalidMachineError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(machine=rule_lists())
def test_filed_rules_match_the_bucket_search(machine):
    got = outcome(TwoTapeTm, machine)
    assert got == outcome(oracle_build, machine)
    if isinstance(got, TwoTapeTm):
        assert from_json_dict(to_json_dict(got)) == got


def run_outcome(thunk):
    try:
        return thunk()
    except SeqdecError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(machine=rule_lists(), data=st.data())
def test_runs_agree_with_the_eager_oracle(machine, data):
    held = outcome(TwoTapeTm, machine)
    if not isinstance(held, TwoTapeTm):
        return
    eager = oracle_build(*machine)
    alphabet = Alphabet(tuple(s for s in held.tape_alphabet if s not in (START, BLANK)))
    names = st.sampled_from(alphabet.symbols)
    prefix, cycle = data.draw(st.lists(names, max_size=3)), data.draw(st.lists(names, min_size=1, max_size=2))
    seq = alphabet.sequence(" ".join(prefix) + "|" + " ".join(cycle))
    budget = data.draw(st.integers(1, 8))
    got, want = (
        (run_outcome(lambda: tm_run(tm, seq, budget)), run_outcome(TmRuns(tm, alphabet, budget).tabulate))
        for tm in (held, eager)
    )
    assert got == want


@pytest.mark.parametrize(
    "extra, message",
    [
        (("nosuch", "*", "*", "q0", "*", "S", "S"), "unknown state in transition ('nosuch' -> 'q0')"),
        # a rule is named as written
        (("q0", "z", "*", "q0", "*", "S", "S"), "unknown tape symbol in transition ('q0', 'z', '*')"),
        (("q0", "*", "z", "q0", "*", "S", "S"), "unknown tape symbol in transition ('q0', '*', 'z')"),
        (("q0", "x", "*", "q0", "z", "S", "S"), "unknown tape symbol in transition ('q0', 'x', '*')"),
    ],
)
def test_rules_naming_unknown_names_are_refused(extra, message):
    machine = (("q0", "halt"), "q0", ("halt",), ("x", START, BLANK), [
        ("q0", "*", "*", "halt", "*", "S", "S"), extra,
    ])
    assert outcome(TwoTapeTm, machine) == message
    # the bucket search never looked up an unknown state, read or peek
    assert isinstance(outcome(oracle_build, machine), TwoTapeTm) == (extra[4] != "z")


@pytest.mark.parametrize(
    "extras, message",
    [
        # the first faulty rule in document order, whatever the specificities
        ([("nosuch", "x", "x", "q0", "*", "S", "S"), ("q0", "*", "z", "q0", "*", "S", "S")],
         "unknown state in transition ('nosuch' -> 'q0')"),
        ([("halt", "x", "*", "q0", "*", "S", "S"), ("nosuch", "*", "*", "q0", "*", "S", "S")],
         "terminal state 'halt' has an outgoing transition"),
        # a left move is judged on the resolved cells: this default replaces
        # the first and moves left from the start marker
        ([("q0", "*", "*", "q0", "*", "L", "S"), ("q0", "x", "*", "halt", "*", "S", "S")],
         "input head cannot move left of the start cell"),
        ([("q0", "*", "z", "q0", "*", "S", "S"), ("nosuch", "*", "x", "q0", "*", "S", "S")],
         "unknown tape symbol in transition ('q0', '*', 'z')"),
        # a rule names its own next state, not that of a more specific rule
        ([("nosuch", "*", "*", "q0", "*", "S", "S"), ("nosuch", "x", "*", "halt", "*", "S", "S")],
         "unknown state in transition ('nosuch' -> 'q0')"),
    ],
)
def test_the_first_refused_cell_of_the_table_is_named(extras, message):
    rules = [("q0", "*", "*", "halt", "*", "S", "S"), *extras]
    machine = (("q0", "halt"), "q0", ("halt",), ("x", START, BLANK), rules)
    assert outcome(TwoTapeTm, machine) == message


@pytest.mark.parametrize(
    "action, message",
    [
        (("nosuch", "*", "S", "S"), "unknown state in transition ('q0' -> 'nosuch')"),
        (("halt", "zz", "S", "S"), "unknown tape symbol in transition ('q0', '*', '*')"),
        (("halt", "*", "X", "S"), "moves must be L, S or R, got ('X', 'S')"),
        (("halt", "*", "S", "Y"), "moves must be L, S or R, got ('S', 'Y')"),
    ],
)
def test_rules_overridden_everywhere_are_refused(action, message):
    # one read rule per tape symbol overrides every cell of the default
    rules = [("q0", "*", "*", *action)]
    rules += [("q0", a, "*", "halt", "*", "S", "S") for a in ("x", START, BLANK)]
    machine = (("q0", "halt"), "q0", ("halt",), ("x", START, BLANK), rules)
    assert outcome(TwoTapeTm, machine) == message


def test_left_moves_and_totality_are_judged_after_every_rule():
    left = ("q0", START, "*", "halt", "*", "L", "S")
    unknown = ("q0", "x", "*", "nosuch", "*", "S", "S")
    # q0 has no rule for reading a blank, and its start marker rule moves left
    machine = (("q0", "halt"), "q0", ("halt",), ("x", START, BLANK), [left, unknown])
    assert outcome(TwoTapeTm, machine) == "unknown state in transition ('q0' -> 'nosuch')"
    machine[4][1] = ("q0", "x", "*", "halt", "*", "S", "S")
    assert outcome(TwoTapeTm, machine) == "input head cannot move left of the start cell"


def test_the_wildcard_is_not_a_tape_symbol():
    # '*' matches any symbol in a read or peek and keeps the peeked one in a
    # write, so a tape symbol '*' could have no rule of its own nor be written
    rules = [("q0", "*", "*", "q0", "*", "R", "S"), ("q0", "x", "*", "halt", "x", "S", "S")]
    machine = (("q0", "halt"), "q0", ("halt",), ("x", "*", START, BLANK), rules)
    message = "tape alphabet must not contain '*', the wildcard of rules"
    assert outcome(TwoTapeTm, machine) == outcome(oracle_build, machine) == message


def test_totality_names_the_first_missing_cell():
    rules = [("q0", "*", "*", "halt", "*", "S", "S"), ("q1", "x", "*", "halt", "*", "S", "S")]
    with pytest.raises(InvalidMachineError) as err:
        TwoTapeTm(("q0", "q1", "halt"), "q0", ("halt",), ("x", START, BLANK), rules)
    assert str(err.value) == "transition table not total: missing ('q1', '◁', 'x')"


def assert_round_trips(tm):
    for doc in (to_json_dict(tm), expanded_json_dict(tm)):
        assert from_json_dict(doc) == tm
        assert from_json_dict(json.loads(json.dumps(doc))) == tm
    assert from_json(to_json(tm)) == tm
    # the written rules mean the same machine to the bucket search
    rules = [tuple(rule[k] for k in RULE_FIELDS) for rule in to_json_dict(tm)["transitions"]]
    assert oracle_build(tm.states, tm.initial, tm.terminal, tm.tape_alphabet, rules) == tm


@settings(max_examples=200, deadline=None)
@given(machine=total_machines())
def test_random_machines_round_trip(machine):
    assert_round_trips(machine[1])


def corpus_automata():
    return [compile_rule(spec) for spec in build_corpus()] + [
        tabulate_automaton(make()) for make in MUTANTS.values()
    ]


def test_embedded_corpus_machines_round_trip_in_wildcard_form():
    for aut in corpus_automata():
        tm = automaton_to_tm(aut)
        assert_round_trips(tm)
        # the compact form: at most |tape| rules per state of the automaton,
        # and one per output state
        counts = {q: 0 for q in tm.states if q not in tm.terminal}
        for rule in to_json_dict(tm)["transitions"]:
            counts[rule["state"]] += 1
        outputs = [q for q in counts if q.startswith("w:")]
        assert all(counts[q] == 1 for q in outputs)
        assert all(counts[q] <= len(tm.tape_alphabet) for q in counts)


def test_a_row_that_writes_back_or_writes_one_symbol_is_one_rule():
    # the echo machine: the start marker row writes back, each output state writes its symbol
    doc = to_json_dict(echo_machine(XY))
    rules = [tuple(rule[k] for k in RULE_FIELDS) for rule in doc["transitions"]]
    assert rules == [
        ("q0", "*", "*", "w_x", "*", "S", "S"),
        ("q0", "y", "*", "w_y", "*", "S", "S"),
        ("q0", START, "*", "q0", "*", "R", "S"),
        ("q0", BLANK, "*", "q0", "*", "S", "S"),
        ("w_x", "*", "*", "halt", "x", "S", "S"),
        ("w_y", "*", "*", "halt", "y", "S", "S"),
    ]
    # a row that is neither stays explicit, cell by cell
    copier = TwoTapeTm(("q0",), "q0", (), ("x", START, BLANK), [
        ("q0", "*", "*", "q0", "*", "S", "S"), ("q0", "x", BLANK, "q0", "x", "R", "R"),
    ])
    rules = [tuple(rule[k] for k in RULE_FIELDS) for rule in to_json_dict(copier)["transitions"]]
    assert rules == [
        ("q0", "*", "*", "q0", "*", "S", "S"),
        ("q0", "x", "x", "q0", "x", "S", "S"),
        ("q0", "x", START, "q0", START, "S", "S"),
        ("q0", "x", BLANK, "q0", "x", "R", "R"),
    ]

