"""The exit-code contract on random documents, over the product searches.

``axioms --suite csr|osr|config``, ``analyze``, ``identify --as csr|osr``,
``eval`` on random sequence literals, well formed or not, ``compile`` with
and without ``--minimize``, ``minimize`` (JSON and text) and ``dot`` run on
random small rule documents, well formed or not (half the config rules
with a complete random table comparator), and on random automaton
documents, stopping or not.  Machine documents, embedded stopping
automata, half of them choice rules and some with an output outside the
input alphabet, and random total machines that may halt, run off the tape
or spin, each written in wildcard form or fully expanded, go through
``tm-run`` and ``eval`` on ``|x`` and on random literals, ``analyze``,
``axioms --suite csr``, ``axioms --suite config`` (whose choice check
rejects an output outside the alphabet), ``compile``, ``minimize`` and
``dot``.  Half of them are
well formed, with budget 8 and horizon 3 or none, which every embedded
automaton meets, so that many reach a checker; the others have hostile
horizons or none, hostile budgets, and now and then a junk field or a
string for a list.  Whatever the input, the command must exit 0, 1, 2 or 3
and never print a traceback.  ``analyze``, and ``compile`` and ``minimize``
in JSON, exiting 0 must print one JSON document ending in ``}`` and one
newline, and the automaton ``compile`` or ``minimize`` prints must load
again.  A wide CSR and a wide OSR, whose few states times their symbols
pass the transition cap, exit 3 at once.
"""

import contextlib
import io
import itertools
import json
import tempfile
import time
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from seqdec.automaton import DecisionAutomaton, from_json_dict
from seqdec.cli import main
from seqdec.core import Alphabet
from seqdec.machines import RULE_FIELDS, automaton_to_tm, to_json_dict as tm_to_json_dict
from tests.conftest import expanded_json_dict
from tests.definitions import absorbing_terminal_row
from tests.test_analyze_render import ESCAPED_NAMES
from tests.test_run_tree import total_machines

COMMANDS = (
    ["axioms", "--suite", "csr"], ["axioms", "--suite", "osr"], ["axioms", "--suite", "config"],
    ["analyze"], ["identify", "--as", "csr"], ["identify", "--as", "osr"],
    ["compile"], ["compile", "--minimize"], ["minimize"], ["minimize", "--format", "text"], ["dot"],
)

# commands whose stdout is one JSON document unless ``--format text`` is given
JSON_COMMANDS = ("analyze", "compile", "minimize")

AMOUNTS = ["1", "1/2", "3/2", "2"]
# values of the wrong type or out of range, drawn only for ill-formed documents
JUNK = ["0", "-1", "x", 1, None]
# horizons and budgets: real horizons stay at 3 or less, so tabulation is cheap
LIMITS = ["-1", "0", "1", "2", "3", str(10 ** 10)]
# a machine that may spin gets no budget whose run tree is large: within a
# budget of B steps a run reads at most B - 1 symbols
SPIN_BUDGETS = ["-1", "0", "1", "3", "8"]
# a well-formed budget: enough for every embedded automaton drawn here
# (bound at most 3, so 5 steps) and every layered random machine (six open
# states, so six steps), and small enough for a spinner
BUDGET = "8"


def literals(alphabet: list[str]):
    """Sequence literals over the document's symbols and an unknown one, with
    no, one or two "|" and cycles empty or not."""
    names = st.sampled_from([*map(str, alphabet), "q"])
    return st.builds(
        lambda prefix, bar, cycle: " ".join(prefix) + bar + " ".join(cycle),
        st.lists(names, max_size=3),
        st.sampled_from(["|", "|", "|", "", "||"]),
        st.lists(names, max_size=2),
    )


@st.composite
def rule_documents(draw):
    """Well-formed rule documents, and about as many with a junk field or a
    non-string symbol; a quarter are over symbol names that JSON escapes."""
    well_formed = draw(st.booleans())
    alphabets = [["a"], ["a", "b"], ["a", "b", "c"]]
    alphabets += [] if well_formed else [["a", "a"], [], [1, 2]]
    alphabet = draw(st.sampled_from(alphabets))
    if draw(st.integers(0, 3)) == 0:
        # names that JSON escapes, with no space, so literals still parse
        escaped = st.sampled_from(ESCAPED_NAMES)
        alphabet = draw(st.lists(escaped, min_size=1, max_size=3, unique=True))
    names = alphabet if well_formed else alphabet + ["z"]
    amounts = st.sampled_from(AMOUNTS if well_formed else AMOUNTS + JUNK)
    kind = draw(st.sampled_from(("csr", "osr", "config") if well_formed else ("csr", "other")))
    doc = {"kind": kind, "alphabet": alphabet}
    if kind == "csr":
        keys = alphabet if well_formed else draw(st.lists(st.sampled_from(names), unique=True))
        doc["weights"] = {name: draw(amounts) for name in keys}
        doc["threshold"] = draw(amounts)
    elif kind == "osr":
        doc["order"] = draw(st.permutations(alphabet))
        doc["threshold_alt"] = draw(st.sampled_from(names))
        doc["span"] = draw(st.sampled_from([0, 1, 2, 3, "x"]))
    elif kind == "config" and draw(st.booleans()):
        # a complete table: every bit-word of the window, ranked by a permutation
        window = draw(st.integers(1, 3))
        words = ["".join(bits) for bits in itertools.product("01", repeat=window)]
        doc["window"] = window
        doc["comparator"] = {"table": dict(zip(words, draw(st.permutations(range(len(words))))))}
    elif kind == "config":
        doc["window"] = draw(st.sampled_from([0, 1, 2, 3, 40]))
        if draw(st.booleans()):
            builtin = ["numeric-value", "first-position-priority", "bogus"]
            doc["comparator"] = {"builtin": draw(st.sampled_from(builtin))}
        else:
            words = st.text("01", max_size=3)
            doc["comparator"] = {"table": draw(st.dictionaries(words, amounts, max_size=8))}
    return doc


@st.composite
def automaton_documents(draw):
    """Random transition tables over up to four open states, some with loops."""
    alphabet = draw(st.sampled_from((["x", "y"], ["x", "y", "z"])))
    count = draw(st.integers(1, 4))
    opened = [f"q{i}" for i in range(count)]
    outputs = draw(st.lists(st.sampled_from(alphabet + ["none"]), min_size=1, max_size=3))
    terminal = {f"t{i}": out for i, out in enumerate(outputs)}
    states = opened + list(terminal)
    transitions = {
        q: {s: draw(st.sampled_from(states)) for s in alphabet} for q in opened
    }
    transitions.update({t: {s: t for s in alphabet} for t in terminal})
    if draw(st.integers(0, 9)) == 0:
        del transitions[opened[-1]][alphabet[-1]]
    return {
        "alphabet": alphabet,
        "states": states,
        "initial": "q0",
        "transitions": transitions,
        "terminal": terminal,
    }


def assert_contract(doc: dict, commands=COMMANDS) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], str(path), *command[1:]])
            assert code in (0, 1, 2, 3), (command, doc)
            assert "Traceback" not in err.getvalue(), (command, doc)
            if command[0] in JSON_COMMANDS and "text" not in command and code == 0:
                text = out.getvalue()
                payload = json.loads(text)
                assert text.endswith("}\n"), (command, doc)
                if "automaton" in payload:
                    from_json_dict(payload["automaton"])


@settings(max_examples=150, deadline=None)
@given(doc=rule_documents(), data=st.data())
def test_rule_documents_keep_the_exit_contract(doc, data):
    eval_literal = ["eval", data.draw(literals(doc["alphabet"]))]
    assert_contract(doc, COMMANDS + (eval_literal,))


@settings(max_examples=150, deadline=None)
@given(doc=automaton_documents(), data=st.data())
def test_automaton_documents_keep_the_exit_contract(doc, data):
    assert_contract(doc, COMMANDS + (["eval", data.draw(literals(doc["alphabet"]))],))


@st.composite
def machine_documents(draw):
    """A machine document, a budget, a horizon or None, and a literal over its symbols.

    Documents come in both shapes: as ``to_json_dict`` writes them, in
    wildcard form, and fully expanded, one rule per cell.

    Half are well formed: no junk field, ``BUDGET`` and no horizon or 3,
    which holds for every embedded automaton drawn here, and random total
    machines that halt within the budget.  In the other half embedded
    stopping automata get any budget, random total machines, which may spin
    or run off the tape, small ones, any horizon or none, and about a third
    a junk or stringified field.
    """
    well_formed = draw(st.booleans())
    if draw(st.booleans()):
        # a layered machine halts within its six open states' steps, unless
        # its output head runs off the tape
        machines = total_machines(moves_out="SR", layered=True) if well_formed else total_machines()
        alphabet, tm = draw(machines)
        alphabet, budgets = list(alphabet), SPIN_BUDGETS
    else:
        alphabet = draw(st.sampled_from((["x", "y"], ["x", "y", "z"])))
        tm, budgets = automaton_to_tm(draw(embeddable_automata(alphabet))), LIMITS
    # written in wildcard form or with one rule per cell
    doc = draw(st.sampled_from((tm_to_json_dict, expanded_json_dict)))(tm)
    doc["input_alphabet"] = alphabet
    if not well_formed and draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(sorted(doc)))
        text = "".join(doc[key]) if isinstance(doc[key], list) and key != "transitions" else "x"
        doc[key] = draw(st.sampled_from(JUNK + [text]))
    budget = BUDGET if well_formed else draw(st.sampled_from(budgets))
    horizon = draw(st.sampled_from([None, "3"] if well_formed else [None] + LIMITS))
    return doc, budget, horizon, draw(literals(alphabet))


@st.composite
def embeddable_automata(draw, alphabet):
    """Stopping automata over up to three open states.

    Half are choice rules that decide the symbol they stop on; the others
    decide one of two outputs, some outside the alphabet.
    """
    count = draw(st.integers(1, 3))
    choice = draw(st.booleans())
    outputs = alphabet if choice else draw(st.permutations(alphabet + ["none"]))[:2]
    terminal = {f"t{i}": out for i, out in enumerate(outputs)}
    # each open state moves only to later ones, so every run stops
    transitions = {}
    for i in range(count):
        later = [f"q{j}" for j in range(i + 1, count)]
        transitions[f"q{i}"] = {
            s: draw(st.sampled_from(later + ([f"t{k}"] if choice else list(terminal))))
            for k, s in enumerate(alphabet)
        }
    transitions.update({t: {s: t for s in alphabet} for t in terminal})
    return DecisionAutomaton(Alphabet(tuple(alphabet)), list(transitions), "q0", transitions, terminal)


# half the draws are hostile, so about 120 of them
@settings(max_examples=240, deadline=None)
@given(case=machine_documents())
def test_machine_documents_keep_the_exit_contract(case):
    doc, budget, horizon, literal = case
    # the budget bounds the walk, so a horizon is optional
    limits = ["--budget", budget] + ([] if horizon is None else ["--horizon", horizon])
    assert_contract(doc, (
        ["tm-run", "|x", "--budget", budget],
        ["eval", "|x", *limits],
        ["tm-run", literal, "--budget", budget],
        ["eval", literal, *limits],
        ["analyze", *limits],
        ["axioms", "--suite", "csr", *limits],
        ["axioms", "--suite", "config", *limits],
        ["compile", *limits],
        ["minimize", *limits],
        ["dot", *limits],
    ))


def test_machine_deciding_outside_the_alphabet_exits_2(capsys, tmp_path):
    # the choice check reads the tabulated machine's minimal segments
    xy = Alphabet(("x", "y"))
    terminal = {"t0": "x", "t1": "none"}
    transitions = {"q0": {"x": "t0", "y": "t1"}}
    transitions.update((t, absorbing_terminal_row(xy, t)) for t in terminal)
    aut = DecisionAutomaton(xy, list(transitions), "q0", transitions, terminal)
    doc = tm_to_json_dict(automaton_to_tm(aut))
    doc["input_alphabet"] = list(xy.symbols)
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    limits = ["--horizon", "1", "--budget", "100"]
    assert main(["axioms", str(path), "--suite", "config", *limits]) == 2
    assert "decision 'none' after 'y' is not an alternative" in capsys.readouterr().err


def wide_rule(kind: str, size: int) -> dict:
    """Unit weights and threshold 1, or span 2 ranked in alphabet order with
    the best symbol the threshold: size + 1 or 2 * size + 1 states of size symbols."""
    alphabet = [f"s{i}" for i in range(size)]
    if kind == "csr":
        return {"kind": "csr", "alphabet": alphabet, "weights": dict.fromkeys(alphabet, "1"),
                "threshold": "1"}
    return {"kind": "osr", "alphabet": alphabet, "order": alphabet, "threshold_alt": alphabet[0],
            "span": 2}


@pytest.mark.parametrize("command", [["eval", "|s0"], ["compile"]])
@pytest.mark.parametrize("kind, size, what", [
    ("csr", 4000, "16004000 transitions of 4001 states"),
    ("osr", 2000, "8002000 transitions of 4001 states"),
])
def test_wide_rules_past_the_transition_cap_exit_3(capsys, tmp_path, kind, size, what, command):
    # few states, but states times symbols past the cap of 2^22
    path = tmp_path / f"{kind}{size}.json"
    path.write_text(json.dumps(wide_rule(kind, size)))
    begin = time.perf_counter()
    assert main([command[0], str(path), *command[1:]]) == 3
    assert time.perf_counter() - begin < 1.0
    assert capsys.readouterr() == ("", f"seqdec: {what} exceed the cap of {1 << 22}\n")


def test_a_machine_with_the_wildcard_as_a_tape_symbol_exits_2(capsys, tmp_path):
    rules = [("q0", "*", "*", "q0", "*", "R", "S"), ("q0", "x", "*", "halt", "x", "S", "S")]
    path = tmp_path / "star-tm.json"
    path.write_text(json.dumps({
        "kind": "tm", "states": ["q0", "halt"], "initial": "q0", "terminal": ["halt"],
        "tape_alphabet": ["x", "*", "◁", "_"],
        "transitions": [dict(zip(RULE_FIELDS, rule)) for rule in rules],
    }))
    assert main(["tm-run", str(path), "|* x", "--budget", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "tape alphabet must not contain '*', the wildcard of rules" in err


def test_a_machine_over_a_wide_tape_costs_its_rules(capsys, tmp_path):
    # two rules over 1,502 tape symbols: loading resolves no cell of the
    # 2.25M-cell table until a run reaches it
    rules = [("q0", "*", "*", "q0", "*", "R", "S"), ("q0", "s0", "*", "halt", "s0", "S", "S")]
    path = tmp_path / "wide-tm.json"
    path.write_text(json.dumps({
        "kind": "tm", "states": ["q0", "halt"], "initial": "q0", "terminal": ["halt"],
        "tape_alphabet": [f"s{i}" for i in range(1500)] + ["◁", "_"],
        "transitions": [dict(zip(RULE_FIELDS, rule)) for rule in rules],
    }))
    begin = time.perf_counter()
    assert main(["tm-run", str(path), "|s7 s0", "--budget", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["decision"] == "s0"
    assert main(["eval", str(path), "|s7 s0", "--budget", "10", "--alphabet", "s0 s7"]) == 3
    assert time.perf_counter() - begin < 0.5
    assert capsys.readouterr() == ("", "seqdec: no terminal state within 10 steps\n")
