"""The integer form of decision automata against the name-keyed passes it
replaced, kept in ``tests/definitions.py``.

Seeded random automata over one to three symbols, cyclic and acyclic, with
states listed in a shuffled order, many of them never deciding on some
input, go through the peel, the stopping verdict, ``minimize``,
``isomorphic`` and the JSON text and document both ways.  The compilers' structural check
and the single peel of ``compile --minimize`` are checked on their own.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from operator import attrgetter

import pytest

import seqdec.automaton
from seqdec.automaton import (
    DecisionAutomaton, InvalidAutomatonError, NonStoppingRuleError, isomorphic, minimize,
    to_json, to_json_dict,
)
from seqdec.cli import main
from seqdec.core import Alphabet
from seqdec.heuristics import CsrSpec, rule_to_json
from tests.definitions import (
    absorbing_terminal_row, document_by_name, isomorphic_by_name, minimize_by_name, peel_by_name,
    stopping_bound_by_name, to_json_by_name,
)

SEED, COUNT = 22, 2500
# the automaton's own stopping verdict, against the name-keyed one
bound_of = attrgetter("bound")


def random_automaton(rng: random.Random) -> DecisionAutomaton:
    """Up to ten open states and three terminals, listed in a shuffled order;
    acyclic draws point only forward or at terminals, cyclic ones anywhere."""
    alphabet = Alphabet(("a", "b", "c")[: rng.randint(1, 3)])
    opens = [f"s{i}" for i in range(rng.randint(1, 10))]
    terminal = {f"t{i}": rng.choice(alphabet.symbols) for i in range(rng.randint(0, 3))}
    acyclic = rng.random() < 0.5
    transitions = {t: absorbing_terminal_row(alphabet, t) for t in terminal}
    for i, q in enumerate(opens):
        targets = (opens[i + 1 :] if acyclic else opens) + list(terminal) or opens[i:]
        transitions[q] = {sym: rng.choice(targets) for sym in alphabet}
    states = opens + list(terminal)
    rng.shuffle(states)
    return DecisionAutomaton(alphabet, states, "s0", transitions, terminal)


def verdict(bound, aut):
    """The bound, or the input that never decides, as text."""
    try:
        return bound(aut)
    except NonStoppingRuleError as exc:
        return exc.sequence.text()


def test_random_automata_agree_with_the_name_keyed_passes():
    rng = random.Random(SEED)
    automata = [random_automaton(rng) for _ in range(COUNT)]
    assert sum(isinstance(verdict(bound_of, aut), str) for aut in automata) > COUNT // 5
    previous = None
    for aut in automata:
        named = [(aut.states[q], item) for q, item in aut.peel.items()]
        assert named == list(peel_by_name(aut).items())
        assert verdict(bound_of, aut) == verdict(stopping_bound_by_name, aut)
        small, oracle = minimize(aut), minimize_by_name(aut)
        assert isomorphic(small, oracle) and to_json(small) == to_json(oracle)
        # the bound minimize hands on is its output's own
        assert verdict(bound_of, small) == verdict(stopping_bound_by_name, small)
        assert to_json(aut) == to_json_by_name(aut) and to_json_dict(aut) == document_by_name(aut)
        assert to_json(aut, "  ") == to_json_by_name(aut, "  ")
        for a, b in ((aut, small), (small, previous or small), (previous or aut, aut)):
            assert isomorphic(a, b) == isomorphic_by_name(a, b)
        previous = small


@pytest.mark.parametrize("rows, outputs, start", [
    (((1, 1), (1,)), (None, "x"), 0),  # a short row
    (((1, 2), (1, 1)), (None, "x"), 0),  # a target past the states
    (((1, 1), (0, 1)), (None, "x"), 0),  # a terminal that moves
    (((1, 1), (1, 1)), (None, "x"), 1),  # a terminal start
    (((1, 1), (1, 1)), (None,), 0),  # an output missing
    (((1, -1), (1, 1)), (None, "x"), 0),  # a target before the states, which indexing would wrap
])
def test_the_integer_form_is_checked(rows, outputs, start):
    xy = Alphabet(("x", "y"))
    with pytest.raises(InvalidAutomatonError, match="one known target per state and symbol"):
        DecisionAutomaton.from_rows(xy, ("q", "t"), rows, outputs, start)
    assert DecisionAutomaton.from_rows(xy, ("q", "t"), ((1, 1), (1, 1)), (None, "x"), 0).bound == 0


def test_compile_minimize_peels_once(tmp_path, monkeypatch):
    calls = []
    peel = seqdec.automaton._escaping_states
    monkeypatch.setattr(seqdec.automaton, "_escaping_states", lambda aut: calls.append(aut) or peel(aut))
    path = tmp_path / "csr.json"
    ab = Alphabet(("a", "b"))
    path.write_text(rule_to_json(CsrSpec(ab, {"a": Fraction(1, 3), "b": Fraction(1, 2)}, Fraction(1))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["compile", str(path), "--minimize"]) == 0
    assert len(calls) == 1 and json.loads(out.getvalue())["uniform_bound"] == 4
