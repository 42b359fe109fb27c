"""Two-tape Turing machine interpreter and the automaton embedding.

The machine owns two one-directional tapes with independent heads: a
read-only input tape holding the start marker followed by the sequence, and
an output tape it may write.  One transition application is one step, so
step budgets are unambiguous.  The input tape is materialized lazily from
the sequence, keeping memory proportional to the steps taken.

Machines are immutable; each run carries its own tape state, so concurrent
runs of one machine are safe.  One interpreter loop runs a machine until it
halts or its input head first reaches a cell it was not given: ``tm_run``
gives it the whole sequence, ``TmRuns`` a word at a time.  A machine that
never moves its input head left carries only its paused configuration on.
A run within B steps reads at most B - 1 symbols, so run trees are finite.

JSON wire format::

    {"kind": "tm", "states": [...], "initial": ..., "terminal": [...],
     "tape_alphabet": [...],
     "transitions": [{"state": ..., "read": ..., "peek": ...,
                      "next": ..., "write": ..., "move_in": "L|S|R",
                      "move_out": "L|S|R"}, ...]}

``read`` (input symbol) and ``peek`` (output symbol) accept ``"*"`` as a
wildcard; explicit entries win over wildcards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .core import Alphabet, SeqSpec, SeqdecError, ValidationError
from .automaton import DecisionAutomaton, verify_stopping

START = "◁"
BLANK = "_"
MOVES = {"L": -1, "S": 0, "R": 1}

TmKey = tuple[str, str, str]
TmAction = tuple[str, str, str, str]


class InvalidMachineError(ValidationError):
    """The machine description violates a structural invariant."""


class BudgetExhausted(SeqdecError):
    """The budget ran out before a terminal state: possible non-halting."""

    def __init__(self, steps: int):
        super().__init__(f"no terminal state within {steps} steps")
        self.steps = steps


class TapeBoundsError(SeqdecError):
    """A head tried to move left of the start cell."""


@dataclass(frozen=True)
class TwoTapeTm:
    """States, tape alphabet, and a total transition table.

    The transition maps (state, input symbol, output symbol) to a new state,
    a symbol written at the output head, and one move per head.  Terminal
    states have no outgoing transitions; non-terminal states must cover
    every symbol pair.
    """

    states: tuple[str, ...]
    initial: str
    terminal: frozenset[str]
    tape_alphabet: tuple[str, ...]
    transitions: Mapping[TmKey, TmAction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "terminal", frozenset(self.terminal))
        object.__setattr__(self, "tape_alphabet", tuple(self.tape_alphabet))
        object.__setattr__(self, "transitions", dict(self.transitions))
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise InvalidMachineError("duplicate state names")
        if self.initial not in state_set:
            raise InvalidMachineError(f"initial state {self.initial!r} not in state set")
        if not self.terminal <= state_set:
            raise InvalidMachineError("terminal states must be states")
        syms = set(self.tape_alphabet)
        if START not in syms or BLANK not in syms:
            raise InvalidMachineError(f"tape alphabet must contain {START!r} and {BLANK!r}")
        for (q, a, b), (nq, w, mi, mo) in self.transitions.items():
            if q in self.terminal:
                raise InvalidMachineError(f"terminal state {q!r} has an outgoing transition")
            if q not in state_set or nq not in state_set:
                raise InvalidMachineError(f"unknown state in transition ({q!r} -> {nq!r})")
            if a not in syms or b not in syms or w not in syms:
                raise InvalidMachineError(f"unknown tape symbol in transition ({q!r}, {a!r}, {b!r})")
            if mi not in MOVES or mo not in MOVES:
                raise InvalidMachineError(f"moves must be L, S or R, got ({mi!r}, {mo!r})")
            # the input tape is read-only, so reading the start marker pins
            # the input head to cell 1 and a left move can be refused here;
            # the output head is guarded at runtime since the marker cell
            # may be overwritten
            if a == START and mi == "L":
                raise InvalidMachineError("input head cannot move left of the start cell")
        for q in self.states:
            if q in self.terminal:
                continue
            for a in self.tape_alphabet:
                for b in self.tape_alphabet:
                    if (q, a, b) not in self.transitions:
                        raise InvalidMachineError(
                            f"transition table not total: missing ({q!r}, {a!r}, {b!r})"
                        )

    @classmethod
    def build(
        cls,
        states: Iterable[str],
        initial: str,
        terminal: Iterable[str],
        tape_alphabet: Iterable[str],
        rules: Iterable[tuple[str, str, str, str, str, str, str]],
    ) -> TwoTapeTm:
        """Construct from (state, read, peek, next, write, move_in, move_out)
        rules where read/peek may be the wildcard ``"*"``; the most specific
        rule wins, and wildcards are expanded to a total table.  A ``"*"``
        in the write slot writes the peeked symbol back unchanged."""
        syms = tuple(tape_alphabet)
        terminal = frozenset(terminal)
        buckets: dict[int, dict[TmKey, TmAction]] = {0: {}, 1: {}, 2: {}, 3: {}}
        for q, read, peek, nq, w, mi, mo in rules:
            if q in terminal:
                raise InvalidMachineError(f"terminal state {q!r} has an outgoing transition")
            spec = (read != "*") * 2 + (peek != "*")
            buckets[spec][(q, read, peek)] = (nq, w, mi, mo)
        table: dict[TmKey, TmAction] = {}
        for q in states:
            if q in terminal:
                continue
            for a in syms:
                for b in syms:
                    for spec, key in (
                        (3, (q, a, b)),
                        (2, (q, a, "*")),
                        (1, (q, "*", b)),
                        (0, (q, "*", "*")),
                    ):
                        action = buckets[spec].get(key)
                        if action is not None:
                            w = b if action[1] == "*" else action[1]
                            table[(q, a, b)] = (action[0], w, action[2], action[3])
                            break
        return cls(tuple(states), initial, terminal, syms, table)


@dataclass(frozen=True)
class TmRun:
    """Outcome of a halted run: the symbol under the output head and steps."""

    decision: str
    steps: int
    halted: bool = True


# a run between two steps: control state, input and output head cells,
# output tape from cell 1, steps taken
TmConfig = tuple[str, int, int, tuple[str, ...], int]


def tm_run(tm: TwoTapeTm, seq: SeqSpec, budget: int) -> TmRun:
    """Simulate on the start marker followed by the sequence.

    Raises BudgetExhausted after exactly ``budget`` transition applications
    without reaching a terminal state; non-halting can only be signaled this
    way since the input is infinite.
    """
    config, decision = TmRuns(tm, seq.alphabet, budget).close(seq)
    return TmRun(decision=decision, steps=config[-1])  # type: ignore[arg-type]


@dataclass(frozen=True)
class TmRuns:
    """A machine's runs on the inputs over ``alphabet``, as a tree of words.

    ``read(config, word)`` resumes the run paused at ``config`` (None: not
    yet started) on the start marker and ``word``, read in place, until the
    input head first reaches the cell after them; it gives the paused run
    and None, or the decision where the machine halts first.  ``close(seq)``
    runs it on the start marker and all of ``seq``.  It is ``keyed`` when no
    transition moves the input head left.
    """

    tm: TwoTapeTm
    alphabet: Alphabet
    budget: int

    @property
    def keyed(self) -> bool:
        return all(move != "L" for _, _, move, _ in self.tm.transitions.values())

    def read(self, config: TmConfig | None, word: Sequence[int]) -> tuple[TmConfig, str | None]:
        names, end = self.alphabet.symbols, len(word) + 1
        return self.run(config, lambda p: START if p == 1 else names[word[p - 2]] if p <= end else None)

    def close(self, seq: SeqSpec) -> tuple[TmConfig, str | None]:
        return self.run(None, lambda pos: START if pos == 1 else seq.symbol_at(pos - 1))

    def run(
        self, config: TmConfig | None, input_at: Callable[[int], str | None]
    ) -> tuple[TmConfig, str | None]:
        """The interpreter loop: run a copy of ``config`` until the machine
        halts, with its decision, or its input head first reaches a cell
        ``input_at`` gives no symbol for, with None."""
        tm, budget = self.tm, self.budget
        if config is None:
            if budget < 1:
                raise ValidationError(f"budget must be >= 1, got {budget}")
            for name in self.alphabet:
                if name not in tm.tape_alphabet:
                    raise InvalidMachineError(f"sequence symbol {name!r} not in the tape alphabet")
            config = tm.initial, 1, 1, (START,), 0
        state, in_pos, out_pos, tape, steps = config
        # the output head writes every step and moves one cell, so the values run from cell 1
        out_tape = dict(enumerate(tape, 1))
        while state not in tm.terminal:
            if steps >= budget:
                raise BudgetExhausted(steps)
            read = input_at(in_pos)
            if read is None:
                return (state, in_pos, out_pos, tuple(out_tape.values()), steps), None
            key = (state, read, out_tape.get(out_pos, BLANK))
            state, written, move_in, move_out = tm.transitions[key]
            out_tape[out_pos] = written
            in_pos += MOVES[move_in]
            out_pos += MOVES[move_out]
            if in_pos < 1 or out_pos < 1:
                raise TapeBoundsError("a head moved left of the start cell")
            steps += 1
        return (state, in_pos, out_pos, tuple(out_tape.values()), steps), out_tape.get(out_pos, BLANK)


def automaton_to_tm(aut: DecisionAutomaton) -> TwoTapeTm:
    """Embed a stopping decision automaton into a Turing machine.

    The machine consumes the start marker, replays the automaton state for
    state while moving right over the input, and on reaching an automaton
    terminal passes through an output-writing state before halting.  The
    run therefore takes stop position + 2 steps, linear in the stop
    position, and the decision equals the automaton's on every sequence.
    """
    verdict = verify_stopping(aut)
    if not verdict.stops:
        raise InvalidMachineError("automaton is not a stopping rule; embedding would not halt")
    syms = tuple(aut.alphabet.symbols) + (START, BLANK)
    outputs = sorted(set(aut.terminal.values()))
    if not set(outputs) <= set(syms):
        syms = syms + tuple(o for o in outputs if o not in syms)
    nonterm = [q for q in aut.states if q not in aut.terminal]
    states = tuple(f"q:{q}" for q in nonterm) + tuple(f"w:{o}" for o in outputs) + ("halt",)
    rules: list[tuple[str, str, str, str, str, str, str]] = []
    for q in nonterm:
        rules.append((f"q:{q}", START, "*", f"q:{q}", "*", "R", "S"))
        rules.append((f"q:{q}", "*", "*", f"q:{q}", "*", "S", "S"))
        for sym in aut.alphabet:
            tgt = aut.transitions[q][sym]
            if tgt in aut.terminal:
                rules.append((f"q:{q}", sym, "*", f"w:{aut.terminal[tgt]}", "*", "S", "S"))
            else:
                rules.append((f"q:{q}", sym, "*", f"q:{tgt}", "*", "R", "S"))
    for out in outputs:
        rules.append((f"w:{out}", "*", "*", "halt", out, "S", "S"))
    return TwoTapeTm.build(states, f"q:{aut.initial}", ("halt",), syms, rules)


def to_json_dict(tm: TwoTapeTm) -> dict:
    return {
        "kind": "tm",
        "states": list(tm.states),
        "initial": tm.initial,
        "terminal": sorted(tm.terminal),
        "tape_alphabet": list(tm.tape_alphabet),
        "transitions": [
            {
                "state": q,
                "read": a,
                "peek": b,
                "next": nq,
                "write": w,
                "move_in": mi,
                "move_out": mo,
            }
            for (q, a, b), (nq, w, mi, mo) in sorted(tm.transitions.items())
        ],
    }


def string_list(data: dict, key: str) -> tuple[str, ...]:
    """The list of strings under ``key``, which must not be coerced from another shape."""
    value = data[key]
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InvalidMachineError(f"{key} must be a list of strings")
    return tuple(value)


def from_json_dict(data: dict) -> TwoTapeTm:
    try:
        if not isinstance(data["transitions"], list):
            raise InvalidMachineError("transitions must be a list of objects")
        rules = [
            (t["state"], t["read"], t["peek"], t["next"], t["write"], t["move_in"], t["move_out"])
            for t in data["transitions"]
        ]
        return TwoTapeTm.build(
            string_list(data, "states"),
            data["initial"],
            string_list(data, "terminal"),
            string_list(data, "tape_alphabet"),
            rules,
        )
    except (KeyError, TypeError) as exc:
        raise InvalidMachineError(f"malformed machine document: {exc}") from exc


def to_json(tm: TwoTapeTm) -> str:
    return json.dumps(to_json_dict(tm), indent=2, sort_keys=True)


def from_json(text: str) -> TwoTapeTm:
    return from_json_dict(json.loads(text))
