"""Two-tape Turing machine interpreter, its tabulation and the automaton embedding.

The machine owns two one-directional tapes with independent heads: a
read-only input tape holding the start marker followed by the sequence, and
an output tape it may write.  One transition application is one step, so
step budgets are unambiguous.  The input tape is materialized lazily from
the sequence, keeping memory proportional to the steps taken.

A machine caches a cell's action when a run first reaches it; filling the
cache is idempotent and each run carries its own tape state, so concurrent
runs of one machine are safe.  One interpreter loop runs a machine until it
halts or its input head first reaches a cell it was not given: ``tm_run``
gives it the whole sequence, ``TmRuns`` a word at a time.  A machine that
never moves its input head left carries only its paused configuration on.
A run within B steps reads at most B - 1 symbols, so run trees are finite,
and ``TmRuns.tabulate`` walks one into a decision automaton: one state per
distinct paused configuration of a machine that never moves its input head
left, else one per word.  ``automaton_to_tm`` goes the other way, so both
directions of "computable rules are finite automata" live here.

JSON wire format::

    {"kind": "tm", "states": [...], "initial": ..., "terminal": [...],
     "tape_alphabet": [...],
     "transitions": [{"state": ..., "read": ..., "peek": ...,
                      "next": ..., "write": ..., "move_in": "L|S|R",
                      "move_out": "L|S|R"}, ...]}

``read`` (input symbol) and ``peek`` (output symbol) accept ``"*"`` as a
wildcard, and ``"write": "*"`` writes back the peeked symbol.  The most
specific rule wins: explicit > ``(q, a, *)`` > ``(q, *, b)`` > ``(q, *, *)``.
A machine checks each rule once and files it under its key, so loading
costs the rules, not the |states| × |tape|² table, and memory follows the
rules and the cells runs reach.  Documents are written in that form, a rule
per row of cells that share the next state and both moves and a default per
state for its most common row; expanded tables still load.  A document is
checked in four stages, and the first fault met is refused: its states and
tape symbols; each rule as written, in document order; left moves, on the
cells of left-moving rules; totality.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import InitVar, dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .core import WINDOW_CAP, Alphabet, ResourceLimit, SeqSpec, SeqdecError, ValidationError
from .automaton import DecisionAutomaton, NonStoppingRuleError
from .heuristics import _require_states

START = "◁"
BLANK = "_"
MOVES = {"L": -1, "S": 0, "R": 1}

RULE_FIELDS = ("state", "read", "peek", "next", "write", "move_in", "move_out")

TmKey = tuple[str, str, str]
TmAction = tuple[str, str, str, str]
TmRule = tuple[str, str, str, str, str, str, str]


class InvalidMachineError(ValidationError):
    """The machine description violates a structural invariant."""


class BudgetExhausted(SeqdecError):
    """The budget ran out before a terminal state: possible non-halting."""

    def __init__(self, steps: int):
        super().__init__(f"no terminal state within {steps} steps")
        self.steps = steps


class TapeBoundsError(SeqdecError):
    """A head tried to move left of the start cell."""


@dataclass(frozen=True, eq=False)
class TwoTapeTm:
    """States, tape alphabet and rules filed under their keys, a later rule
    replacing an earlier one.  A cell (state, input symbol, output symbol)
    takes its most specific rule's next state, write and head moves.  Rules
    are checked as written, in document order, as more specific ones may
    override all a rule's cells: none leaves a terminal state.  Then no
    resolved cell may move the input head left of the start marker, and a
    live state's rules must cover every symbol pair.  ``transitions``, every
    cell, is built when first read; machines with the same cells are equal."""

    states: tuple[str, ...]
    initial: str
    terminal: frozenset[str]
    tape_alphabet: tuple[str, ...]
    rules: InitVar[Sequence[TmRule]]

    def __post_init__(self, rules: Sequence[TmRule]) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "terminal", frozenset(self.terminal))
        object.__setattr__(self, "tape_alphabet", tuple(self.tape_alphabet))
        state_set, syms = set(self.states), self.tape_alphabet
        if len(state_set) != len(self.states):
            raise InvalidMachineError("duplicate state names")
        if self.initial not in state_set:
            raise InvalidMachineError(f"initial state {self.initial!r} not in state set")
        if not self.terminal <= state_set:
            raise InvalidMachineError("terminal states must be states")
        if len(set(syms)) != len(syms):
            raise InvalidMachineError(f"duplicate tape symbols: {syms}")
        if START not in syms or BLANK not in syms:
            raise InvalidMachineError(f"tape alphabet must contain {START!r} and {BLANK!r}")
        if "*" in syms:
            raise InvalidMachineError("tape alphabet must not contain '*', the wildcard of rules")
        filed, slots = {}, {*syms, "*"}
        for q, read, peek, nq, w, mi, mo in rules:
            if q in self.terminal:
                raise InvalidMachineError(f"terminal state {q!r} has an outgoing transition")
            if q not in state_set or nq not in state_set:
                raise InvalidMachineError(f"unknown state in transition ({q!r} -> {nq!r})")
            if read not in slots or peek not in slots or w not in slots:
                raise InvalidMachineError(f"unknown tape symbol in transition ({q!r}, {read!r}, {peek!r})")
            if mi not in MOVES or mo not in MOVES:
                raise InvalidMachineError(f"moves must be L, S or R, got ({mi!r}, {mo!r})")
            filed[q, read, peek] = nq, w, mi, mo
        object.__setattr__(self, "_filed", filed)
        object.__setattr__(self, "_cells", {})
        one_way = True
        for q, r, p in (key for key, action in filed.items() if action[2] == "L"):
            reads, peeks = syms if r == "*" else (r,), syms if p == "*" else (p,)
            if r in (START, "*") and any(self._cell(q, START, b)[2] == "L" for b in peeks):
                raise InvalidMachineError("input head cannot move left of the start cell")
            one_way = one_way and not any(self._cell(q, a, b)[2] == "L" for a in reads for b in peeks)
        object.__setattr__(self, "_one_way", one_way)
        for q in (q for q in self.states if q not in self.terminal and (q, "*", "*") not in filed):
            cells = ((q, a, b) for a in syms if (q, a, "*") not in filed for b in syms)
            if missing := next((c for c in cells if c not in filed and (q, "*", c[2]) not in filed), None):
                raise InvalidMachineError(f"transition table not total: missing {missing!r}")

    def __eq__(self, other: object) -> bool:
        key = attrgetter("states", "initial", "terminal", "tape_alphabet", "transitions")
        return isinstance(other, TwoTapeTm) and key(self) == key(other)

    @cached_property
    def transitions(self) -> Mapping[TmKey, TmAction]:
        """Every cell of a live state, with its action."""
        syms, live = self.tape_alphabet, (q for q in self.states if q not in self.terminal)
        return MappingProxyType({(q, a, b): self._cell(q, a, b) for q in live for a in syms for b in syms})

    def _cell(self, q: str, a: str, b: str) -> TmAction:
        """The action of the most specific rule for a cell of tape symbols."""
        f = self._filed
        nq, w, mi, mo = f.get((q, a, b)) or f.get((q, a, "*")) or f.get((q, "*", b)) or f[q, "*", "*"]
        return nq, b if w == "*" else w, mi, mo


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
        return self.tm._one_way  # type: ignore[attr-defined]

    def read(self, config: TmConfig | None, word: Sequence[int]) -> tuple[TmConfig, str | None]:
        names, end = self.alphabet.symbols, len(word) + 1
        return self.run(config, lambda p: START if p == 1 else names[word[p - 2]] if p <= end else None)

    def close(self, seq: SeqSpec) -> tuple[TmConfig, str | None]:
        return self.run(None, lambda pos: START if pos == 1 else seq.symbol_at(pos - 1))

    def tabulate(self) -> DecisionAutomaton:
        """The machine's decision automaton, from one walk of its run tree.

        The walk is depth first and lexicographic, so the first error raised
        is the first that the windows' order meets; it ends when every read
        has decided.  In a ``keyed`` tree a paused configuration equal to one
        walked before links to its state.  New states count against the
        state and transition caps, and the output cells of the
        configurations they hold against ``WINDOW_CAP``.
        """
        n, keyed = len(self.alphabet), self.keyed
        memo: dict[TmConfig, int] = {}
        cells = 0
        path: list[int] = []  # the word of the top frame
        root, got = self.read(None, path)
        # a row's targets: walked states' indices, and decisions as text, apart from them
        rows: list[list[int | str]] = [[] if got is None else [got] * n]
        frames = [(rows[0], root)]
        while frames:
            row, config = frames[-1]
            if len(row) == n:
                frames.pop()
                del path[-1:]  # the symbol of the frame, if it is not the root
                continue
            path.append(len(row))
            child, got = self.read(config, path)
            target = memo.get(child) if got is None else got
            if target is None:
                target = len(rows)
                rows.append([])
                frames.append((rows[-1], child))
                _require_states(len(rows), n)
                cells += len(child[3])
                if cells > WINDOW_CAP:
                    raise ResourceLimit(f"{cells} output cells of machine configurations", WINDOW_CAP)
                if keyed:
                    memo[child] = target
            row.append(target)
            if len(path) == len(frames):
                path.pop()
        decided = sorted({t for row in rows for t in row if isinstance(t, str)})
        names = [f"s{i}" for i in range(len(rows))]
        return DecisionAutomaton.with_decisions(self.alphabet, names, rows, decided, 0)

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
            syms = set(tm.tape_alphabet)
            for name in self.alphabet:
                if name not in syms:
                    raise InvalidMachineError(f"sequence symbol {name!r} not in the tape alphabet")
            config = tm.initial, 1, 1, (START,), 0
        cells, terminal = tm._cells, tm.terminal  # type: ignore[attr-defined]
        state, in_pos, out_pos, tape, steps = config
        # the output head writes every step and moves one cell, so the values run from cell 1
        out_tape = dict(enumerate(tape, 1))
        while state not in terminal:
            if steps >= budget:
                raise BudgetExhausted(steps)
            read = input_at(in_pos)
            if read is None:
                return (state, in_pos, out_pos, tuple(out_tape.values()), steps), None
            key = (state, read, out_tape.get(out_pos, BLANK))
            action = cells.get(key)
            if action is None:
                nq, w, mi, mo = tm._cell(*key)
                action = cells[key] = (nq, w, MOVES[mi], MOVES[mo])
            state, out_tape[out_pos], move_in, move_out = action
            in_pos += move_in
            out_pos += move_out
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
    try:
        aut.bound
    except NonStoppingRuleError as exc:
        raise InvalidMachineError(
            f"automaton is not a stopping rule: it never decides on {exc.sequence.text()!r}, "
            "so its embedding would not halt"
        ) from exc
    syms = tuple(aut.alphabet.symbols) + (START, BLANK)
    outputs = sorted(set(aut.outputs) - {None})
    if not set(outputs) <= set(syms):
        syms = syms + tuple(o for o in outputs if o not in syms)
    nonterm = [q for q, out in enumerate(aut.outputs) if out is None]
    names = [f"q:{q}" for q in aut.states]
    states = tuple(names[q] for q in nonterm) + tuple(f"w:{o}" for o in outputs) + ("halt",)
    rules: list[TmRule] = []
    for q in nonterm:
        rules.append((names[q], START, "*", names[q], "*", "R", "S"))
        rules.append((names[q], "*", "*", names[q], "*", "S", "S"))
        for sym, tgt in zip(aut.alphabet, aut.rows[q]):
            if (out := aut.outputs[tgt]) is not None:
                rules.append((names[q], sym, "*", f"w:{out}", "*", "S", "S"))
            else:
                rules.append((names[q], sym, "*", names[tgt], "*", "R", "S"))
    for out in outputs:
        rules.append((f"w:{out}", "*", "*", "halt", out, "S", "S"))
    return TwoTapeTm(states, names[aut.start], ("halt",), syms, rules)


def to_json_dict(tm: TwoTapeTm) -> dict:
    """The document in wildcard form: each live state's rows that keep one
    action become its ``(q, *, *)`` default and ``(q, a, *)`` rules."""
    syms, filed, rules = tm.tape_alphabet, tm._filed, []  # type: ignore[attr-defined]
    peeked = {q for q, _, p in filed if p != "*"}
    for q in (q for q in tm.states if q not in tm.terminal):
        rows, cells = {}, []
        for a in syms:
            if q in peeked:
                row = [tm._cell(q, a, b) for b in syms]
            else:  # one rule decides the row, and its write stands as filed
                row = [filed.get((q, a, "*")) or filed[q, "*", "*"]]
            writes = tuple(w for _, w, _, _ in row)
            if len({(nq, mi, mo) for nq, _, mi, mo in row}) == 1 and (
                writes == syms or len(set(writes)) == 1
            ):
                nq, _, mi, mo = row[0]
                rows[a] = (nq, "*" if writes == syms else writes[0], mi, mo)
            else:
                cells += [(q, a, b, *action) for b, action in zip(syms, row)]
        if rows:
            default = Counter(rows.values()).most_common(1)[0][0]
            rules.append((q, "*", "*", *default))
            rules += [(q, a, "*", *action) for a, action in rows.items() if action != default]
        rules += cells
    return {
        "kind": "tm",
        "states": list(tm.states),
        "initial": tm.initial,
        "terminal": sorted(tm.terminal),
        "tape_alphabet": list(tm.tape_alphabet),
        "transitions": [dict(zip(RULE_FIELDS, rule)) for rule in rules],
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
        rules = list(map(itemgetter(*RULE_FIELDS), data["transitions"]))
        states, initial = string_list(data, "states"), data["initial"]
        terminal, tape = string_list(data, "terminal"), string_list(data, "tape_alphabet")
        return TwoTapeTm(states, initial, terminal, tape, rules)
    except (KeyError, TypeError) as exc:
        raise InvalidMachineError(f"malformed machine document: {exc}") from exc


def to_json(tm: TwoTapeTm) -> str:
    return json.dumps(to_json_dict(tm), indent=2, sort_keys=True)


def from_json(text: str) -> TwoTapeTm:
    return from_json_dict(json.loads(text))
