"""Finite decision automata with absorbing outputs.

A decision automaton reads one symbol per position and moves through a
finite state set.  Terminal states are absorbing and carry an output label;
a run's decision is the output of the first terminal state it enters.  The
analyses here are exact graph computations: per-state decidedness, segment
sufficiency, stopping verification with a tight uniform bound, Moore-style
minimization, and DOT export.

Automata are immutable after construction and every analysis is a pure
function, so they are safe to share across concurrent workers.

JSON wire format::

    {"alphabet": [...], "states": [...], "initial": ...,
     "transitions": {state: {symbol: state}}, "terminal": {state: output}}
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .core import (
    Alphabet,
    Segment,
    SeqSpec,
    SeqdecError,
    ValidationError,
    _require_same_alphabet,
)


class InvalidAutomatonError(ValidationError):
    """The automaton description violates a structural invariant."""


class DivergenceError(SeqdecError):
    """A run never reaches a terminal state on the given input.

    Detected exactly: the pair (state, phase within prefix/cycle) repeated
    without absorption, so the run is provably infinite.
    """

    def __init__(self, message: str, state: str, position: int):
        super().__init__(message)
        self.state = state
        self.position = position


NOT_SUFFICIENT = "not_sufficient"
SUFFICIENT = "sufficient"
MINIMAL_SUFFICIENT = "minimal_sufficient"


@dataclass(frozen=True)
class Decidedness:
    """Per-state verdict: the decision forced from here, or None if open.

    A state is decided on ``y`` when every reachable terminal outputs ``y``
    and no infinite terminal-free run can start from it.
    """

    decision: str | None

    @property
    def is_decided(self) -> bool:
        return self.decision is not None


@dataclass(frozen=True)
class Sufficiency:
    """Classification of a segment: not sufficient, sufficient, or minimal."""

    status: str
    decision: str | None

    @property
    def is_sufficient(self) -> bool:
        return self.status != NOT_SUFFICIENT


@dataclass(frozen=True)
class StopVerdict:
    """Either a uniform stopping bound or a witness of non-termination.

    When ``bound`` is set, every run of that length from the initial state
    ends in a terminal state, and some run needs exactly that many symbols.
    Otherwise the witness fields give a reachable loop of non-terminal
    states: ``reach`` drives the automaton to ``cycle_states[0]`` and
    ``cycle_symbols`` walks the loop back to it.
    """

    bound: int | None = None
    cycle_states: tuple[str, ...] | None = None
    cycle_symbols: tuple[str, ...] | None = None
    reach: Segment | None = None

    @property
    def stops(self) -> bool:
        return self.bound is not None


@dataclass(frozen=True)
class DecisionAutomaton:
    alphabet: Alphabet
    states: tuple[str, ...]
    initial: str
    transitions: Mapping[str, Mapping[str, str]]
    terminal: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self, "transitions", {q: dict(row) for q, row in self.transitions.items()}
        )
        object.__setattr__(self, "terminal", dict(self.terminal))
        if len(set(self.states)) != len(self.states):
            raise InvalidAutomatonError("duplicate state names")
        state_set = set(self.states)
        if self.initial not in state_set:
            raise InvalidAutomatonError(f"initial state {self.initial!r} not in state set")
        if self.initial in self.terminal:
            raise InvalidAutomatonError("initial state must not be terminal")
        for q in self.terminal:
            if q not in state_set:
                raise InvalidAutomatonError(f"terminal state {q!r} not in state set")
        for q in self.states:
            row = self.transitions.get(q)
            if row is None:
                raise InvalidAutomatonError(f"state {q!r} has no transitions")
            for sym in self.alphabet:
                tgt = row.get(sym)
                if tgt is None:
                    raise InvalidAutomatonError(f"transition missing for ({q!r}, {sym!r})")
                if tgt not in state_set:
                    raise InvalidAutomatonError(f"transition target {tgt!r} not in state set")
                if q in self.terminal and tgt != q:
                    raise InvalidAutomatonError(
                        f"terminal state {q!r} is not absorbing on {sym!r}"
                    )
            extra = set(row) - set(self.alphabet.symbols)
            if extra:
                raise InvalidAutomatonError(f"transitions on unknown symbols {extra} from {q!r}")

    def is_terminal(self, state: str) -> bool:
        return state in self.terminal

    def output(self, state: str) -> str:
        return self.terminal[state]

    def step(self, state: str, symbol: str) -> str:
        return self.transitions[state][symbol]


def absorbing_terminal_row(alphabet: Alphabet, state: str) -> dict[str, str]:
    """Self-loop transition row for an absorbing state."""
    return {sym: state for sym in alphabet}


def run(aut: DecisionAutomaton, seg: Segment) -> str:
    """State reached by folding the transition function over the word."""
    _require_same_alphabet(aut.alphabet, seg.alphabet)
    state = aut.initial
    for idx in seg.word:
        state = aut.transitions[state][aut.alphabet.name(idx)]
    return state


def evaluate(aut: DecisionAutomaton, seq: SeqSpec) -> tuple[str, int]:
    """Decision and absorption position for an infinite input.

    Simulates positions 1, 2, ... until a terminal state is entered and
    returns its output together with the entry position.  Raises
    DivergenceError when the (state, phase) pair repeats without reaching a
    terminal state, which proves the run never stops.
    """
    _require_same_alphabet(aut.alphabet, seq.alphabet)
    p, c = len(seq.prefix), len(seq.cycle)
    state = aut.initial
    seen: set[tuple[str, int]] = set()
    pos = 0
    while True:
        phase = pos if pos < p else p + (pos - p) % c
        if (state, phase) in seen:
            raise DivergenceError(
                f"run never reaches a terminal state on {seq.text()!r} "
                f"(state {state!r} recurs at phase {phase})",
                state=state,
                position=pos + 1,
            )
        seen.add((state, phase))
        pos += 1
        state = aut.transitions[state][seq.symbol_at(pos)]
        if state in aut.terminal:
            return aut.terminal[state], pos


def reachable_states(aut: DecisionAutomaton) -> list[str]:
    """States reachable from the initial state, in BFS order."""
    order, seen = [], {aut.initial}
    queue = deque([aut.initial])
    while queue:
        q = queue.popleft()
        order.append(q)
        for sym in aut.alphabet:
            nxt = aut.transitions[q][sym]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return order


def _escaping_states(aut: DecisionAutomaton) -> dict[str, int]:
    """Non-terminal states from which every run must eventually absorb.

    Computed by peeling: a state escapes when all successors are terminal or
    already known to escape.  The complement within the non-terminal states
    is exactly the set admitting an infinite terminal-free run.  Each
    escaping state maps to the longest path from it through non-terminal
    states: the peel pops states in reverse topological order, so a state's
    successors are final before it is.
    """
    nonterm = [q for q in aut.states if q not in aut.terminal]
    preds: dict[str, list[str]] = {q: [] for q in nonterm}
    pending = {q: 0 for q in nonterm}
    for q in nonterm:
        for sym in aut.alphabet:
            tgt = aut.transitions[q][sym]
            if tgt not in aut.terminal:
                pending[q] += 1
                preds[tgt].append(q)
    escaping: dict[str, int] = {}
    depth = {q: 0 for q in nonterm}
    queue = deque(q for q in nonterm if pending[q] == 0)
    while queue:
        q = queue.popleft()
        escaping[q] = depth[q]
        for p in preds[q]:
            depth[p] = max(depth[p], 1 + depth[q])
            pending[p] -= 1
            if pending[p] == 0:
                queue.append(p)
    return escaping


def decidedness(aut: DecisionAutomaton) -> dict[str, Decidedness]:
    """Per-state decision forced by the reachable graph structure."""
    outputs: dict[str, frozenset[str]] = {
        q: frozenset([out]) if (out := aut.terminal.get(q)) is not None else frozenset()
        for q in aut.states
    }
    changed = True
    while changed:
        changed = False
        for q in aut.states:
            if q in aut.terminal:
                continue
            merged = outputs[q]
            for sym in aut.alphabet:
                merged = merged | outputs[aut.transitions[q][sym]]
            if merged != outputs[q]:
                outputs[q] = merged
                changed = True
    escaping = _escaping_states(aut)
    result = {}
    for q in aut.states:
        if q in aut.terminal:
            result[q] = Decidedness(aut.terminal[q])
        elif q in escaping and len(outputs[q]) == 1:
            result[q] = Decidedness(next(iter(outputs[q])))
        else:
            result[q] = Decidedness(None)
    return result


def sufficiency(aut: DecisionAutomaton, seg: Segment) -> Sufficiency:
    """Classify a segment by the decidedness of the state it reaches.

    A sufficient segment forces the decision no matter what follows; it is
    minimal when no proper prefix already does.  Decidedness is monotone
    along runs, so checking the one-shorter prefix would suffice; all proper
    prefixes are checked anyway as a self-test of that monotonicity.
    """
    _require_same_alphabet(aut.alphabet, seg.alphabet)
    dec = decidedness(aut)
    verdict = dec[run(aut, seg)]
    if not verdict.is_decided:
        return Sufficiency(NOT_SUFFICIENT, None)
    state = aut.initial
    for idx in seg.word:
        if dec[state].is_decided:
            return Sufficiency(SUFFICIENT, verdict.decision)
        state = aut.transitions[state][aut.alphabet.name(idx)]
    return Sufficiency(MINIMAL_SUFFICIENT, verdict.decision)


def verify_stopping(aut: DecisionAutomaton) -> StopVerdict:
    """Uniform bound over all inputs, or a witness loop when there is none.

    The bound is one more than the longest path through reachable
    non-terminal states, which exists exactly when that subgraph is acyclic.
    The bound is tight: some run stays non-terminal for the whole path and
    absorbs on its final symbol.
    """
    reach = set(reachable_states(aut))
    escaping = _escaping_states(aut)
    looping = [q for q in reach if q not in aut.terminal and q not in escaping]
    if looping:
        cycle_states, cycle_symbols = _find_nonterminal_cycle(aut, looping[0])
        return StopVerdict(
            bound=None,
            cycle_states=cycle_states,
            cycle_symbols=cycle_symbols,
            reach=_segment_to_state(aut, cycle_states[0]),
        )
    return StopVerdict(bound=1 + escaping[aut.initial])


def _find_nonterminal_cycle(
    aut: DecisionAutomaton, start: str
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Walk non-escaping states until one repeats; return the loop."""
    escaping = _escaping_states(aut)
    path_states, path_symbols = [start], []
    seen = {start: 0}
    state = start
    while True:
        for sym in aut.alphabet:
            tgt = aut.transitions[state][sym]
            if tgt not in aut.terminal and tgt not in escaping:
                path_symbols.append(sym)
                state = tgt
                break
        if state in seen:
            i = seen[state]
            return tuple(path_states[i:]), tuple(path_symbols[i:])
        seen[state] = len(path_states)
        path_states.append(state)


def _segment_to_state(aut: DecisionAutomaton, target: str) -> Segment:
    """Shortest input word driving the automaton from the start to a state."""
    if target == aut.initial:
        return Segment(aut.alphabet, ())
    back: dict[str, tuple[str, str]] = {}
    queue = deque([aut.initial])
    while queue:
        q = queue.popleft()
        for sym in aut.alphabet:
            tgt = aut.transitions[q][sym]
            if tgt not in back and tgt != aut.initial:
                back[tgt] = (q, sym)
                if tgt == target:
                    word = []
                    cur = target
                    while cur != aut.initial:
                        cur, s = back[cur]
                        word.append(aut.alphabet.index(s))
                    return Segment(aut.alphabet, tuple(reversed(word)))
                queue.append(tgt)
    raise InvalidAutomatonError(f"state {target!r} is unreachable")


def minimize(aut: DecisionAutomaton) -> DecisionAutomaton:
    """Smallest automaton computing the same decision function.

    Partition refinement starts from the decidedness classes: states decided
    on the same output are merged into one absorbing terminal, undecided
    states are refined by successor behavior.  Decisions are preserved on
    every input; absorption positions may shrink, because a decided state
    can commit before the original machine formally absorbs.
    """
    dec = decidedness(aut)
    if dec[aut.initial].is_decided:
        # constant rule: one read then absorb, the smallest legal machine
        out = dec[aut.initial].decision
        assert out is not None
        return DecisionAutomaton(
            alphabet=aut.alphabet,
            states=("q0", "q1"),
            initial="q0",
            transitions={
                "q0": {sym: "q1" for sym in aut.alphabet},
                "q1": absorbing_terminal_row(aut.alphabet, "q1"),
            },
            terminal={"q1": out},
        )
    reach = reachable_states(aut)
    block: dict[str, object] = {
        q: ("D", dec[q].decision) if dec[q].is_decided else ("U",) for q in reach
    }
    while True:
        signature = {
            q: (block[q], tuple(block[aut.transitions[q][sym]] for sym in aut.alphabet))
            for q in reach
        }
        fresh = {sig: i for i, sig in enumerate(sorted(set(signature.values()), key=repr))}
        new_block = {q: (block[q][0], fresh[signature[q]]) for q in reach}
        if len(set(new_block.values())) == len(set(block.values())):
            break
        block = new_block  # type: ignore[assignment]

    names: dict[object, str] = {}
    order: list[object] = []
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
    transitions = {}
    terminal = {}
    for b in order:
        q = rep[b]
        transitions[names[b]] = {
            sym: names[block[aut.transitions[q][sym]]] for sym in aut.alphabet
        }
        if dec[q].is_decided:
            terminal[names[b]] = dec[q].decision
    return DecisionAutomaton(
        alphabet=aut.alphabet,
        states=tuple(names[b] for b in order),
        initial="q0",
        transitions=transitions,
        terminal=terminal,
    )


def isomorphic(a: DecisionAutomaton, b: DecisionAutomaton) -> bool:
    """True when the reachable parts match up to a renaming of states."""
    if a.alphabet != b.alphabet:
        return False
    pairing = {a.initial: b.initial}
    queue = deque([(a.initial, b.initial)])
    while queue:
        p, q = queue.popleft()
        if (p in a.terminal) != (q in b.terminal):
            return False
        if p in a.terminal and a.terminal[p] != b.terminal[q]:
            return False
        for sym in a.alphabet:
            np, nq = a.transitions[p][sym], b.transitions[q][sym]
            if np in pairing:
                if pairing[np] != nq:
                    return False
            else:
                if nq in pairing.values():
                    return False
                pairing[np] = nq
                queue.append((np, nq))
    return len(pairing) == len(set(reachable_states(b)))


def to_dot(aut: DecisionAutomaton) -> str:
    """DOT digraph of the reachable part.

    Terminal states are double circled and labeled with their output, the
    initial state is marked with an entry arrow, and parallel edges are
    merged into one edge labeled with the symbol list.
    """

    def quote(s: str) -> str:
        return '"' + s.replace('"', '\\"') + '"'

    lines = ["digraph decision_automaton {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    reach = reachable_states(aut)
    for q in reach:
        if q in aut.terminal:
            label = f"{q}\\n=> {aut.terminal[q]}"
            lines.append(f"  {quote(q)} [shape=doublecircle, label={quote(label)}];")
        else:
            lines.append(f"  {quote(q)} [shape=circle];")
    lines.append(f"  __start -> {quote(aut.initial)};")
    for q in reach:
        merged: dict[str, list[str]] = {}
        for sym in aut.alphabet:
            merged.setdefault(aut.transitions[q][sym], []).append(sym)
        for tgt, syms in merged.items():
            lines.append(f"  {quote(q)} -> {quote(tgt)} [label={quote(', '.join(syms))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(aut: DecisionAutomaton) -> dict:
    return {
        "alphabet": list(aut.alphabet.symbols),
        "states": list(aut.states),
        "initial": aut.initial,
        "transitions": {q: dict(row) for q, row in aut.transitions.items()},
        "terminal": dict(aut.terminal),
    }


def from_json_dict(data: dict) -> DecisionAutomaton:
    try:
        return DecisionAutomaton(
            alphabet=Alphabet(tuple(data["alphabet"])),
            states=tuple(data["states"]),
            initial=data["initial"],
            transitions=data["transitions"],
            terminal=data["terminal"],
        )
    except (KeyError, TypeError) as exc:
        raise InvalidAutomatonError(f"malformed automaton document: {exc}") from exc


def to_json(aut: DecisionAutomaton) -> str:
    return json.dumps(to_json_dict(aut), indent=2, sort_keys=True)


def from_json(text: str) -> DecisionAutomaton:
    return from_json_dict(json.loads(text))
