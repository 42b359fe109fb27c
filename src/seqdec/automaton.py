"""Finite decision automata with absorbing outputs.

A decision automaton reads one symbol per position and moves through a
finite state set.  Terminal states are absorbing and carry an output label;
a run's decision is the output of the first terminal state it enters.  The
analyses here are exact graph computations.  One peel of the states that
must absorb gives each its forced decision and its open depth, and with
them the one stopping verdict: the least K such that every length-K window
forces the decision, or an input that never decides.  Minimization
hash-conses the peel bottom up and refines only the looping states.  DOT
export draws the reachable part.

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

from .core import Alphabet, SeqSpec, SeqdecError, ValidationError


class InvalidAutomatonError(ValidationError):
    """The automaton description violates a structural invariant."""


class NonStoppingRuleError(SeqdecError):
    """Some input never decides, so no uniform bound exists.

    ``sequence`` is one such input: its prefix is a shortest word to a
    reachable loop of undecided states, and its cycle goes round the loop.
    """

    def __init__(self, sequence: SeqSpec):
        super().__init__(
            f"the rule never decides on {sequence.text()!r}; no stopping analysis applies"
        )
        self.sequence = sequence


NOT_SUFFICIENT = "not_sufficient"
SUFFICIENT = "sufficient"
MINIMAL_SUFFICIENT = "minimal_sufficient"


@dataclass(frozen=True)
class Sufficiency:
    """Classification of a segment: not sufficient, sufficient, or minimal."""

    status: str
    decision: str | None

    @property
    def is_sufficient(self) -> bool:
        return self.status != NOT_SUFFICIENT


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
        for q in self.transitions:
            if q not in state_set:
                raise InvalidAutomatonError(f"transitions row {q!r} not in state set")
        symbols = set(self.alphabet.symbols)
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
            if extra := set(row) - symbols:
                raise InvalidAutomatonError(f"transitions on unknown symbols {extra} from {q!r}")


def absorbing_terminal_row(alphabet: Alphabet, state: str) -> dict[str, str]:
    """Self-loop transition row for an absorbing state."""
    return {sym: state for sym in alphabet}


def _breadth_first(aut: DecisionAutomaton) -> dict[str, tuple[str, str] | None]:
    """Reachable states in BFS order, each with the state and symbol it is first entered by."""
    parent: dict[str, tuple[str, str] | None] = {aut.initial: None}
    order = [aut.initial]
    for q in order:  # the list grows as it is read
        for sym in aut.alphabet:
            nxt = aut.transitions[q][sym]
            if nxt not in parent:
                parent[nxt] = (q, sym)
                order.append(nxt)
    return parent


def reachable_states(aut: DecisionAutomaton) -> list[str]:
    """States reachable from the initial state, in BFS order."""
    return list(_breadth_first(aut))


def _escaping_states(aut: DecisionAutomaton) -> dict[str, tuple[int, str | None]]:
    """The peel: non-terminal states from which every run must absorb.

    A state escapes once all its successors are terminal or have escaped,
    so states pop in reverse topological order and a state's successors
    are final before it is.  The complement within the non-terminal states
    is exactly the set admitting an infinite terminal-free run.

    Each escaping state maps to its open depth, the longest run from it
    through undecided states (an undecided successor adds one to its own,
    a decided one nothing), and to its forced decision: the one output all
    its successors agree on (a terminal's output, an escaping successor's
    own forced decision), else None.
    """
    terminal, rows, symbols = aut.terminal, aut.transitions, aut.alphabet.symbols
    # each non-terminal state's successors, resolved once, in state order
    succ = {q: [rows[q][s] for s in symbols] for q in aut.states if q not in terminal}
    preds: dict[str, list[str]] = {q: [] for q in succ}
    pending = dict.fromkeys(succ, 0)
    for q, targets in succ.items():
        for tgt in targets:
            if tgt not in terminal:
                pending[q] += 1
                preds[tgt].append(q)
    peel: dict[str, tuple[int, str | None]] = {}
    queue = deque(q for q, n in pending.items() if n == 0)
    while queue:
        q = queue.popleft()
        depth, outputs = 0, set()
        for tgt in succ[q]:
            if tgt in terminal:
                outputs.add(terminal[tgt])
            else:
                below, out = peel[tgt]
                if out is None and below >= depth:
                    depth = below + 1
                outputs.add(out)
        peel[q] = (depth, outputs.pop() if len(outputs) == 1 else None)
        for p in preds[q]:
            pending[p] -= 1
            if pending[p] == 0:
                queue.append(p)
    return peel


def stopping_bound(
    aut: DecisionAutomaton, peel: dict[str, tuple[int, str | None]] | None = None
) -> int:
    """The one stopping verdict, read off the peel (built here unless given).

    The bound is the least K such that every length-K window forces the
    decision: 0 when the initial state is decided, else one more than its
    open depth.  When a reachable state is outside the peel there is none,
    and :class:`NonStoppingRuleError` carries an input that never decides.
    """
    peel = _escaping_states(aut) if peel is None else peel
    # the walk finds the witness, so it is skipped when every state escapes
    if len(peel) + len(aut.terminal) < len(aut.states):
        parent = _breadth_first(aut)
        looping = [q for q in parent if q not in aut.terminal and q not in peel]
        if looping:
            raise NonStoppingRuleError(_loop_witness(aut, parent, looping))
    depth, out = peel[aut.initial]
    return 0 if out is not None else 1 + depth


def _loop_witness(
    aut: DecisionAutomaton, parent: dict[str, tuple[str, str] | None], looping: list[str]
) -> SeqSpec:
    """From the first looping state breadth first, follow the first symbol that
    stays among them until a state repeats: a shortest word to that state,
    lexicographic among the shortest, then the loop's symbols."""
    rows, inside = aut.transitions, set(looping)
    state, symbols, walked = looping[0], [], {}
    while state not in walked:
        walked[state] = len(symbols)
        symbols.append(next(s for s in aut.alphabet if rows[state][s] in inside))
        state = rows[state][symbols[-1]]
    word, via = [], parent[state]
    while via is not None:
        word.append(via[1])
        via = parent[via[0]]
    cycle = aut.alphabet.segment(symbols[walked[state]:])
    return SeqSpec(aut.alphabet, aut.alphabet.segment(word[::-1]), cycle)


def minimize(aut: DecisionAutomaton) -> DecisionAutomaton:
    """Smallest automaton computing the same decision function.

    Terminals get one class per output.  Escaping states are settled in the
    peel's order, successors first: a decided state joins its decision's
    class, an undecided one is hash-consed on its successors' classes.
    Looping states, which no peel state can match, are refined among
    themselves Moore style.  Decisions are preserved on every input;
    absorption positions may shrink, because a decided state can commit
    before the original machine formally absorbs.
    """
    peel = _escaping_states(aut)
    if (out := peel.get(aut.initial, (0, None))[1]) is not None:
        # constant rule: one read then absorb, the smallest legal machine
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

    def successors(q: str) -> tuple[int, ...]:
        return tuple(block[aut.transitions[q][sym]] for sym in aut.alphabet)

    # only the partition matters: blocks are renamed breadth first below;
    # a settled class is keyed by its output if decided, else by its successors
    classes: dict[object, int] = {}
    block = {q: classes.setdefault(out, len(classes)) for q, out in aut.terminal.items()}
    for q, (_, out) in peel.items():
        block[q] = classes.setdefault(successors(q) if out is None else out, len(classes))
    reach = reachable_states(aut)
    looping = [q for q in reach if q not in block]
    block.update(dict.fromkeys(looping, len(classes)))
    count = 1
    while looping:
        keys = {q: (block[q], successors(q)) for q in looping}
        refined = {k: len(classes) + i for i, k in enumerate(dict.fromkeys(keys.values()))}
        block.update({q: refined[k] for q, k in keys.items()})
        if len(refined) == count:
            break
        count = len(refined)

    rep = {block[q]: q for q in reversed(reach)}
    names = {block[aut.initial]: "q0"}
    order = [block[aut.initial]]
    for b in order:  # breadth first: the list grows as it is read
        for sym in aut.alphabet:
            nb = block[aut.transitions[rep[b]][sym]]
            if nb not in names:
                names[nb] = f"q{len(names)}"
                order.append(nb)
    decided = {b: key for key, b in classes.items() if isinstance(key, str)}
    return DecisionAutomaton(
        alphabet=aut.alphabet,
        states=tuple(names.values()),
        initial="q0",
        transitions={
            names[b]: {sym: names[block[aut.transitions[rep[b]][sym]]] for sym in aut.alphabet}
            for b in order
        },
        terminal={names[b]: decided[b] for b in order if b in decided},
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


def _check_document_types(data: dict) -> None:
    """Reject shapes that the constructor would silently coerce into others."""
    for key in ("alphabet", "states"):
        if not isinstance(data[key], list) or not all(isinstance(s, str) for s in data[key]):
            raise InvalidAutomatonError(f"{key} must be a list of strings")
    terminal = data["terminal"]
    if not isinstance(terminal, dict) or not all(isinstance(o, str) for o in terminal.values()):
        raise InvalidAutomatonError("terminal must be an object mapping states to outputs")
    rows = data["transitions"]
    if not isinstance(rows, dict) or not all(isinstance(row, dict) for row in rows.values()):
        raise InvalidAutomatonError("transitions must map each state to an object")


def from_json_dict(data: dict) -> DecisionAutomaton:
    try:
        _check_document_types(data)
        return DecisionAutomaton(
            alphabet=Alphabet(tuple(data["alphabet"])),
            states=tuple(data["states"]),
            initial=data["initial"],
            transitions=data["transitions"],
            terminal=data["terminal"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidAutomatonError(f"malformed automaton document: {exc}") from exc


def to_json(aut: DecisionAutomaton, indent: str = "") -> str:
    """``json.dumps(to_json_dict(aut), indent=2, sort_keys=True)`` over the states' rows,
    each line after the first prefixed by ``indent``: names escaped once, one template per row."""
    esc = json.encoder.encode_basestring_ascii
    names = {q: esc(q) for q in aut.states}
    symbols = sorted(aut.alphabet.symbols)
    row = "{\n" + ",\n".join(f"      {esc(s).replace('%', '%%')}: %s" for s in symbols) + "\n    }"
    rows = [f"{names[q]}: " + row % tuple([names[aut.transitions[q][s]] for s in symbols])
            for q in sorted(aut.states)]
    terminal = [f"{names[q]}: {esc(out)}" for q, out in sorted(aut.terminal.items())]

    def block(items: list[str], brackets: str) -> str:
        return f"{brackets[0]}\n    " + ",\n    ".join(items) + f"\n  {brackets[1]}" if items else brackets

    text = (f'{{\n  "alphabet": {block([esc(s) for s in aut.alphabet], "[]")},'
            f'\n  "initial": {names[aut.initial]},\n  "states": {block(list(names.values()), "[]")},'
            f'\n  "terminal": {block(terminal, "{}")},\n  "transitions": {block(rows, "{}")}\n}}')
    return text.replace("\n", "\n" + indent)


def from_json(text: str) -> DecisionAutomaton:
    return from_json_dict(json.loads(text))
