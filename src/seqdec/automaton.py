"""Finite decision automata with absorbing outputs.

A decision automaton reads one symbol per position and moves through a
finite state set.  Terminal states are absorbing and carry an output label;
a run's decision is the output of the first terminal state it enters.

One integer form is stored: state ``i`` is named ``states[i]``, ``rows[i]``
holds its successors' indices in alphabet order, ``outputs[i]`` is its
output if it is terminal, else None, and ``start`` is the initial state's
index.  Names are read only at the JSON and DOT boundary; the name-keyed
``initial``, ``transitions`` and ``terminal`` are views derived from the
rows.  The analyses here are exact graph computations over the rows.  One
peel of the states that must absorb, built once per automaton, gives each
its forced decision and its open depth, and with them the one stopping
verdict: the least K such that every length-K window forces the decision,
or an input that never decides.  Minimization hash-conses the peel bottom
up, refines only the looping states, and hands the verdict on to its
output, which decides as its input does; the CSR and OSR compilers hand on
the bound their parameters give, so their automata are peeled only when a
state's decision is asked.  DOT export draws the reachable part.

Every walk that needs shortest words is one :func:`search`, breadth first
with a parent map from which :func:`path` rebuilds any node's word: the
reachable states (``reach``, cached per automaton, whose words the open
states reuse), and in the analyses the (state, symbols read) nodes, the
product searches and acyclicity's shortest cycle.

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
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping

from .core import Alphabet, Segment, SeqSpec, SeqdecError, ValidationError, _require_states


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


Peel = dict[int, tuple[int, str | None]]


@dataclass(frozen=True, init=False)
class DecisionAutomaton:
    alphabet: Alphabet
    states: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    outputs: tuple[str | None, ...]
    start: int

    def __init__(self, alphabet: Alphabet, states: tuple[str, ...], initial: str,
                 transitions: Mapping[str, Mapping[str, str]], terminal: Mapping[str, str]) -> None:
        """The name-keyed form of documents and tests, checked, then converted once."""
        states = tuple(states)
        transitions = {q: dict(row) for q, row in transitions.items()}
        terminal = dict(terminal)
        if len(set(states)) != len(states):
            raise InvalidAutomatonError("duplicate state names")
        state_set = set(states)
        if initial not in state_set:
            raise InvalidAutomatonError(f"initial state {initial!r} not in state set")
        if initial in terminal:
            raise InvalidAutomatonError("initial state must not be terminal")
        for q in terminal:
            if q not in state_set:
                raise InvalidAutomatonError(f"terminal state {q!r} not in state set")
        for q in transitions:
            if q not in state_set:
                raise InvalidAutomatonError(f"transitions row {q!r} not in state set")
        symbols = set(alphabet.symbols)
        for q in states:
            row = transitions.get(q)
            if row is None:
                raise InvalidAutomatonError(f"state {q!r} has no transitions")
            for sym in alphabet:
                tgt = row.get(sym)
                if tgt is None:
                    raise InvalidAutomatonError(f"transition missing for ({q!r}, {sym!r})")
                if tgt not in state_set:
                    raise InvalidAutomatonError(f"transition target {tgt!r} not in state set")
                if q in terminal and tgt != q:
                    raise InvalidAutomatonError(f"terminal state {q!r} is not absorbing on {sym!r}")
            if extra := set(row) - symbols:
                raise InvalidAutomatonError(f"transitions on unknown symbols {extra} from {q!r}")
        index = {q: i for i, q in enumerate(states)}
        rows = tuple(tuple([index[transitions[q][sym]] for sym in alphabet]) for q in states)
        vars(self).update(alphabet=alphabet, states=states, rows=rows,
                          outputs=tuple(map(terminal.get, states)), start=index[initial])

    @classmethod
    def from_rows(cls, alphabet: Alphabet, states, rows: tuple[tuple[int, ...], ...],
                  outputs, start: int, bound: int | None = None) -> DecisionAutomaton:
        """The integer form as compilers build it, under a structural check of the
        rows alone, read in flat passes: one in-range target per state and symbol,
        absorbing terminals and an open start.  A known ``bound`` is kept as the verdict."""
        aut = cls.__new__(cls)
        vars(aut).update(alphabet=alphabet, states=tuple(states), rows=tuple(rows),
                         outputs=tuple(outputs), start=start)
        rows, outputs, width = aut.rows, aut.outputs, len(alphabet)
        terminals = [q for q, out in enumerate(outputs) if out is not None]
        if not (len(rows) == len(outputs) == len(aut.states) > start >= 0
                and set(map(len, rows)) == {width}
                and min(chain.from_iterable(rows)) >= 0 and max(chain.from_iterable(rows)) < len(rows)
                and all(rows[q] == (q,) * width for q in terminals) and outputs[start] is None):
            raise InvalidAutomatonError("rows must hold one known target per state and symbol, "
                                        "with terminals absorbing and the start open")
        if bound is not None:
            vars(aut)["bound"] = bound
        return aut

    @classmethod
    def with_decisions(cls, alphabet: Alphabet, names: list[str], rows: list,
                       labels: list[str], start: int, bound: int | None = None) -> DecisionAutomaton:
        """The open states ``names`` with their ``rows``, each target an open state's
        index or a decision, then one absorbing state per decision of ``labels``, in
        that order, named ``dec:`` and the decision.  All of them count against the
        state and transition caps before any row is built; a known ``bound`` is kept."""
        n, width = len(names), len(alphabet)
        _require_states(n + len(labels), width)
        index = dict(zip(range(n), range(n)))
        index.update((out, n + j) for j, out in enumerate(labels))
        targets = [*map(index.__getitem__, chain.from_iterable(rows)),
                   *(n + j for j in range(len(labels)) for _ in range(width))]
        return cls.from_rows(alphabet, names + [f"dec:{out}" for out in labels],
                             list(zip(*[iter(targets)] * width)), [None] * n + labels, start, bound)

    @property
    def initial(self) -> str:
        return self.states[self.start]

    @cached_property
    def transitions(self) -> Mapping[str, Mapping[str, str]]:
        """Each state's row by name, derived from the rows for documents and tests."""
        names, symbols = self.states, self.alphabet.symbols
        return MappingProxyType({q: MappingProxyType(dict(zip(symbols, map(names.__getitem__, row))))
                                 for q, row in zip(names, self.rows)})

    @cached_property
    def terminal(self) -> Mapping[str, str]:
        """Each terminal state's output by name, in state order."""
        return MappingProxyType({q: o for q, o in zip(self.states, self.outputs) if o is not None})

    @cached_property
    def peel(self) -> Peel:
        """The peel of :func:`_escaping_states`, built once."""
        return _escaping_states(self)

    @cached_property
    def bound(self) -> int:
        """The one stopping verdict, read off the peel.

        The bound is the least K such that every length-K window forces the
        decision: 0 when the initial state is decided, else one more than its
        open depth.  When a reachable state is outside the peel there is none,
        and :class:`NonStoppingRuleError` carries an input that never decides.
        """
        peel = self.peel
        # the walk finds the witness, so it is skipped when every state escapes
        if len(peel) < self.outputs.count(None):
            looping = [q for q in self.reach if self.outputs[q] is None and q not in peel]
            if looping:
                raise NonStoppingRuleError(_loop_witness(self, looping))
        depth, out = peel[self.start]
        return 0 if out is not None else 1 + depth

    @cached_property
    def reach(self) -> dict[int, tuple[int | None, int | None]]:
        """The reachable states breadth first, each with the state and symbol it is
        first entered by, the start with (None, None): the parent map whose
        :func:`path` is a shortest word, lexicographic among the shortest."""
        rows = self.rows
        return search([(None, self.start)], lambda q: enumerate(rows[q]))[1]


def search(
    sources: Iterable[tuple[Hashable, Hashable]],
    successors: Callable[[Hashable], Iterable[tuple[Hashable, Hashable]]],
    verdict: Callable[[Hashable], bool | None] = lambda node: None,
) -> tuple[Hashable | None, dict, int]:
    """Breadth-first search from labelled ``sources`` for a failing node.

    ``sources`` are (label, node) pairs and ``successors`` gives a node's
    (step, child) pairs, a step being what is read.  Each node is judged
    once, when first reached: ``verdict`` is True where the search fails,
    False where it drops the node and None where it goes on from it.
    Returns the failing node or None; the parent map, each reached node's
    (parent, step) in the order reached, a source's being (None, its
    label); and the number of transitions taken from nodes.
    """
    parent: dict = {}
    checked = 0
    # None stands for a root whose children are the sources
    queue: list = [None]
    for node in queue:  # breadth first: the list grows as it is read
        for step, child in sources if node is None else successors(node):
            checked += node is not None
            if child in parent:
                continue
            parent[child] = (node, step)
            got = verdict(child)
            if got:
                return child, parent, checked
            if got is None:
                queue.append(child)
    return None, parent, checked


def path(parent: dict, node: Hashable) -> tuple:
    """The steps by which a :func:`search` first reached ``node``, its source's label first."""
    steps = []
    while node is not None:
        node, step = parent[node]
        steps.append(step)
    return tuple(reversed(steps))


def _escaping_states(aut: DecisionAutomaton) -> Peel:
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
    rows, outputs = aut.rows, aut.outputs
    preds: list[list[int]] = [[] for _ in rows]
    pending = [0] * len(rows)
    for q, row in enumerate(rows):
        if outputs[q] is None:
            for tgt in row:
                if outputs[tgt] is None:
                    pending[q] += 1
                    preds[tgt].append(q)
    peel: Peel = {}
    queue = deque(q for q, n in enumerate(pending) if n == 0 and outputs[q] is None)
    while queue:
        q = queue.popleft()
        depth, seen = 0, set()
        for tgt in rows[q]:
            out = outputs[tgt]
            if out is None:
                below, out = peel[tgt]
                if out is None and below >= depth:
                    depth = below + 1
            seen.add(out)
        peel[q] = (depth, seen.pop() if len(seen) == 1 else None)
        for p in preds[q]:
            pending[p] -= 1
            if pending[p] == 0:
                queue.append(p)
    return peel


def _loop_witness(aut: DecisionAutomaton, looping: list[int]) -> SeqSpec:
    """From the first looping state breadth first, follow the first symbol that
    stays among them until a state repeats: a shortest word to that state,
    lexicographic among the shortest, then the loop's symbols."""
    rows, inside = aut.rows, set(looping)
    state, symbols, walked = looping[0], [], {}
    while state not in walked:
        walked[state] = len(symbols)
        symbols.append(next(i for i, tgt in enumerate(rows[state]) if tgt in inside))
        state = rows[state][symbols[-1]]
    cycle = Segment(aut.alphabet, tuple(symbols[walked[state]:]))
    return SeqSpec(aut.alphabet, Segment(aut.alphabet, path(aut.reach, state)[1:]), cycle)


def minimize(aut: DecisionAutomaton) -> DecisionAutomaton:
    """Smallest automaton computing the same decision function.

    Terminals get one class per output.  Escaping states are settled in the
    peel's order, successors first: a decided state joins its decision's
    class, an undecided one is hash-consed on its successors' classes.
    Looping states, which no peel state can match, are refined among
    themselves Moore style.  Decisions are preserved on every input, so the
    stopping verdict is too, and a known bound is handed on; absorption
    positions may shrink, because a decided state can commit before the
    original machine formally absorbs.
    """
    peel, rows, width = aut.peel, aut.rows, len(aut.alphabet)
    if (out := peel.get(aut.start, (0, None))[1]) is not None:
        # constant rule: one read then absorb, the smallest legal machine
        return DecisionAutomaton.from_rows(
            aut.alphabet, ("q0", "q1"), ((1,) * width, (1,) * width), (None, out), 0, bound=0
        )

    # only the partition matters: blocks are renamed breadth first below;
    # a settled class is keyed by its output if decided, else by its successors
    classes: dict[object, int] = {}
    block = [-1] * len(rows)
    for q, out in enumerate(aut.outputs):
        if out is not None:
            block[q] = classes.setdefault(out, len(classes))
    for q, (_, out) in peel.items():
        key = tuple([block[t] for t in rows[q]]) if out is None else out
        block[q] = classes.setdefault(key, len(classes))
    # the walk finds the looping states, so it is skipped when every state is settled
    looping = [q for q in aut.reach if block[q] < 0] if -1 in block else []
    for q in looping:
        block[q] = len(classes)
    count = 1
    while looping:
        keys = {q: (block[q], tuple([block[t] for t in rows[q]])) for q in looping}
        refined = {k: len(classes) + i for i, k in enumerate(dict.fromkeys(keys.values()))}
        for q, k in keys.items():
            block[q] = refined[k]
        if len(refined) == count:
            break
        count = len(refined)

    # any state of a block stands for it: they all have one row of blocks
    rep = {b: q for q, b in enumerate(block)}
    number = {block[aut.start]: 0}
    order, merged = [block[aut.start]], []
    for b in order:  # breadth first: the list grows as it is read
        targets = [block[t] for t in rows[rep[b]]]
        for t in targets:
            if t not in number:
                number[t] = len(number)
                order.append(t)
        merged.append(tuple(map(number.__getitem__, targets)))
    decided = {b: key for key, b in classes.items() if isinstance(key, str)}
    return DecisionAutomaton.from_rows(
        aut.alphabet, [f"q{i}" for i in range(len(order))], merged, map(decided.get, order), 0,
        bound=None if looping else aut.bound,
    )


def isomorphic(a: DecisionAutomaton, b: DecisionAutomaton) -> bool:
    """True when the reachable parts match up to a renaming of states.

    The pairing follows both automata breadth first; its image is closed
    under ``b``'s transitions, so it covers ``b``'s reachable part."""
    if a.alphabet != b.alphabet:
        return False
    pairing, paired = [-1] * len(a.states), [False] * len(b.states)
    pairing[a.start], paired[b.start] = b.start, True
    queue = deque([(a.start, b.start)])
    while queue:
        p, q = queue.popleft()
        if a.outputs[p] != b.outputs[q]:
            return False
        for np, nq in zip(a.rows[p], b.rows[q]):
            if pairing[np] >= 0:
                if pairing[np] != nq:
                    return False
            elif paired[nq]:
                return False
            else:
                pairing[np], paired[nq] = nq, True
                queue.append((np, nq))
    return True


def to_dot(aut: DecisionAutomaton) -> str:
    """DOT digraph of the reachable part.

    Terminal states are double circled and labeled with their output, the
    initial state is marked with an entry arrow, and parallel edges are
    merged into one edge labeled with the symbol list.  Names are escaped
    backslash first, so a label's ``\\n`` is the one line break.
    """

    def escape(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph decision_automaton {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    names = [f'"{escape(q)}"' for q in aut.states]
    for q in aut.reach:
        if (out := aut.outputs[q]) is not None:
            label = f'"{escape(aut.states[q])}\\n=> {escape(out)}"'
            lines.append(f"  {names[q]} [shape=doublecircle, label={label}];")
        else:
            lines.append(f"  {names[q]} [shape=circle];")
    lines.append(f"  __start -> {names[aut.start]};")
    for q in aut.reach:
        merged: dict[int, list[str]] = {}
        for sym, tgt in zip(aut.alphabet, aut.rows[q]):
            merged.setdefault(tgt, []).append(sym)
        for tgt, syms in merged.items():
            lines.append(f'  {names[q]} -> {names[tgt]} [label="{escape(", ".join(syms))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(aut: DecisionAutomaton) -> dict:
    """The document of :func:`to_json`, parsed."""
    return json.loads(to_json(aut))


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
        return DecisionAutomaton(Alphabet(tuple(data["alphabet"])), tuple(data["states"]),
                                 data["initial"], data["transitions"], data["terminal"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidAutomatonError(f"malformed automaton document: {exc}") from exc


def to_json(aut: DecisionAutomaton, indent: str = "") -> str:
    """The document as ``json.dumps(..., indent=2, sort_keys=True)`` prints it, from
    the states' rows, each line after the first prefixed by ``indent``: names escaped
    once, one template per row, states and symbols put in name order once."""
    esc = json.encoder.encode_basestring_ascii
    names, symbols = list(map(esc, aut.states)), aut.alphabet.symbols
    by_name = sorted(range(len(symbols)), key=symbols.__getitem__)
    row = "{\n" + ",\n".join(f"      {esc(symbols[i]).replace('%', '%%')}: %s" for i in by_name)
    row += "\n    }"
    rows, terminal = [], []
    for q in sorted(range(len(names)), key=aut.states.__getitem__):
        targets = aut.rows[q]
        rows.append(f"{names[q]}: " + row % tuple([names[targets[i]] for i in by_name]))
        if (out := aut.outputs[q]) is not None:
            terminal.append(f"{names[q]}: {esc(out)}")

    def block(items: list[str], brackets: str) -> str:
        return f"{brackets[0]}\n    " + ",\n    ".join(items) + f"\n  {brackets[1]}" if items else brackets

    text = (f'{{\n  "alphabet": {block([esc(s) for s in symbols], "[]")},'
            f'\n  "initial": {names[aut.start]},\n  "states": {block(names, "[]")},'
            f'\n  "terminal": {block(terminal, "{}")},\n  "transitions": {block(rows, "{}")}\n}}')
    return text.replace("\n", "\n" + indent)


def from_json(text: str) -> DecisionAutomaton:
    return from_json_dict(json.loads(text))
