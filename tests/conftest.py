"""Shared fixtures: the two-alternative score-threshold automaton and friends,
the window table and minimal segments the test oracles read, the stopping
passes that the peel's one verdict replaced and the machine table's
bucket search that the layered expansion replaced, kept as oracles, and
the expanded machine document."""

import itertools
from collections import deque
from typing import NamedTuple

import pytest

from seqdec.core import Alphabet, Segment
from seqdec.automaton import DecisionAutomaton, _breadth_first, absorbing_terminal_row
from seqdec.machines import InvalidMachineError, TwoTapeTm
from tests.definitions import run

XY = Alphabet(("x", "y"))
ABC = Alphabet(("a", "b", "c"))


def window_table(facts) -> dict[tuple[int, ...], str]:
    """Decision of every length-``bound`` window, in lexicographic order.

    Built a layer of windows at a time, each window with its state, so every
    window costs one step.
    """
    n = len(facts.alphabet)
    layer = [((), facts.start)]
    for _ in range(facts.bound):
        layer = [(w + (i,), facts.step(q, i)) for w, q in layer for i in range(n)]
    table = {word: facts.decision(state) for word, state in layer}
    assert None not in table.values(), "full-depth windows must be decided"
    return table


def minimal_words(facts) -> list[tuple[tuple[int, ...], str]]:
    """Every minimal sufficient segment as a word, with its decision."""
    return list(facts.segments((), [(i,) for i in range(len(facts.alphabet))]))


class StopVerdict(NamedTuple):
    """The absorption verdict: ``bound`` is one past the longest run through
    reachable non-terminal states, so every run reaches a terminal within it;
    without one, ``reach`` drives the automaton to ``cycle_states[0]`` and
    ``cycle_symbols`` walks a loop of non-terminal states back to it."""

    bound: int | None
    cycle_states: tuple[str, ...] | None = None
    cycle_symbols: tuple[str, ...] | None = None
    reach: Segment | None = None

    @property
    def stops(self) -> bool:
        return self.bound is not None


def oracle_peel(aut: DecisionAutomaton) -> dict[str, tuple[int, str | None]]:
    """The peel by absorption depth: each escaping state's longest run through
    non-terminal states, decided or not, and its forced decision, every
    successor looked up by symbol at each step."""
    nonterm = [q for q in aut.states if q not in aut.terminal]
    preds: dict[str, list[str]] = {q: [] for q in nonterm}
    pending = {q: 0 for q in nonterm}
    for q in nonterm:
        for sym in aut.alphabet:
            tgt = aut.transitions[q][sym]
            if tgt not in aut.terminal:
                pending[q] += 1
                preds[tgt].append(q)
    peel: dict[str, tuple[int, str | None]] = {}
    queue = deque(q for q in nonterm if pending[q] == 0)
    while queue:
        q = queue.popleft()
        depth, outputs = 0, set()
        for sym in aut.alphabet:
            tgt = aut.transitions[q][sym]
            if tgt in aut.terminal:
                outputs.add(aut.terminal[tgt])
            else:
                depth = max(depth, 1 + peel[tgt][0])
                outputs.add(peel[tgt][1])
        peel[q] = (depth, outputs.pop() if len(outputs) == 1 else None)
        for p in preds[q]:
            pending[p] -= 1
            if pending[p] == 0:
                queue.append(p)
    return peel


def oracle_verify_stopping(aut: DecisionAutomaton) -> StopVerdict:
    """The absorption bound, or the loop met by walking from the first looping
    state breadth first by the first symbol that stays outside the peel."""
    peel = oracle_peel(aut)
    parent = _breadth_first(aut)
    looping = [q for q in parent if q not in aut.terminal and q not in peel]
    if not looping:
        return StopVerdict(bound=1 + peel[aut.initial][0])
    path_states, path_symbols, seen = [looping[0]], [], {looping[0]: 0}
    state = looping[0]
    while True:
        for sym in aut.alphabet:
            tgt = aut.transitions[state][sym]
            if tgt not in aut.terminal and tgt not in peel:
                path_symbols.append(sym)
                state = tgt
                break
        if state in seen:
            i = seen[state]
            break
        seen[state] = len(path_states)
        path_states.append(state)
    word, via = [], parent[path_states[i]]
    while via is not None:
        word.append(aut.alphabet.index(via[1]))
        via = parent[via[0]]
    reach = Segment(aut.alphabet, tuple(word[::-1]))
    return StopVerdict(None, tuple(path_states[i:]), tuple(path_symbols[i:]), reach)


def oracle_decidedness(aut: DecisionAutomaton) -> dict[str, str | None]:
    """Each state's forced decision by fixpoint sweeps, one pass over all
    states per level, None where it is open.

    A state's reachable outputs grow until no sweep changes them; a state
    escapes once every successor is terminal or escapes.  A non-terminal
    state is decided when it escapes and reaches exactly one output.
    """
    outputs = {
        q: frozenset([out]) if (out := aut.terminal.get(q)) is not None else frozenset()
        for q in aut.states
    }
    escaping = set()
    changed = True
    while changed:
        changed = False
        for q in aut.states:
            if q in aut.terminal:
                continue
            succ = [aut.transitions[q][sym] for sym in aut.alphabet]
            merged = outputs[q].union(*(outputs[t] for t in succ))
            if merged != outputs[q]:
                outputs[q] = merged
                changed = True
            if q not in escaping and all(t in aut.terminal or t in escaping for t in succ):
                escaping.add(q)
                changed = True
    return {
        q: aut.terminal[q] if q in aut.terminal
        else next(iter(outputs[q])) if q in escaping and len(outputs[q]) == 1
        else None
        for q in aut.states
    }


def oracle_least_bound(aut: DecisionAutomaton) -> int | None:
    """Least K such that all |alphabet|^K windows force the decision, each
    window run from the initial state and judged by the sweep oracle; None
    when the absorption verdict finds a loop, so some run never decides."""
    if not oracle_verify_stopping(aut).stops:
        return None
    decided = oracle_decidedness(aut)
    for k in itertools.count():
        windows = itertools.product(aut.alphabet.symbols, repeat=k)
        if all(decided[run(aut, aut.alphabet.segment(w))] is not None for w in windows):
            return k


def build_twosym_threshold2():
    """Hand-built six-state machine: stop at the second occurrence of x or y.

    States track occurrence counts below the threshold of two; the two
    absorbing states output the symbol that reached the threshold first.
    """
    return DecisionAutomaton(
        alphabet=XY,
        states=("q0", "1_x", "1_y", "1_x1_y", "2_x", "2_y"),
        initial="q0",
        transitions={
            "q0": {"x": "1_x", "y": "1_y"},
            "1_x": {"x": "2_x", "y": "1_x1_y"},
            "1_y": {"x": "1_x1_y", "y": "2_y"},
            "1_x1_y": {"x": "2_x", "y": "2_y"},
            "2_x": absorbing_terminal_row(XY, "2_x"),
            "2_y": absorbing_terminal_row(XY, "2_y"),
        },
        terminal={"2_x": "x", "2_y": "y"},
    )


@pytest.fixture
def twosym_threshold2():
    return build_twosym_threshold2()


def oracle_build(states, initial, terminal, tape_alphabet, rules) -> TwoTapeTm:
    """``TwoTapeTm.build`` by the bucket search: each rule goes to the bucket
    of its specificity, a later rule with the same key replacing an earlier
    one, and each cell of each live state takes the most specific of four
    lookups.  Rules for unknown states or read/peek symbols are never looked
    up, so they drop out."""
    syms = tuple(tape_alphabet)
    terminal = frozenset(terminal)
    buckets: dict[int, dict] = {0: {}, 1: {}, 2: {}, 3: {}}
    for q, read, peek, nq, w, mi, mo in rules:
        if q in terminal:
            raise InvalidMachineError(f"terminal state {q!r} has an outgoing transition")
        buckets[(read != "*") * 2 + (peek != "*")][(q, read, peek)] = (nq, w, mi, mo)
    table = {}
    for q in states:
        if q in terminal:
            continue
        for a in syms:
            for b in syms:
                for spec, key in ((3, (q, a, b)), (2, (q, a, "*")), (1, (q, "*", b)), (0, (q, "*", "*"))):
                    action = buckets[spec].get(key)
                    if action is not None:
                        w = b if action[1] == "*" else action[1]
                        table[(q, a, b)] = (action[0], w, action[2], action[3])
                        break
    return TwoTapeTm(tuple(states), initial, terminal, syms, table)


def expanded_json_dict(tm: TwoTapeTm) -> dict:
    """A machine document with one explicit rule per cell of the table."""
    return {
        "kind": "tm",
        "states": list(tm.states),
        "initial": tm.initial,
        "terminal": sorted(tm.terminal),
        "tape_alphabet": list(tm.tape_alphabet),
        "transitions": [
            {"state": q, "read": a, "peek": b, "next": nq, "write": w, "move_in": mi, "move_out": mo}
            for (q, a, b), (nq, w, mi, mo) in sorted(tm.transitions.items())
        ],
    }
