"""The paper's definitions, read directly off a sequence: each family's
choice, an automaton's run over a word and its decision on an infinite
input, and the segment operations they use.  seqdec answers every question
through the compiled automaton; the tests hold it to these.

After them, the automaton passes as they were written over state names,
before the integer form replaced them: breadth-first order, the peel, the
stopping verdict, minimization and the JSON text, each looking a state's
row up by name.  They read the name-keyed views ``initial``,
``transitions`` and ``terminal``.

Last, the walks that ``seqdec.automaton.search`` replaced, each with its
own queue and its own parent pointers: breadth-first order over integer
rows, the open states' pass, the (state, symbols read) search of
``Facts.outcomes`` with its words as links, and acyclicity's shortest
cycle."""

import itertools
import json
from collections import deque
from fractions import Fraction

from seqdec.automaton import DecisionAutomaton, NonStoppingRuleError
from seqdec.core import Segment, SeqSpec
from seqdec.heuristics import CsrSpec, OsrSpec, csr_critical_counts


class DivergenceError(Exception):
    """A run's (state, phase within prefix and cycle) pair recurred before it absorbed."""


def concat(head, tail):
    """Sequence that reads ``head`` first and then continues as ``tail``."""
    return SeqSpec(tail.alphabet, head + tail.prefix, tail.cycle)


def enumerate_segments(alphabet, length):
    """All words of the given length, lexicographically by symbol index."""
    for word in itertools.product(range(len(alphabet)), repeat=length):
        yield Segment(alphabet, word)


def run(aut, seg):
    """State reached by folding the transition function over the word."""
    state = aut.initial
    for idx in seg.word:
        state = aut.transitions[state][aut.alphabet.name(idx)]
    return state


def evaluate(aut, seq):
    """Output of the first terminal state the run enters, and its position."""
    p, c = len(seq.prefix), len(seq.cycle)
    state, seen, pos = aut.initial, set(), 0
    while True:
        phase = pos if pos < p else p + (pos - p) % c
        if (state, phase) in seen:
            raise DivergenceError(f"state {state!r} recurs at phase {phase} of {seq.text()!r}")
        seen.add((state, phase))
        pos += 1
        state = aut.transitions[state][seq.symbol_at(pos)]
        if state in aut.terminal:
            return aut.terminal[state], pos


def csr_uniform_bound(spec):
    """Worst-case stopping position: every symbol one short, then one more."""
    return 1 + sum(n - 1 for n in csr_critical_counts(spec).values())


def csr_evaluate(spec, seq):
    """First crossing of the threshold: (chosen symbol, crossing position).

    Only the symbol read at the crossing changed score there, so the
    chooser is unique; an assertion keeps that argument honest.
    """
    totals = dict.fromkeys(spec.alphabet, Fraction(0))
    for pos in range(1, csr_uniform_bound(spec) + 1):
        name = seq.symbol_at(pos)
        totals[name] += spec.weights[name]
        if totals[name] >= spec.threshold:
            assert all(totals[o] < spec.threshold for o in spec.alphabet if o != name)
            return name, pos
    raise AssertionError("unreachable: positive weights cross the threshold within the bound")


def osr_evaluate(spec, seq):
    """First symbol ranked above the threshold within the span, else the best seen."""
    rank = spec._rank
    seen = [seq.symbol_at(pos) for pos in range(1, spec.span + 1)]
    above = [name for name in seen if rank[name] < rank[spec.threshold_alt]]
    return above[0] if above else min(seen, key=rank.__getitem__)


def config_encode(seq, symbol, window):
    """Occupancy pattern of a symbol over positions 1..window."""
    idx = seq.alphabet.index(symbol)
    return tuple(int(seq.at(i) == idx) for i in range(1, window + 1))


def config_evaluate(spec, seq):
    """Occurring symbol whose window pattern the comparator ranks best; the
    patterns of distinct symbols differ, so the injective ranking has one."""
    w = spec.window
    occurring = {seq.symbol_at(i) for i in range(1, w + 1)}
    return max(occurring, key=lambda s: spec.comparator.rank(config_encode(seq, s, w)))


def evaluate_rule(spec, seq):
    if isinstance(spec, CsrSpec):
        return csr_evaluate(spec, seq)[0]
    if isinstance(spec, OsrSpec):
        return osr_evaluate(spec, seq)
    return config_evaluate(spec, seq)


def absorbing_terminal_row(alphabet, state):
    """Self-loop transition row for an absorbing state."""
    return {sym: state for sym in alphabet}


def breadth_first_by_name(aut):
    """Reachable states in BFS order, each with the state and symbol it is first entered by."""
    parent = {aut.initial: None}
    order = [aut.initial]
    for q in order:  # the list grows as it is read
        for sym in aut.alphabet:
            nxt = aut.transitions[q][sym]
            if nxt not in parent:
                parent[nxt] = (q, sym)
                order.append(nxt)
    return parent


def reachable_states(aut):
    """State names reachable from the initial state, in BFS order."""
    return list(breadth_first_by_name(aut))


def peel_by_name(aut):
    """The peel: each escaping state's open depth and forced decision, in the
    order the states escape, successors first."""
    terminal, rows, symbols = aut.terminal, aut.transitions, aut.alphabet.symbols
    succ = {q: [rows[q][s] for s in symbols] for q in aut.states if q not in terminal}
    preds = {q: [] for q in succ}
    pending = dict.fromkeys(succ, 0)
    for q, targets in succ.items():
        for tgt in targets:
            if tgt not in terminal:
                pending[q] += 1
                preds[tgt].append(q)
    peel = {}
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


def stopping_bound_by_name(aut):
    """The bound read off the peel, or NonStoppingRuleError with the loop met by
    following, from the first looping state breadth first, the first symbol
    that stays among the looping states."""
    peel = peel_by_name(aut)
    parent = breadth_first_by_name(aut)
    looping = [q for q in parent if q not in aut.terminal and q not in peel]
    if looping:
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
        raise NonStoppingRuleError(SeqSpec(aut.alphabet, aut.alphabet.segment(word[::-1]), cycle))
    depth, out = peel[aut.initial]
    return 0 if out is not None else 1 + depth


def minimize_by_name(aut):
    """Minimization over names: terminals by output, the peel hash-consed in its
    order, looping states refined Moore style, blocks renamed breadth first."""
    peel = peel_by_name(aut)
    if (out := peel.get(aut.initial, (0, None))[1]) is not None:
        return DecisionAutomaton(
            aut.alphabet, ("q0", "q1"), "q0",
            {"q0": {sym: "q1" for sym in aut.alphabet},
             "q1": absorbing_terminal_row(aut.alphabet, "q1")},
            {"q1": out},
        )

    def successors(q):
        return tuple(block[aut.transitions[q][sym]] for sym in aut.alphabet)

    classes = {}
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
        aut.alphabet,
        tuple(names.values()),
        "q0",
        {
            names[b]: {sym: names[block[aut.transitions[rep[b]][sym]]] for sym in aut.alphabet}
            for b in order
        },
        {names[b]: decided[b] for b in order if b in decided},
    )


def document_by_name(aut):
    """The automaton document, from its name-keyed views."""
    return {
        "alphabet": list(aut.alphabet.symbols),
        "states": list(aut.states),
        "initial": aut.initial,
        "transitions": {q: dict(row) for q, row in aut.transitions.items()},
        "terminal": dict(aut.terminal),
    }


def to_json_by_name(aut, indent=""):
    """The automaton JSON from its name-keyed views: one template per state row."""
    esc = json.encoder.encode_basestring_ascii
    names = {q: esc(q) for q in aut.states}
    symbols = sorted(aut.alphabet.symbols)
    row = "{\n" + ",\n".join(f"      {esc(s).replace('%', '%%')}: %s" for s in symbols) + "\n    }"
    rows = [f"{names[q]}: " + row % tuple([names[aut.transitions[q][s]] for s in symbols])
            for q in sorted(aut.states)]
    terminal = [f"{names[q]}: {esc(out)}" for q, out in sorted(aut.terminal.items())]

    def block(items, brackets):
        return f"{brackets[0]}\n    " + ",\n    ".join(items) + f"\n  {brackets[1]}" if items else brackets

    text = (f'{{\n  "alphabet": {block([esc(s) for s in aut.alphabet], "[]")},'
            f'\n  "initial": {names[aut.initial]},\n  "states": {block(list(names.values()), "[]")},'
            f'\n  "terminal": {block(terminal, "{}")},\n  "transitions": {block(rows, "{}")}\n}}')
    return text.replace("\n", "\n" + indent)


def isomorphic_by_name(a, b):
    """The reachable parts match up to a renaming: paired breadth first by name,
    each new target looked for among the paired ones."""
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


def breadth_first(aut):
    """Reachable states in BFS order, each with the state and symbol it is first entered by."""
    parent = {aut.start: None}
    order = [aut.start]
    for q in order:  # the list grows as it is read
        for i, nxt in enumerate(aut.rows[q]):
            if nxt not in parent:
                parent[nxt] = (q, i)
                order.append(nxt)
    return parent


def open_states_by_queue(facts):
    """Each reachable open state, breadth first, as (word, depth, toward,
    segments): one pass over open states only for the shortest words, each
    state keeping its parent, symbol and depth, then one in the peel's order."""
    rows, decision, n = facts.automaton.rows, facts.decision, len(facts.alphabet)
    if decision(facts.start) is not None:
        return {}
    via = {facts.start: (None, None, 0)}
    order = [facts.start]
    for q in order:
        depth = via[q][2] + 1
        for i in range(n):
            r = rows[q][i]
            if r not in via and decision(r) is None:
                via[r] = (q, i, depth)
                order.append(r)
    below = {}
    for q in facts.automaton.peel:
        if q not in via:
            continue
        toward, segments = {}, 0
        for i in range(n):
            r = rows[q][i]
            if r in via:
                for d in below[r][0]:
                    toward.setdefault(d, i)
                segments += below[r][1]
            else:
                toward.setdefault(decision(r), i)
                segments += 1
        below[q] = (toward, segments)

    def word(q):
        symbols = []
        while via[q][0] is not None:
            q, i, _ = via[q]
            symbols.append(i)
        return tuple(reversed(symbols))

    return {q: (word(q), via[q][2], *below[q]) for q in order}


def outcomes_by_links(facts, cap):
    """Each (symbol set, decision) pair with the text of its first minimal
    segment, in order: the search over (open state, symbols read) whose nodes
    and pairs keep their words as links, (prefix link, last symbol), checking
    ``cap`` after each node.  Returns the message it would raise, if any."""
    rows, decision, names = facts.automaton.rows, facts.decision, facts.alphabet.symbols

    def text(link):
        out = []
        while link is not None:
            link, i = link
            out.append(names[i])
        return " ".join(reversed(out))

    got = decision(facts.start)
    if got is not None:
        return [((frozenset(), got), "")], None
    outcomes = {}
    order = [(facts.start, frozenset())]
    links = {order[0]: None}
    for node in order:
        for i, name in enumerate(names):
            child = (rows[node[0]][i], node[1] | {name})
            got = decision(child[0])
            if got is not None:
                outcomes.setdefault((child[1], got), (links[node], i))
            elif child not in links:
                links[child] = (links[node], i)
                order.append(child)
        if len(order) * len(names) > cap:
            return None, f"{len(order)} (state, symbol set) nodes times {len(names)} symbols"
    return [(pair, text(link)) for pair, link in outcomes.items()], None


def shortest_cycle_by_queue(succ):
    """Shortest directed cycle, first by length then by start node order, each
    node judged as it leaves the queue."""
    best = None
    for start in sorted(succ):
        back = {start: None}
        queue = [start]
        for node in queue:  # breadth first: the queue grows as it is read
            if start in succ[node]:
                path = [node]
                while back[path[-1]] is not None:
                    path.append(back[path[-1]])
                if best is None or len(path) < len(best):
                    best = tuple(reversed(path))
                break
            for child in succ[node]:
                if child not in back:
                    back[child] = node
                    queue.append(child)
    return best
