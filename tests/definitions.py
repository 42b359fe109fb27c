"""The paper's definitions, read directly off a sequence: each family's
choice, an automaton's run over a word and its decision on an infinite
input, and the segment operations they use.  seqdec answers every question
through the compiled automaton; the tests hold it to these."""

import itertools
from fractions import Fraction

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
