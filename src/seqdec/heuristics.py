"""Satisficing rule families and their compilation to decision automata.

Three parameterized families of choice rules over sequences:

* score-threshold rules (cardinal satisficing): pick the first alternative
  whose cumulative weight reaches a threshold;
* ranked-threshold rules (ordinal satisficing): within a fixed attention
  span, pick the first alternative strictly above a threshold alternative,
  otherwise the best-ranked alternative seen;
* configuration rules: rank the 0/1 occupancy patterns of the alternatives
  inside a fixed window and pick the alternative with the best pattern.

Weights and thresholds are exact rationals: the stopping position depends on
equality at the crossing boundary, which floating point would corrupt.
Each compiler counts its states first and raises :class:`ResourceLimit`
past ``STATE_CAP`` of them, or past ``TRANSITION_CAP`` states times
symbols, instead of building the automaton.

Rule JSON formats (rationals as ``"p/q"`` or integer strings)::

    {"kind": "csr", "alphabet": [...], "weights": {"a": "1", "b": "2/3"},
     "threshold": "3"}
    {"kind": "osr", "alphabet": [...], "order": ["a", "b", "c"],
     "threshold_alt": "b", "span": 2}
    {"kind": "config", "alphabet": [...], "window": 3,
     "comparator": {"table": {"101": 5, ...}}}       # or {"builtin": NAME}
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .core import Alphabet, ResourceLimit, ValidationError, _require_windows
from .automaton import DecisionAutomaton


class InvalidRuleError(ValidationError):
    """A rule description violates one of its invariants."""


# Most states a compiler may build: 64 times the largest automaton that the
# test suite or the benchmark workloads compile (4,099 states).  A CSR
# automaton this size takes about 250 MB and 8 s to compile and verify.
STATE_CAP = 1 << 18
# Most transitions, states times symbols: over 500 times the most that the
# test suite (8,004) or the benchmark workloads (6,120) build.
TRANSITION_CAP = 16 * STATE_CAP


def _require_states(count: int, width: int) -> None:
    """Refuse to compile ``count`` states over ``width`` symbols past the
    caps, before building any; the state count is checked first."""
    if count > STATE_CAP:
        shown = count if count < 1 << 64 else "more than 2^64"
        raise ResourceLimit(f"{shown} states", STATE_CAP)
    if count * width > TRANSITION_CAP:
        raise ResourceLimit(f"{count * width} transitions of {count} states", TRANSITION_CAP)


@dataclass(frozen=True)
class CsrSpec:
    """Score-threshold rule: positive weight per symbol, positive threshold.

    Positivity is required so the rule always stops: a zero-weight symbol
    would admit inputs whose cumulative score never crosses the threshold.
    """

    alphabet: Alphabet
    weights: Mapping[str, Fraction]
    threshold: Fraction

    def __post_init__(self) -> None:
        weights = {name: Fraction(w) for name, w in self.weights.items()}
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "threshold", Fraction(self.threshold))
        if set(weights) != set(self.alphabet.symbols):
            raise InvalidRuleError(f"weights must cover the alphabet exactly: {sorted(weights)}")
        for name, w in weights.items():
            if w <= 0:
                raise InvalidRuleError(f"weight of {name!r} must be > 0, got {w}")
        if self.threshold <= 0:
            raise InvalidRuleError(f"threshold must be > 0, got {self.threshold}")


@dataclass(frozen=True)
class OsrSpec:
    """Ranked-threshold rule: strict total order, threshold alternative, span."""

    alphabet: Alphabet
    order: tuple[str, ...]
    threshold_alt: str
    span: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != sorted(self.alphabet.symbols):
            raise InvalidRuleError(f"order must rank every symbol exactly once: {self.order}")
        if self.threshold_alt not in self.alphabet:
            raise InvalidRuleError(f"threshold alternative {self.threshold_alt!r} not in alphabet")
        if self.span < 1:
            raise InvalidRuleError(f"span must be >= 1, got {self.span}")
        object.__setattr__(self, "_rank", {s: i for i, s in enumerate(self.order)})


BUILTIN_COMPARATORS = ("first-position-priority", "numeric-value")


@dataclass(frozen=True)
class Comparator:
    """Injective ranking of all bit-words of a fixed window length.

    Built-ins: ``numeric-value`` reads the word as a binary numeral as
    written (position 1 most significant); ``first-position-priority`` ranks
    every word with a 1 in position 1 above all others, ties broken by
    numeric value.  A table comparator lists the rank of every word
    explicitly and is validated for totality and injectivity.
    """

    window: int
    builtin: str | None = None
    table: Mapping[str, int] | None = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise InvalidRuleError(f"window must be >= 1, got {self.window}")
        if (self.builtin is None) == (self.table is None):
            raise InvalidRuleError("exactly one of builtin or table must be given")
        if self.builtin is not None and self.builtin not in BUILTIN_COMPARATORS:
            raise InvalidRuleError(
                f"unknown builtin {self.builtin!r}, expected one of {BUILTIN_COMPARATORS}"
            )
        if self.table is not None:
            object.__setattr__(self, "table", dict(self.table))
            # from the table's bit length on, 2^window exceeds its size, so
            # the words are listed only when they number no more than entries
            if self.window >= len(self.table).bit_length() or set(self.table) != {
                "".join(bits) for bits in itertools.product("01", repeat=self.window)
            }:
                raise InvalidRuleError(
                    f"table must rank all 2^{self.window} bit-words of length {self.window}"
                )
            if len(set(self.table.values())) != len(self.table):
                raise InvalidRuleError("table ranks must be injective")

    def rank(self, bits: tuple[int, ...]) -> int:
        if len(bits) != self.window:
            raise InvalidRuleError(f"expected a bit-word of length {self.window}, got {bits}")
        word = "".join(str(b) for b in bits)
        if self.table is not None:
            return self.table[word]
        value = int(word, 2)
        if self.builtin == "numeric-value":
            return value
        return (bits[0] << self.window) | value


@dataclass(frozen=True)
class ConfigRuleSpec:
    """Configuration rule: compare window-length occupancy patterns."""

    alphabet: Alphabet
    window: int
    comparator: Comparator

    def __post_init__(self) -> None:
        if self.window < 1:
            raise InvalidRuleError(f"window must be >= 1, got {self.window}")
        if self.comparator.window != self.window:
            raise InvalidRuleError(
                f"comparator window {self.comparator.window} != rule window {self.window}"
            )


RuleSpec = Union[CsrSpec, OsrSpec, ConfigRuleSpec]


def csr_critical_counts(spec: CsrSpec) -> dict[str, int]:
    """Occurrences of each symbol needed to reach the threshold alone."""
    return {name: math.ceil(spec.threshold / spec.weights[name]) for name in spec.alphabet}


def csr_compile(spec: CsrSpec) -> DecisionAutomaton:
    """Automaton over occurrence-count vectors below the critical counts.

    Reading a symbol increments its count; hitting the critical count moves
    to that symbol's absorbing output state.  Every vector below the counts
    is reachable from zero, so the whole mixed-radix box is named at once,
    from one ``name:k`` piece per symbol and count, and listed by name.
    """
    aut = spec.alphabet
    counts = list(csr_critical_counts(spec).values())  # in alphabet order
    _require_states(math.prod(counts) + len(aut), len(aut))
    pieces = [[f"{name}:{k}" for k in range(c)] for name, c in zip(aut, counts)]
    names = list(map(",".join, itertools.product(*pieces)))  # the first symbol varies slowest
    order = sorted(range(len(names)), key=names.__getitem__)
    at = sorted(range(len(names)), key=order.__getitem__)  # each vector's place in that order
    columns = []
    for i, name in enumerate(aut):
        stride, last = math.prod(counts[i + 1 :]), counts[i] - 1
        columns.append([name if v // stride % counts[i] == last else at[v + stride] for v in order])
    return DecisionAutomaton.with_decisions(
        aut, [names[v] for v in order], list(zip(*columns)), sorted(aut.symbols), at[0]
    )


def osr_compile(spec: OsrSpec) -> DecisionAutomaton:
    """Automaton tracking (position, best below-threshold symbol so far).

    The strict order makes the running best a sufficient statistic for the
    fallback choice, so no further history is needed.  Every such pair is
    reachable, by repeating its best symbol, so all are named at once and
    listed by name.
    """
    aut, rank = spec.alphabet, spec._rank  # type: ignore[attr-defined]
    cut = rank[spec.threshold_alt]  # a symbol ranked before the threshold decides at once
    below = [sym for sym in aut if rank[sym] >= cut]
    # (0, -), then (position, best) for every symbol not above the threshold
    _require_states(1 + (spec.span - 1) * len(below) + len(aut), len(aut))
    keys = [(0, None)] + [(pos, best) for pos in range(1, spec.span) for best in below]
    names = [f"p{pos}:{best or '-'}" for pos, best in keys]
    order = sorted(range(len(keys)), key=names.__getitem__)
    at = {keys[k]: p for p, k in enumerate(order)}
    rows = []
    for pos, best in map(keys.__getitem__, order):
        bests = [sym if best is None or rank[sym] < rank[best] else best for sym in aut]
        # a symbol above the threshold is its own new best, and decides at once
        rows.append([new if rank[sym] < cut or pos + 1 == spec.span else at[pos + 1, new]
                     for sym, new in zip(aut, bests)])
    return DecisionAutomaton.with_decisions(
        aut, [names[k] for k in order], rows, sorted(aut.symbols), at[0, None]
    )


def segment_tree_automaton(alphabet: Alphabet, depth: int, leaves: Iterable[str]) -> DecisionAutomaton:
    """Prefix-tree automaton absorbing at a fixed depth.

    Internal states are the words shorter than ``depth``, breadth first,
    each named by its parent's text plus one symbol, so the children of
    state q are q * n + 1 onwards; reading the final symbol of a full-depth
    word moves to the absorbing output state of its decision in ``leaves``,
    one per word in lexicographic order, read only after the state count and
    then the word count, against ``WINDOW_CAP``, are checked.  The generic
    bridge from any bounded-window evaluator to an automaton.
    """
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    n = len(alphabet)
    # the count is shown only up to 2^64, so 65 levels stand for any deeper tree
    _require_states(depth if n == 1 else (n ** min(depth, 65) - 1) // (n - 1), n)
    _require_windows(alphabet, depth)
    texts = level = [""]
    for _ in range(depth - 1):
        level = [f"{text} {sym}" if text else sym for text in level for sym in alphabet]
        texts = texts + level
    leaves = list(leaves)
    rows = [range(q * n + 1, q * n + n + 1) for q in range(len(texts) - len(level))]
    rows += [leaves[i : i + n] for i in range(0, len(leaves), n)]
    return DecisionAutomaton.with_decisions(
        alphabet, [f"<{text}>" for text in texts], rows, sorted(set(leaves)), 0
    )


def config_compile(spec: ConfigRuleSpec) -> DecisionAutomaton:
    """Tabulate the window evaluator into a prefix-tree automaton, all windows
    at once.  A window decides for its occurring symbol of greatest key, its
    mask's rank * n + symbol; each mask is ranked once, when first needed.  A
    window is a word of length w - 1 and a last symbol.  Each symbol is keyed
    in every word as another symbol ends the window (below every key where
    absent) and as it does, and a window's best key is its last symbol's or
    the best other key of its word, read off the word's best two."""
    w, n, names = spec.window, len(spec.alphabet), spec.alphabet.symbols

    def leaves() -> Iterator[str]:
        @functools.cache
        def rank(mask: int) -> int:
            return spec.comparator.rank(tuple(mask >> (w - 1 - p) & 1 for p in range(w)))

        before, ending = [], []  # per symbol and word: its key as another symbol, or it, ends the window
        for s in range(n):
            bits, masks = [2 * (c == s) for c in range(n)], [0]
            for _ in range(w - 1):  # the bit of the last position left clear
                masks = [m + m + b for m in masks for b in bits]
            before.append([*map({m: rank(m) * n + s if m else -math.inf for m in set(masks)}.get, masks)])
            ending.append([*map({m: rank(m + 1) * n + s for m in set(masks)}.get, masks)])
        tops = [sorted(keys)[-2:] for keys in zip(itertools.repeat(-math.inf), *before)]
        # keys differ, so a symbol holds its word's best key exactly when its own equals it
        best = [[max(end, k2 if k == k1 else k1) for end, k, (k2, k1) in zip(*keys, tops)]
                for keys in zip(ending, before)]
        yield from (names[k % n] for k in itertools.chain.from_iterable(zip(*best)))

    return segment_tree_automaton(spec.alphabet, w, leaves())


def compile_rule(spec: RuleSpec) -> DecisionAutomaton:
    if isinstance(spec, CsrSpec):
        return csr_compile(spec)
    if isinstance(spec, OsrSpec):
        return osr_compile(spec)
    return config_compile(spec)


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidRuleError(f"bad rational literal {text!r}") from exc


def rule_from_dict(data: dict) -> RuleSpec:
    try:
        kind = data["kind"]
        alphabet = Alphabet(tuple(data["alphabet"]))
        if kind == "csr":
            return CsrSpec(
                alphabet,
                {name: _fraction(w) for name, w in data["weights"].items()},
                _fraction(data["threshold"]),
            )
        if kind == "osr":
            return OsrSpec(alphabet, tuple(data["order"]), data["threshold_alt"], int(data["span"]))
        if kind == "config":
            comp = data["comparator"]
            window = int(data["window"])
            if "builtin" in comp:
                comparator = Comparator(window, builtin=comp["builtin"])
            else:
                comparator = Comparator(window, table={w: int(r) for w, r in comp["table"].items()})
            return ConfigRuleSpec(alphabet, window, comparator)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidRuleError(f"malformed rule document: {exc}") from exc
    raise InvalidRuleError(f"unknown rule kind {data.get('kind')!r}")


def rule_to_dict(spec: RuleSpec) -> dict:
    if isinstance(spec, CsrSpec):
        return {
            "kind": "csr",
            "alphabet": list(spec.alphabet.symbols),
            "weights": {name: str(w) for name, w in sorted(spec.weights.items())},
            "threshold": str(spec.threshold),
        }
    if isinstance(spec, OsrSpec):
        return {
            "kind": "osr",
            "alphabet": list(spec.alphabet.symbols),
            "order": list(spec.order),
            "threshold_alt": spec.threshold_alt,
            "span": spec.span,
        }
    comp: dict = (
        {"builtin": spec.comparator.builtin}
        if spec.comparator.builtin is not None
        else {"table": dict(sorted(spec.comparator.table.items()))}
    )
    return {
        "kind": "config",
        "alphabet": list(spec.alphabet.symbols),
        "window": spec.window,
        "comparator": comp,
    }


def rule_to_json(spec: RuleSpec) -> str:
    return json.dumps(rule_to_dict(spec), indent=2, sort_keys=True)


def rule_from_json(text: str) -> RuleSpec:
    return rule_from_dict(json.loads(text))
