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
past ``STATE_CAP`` of them instead of building the automaton.

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
from typing import Callable, Mapping, Union

from .core import Alphabet, ResourceLimit, ValidationError
from .automaton import DecisionAutomaton, absorbing_terminal_row


class InvalidRuleError(ValidationError):
    """A rule description violates one of its invariants."""


# Most states a compiler may build: 64 times the largest automaton that the
# test suite or the benchmark workloads compile (4,099 states).  A CSR
# automaton this size takes about 250 MB and 8 s to compile and verify.
STATE_CAP = 1 << 18


def _require_states(count: int) -> None:
    """Refuse to compile ``count`` states past the cap, before building any."""
    if count > STATE_CAP:
        shown = count if count < 1 << 64 else "more than 2^64"
        raise ResourceLimit(f"{shown} states", STATE_CAP)


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
    return {
        name: math.ceil(spec.threshold / spec.weights[name]) for name in spec.alphabet
    }


def _vector_name(alphabet: Alphabet, vector: tuple[int, ...]) -> str:
    return ",".join(f"{name}:{c}" for name, c in zip(alphabet.symbols, vector))


def csr_compile(spec: CsrSpec) -> DecisionAutomaton:
    """Automaton over occurrence-count vectors below the critical counts.

    Reading a symbol increments its count; hitting the critical count moves
    to that symbol's absorbing output state.  Only vectors reachable from
    zero are materialized.
    """
    counts = csr_critical_counts(spec)
    aut = spec.alphabet
    _require_states(math.prod(counts.values()) + len(aut))
    zero = tuple(0 for _ in aut)
    names, todo = {zero: _vector_name(aut, zero)}, [zero]  # each vector named once, when reached
    transitions: dict[str, dict[str, str]] = {}
    while todo:
        vec = todo.pop()
        row = {}
        for i, name in enumerate(aut):
            if vec[i] + 1 == counts[name]:
                row[name] = f"dec:{name}"
            else:
                nxt = vec[:i] + (vec[i] + 1,) + vec[i + 1 :]
                if nxt not in names:
                    names[nxt] = _vector_name(aut, nxt)
                    todo.append(nxt)
                row[name] = names[nxt]
        transitions[names[vec]] = row
    terminal = {f"dec:{name}": name for name in aut}
    for t in terminal:
        transitions[t] = absorbing_terminal_row(aut, t)
    states = tuple(sorted(names.values())) + tuple(sorted(terminal))
    return DecisionAutomaton(aut, states, names[zero], transitions, terminal)


def osr_compile(spec: OsrSpec) -> DecisionAutomaton:
    """Automaton tracking (position, best below-threshold symbol so far).

    The strict order makes the running best a sufficient statistic for the
    fallback choice, so no further history is needed.
    """
    aut, rank = spec.alphabet, spec._rank  # type: ignore[attr-defined]
    cut = rank[spec.threshold_alt]  # a symbol ranked before the threshold decides at once
    # (0, -), then (position, best) for every symbol not above the threshold
    _require_states(1 + (spec.span - 1) * sum(rank[sym] >= cut for sym in aut) + len(aut))
    names: dict[tuple[int, str | None], str] = {(0, None): "p0:-"}  # each state, named once
    todo: list[tuple[int, str | None]] = [(0, None)]
    transitions: dict[str, dict[str, str]] = {}
    while todo:
        pos, best = todo.pop()
        row = {}
        for sym in aut:
            new_best = sym if best is None or rank[sym] < rank[best] else best
            if rank[sym] < cut or pos + 1 == spec.span:  # sym is new_best if above the threshold
                row[sym] = f"dec:{new_best}"
            else:
                if (pos + 1, new_best) not in names:
                    names[pos + 1, new_best] = f"p{pos + 1}:{new_best or '-'}"
                    todo.append((pos + 1, new_best))
                row[sym] = names[pos + 1, new_best]
        transitions[names[pos, best]] = row
    terminal = {f"dec:{sym}": sym for sym in aut}
    for t in terminal:
        transitions[t] = absorbing_terminal_row(aut, t)
    states = tuple(sorted(names.values())) + tuple(sorted(terminal))
    return DecisionAutomaton(aut, states, "p0:-", transitions, terminal)


def segment_tree_automaton(
    alphabet: Alphabet, depth: int, decide: Callable[[tuple[int, ...]], str]
) -> DecisionAutomaton:
    """Prefix-tree automaton absorbing at a fixed depth.

    Internal states are the words shorter than ``depth``, breadth first,
    each named by its parent's text plus one symbol; reading the final
    symbol of a full-depth word moves to the absorbing output state labeled
    by ``decide(word)``, which is called once per word, in lexicographic
    order, after the state count is checked.  The generic bridge from any
    bounded-window evaluator to an automaton.
    """
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    n = len(alphabet)
    # the count is shown only up to 2^64, so 65 levels stand for any deeper tree
    _require_states(depth if n == 1 else (n ** min(depth, 65) - 1) // (n - 1))
    transitions: dict[str, dict[str, str]] = {}
    outputs = set()
    nodes: list[tuple[tuple[int, ...], str]] = [((), "")]
    for word, text in nodes:
        row = {}
        for i, sym in enumerate(alphabet.symbols):
            if len(word) + 1 == depth:
                out = decide(word + (i,))
                outputs.add(out)
                row[sym] = f"dec:{out}"
            else:
                child = f"{text} {sym}" if word else sym
                row[sym] = f"<{child}>"
                nodes.append((word + (i,), child))
        transitions[f"<{text}>"] = row
    states = tuple(transitions)
    terminal = {f"dec:{out}": out for out in sorted(outputs)}
    for t in terminal:
        transitions[t] = absorbing_terminal_row(alphabet, t)
    return DecisionAutomaton(alphabet, states + tuple(terminal), "<>", transitions, terminal)


def config_compile(spec: ConfigRuleSpec) -> DecisionAutomaton:
    """Tabulate the window evaluator into a prefix-tree automaton.

    Each leaf picks the occurring symbol whose occupancy mask the comparator
    ranks best; the comparator ranks each mask once, lazily.
    """
    w = spec.window

    @functools.cache
    def rank(mask: int) -> int:
        return spec.comparator.rank(tuple(mask >> (w - 1 - p) & 1 for p in range(w)))

    def decide(word: tuple[int, ...]) -> str:
        masks = dict.fromkeys(word, 0)
        for p, idx in enumerate(word):
            masks[idx] |= 1 << (w - 1 - p)
        return spec.alphabet.name(max(masks, key=lambda idx: rank(masks[idx])))

    return segment_tree_automaton(spec.alphabet, w, decide)


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
