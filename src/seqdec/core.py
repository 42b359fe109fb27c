"""Alphabets, finite segments, and eventually periodic infinite sequences.

A sequence is a total function from positions 1, 2, ... to symbols of a
finite alphabet.  It is stored as a finite prefix plus a nonempty repeating
cycle, a representation that is closed under every transformation the
decision-rule machinery needs: truncation, adjacent swaps, position
deletion, and relabeling.  All values here are immutable and all
operations are pure, so they can be shared freely across workers.

Sequence literals use the textual form ``prefix|cycle`` with space-separated
symbol names: ``a b|c`` is (a b c c c ...), ``|a b c`` is the pure cycle
(a b c a b c ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class SeqdecError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SeqdecError):
    """A value violates one of its construction invariants."""


class AlphabetMismatchError(SeqdecError):
    """Two operands were built over different alphabets."""


class ResourceLimit(SeqdecError):
    """A window table or an automaton would exceed ``cap``; raised before building it.

    ``what`` names the size asked for, in windows, states or transitions.
    """

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceed the cap of {cap}")
        self.what, self.cap = what, cap


# Most windows any table here may hold: 16 times the largest table that the
# test suite or the benchmark workloads build (65,536 windows).
WINDOW_CAP = 1 << 20


def _require_windows(alphabet: Alphabet, length: int) -> None:
    # n^65 is past the cap for every n >= 2, so a larger exponent is never computed
    if len(alphabet) ** min(length, 65) > WINDOW_CAP:
        raise ResourceLimit(f"{len(alphabet)}^{length} windows of length {length}", WINDOW_CAP)


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered set of symbol names.

    The iteration order is fixed and total; symbols are addressed either by
    name or by their position in that order.
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValidationError("alphabet must not be empty")
        if not all(isinstance(s, str) for s in self.symbols):
            raise ValidationError(f"symbol names must be strings: {self.symbols}")
        # a sequence literal splits on '|' and whitespace, so it cannot spell such a name
        for s in self.symbols:
            if s.split() != [s] or "|" in s:
                raise ValidationError(f"symbol name {s!r} is empty or contains whitespace or '|'")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError(f"duplicate symbol names: {self.symbols}")
        object.__setattr__(
            self, "_index", {name: i for i, name in enumerate(self.symbols)}
        )

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ValidationError(f"unknown symbol {name!r}, expected one of {self.symbols}") from None

    def name(self, index: int) -> str:
        return self.symbols[index]

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, name: object) -> bool:
        return name in self._index  # type: ignore[attr-defined]

    def segment(self, word: Iterable[str] | str) -> Segment:
        """Build a segment from symbol names (an iterable or a spaced string)."""
        return Segment.from_symbols(self, word)

    def sequence(self, text: str) -> SeqSpec:
        """Parse a ``prefix|cycle`` sequence literal over this alphabet."""
        return SeqSpec.from_text(self, text)


def _require_same_alphabet(a: Alphabet, b: Alphabet) -> None:
    if a != b:
        raise AlphabetMismatchError(f"alphabet mismatch: {a.symbols} vs {b.symbols}")


@dataclass(frozen=True)
class Segment:
    """Finite word over an alphabet, stored as a tuple of symbol indices.

    The empty segment is valid: it is the zero-length truncation of any
    sequence and the root of the search tree used by the sufficiency
    analyses.
    """

    alphabet: Alphabet
    word: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", tuple(self.word))
        n = len(self.alphabet)
        for idx in self.word:
            if not 0 <= idx < n:
                raise ValidationError(f"symbol index {idx} out of range for {self.alphabet.symbols}")

    @classmethod
    def from_symbols(cls, alphabet: Alphabet, word: Iterable[str] | str) -> Segment:
        names = word.split() if isinstance(word, str) else list(word)
        return cls(alphabet, tuple(alphabet.index(n) for n in names))

    def symbols(self) -> tuple[str, ...]:
        return tuple(self.alphabet.name(i) for i in self.word)

    def symbol_set(self) -> frozenset[str]:
        """Set of symbol names occurring in the word."""
        return frozenset(self.alphabet.name(i) for i in set(self.word))

    def occurrences(self, name: str, upto: int | None = None) -> int:
        """Number of occurrences of ``name`` in the first ``upto`` positions."""
        idx = self.alphabet.index(name)
        stop = len(self.word) if upto is None else min(upto, len(self.word))
        return sum(1 for i in range(stop) if self.word[i] == idx)

    def prefix(self, k: int) -> Segment:
        if k < 0:
            raise ValidationError(f"prefix length must be >= 0, got {k}")
        return Segment(self.alphabet, self.word[:k])

    def text(self) -> str:
        return " ".join(self.symbols())

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[int]:
        return iter(self.word)

    def __getitem__(self, i: int) -> int:
        return self.word[i]

    def __add__(self, other: Segment) -> Segment:
        _require_same_alphabet(self.alphabet, other.alphabet)
        return Segment(self.alphabet, self.word + other.word)


@dataclass(frozen=True)
class SeqSpec:
    """Eventually periodic infinite sequence: a prefix followed by a cycle.

    The position function is total for positions i >= 1: within the prefix it
    reads the prefix, past it the cycle repeats forever.  Equality is
    position-function equality, decided exactly by comparing the two
    sequences on the first ``|p| + |p'| + lcm(|c|, |c'|)`` positions.
    """

    alphabet: Alphabet
    prefix: Segment
    cycle: Segment

    def __post_init__(self) -> None:
        _require_same_alphabet(self.alphabet, self.prefix.alphabet)
        _require_same_alphabet(self.alphabet, self.cycle.alphabet)
        if len(self.cycle) == 0:
            raise ValidationError("cycle must not be empty")

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str) -> SeqSpec:
        """Parse a ``prefix|cycle`` literal, e.g. ``a b|c`` or ``|a b c``."""
        if text.count("|") != 1:
            raise ValidationError(f"sequence literal needs exactly one '|': {text!r}")
        left, right = text.split("|")
        return cls(alphabet, alphabet.segment(left), alphabet.segment(right))

    def at(self, i: int) -> int:
        """Symbol index at 1-based position ``i``."""
        if i < 1:
            raise ValidationError(f"positions are 1-based, got {i}")
        p = len(self.prefix)
        if i <= p:
            return self.prefix.word[i - 1]
        return self.cycle.word[(i - p - 1) % len(self.cycle)]

    def symbol_at(self, i: int) -> str:
        return self.alphabet.name(self.at(i))

    def window(self, k: int) -> tuple[int, ...]:
        """Indices at positions 1..k."""
        return tuple(self.at(i) for i in range(1, k + 1))

    def unrolled(self, n: int) -> SeqSpec:
        """Equivalent sequence whose prefix covers at least ``n`` positions."""
        p = len(self.prefix)
        if p >= n:
            return self
        need = n - p
        reps = -(-need // len(self.cycle))
        ext = (self.cycle.word * reps)[:need]
        shift = need % len(self.cycle)
        rotated = self.cycle.word[shift:] + self.cycle.word[:shift]
        return SeqSpec(
            self.alphabet,
            Segment(self.alphabet, self.prefix.word + ext),
            Segment(self.alphabet, rotated),
        )

    def canonical(self) -> SeqSpec:
        """Unique minimal representation: primitive cycle, shortest prefix."""
        cyc = list(self.cycle.word)
        for d in range(1, len(cyc) + 1):
            if len(cyc) % d == 0 and cyc == cyc[:d] * (len(cyc) // d):
                cyc = cyc[:d]
                break
        pre = list(self.prefix.word)
        while pre and pre[-1] == cyc[-1]:
            pre.pop()
            cyc = [cyc[-1]] + cyc[:-1]
        return SeqSpec(
            self.alphabet,
            Segment(self.alphabet, tuple(pre)),
            Segment(self.alphabet, tuple(cyc)),
        )

    def text(self) -> str:
        return f"{self.prefix.text()}|{self.cycle.text()}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeqSpec):
            return NotImplemented
        if self.alphabet != other.alphabet:
            return False
        horizon = (
            len(self.prefix)
            + len(other.prefix)
            + math.lcm(len(self.cycle), len(other.cycle))
        )
        return all(self.at(i) == other.at(i) for i in range(1, horizon + 1))

    def __hash__(self) -> int:
        c = self.canonical()
        return hash((self.alphabet.symbols, c.prefix.word, c.cycle.word))


@dataclass(frozen=True)
class Relabeling:
    """Bijection on the symbols of an alphabet (a permutation of indices)."""

    alphabet: Alphabet
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if sorted(self.mapping) != list(range(len(self.alphabet))):
            raise ValidationError(f"mapping {self.mapping} is not a permutation of the alphabet")

    @classmethod
    def identity(cls, alphabet: Alphabet) -> Relabeling:
        return cls(alphabet, tuple(range(len(alphabet))))

    @classmethod
    def from_names(cls, alphabet: Alphabet, pairs: Mapping[str, str]) -> Relabeling:
        """Build from a name map; symbols not mentioned map to themselves."""
        mapping = list(range(len(alphabet)))
        for src, dst in pairs.items():
            mapping[alphabet.index(src)] = alphabet.index(dst)
        return cls(alphabet, tuple(mapping))

    def inverse(self) -> Relabeling:
        inv = [0] * len(self.mapping)
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Relabeling(self.alphabet, tuple(inv))

    def apply_index(self, i: int) -> int:
        return self.mapping[i]

    def apply_name(self, name: str) -> str:
        return self.alphabet.name(self.mapping[self.alphabet.index(name)])

    def as_dict(self) -> dict[str, str]:
        return {self.alphabet.name(i): self.alphabet.name(j) for i, j in enumerate(self.mapping)}


def prefix_of(seq: SeqSpec, k: int) -> Segment:
    """First-k truncation of a sequence; k = 0 yields the empty segment."""
    if k < 0:
        raise ValidationError(f"prefix length must be >= 0, got {k}")
    return Segment(seq.alphabet, seq.window(k))


def favorable_shift(seq: SeqSpec, k: int) -> SeqSpec:
    """Swap the symbols at positions k and k+1.

    The swap is applied inside the prefix; if position k+1 still lies in the
    periodic part, the cycle is unrolled into the prefix first so the
    position function stays exact.
    """
    if k < 1:
        raise ValidationError(f"positions are 1-based, got {k}")
    s = seq.unrolled(k + 1)
    word = list(s.prefix.word)
    word[k - 1], word[k] = word[k], word[k - 1]
    return SeqSpec(s.alphabet, Segment(s.alphabet, tuple(word)), s.cycle)


def favorable_deletion(seq: SeqSpec, k: int) -> SeqSpec:
    """Drop the symbol at position k, shifting every later position down."""
    if k < 1:
        raise ValidationError(f"positions are 1-based, got {k}")
    s = seq.unrolled(k)
    word = s.prefix.word[: k - 1] + s.prefix.word[k:]
    return SeqSpec(s.alphabet, Segment(s.alphabet, word), s.cycle)


def relabel(seq: SeqSpec, sigma: Relabeling) -> SeqSpec:
    """Map every symbol of the sequence through the bijection."""
    _require_same_alphabet(seq.alphabet, sigma.alphabet)

    def mapped(seg: Segment) -> Segment:
        return Segment(seg.alphabet, tuple(sigma.apply_index(i) for i in seg.word))

    return SeqSpec(seq.alphabet, mapped(seq.prefix), mapped(seq.cycle))


def constant(alphabet: Alphabet, name: str) -> SeqSpec:
    """The constant sequence (x x x ...)."""
    return SeqSpec(alphabet, alphabet.segment(()), alphabet.segment([name]))
