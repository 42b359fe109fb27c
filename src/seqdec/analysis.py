"""Rule-agnostic stopping analysis, axiom checking, and identification.

Everything here works against a :class:`RuleHandle`, either an automaton or
a black box: a pure evaluator with a declared horizon H, or a budgeted
machine, read as a tree of runs over the words read so far.  Both are
analysed as one decision automaton, built for a black box by one
depth-first walk of its run tree until every run decides: one state per
distinct configuration of a machine that never moves its input head left,
else one per word.  A declared horizon is checked against the uniform
bound the walk finds.  One peel of the automaton gives every state's
decision, a terminal's output or the one the peel forces, and the one
stopping verdict: the uniform bound K, one past the longest run through
open states, or an input on which the rule never decides.

Stopping questions walk at most K states along the input.  One pass over
the reachable open states in the peel's order gives each state's
reachable decisions and the number of minimal sufficient segments, which
only ``analyze`` lists, under ``WINDOW_CAP``.  The decisive set, two of
the OSR axioms and ``identify_osr``'s ranking ask only which symbol sets
occur with which decision: one search over (open state, symbols read),
under ``WINDOW_CAP`` nodes times symbols.
Monotonicity, informational dominance, replacement, neutrality and the
agreement check of identification search products of states; the last two
share one search over a pair of automata, the second reading a relabeled
input.  The choice-rule check reads ``outcomes`` too.  Only acyclicity
lists all |alphabet|^K windows, as its graph over occupancy patterns is as
large, and past ``WINDOW_CAP`` windows it raises :class:`ResourceLimit`.

Checkers report a first counterexample in a fixed order, so reports are
deterministic: windows in lexicographic order for acyclicity, the search
order for the product searches.  Every Fail witness is fully
replayable from its recorded sequence texts via :func:`replay_witness`.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import AbstractSet, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple

from .core import (
    Alphabet,
    Relabeling,
    ResourceLimit,
    Segment,
    SeqSpec,
    SeqdecError,
    ValidationError,
    _require_same_alphabet,
    constant,
    relabel,
)
from .automaton import (
    MINIMAL_SUFFICIENT,
    NOT_SUFFICIENT,
    SUFFICIENT,
    DecisionAutomaton,
    NonStoppingRuleError,  # raised by stopping_bound; analyses re-export it
    Sufficiency,
    _escaping_states,
    absorbing_terminal_row,
    stopping_bound,
)
from . import heuristics
from .machines import TmRuns, TwoTapeTm
from .heuristics import (
    CsrSpec,
    OsrSpec,
    RuleSpec,
    _require_states,
)

Word = tuple[int, ...]
# a minimal sufficient segment's symbol set and decision
Outcome = tuple[frozenset[str], str]

# Most windows any table here may hold: 16 times the largest table that the
# test suite or the benchmark workloads build (65,536 windows).
WINDOW_CAP = 1 << 20


class HorizonViolation(SeqdecError):
    """Black-box decisions depend on positions beyond the declared horizon.

    This indicts the caller's horizon assertion, not the rule: an error, not
    a Fail verdict, naming the first open ``window`` of length ``horizon``.
    """

    def __init__(self, window: str, horizon: int, why: str):
        super().__init__(f"{why}; the rule reads past the declared horizon {horizon}")
        self.window, self.horizon = window, horizon


class NotAChoiceRule(SeqdecError):
    """A checker that needs decisions inside the alphabet got something else."""


class NotCsr(SeqdecError):
    """The rule is not a score-threshold rule: a disagreeing input exists."""

    def __init__(self, message: str, sequence: SeqSpec):
        super().__init__(message)
        self.sequence = sequence


class NotOsr(SeqdecError):
    """The rule is not a ranked-threshold rule: a disagreeing input exists."""

    def __init__(self, message: str, sequence: SeqSpec):
        super().__init__(message)
        self.sequence = sequence


@dataclass(frozen=True)
class EvaluatorRuns:
    """A plain evaluator with a declared horizon H as the degenerate run tree.

    A run tree's ``read(node, word)`` gives the node of ``word`` from its
    parent's (None at the root), with the decision if the run ends there,
    else None; ``close(seq)`` gives a root node's run on ``seq``.  In a
    ``keyed`` tree equal nodes have equal subtrees, whatever their words.
    An evaluator cannot pause, so its caps are met at the root, and it
    decides at depth H if the word's single-symbol closures agree.
    """

    decide: Callable[[SeqSpec], str]
    alphabet: Alphabet
    horizon: int
    keyed = False

    def read(self, node: None, word: list[int]) -> tuple[None, str | None]:
        alphabet, h, n = self.alphabet, self.horizon, len(self.alphabet)
        if not word:
            _require_windows(alphabet, h)
            # the count is shown only up to 2^64, so 65 levels stand for any deeper tree
            _require_states(h if n == 1 else (n ** min(h, 65) - 1) // (n - 1))
        if len(word) < h:
            return None, None
        closed = {self.decide(_closure(alphabet, tuple(word), c)) for c in range(n)}
        if len(closed) > 1:
            text = _word_text(alphabet, tuple(word))
            why = f"decisions after window {text!r} differ across closures {sorted(closed)}"
            raise HorizonViolation(text, h, why)
        return None, closed.pop()

    def close(self, seq: SeqSpec) -> tuple[None, str]:
        return None, self.decide(seq)


@dataclass
class RuleHandle:
    """A decision rule under analysis: an automaton or a black box's run tree.

    Black boxes must be pure (same input, same output).  A declared horizon
    asserts that decisions depend only on the first that many positions; an
    evaluator needs one, and a machine, whose budget bounds its runs, not.
    """

    alphabet: Alphabet
    automaton: DecisionAutomaton | None = None
    runs: EvaluatorRuns | TmRuns | None = None
    horizon: int | None = None

    def __post_init__(self) -> None:
        if (self.automaton is None) == (self.runs is None):
            raise ValidationError("exactly one of automaton or runs must be given")
        if self.horizon is not None and self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")

    @classmethod
    def from_automaton(cls, aut: DecisionAutomaton) -> RuleHandle:
        return cls(alphabet=aut.alphabet, automaton=aut)

    @classmethod
    def from_callable(
        cls, alphabet: Alphabet, evaluator: Callable[[SeqSpec], str], horizon: int
    ) -> RuleHandle:
        return cls(alphabet, runs=EvaluatorRuns(evaluator, alphabet, horizon), horizon=horizon)

    @classmethod
    def from_machine(
        cls, tm: TwoTapeTm, alphabet: Alphabet, budget: int, horizon: int | None = None
    ) -> RuleHandle:
        return cls(alphabet=alphabet, runs=TmRuns(tm, alphabet, budget), horizon=horizon)

    @classmethod
    def from_rule(cls, spec: RuleSpec) -> RuleHandle:
        return cls.from_automaton(heuristics.compile_rule(spec))

    def decide(self, seq: SeqSpec) -> str:
        if self.automaton is not None:
            return self.facts.stop(seq)[1]
        _require_same_alphabet(self.alphabet, seq.alphabet)
        return self.runs.close(seq)[1]  # type: ignore[union-attr,return-value]

    @cached_property
    def facts(self) -> Facts:
        return Facts.of(self)


def _closure(alphabet: Alphabet, word: Word, cycle_idx: int) -> SeqSpec:
    return SeqSpec(alphabet, Segment(alphabet, word), Segment(alphabet, (cycle_idx,)))


def _require_windows(alphabet: Alphabet, length: int) -> None:
    # n^65 is past the cap for every n >= 2, so a larger exponent is never computed
    if len(alphabet) ** min(length, 65) > WINDOW_CAP:
        raise ResourceLimit(f"{len(alphabet)}^{length} windows of length {length}", WINDOW_CAP)


def _tabulate_blackbox(rule: RuleHandle) -> DecisionAutomaton:
    """The decision automaton of a black box, from one walk of its run tree.

    The walk is depth first and lexicographic, so the first error raised is
    the first that the windows' order meets; it ends when every read has
    decided.  In a keyed tree a node equal to one walked before links to its
    state.  New states count against ``STATE_CAP``, and the output cells of
    the machine configurations they hold against ``WINDOW_CAP``.
    """
    runs, alphabet = rule.runs, rule.alphabet
    assert runs is not None
    n, names, keyed = len(alphabet), alphabet.symbols, runs.keyed
    memo: dict[Hashable, str] = {}
    cells = 0
    path: list[int] = []  # the word of the top frame
    root, got = runs.read(None, path)
    rows = {"s0": {} if got is None else dict.fromkeys(names, f"dec:{got}")}
    frames = [(rows["s0"], root)]
    while frames:
        row, node = frames[-1]
        if len(row) == n:
            frames.pop()
            del path[-1:]  # the symbol of the frame, if it is not the root
            continue
        path.append(len(row))
        child, got = runs.read(node, path)
        target = f"dec:{got}" if got is not None else memo.get(child)
        if target is None:
            target = f"s{len(rows)}"
            frames.append((rows.setdefault(target, {}), child))
            _require_states(len(rows))
            if child is not None:
                cells += len(child[3])
                if cells > WINDOW_CAP:
                    raise ResourceLimit(f"{cells} output cells of machine configurations", WINDOW_CAP)
            if keyed:
                memo[child] = target
        row[names[path[-1]]] = target
        if len(path) == len(frames):
            path.pop()
    targets = {t for row in rows.values() for t in row.values()}
    terminal = {t: t.removeprefix("dec:") for t in sorted(targets - rows.keys())}
    rows.update((t, absorbing_terminal_row(alphabet, t)) for t in terminal)
    return DecisionAutomaton(alphabet, tuple(rows), "s0", rows, terminal)


class OpenState(NamedTuple):
    """What is known of one reachable open state.

    ``word`` is a shortest word reaching it, lexicographic among the
    shortest; ``toward`` maps each decision some continuation can still
    force to the least symbol that leads toward it; and ``segments`` counts
    the words from it whose last symbol is the first to decide.
    """

    word: Word
    toward: dict[str, int]
    segments: int


@dataclass(eq=False)
class Facts:
    """Stopping facts of one rule's decision automaton, each built on first use.

    ``step(state, index)`` follows a transition and ``decision(state)`` is a
    terminal's output or the decision the peel forces, None while the
    outcome is still open.  ``peel`` maps each escaping state to its open
    depth and forced decision, successors first; every reachable
    non-terminal state is in it.  ``bound`` is the peel's stopping verdict,
    the least K such that every length-K window forces the decision, so one
    past the deepest open word and the length of the last minimal segment.
    """

    automaton: DecisionAutomaton
    alphabet: Alphabet
    start: str
    step: Callable[[str, int], str]
    decision: Callable[[str], str | None]
    peel: dict[str, tuple[int, str | None]]
    bound: int

    @classmethod
    def of(cls, rule: RuleHandle) -> Facts:
        aut = rule.automaton or _tabulate_blackbox(rule)
        peel = _escaping_states(aut)
        bound = stopping_bound(aut, peel)
        outcome = {q: out for q, (_, out) in peel.items()}
        outcome.update(aut.terminal)
        names, transitions = aut.alphabet.symbols, aut.transitions
        facts = cls(
            aut, aut.alphabet, aut.initial, lambda q, i: transitions[q][names[i]], outcome.get,
            peel, bound,
        )
        if (h := rule.horizon) is not None and bound > h:
            # a tabulated state's words have one length, so this is the first open window
            word = next(s.word for s in facts.open_states.values() if len(s.word) == h)
            text = _word_text(aut.alphabet, word)
            raise HorizonViolation(text, h, f"the decision after window {text!r} is still open")
        return facts

    def decisions(self, word: Iterable[int]) -> Iterator[str | None]:
        """Decision after each prefix of ``word``, the empty prefix first."""
        state = self.start
        yield self.decision(state)
        for idx in word:
            state = self.step(state, idx)
            yield self.decision(state)

    def stop(self, seq: SeqSpec) -> tuple[int, str]:
        """Least k whose window of ``seq`` is sufficient, and the decision it forces."""
        _require_same_alphabet(self.alphabet, seq.alphabet)
        for k, got in enumerate(self.decisions(map(seq.at, itertools.count(1)))):
            if got is not None:
                return k, got
        raise AssertionError("unreachable: every run is decided within the bound")

    def decided(self, word: Word) -> str | None:
        """Decision forced by ``word``, or None if it is not sufficient."""
        *_, last = self.decisions(word)
        return last

    @cached_property
    def outcomes(self) -> dict[Outcome, Word]:
        """First minimal sufficient segment of each (symbol set, decision) pair.

        One breadth-first search over (open state, set of the symbols read)
        visits each node once, by its first word in length-then-
        lexicographic order, so each pair's segment is its first in
        ``segments``' order, and the pairs come in that order.  Each pair is
        found at a child of a node, so past ``WINDOW_CAP`` nodes times symbols
        it raises ``ResourceLimit``.
        """
        got = self.decision(self.start)
        if got is not None:
            return {(frozenset(), got): ()}
        outcomes: dict[Outcome, Word] = {}
        order: list[tuple[str, frozenset[str]]] = [(self.start, frozenset())]
        words = {order[0]: ()}
        for node in order:
            for i, name in enumerate(self.alphabet):
                child = (self.step(node[0], i), node[1] | {name})
                got = self.decision(child[0])
                if got is not None:
                    outcomes.setdefault((child[1], got), words[node] + (i,))
                elif child not in words:
                    words[child] = words[node] + (i,)
                    order.append(child)
            if len(order) * len(self.alphabet) > WINDOW_CAP:
                raise ResourceLimit(
                    f"{len(order)} (state, symbol set) nodes times {len(self.alphabet)} symbols",
                    WINDOW_CAP,
                )
        return outcomes

    @cached_property
    def decisive(self) -> DecisiveSet:
        """Read off ``outcomes``: each witness is the first minimal sufficient
        segment that holds its symbol and decides otherwise."""
        witnesses: dict[str, tuple[str, str]] = {}
        for (sset, dec), word in self.outcomes.items():
            for name in sset - witnesses.keys() - {dec}:
                witnesses[name] = (_word_text(self.alphabet, word), dec)
        complement = tuple(s for s in self.alphabet if s in witnesses)
        decisive = tuple(s for s in self.alphabet if s not in witnesses)
        return DecisiveSet(decisive, complement, {s: witnesses[s] for s in complement})

    def segments(self, root, pieces: Iterable) -> Iterator[tuple[Word | str, str]]:
        """Label and decision of each minimal sufficient segment, breadth first,
        lexicographic within a length; they are counted first, and past
        ``WINDOW_CAP`` none is listed.  A label is ``root`` plus the piece of
        each symbol read (``(i,)`` pieces give the word, escaped names its JSON
        text), one concatenation onto its open parent's, which carries its state."""
        opened = self.open_states
        count = opened[self.start].segments if opened else 1
        if count > WINDOW_CAP:
            raise ResourceLimit(f"{count} minimal sufficient segments", WINDOW_CAP)
        step, decision, indexed = self.step, self.decision, list(enumerate(pieces))
        frontier = [(root, self.start)]
        while frontier:
            nxt = []
            for label, state in frontier:
                got = decision(state)
                if got is None:
                    nxt += [(label + piece, step(state, i)) for i, piece in indexed]
                else:
                    yield label, got
            frontier = nxt

    @cached_property
    def open_states(self) -> dict[str, OpenState]:
        """Every reachable open state, breadth first, with what lies below it.

        After one breadth-first pass for shortest words, one pass in the
        peel's order, successors first, gives each its decisions and its
        count of minimal sufficient continuations.
        """
        n = len(self.alphabet)
        if self.decision(self.start) is not None:
            return {}
        words: dict[str, Word] = {self.start: ()}
        order = [self.start]
        for q in order:
            for i in range(n):
                r = self.step(q, i)
                if r not in words and self.decision(r) is None:
                    words[r] = words[q] + (i,)
                    order.append(r)
        below: dict[str, tuple[dict[str, int], int]] = {}
        for q in self.peel:
            if q not in words:
                continue
            toward, segments = {}, 0
            for i in range(n):
                r = self.step(q, i)
                if r in words:
                    for d in below[r][0]:
                        toward.setdefault(d, i)
                    segments += below[r][1]
                else:
                    toward.setdefault(self.decision(r), i)
                    segments += 1
            below[q] = (toward, segments)
        return {q: OpenState(words[q], *below[q]) for q in order}

    def reach(self, state: str) -> AbstractSet[str]:
        """Decisions that some continuation from a reachable ``state`` forces."""
        got = self.decision(state)
        return {got} if got is not None else self.open_states[state].toward.keys()

    def path_to(self, state: str, decision: str) -> Word:
        """Word from a reachable ``state`` that forces ``decision``, by ``toward`` symbols."""
        word: list[int] = []
        while self.decision(state) is None:
            i = self.open_states[state].toward[decision]
            word.append(i)
            state = self.step(state, i)
        return tuple(word)

    def advance(self, state: str, word: Iterable[int]) -> str:
        """State after ``word`` from ``state``, held still once it is decided."""
        for i in word:
            if self.decision(state) is not None:
                break
            state = self.step(state, i)
        return state


def uniform_bound_search(rule: RuleHandle) -> int:
    """Least K such that every length-K window already forces the decision:
    one past the longest run through open states."""
    return rule.facts.bound


def stopping_time(rule: RuleHandle, seq: SeqSpec) -> int:
    """Least k whose window of ``seq`` is sufficient."""
    return rule.facts.stop(seq)[0]


def enumerate_minimal_sufficient(rule: RuleHandle) -> Iterator[tuple[Segment, str]]:
    """Segments where sufficiency first becomes true, with their decisions.

    Exactly the minimal sufficient segments: the parent of each emitted
    segment was open, and sufficiency is monotone under extension.
    Breadth-first, lexicographic within a length.
    """
    for word, dec in rule.facts.segments((), [(i,) for i in range(len(rule.alphabet))]):
        yield Segment(rule.alphabet, word), dec


def sufficiency_of(rule: RuleHandle, seg: Segment) -> Sufficiency:
    """Sufficiency verdict for one segment under any rule handle."""
    decs = list(rule.facts.decisions(seg.word))
    got = decs[-1]
    if got is None:
        return Sufficiency(NOT_SUFFICIENT, None)
    if len(decs) > 1 and decs[-2] is not None:
        return Sufficiency(SUFFICIENT, got)
    return Sufficiency(MINIMAL_SUFFICIENT, got)


def tabulate_automaton(rule: RuleHandle) -> DecisionAutomaton:
    """The automaton every analysis of the rule runs on: a given automaton as it
    is, and for a black box the constructive per-instance bridge from its runs
    to an automaton."""
    return rule.facts.automaton if rule.automaton is None else rule.automaton


@dataclass(frozen=True)
class DecisiveSet:
    """Symbols chosen by every minimal sufficient segment containing them.

    For each non-decisive symbol the witnesses map holds a minimal
    sufficient segment that contains it but picks something else.
    """

    decisive: tuple[str, ...]
    complement: tuple[str, ...]
    witnesses: Mapping[str, tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "witnesses", dict(self.witnesses))


def decisive_set(rule: RuleHandle) -> DecisiveSet:
    """The rule's ``Facts.decisive``, built once per facts."""
    return rule.facts.decisive


def _non_decisive_outcomes(rule: RuleHandle) -> tuple[DecisiveSet, dict[Outcome, Word]]:
    """The decisive set, and the ``outcomes`` whose symbols are all non-decisive."""
    dset = rule.facts.decisive
    return dset, {o: w for o, w in rule.facts.outcomes.items() if o[0].isdisjoint(dset.decisive)}


@dataclass(frozen=True)
class AxiomReport:
    """Verdict for one axiom: pass, or fail with a replayable witness."""

    axiom: str
    passed: bool
    witness: dict | None
    checked: int
    horizon: int
    details: dict | None = None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        doc = {
            "axiom": self.axiom,
            "verdict": self.verdict,
            "witness": self.witness,
            "checked": self.checked,
            "horizon": self.horizon,
        }
        if self.details is not None:
            doc["details"] = self.details
        return doc


def _word_text(alphabet: Alphabet, word: Word) -> str:
    return " ".join(map(alphabet.symbols.__getitem__, word))


def _closure_text(alphabet: Alphabet, word: Word, cyc: int | None = None) -> str:
    """``word`` closed by repeating ``cyc``, by default its last symbol."""
    if cyc is None:
        cyc = word[-1] if word else 0
    return f"{_word_text(alphabet, word)}|{alphabet.name(cyc)}"


def _search(
    sources: Iterable[tuple[Hashable, tuple]],
    successors: Callable[[tuple], Iterable[tuple[Hashable, tuple]]],
    verdict: Callable[[tuple], bool | None],
) -> tuple[tuple[Hashable, tuple, tuple] | None, int]:
    """Breadth-first search from labelled ``sources`` for a failing node.

    ``sources`` are (label, node) pairs and ``successors`` gives (step,
    child) pairs, a step being the symbol or symbols read.  ``verdict`` is
    True where the search fails, False where it drops a node and None where
    it goes on.  Returns the failing node's source label, the steps taken
    since and the node, or None; and the number of transitions taken.
    """
    parent: dict[tuple, tuple] = {}
    checked = 0
    # None stands for a root whose children are the sources
    layer: list[tuple | None] = [None]
    while layer:
        frontier = []
        for node in layer:
            for step, child in sources if node is None else successors(node):
                checked += node is not None
                if child in parent:
                    continue
                parent[child] = (node, step)
                got = verdict(child)
                if got:
                    word = []
                    while node is not None:
                        word.append(step)
                        node, step = parent[node]
                    return (step, tuple(reversed(word)), child), checked
                if got is None:
                    frontier.append(child)
        layer = frontier
    return None, checked


def check_monotonicity(rule: RuleHandle) -> AxiomReport:
    """Moving the chosen symbol earlier must not change the choice.

    What follows a prefix depends only on its state, so each reachable open
    state q is taken once, with its shortest word.  After q a shift reads
    b a on the original and a b on the copy, legal if the original decides
    a, and a deletion reads e on the original only, legal if it does not
    decide e.  One search over (original, copy, move) from all of them then
    reads common symbols.  It drops a node once no legal decision of the
    original can differ from one of the copy's, by ``open_states.toward``,
    and fails where both are decided and differ.  ``checked`` counts
    transitions on common symbols; the witness has the shortest common
    suffix, and both its texts are closed by the original's last symbol.
    """
    facts = rule.facts
    n = len(rule.alphabet)

    def verdict(node: tuple) -> bool | None:
        orig, copy, kind, name = node
        legal = facts.reach(orig) & {name} if kind == "shift" else facts.reach(orig) - {name}
        if orig == copy or not legal or len(legal) == 1 and legal == facts.reach(copy):
            return False
        return None if facts.decision(orig) is None or facts.decision(copy) is None else True

    moves = [((e,), (), "deletion", e) for e in range(n)]
    moves += [((b, a), (a, b), "shift", a) for a in range(n) for b in range(n) if b != a]
    found, checked = _search(
        [
            ((q, ours, theirs),
             (facts.advance(q, ours), facts.advance(q, theirs), kind, rule.alphabet.name(sym)))
            for q in facts.open_states
            for ours, theirs, kind, sym in moves
        ],
        lambda node: [
            (i, (facts.advance(node[0], (i,)), facts.advance(node[1], (i,)), *node[2:]))
            for i in range(n)
        ],
        verdict,
    )
    if found is None:
        return AxiomReport("monotonicity", True, None, checked, facts.bound)
    (q, ours, theirs), common, (orig, copy, kind, _) = found
    word = facts.open_states[q].word
    original = word + ours + common
    witness = {
        "sequence": _closure_text(rule.alphabet, original),
        "decision": facts.decision(orig),
        "transform": kind,
        "position": len(word) + 1,
        "transformed": _closure_text(rule.alphabet, word + theirs + common, original[-1]),
        "transformed_decision": facts.decision(copy),
    }
    return AxiomReport("monotonicity", False, witness, checked, facts.bound)


def check_informational_dominance(rule: RuleHandle) -> AxiomReport:
    """A sufficient segment avoiding x blocks x after any strict truncation.

    A strict truncation of a minimal sufficient segment deciding d is an
    open state q from which d is still reachable, and a sufficient segment
    avoiding d is a word over the other symbols that takes the start state
    to a decided state.  So, for each decision d, one breadth-first search
    over state pairs starts from (q, start) for every such q at once and
    reads one symbol other than d per step while the second component is
    open.  The rule fails where the second component is decided and d is
    still reachable from the first; pairs from which d is out of reach are
    dropped, since reachable decisions only shrink along a run.

    Decisions are searched in alphabet order, other outputs after them by
    name, so the witness has the shortest blocking segment for the first
    failing decision.  ``checked`` counts product transitions.
    """
    facts = rule.facts
    opened = facts.open_states
    outputs = opened[facts.start].toward if opened else {}
    decisions = [s for s in rule.alphabet if s in outputs]
    decisions += sorted(o for o in outputs if o not in rule.alphabet)
    checked = 0
    for d in decisions:
        others = [i for i, name in enumerate(rule.alphabet) if name != d]

        def verdict(pair: tuple) -> bool | None:
            if d not in facts.reach(pair[0]):
                return False
            return True if facts.decision(pair[1]) is not None else None

        found, count = _search(
            [(q, (q, facts.start)) for q, state in opened.items() if d in state.toward],
            lambda pair: [
                (i, (facts.step(pair[0], i), facts.step(pair[1], i))) for i in others
            ],
            verdict,
        )
        checked += count
        if found is not None:
            q, blocking, (composite_state, _) = found
            cut_word = opened[q].word
            witness = {
                "minimal_sufficient": _word_text(rule.alphabet, cut_word + facts.path_to(q, d)),
                "decision": d,
                "sufficient": _word_text(rule.alphabet, blocking),
                "truncation": len(cut_word),
                "composite": _closure_text(
                    rule.alphabet, cut_word + blocking + facts.path_to(composite_state, d)
                ),
                "composite_decision": d,
            }
            return AxiomReport("informational-dominance", False, witness, checked, facts.bound)
    return AxiomReport("informational-dominance", True, None, checked, facts.bound)


def check_replacement(rule: RuleHandle) -> AxiomReport:
    """Swapping one non-decisive symbol for another keeps sufficiency.

    One search over (original, copy, replaced yet) reads non-decisive
    symbols, the copy another one than the original at one position.  It
    drops a replaced node whose copy is decided and fails where the original
    is decided, at a minimal sufficient segment, with the copy still open;
    ``path_to`` extends the copy toward the first two decisions it can
    reach.  ``checked`` counts product transitions.
    """
    facts = rule.facts
    alphabet = rule.alphabet
    others = [alphabet.index(name) for name in facts.decisive.complement]

    def verdict(node: tuple) -> bool | None:
        orig, copy, replaced = node
        if replaced and facts.decision(copy) is not None:
            return False
        return replaced if facts.decision(orig) is not None else None

    found, checked = _search(
        [(None, (facts.start, facts.start, False))],
        lambda node: [
            ((i, j), (facts.step(node[0], i), facts.step(node[1], j), node[2] or i != j))
            for i in others
            for j in ((i,) if node[2] else others)
        ],
        verdict,
    )
    if found is None:
        return AxiomReport("replacement", True, None, checked, facts.bound)
    _, steps, (_, copy, _) = found
    segment, replaced = tuple(i for i, _ in steps), tuple(j for _, j in steps)
    pos = next(p for p, (i, j) in enumerate(steps, 1) if i != j)
    dec_a, dec_b = list(facts.open_states[copy].toward)[:2]
    witness = {
        "segment": _word_text(alphabet, segment),
        "position": pos,
        "replacement": alphabet.name(replaced[pos - 1]),
        "replaced": _word_text(alphabet, replaced),
        "extension_a": _closure_text(alphabet, replaced + facts.path_to(copy, dec_a)),
        "decision_a": dec_a,
        "extension_b": _closure_text(alphabet, replaced + facts.path_to(copy, dec_b)),
        "decision_b": dec_b,
    }
    return AxiomReport("replacement", False, witness, checked, facts.bound)


def check_sequential_alpha(rule: RuleHandle) -> AxiomReport:
    """Shrinking the support of a non-decisive choice cannot flip it.

    It compares the (set, decision) classes of ``Facts.outcomes`` pairwise,
    each by its first segment, in their order; past ``WINDOW_CAP`` pairs it
    raises ``ResourceLimit``.  ``checked`` counts the pairs whose second set
    holds the first and whose second decision is in the first set.
    """
    k = rule.facts.bound
    _, pool = _non_decisive_outcomes(rule)
    if len(pool) ** 2 > WINDOW_CAP:
        raise ResourceLimit(f"{len(pool)}^2 pairs of (symbol set, decision) classes", WINDOW_CAP)
    checked = 0
    for m_set, m_dec in pool:
        for p_set, p_dec in pool:
            if m_set <= p_set and p_dec in m_set:
                checked += 1
                if p_dec != m_dec:
                    witness = {
                        "segment_m": _word_text(rule.alphabet, pool[m_set, m_dec]),
                        "decision_m": m_dec,
                        "segment_m_prime": _word_text(rule.alphabet, pool[p_set, p_dec]),
                        "decision_m_prime": p_dec,
                    }
                    return AxiomReport("sequential-alpha", False, witness, checked, k)
    return AxiomReport("sequential-alpha", True, None, checked, k)


def check_snbc(rule: RuleHandle) -> AxiomReport:
    """No cycles across two-symbol minimal sufficient segments.

    For each ordered triple x, y, z of non-decisive symbols it looks up, in
    ``Facts.outcomes``, classes of {x, y} deciding x, of {y, z} deciding y
    and of {x, z} deciding z.  ``checked`` counts the triples whose first
    two classes exist.
    """
    k = rule.facts.bound
    dset, pool = _non_decisive_outcomes(rule)
    checked = 0
    for x, y, z in itertools.permutations(sorted(dset.complement), 3):
        xy, yz, xz = (pool.get((frozenset(pair), pair[0])) for pair in ((x, y), (y, z), (z, x)))
        if xy is None or yz is None:
            continue
        checked += 1
        if xz is not None:
            witness = {
                "x": x, "y": y, "z": z,
                "segment_xy": _word_text(rule.alphabet, xy),
                "segment_yz": _word_text(rule.alphabet, yz),
                "segment_xz": _word_text(rule.alphabet, xz),
                "decisions": [x, y, z],
            }
            return AxiomReport("sequential-nbc", False, witness, checked, k)
    return AxiomReport("sequential-nbc", True, None, checked, k)


def _require_choice_rule(rule: RuleHandle, *, in_window: bool) -> None:
    """Every decision must be an alternative and, with ``in_window``, occur in
    its nonempty window.  A window extends a minimal segment with its
    decision, and a segment without it extends to a window without it, so
    ``Facts.outcomes`` is read, and its first offending segment named."""
    for (sset, dec), word in rule.facts.outcomes.items():
        text = _word_text(rule.alphabet, word)
        if dec not in rule.alphabet:
            raise NotAChoiceRule(f"decision {dec!r} after {text!r} is not an alternative")
        if in_window and word and dec not in sset:
            raise NotAChoiceRule(f"decision {dec!r} does not occur in its segment {text!r}")


def check_neutrality(rule: RuleHandle) -> AxiomReport:
    """Relabeling the alternatives must relabel the choice the same way.

    Swaps of adjacent alternatives generate every relabeling, and a rule
    that commutes with two commutes with their product.  So each adjacent
    swap in turn gets one :func:`_disagreement` search of the rule against
    itself; the witness is the first failing swap's shortest word, closed by
    its last symbol.  ``checked`` counts product transitions.
    """
    _require_choice_rule(rule, in_window=False)
    facts, alphabet = rule.facts, rule.alphabet
    checked = 0
    for j in range(len(alphabet) - 1):
        sigma = Relabeling(alphabet, (*range(j), j + 1, j, *range(j + 2, len(alphabet))))
        found, count = _disagreement(facts, facts, sigma.mapping, sigma.apply_name)
        checked += count
        if found is not None:
            word, decision, relabeled = found
            seq = _closure(alphabet, word, word[-1] if word else 0)
            witness = {
                "sequence": seq.text(),
                "decision": decision,
                "sigma": sigma.as_dict(),
                "relabeled": relabel(seq, sigma).text(),
                "relabeled_decision": relabeled,
                "expected": sigma.apply_name(decision),
            }
            return AxiomReport("neutrality", False, witness, checked, facts.bound)
    return AxiomReport("neutrality", True, None, checked, facts.bound)


def _config_text(word: Word, idx: int) -> str:
    """Occupancy pattern of symbol ``idx`` in ``word``, as bits."""
    return "".join("1" if w == idx else "0" for w in word)


def check_acyclicity(rule: RuleHandle) -> AxiomReport:
    """The revealed order over window configurations must have no cycles.

    Every window reveals the winner's occupancy pattern as preferred to the
    pattern of each other occurring symbol.  Pass emits a topological order
    of the revealed graph (one linear extension); Fail returns the shortest
    cycle with one witness sequence per edge.
    """
    _require_choice_rule(rule, in_window=True)
    facts = rule.facts
    k, n = facts.bound, len(rule.alphabet)
    _require_windows(rule.alphabet, k)
    # every window of length k in lexicographic order, with its state
    windows: list[tuple[Word, str]] = [((), facts.start)]
    for _ in range(k):
        windows = [(w + (i,), facts.step(q, i)) for w, q in windows for i in range(n)]
    edges: dict[tuple[str, str], dict] = {}
    checked = 0
    for word, state in windows:
        if not word:
            continue
        winner = rule.alphabet.index(facts.decision(state))  # type: ignore[arg-type]
        win_cfg = _config_text(word, winner)
        for other in sorted(set(word)):
            if other == winner:
                continue
            lose_cfg = _config_text(word, other)
            checked += 1
            if (win_cfg, lose_cfg) not in edges:
                edges[win_cfg, lose_cfg] = {
                    "winner_config": win_cfg,
                    "loser_config": lose_cfg,
                    "sequence": _closure_text(rule.alphabet, word),
                    "winner": rule.alphabet.name(winner),
                    "loser": rule.alphabet.name(other),
                }
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    for out in succ.values():
        out.sort()
    cycle = _shortest_cycle(succ)
    if cycle is not None:
        witness_edges = [edges[e] for e in zip(cycle, cycle[1:] + cycle[:1])]
        witness = {"cycle": list(cycle), "edges": witness_edges}
        return AxiomReport("acyclicity", False, witness, checked, k)
    order = _topological_order(succ)
    return AxiomReport("acyclicity", True, None, checked, k, details={"configuration_order": order})


def _shortest_cycle(succ: dict[str, list[str]]) -> tuple[str, ...] | None:
    """Shortest directed cycle, first by length then by start node order."""
    best: tuple[str, ...] | None = None
    for start in sorted(succ):
        back: dict[str, str | None] = {start: None}
        queue = [start]
        for node in queue:  # breadth first: the queue grows as it is read
            if start in succ[node]:
                path = [node]
                while back[path[-1]] is not None:
                    path.append(back[path[-1]])  # type: ignore[arg-type]
                if best is None or len(path) < len(best):
                    best = tuple(reversed(path))
                break
            for child in succ[node]:
                if child not in back:
                    back[child] = node
                    queue.append(child)
    return best


def _topological_order(succ: dict[str, list[str]]) -> list[str]:
    """Kahn's algorithm, best-ranked first, deterministic by node name."""
    indeg = collections.Counter(child for out in succ.values() for child in out)
    ready = sorted(node for node in succ if not indeg[node])
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for child in succ[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                ready.append(child)
        ready.sort()
    return order


class Identification(NamedTuple):
    """A recovered rule and the product transitions that verified it."""

    spec: RuleSpec
    checked: int


def identify_csr(rule: RuleHandle) -> Identification:
    """Recover score-threshold parameters from black-box behavior.

    The critical count of each symbol is its stopping time on the constant
    sequence; unit threshold and reciprocal weights reproduce the rule.
    Agreement is verified by :func:`agreement_count` before returning.
    """
    spec = CsrSpec(
        rule.alphabet,
        {
            name: Fraction(1, max(stopping_time(rule, constant(rule.alphabet, name)), 1))
            for name in rule.alphabet
        },
        Fraction(1),
    )
    return Identification(spec, agreement_count(rule, spec))


def identify_osr(rule: RuleHandle) -> Identification:
    """Recover ranked-threshold parameters from black-box behavior.

    The span is the uniform bound; decisive symbols rank above the rest in
    alphabet order (the data cannot order them further), the rest are
    ranked by how many others they beat, a symbol beating the others of
    every minimal sufficient segment over non-decisive symbols that it
    decides (read from the (set, decision) pairs of ``Facts.outcomes``),
    and the threshold alternative is the best-ranked non-decisive symbol.
    Agreement is verified by :func:`agreement_count` before returning.
    """
    span = max(rule.facts.bound, 1)
    dset, pool = _non_decisive_outcomes(rule)
    dprime = list(dset.complement)
    beaten: dict[str, set[str]] = {name: set() for name in dprime}
    for sset, dec in pool:
        if dec in beaten:
            beaten[dec] |= sset - {dec}
    ranked = sorted(dprime, key=lambda s: (-len(beaten[s]), rule.alphabet.index(s)))
    order = tuple(dset.decisive) + tuple(ranked)
    threshold_alt = ranked[0] if ranked else order[-1]
    spec = OsrSpec(rule.alphabet, order, threshold_alt, span)
    return Identification(spec, agreement_count(rule, spec))


def _disagreement(
    ours: Facts, theirs: Facts, perm: Word, rename: Callable[[str], str]
) -> tuple[tuple[Word, str, str] | None, int]:
    """A shortest word w on which ``theirs``, reading each symbol i of w as
    ``perm[i]``, does not decide ``rename`` of what ``ours`` decides on w.

    A breadth-first search over pairs of states, each held still once
    decided, ends a branch where both are decided.  Returns w with both
    decisions, or None; and the number of product transitions.
    """

    def verdict(pair: tuple) -> bool | None:
        got, want = ours.decision(pair[0]), theirs.decision(pair[1])
        return None if got is None or want is None else rename(got) != want

    found, checked = _search(
        [(None, (ours.start, theirs.start))],
        lambda pair: [
            (i, (ours.advance(pair[0], (i,)), theirs.advance(pair[1], (perm[i],))))
            for i in range(len(perm))
        ],
        verdict,
    )
    if found is None:
        return None, checked
    _, word, (mine, other) = found
    return (word, ours.decision(mine), theirs.decision(other)), checked


def agreement_count(rule: RuleHandle, spec: RuleSpec) -> int:
    """Check that ``spec`` decides every sequence as the rule does.

    :func:`_disagreement` of the rule's facts and of ``spec`` compiled gives
    a shortest disagreeing word, closed by its last symbol and raised with
    NotCsr or NotOsr.  A black box is read through its tabulated automaton,
    never evaluated again.  Returns the number of product transitions.
    """
    error_cls = {CsrSpec: NotCsr, OsrSpec: NotOsr}.get(type(spec))
    if error_cls is None:
        raise SeqdecError(f"no agreement check for {type(spec).__name__}")
    # no relabeling: the identity on symbols, and ``str`` on decisions
    found, checked = _disagreement(
        rule.facts, RuleHandle.from_rule(spec).facts, tuple(range(len(rule.alphabet))), str
    )
    if found is not None:
        word, mine, other = found
        seq = _closure(rule.alphabet, word, word[-1] if word else 0)
        raise error_cls(
            f"recovered rule disagrees on {seq.text()!r} ({mine!r} vs {other!r})",
            sequence=seq,
        )
    return checked


def replay_witness(rule: RuleHandle, report: AxiomReport) -> bool:
    """Re-derive a Fail witness from its recorded texts, bit for bit."""
    if report.passed or report.witness is None:
        return False
    w = report.witness
    alphabet = rule.alphabet
    if report.axiom == "monotonicity":
        seq = alphabet.sequence(w["sequence"])
        moved = alphabet.sequence(w["transformed"])
        if w["transform"] == "shift":
            from .core import favorable_shift

            ok_shape = favorable_shift(seq, w["position"]) == moved
            ok_favorable = seq.symbol_at(w["position"] + 1) == w["decision"]
        else:
            from .core import favorable_deletion

            ok_shape = favorable_deletion(seq, w["position"]) == moved
            ok_favorable = seq.symbol_at(w["position"]) != w["decision"]
        return (
            ok_shape
            and ok_favorable
            and rule.decide(seq) == w["decision"]
            and rule.decide(moved) == w["transformed_decision"]
            and w["transformed_decision"] != w["decision"]
        )
    if report.axiom == "informational-dominance":
        m_seg = alphabet.segment(w["minimal_sufficient"])
        n_seg = alphabet.segment(w["sufficient"])
        composite = alphabet.sequence(w["composite"])
        cut = w["truncation"]
        prefix_ok = composite.window(cut + len(n_seg)) == m_seg.word[:cut] + n_seg.word
        return (
            prefix_ok
            and cut < len(m_seg)
            and w["decision"] not in n_seg.symbol_set()
            and sufficiency_of(rule, m_seg).status == MINIMAL_SUFFICIENT
            and sufficiency_of(rule, n_seg).is_sufficient
            and rule.decide(composite) == w["decision"]
        )
    if report.axiom == "replacement":
        seg = alphabet.segment(w["segment"])
        replaced = alphabet.segment(w["replaced"])
        pos = w["position"]
        shape_ok = (
            replaced.word[: pos - 1] == seg.word[: pos - 1]
            and replaced.word[pos:] == seg.word[pos:]
            and replaced.word[pos - 1] == alphabet.index(w["replacement"])
        )
        ext_a = alphabet.sequence(w["extension_a"])
        ext_b = alphabet.sequence(w["extension_b"])
        extends = ext_a.window(len(replaced)) == tuple(replaced.word) and ext_b.window(
            len(replaced)
        ) == tuple(replaced.word)
        return (
            shape_ok
            and extends
            and sufficiency_of(rule, seg).status == MINIMAL_SUFFICIENT
            and rule.decide(ext_a) == w["decision_a"]
            and rule.decide(ext_b) == w["decision_b"]
            and w["decision_a"] != w["decision_b"]
        )
    if report.axiom == "sequential-alpha":
        m_seg = alphabet.segment(w["segment_m"])
        p_seg = alphabet.segment(w["segment_m_prime"])
        m_s = sufficiency_of(rule, m_seg)
        p_s = sufficiency_of(rule, p_seg)
        return (
            m_s.status == MINIMAL_SUFFICIENT
            and p_s.status == MINIMAL_SUFFICIENT
            and m_s.decision == w["decision_m"]
            and p_s.decision == w["decision_m_prime"]
            and m_seg.symbol_set() <= p_seg.symbol_set()
            and w["decision_m_prime"] in m_seg.symbol_set()
            and w["decision_m"] != w["decision_m_prime"]
        )
    if report.axiom == "sequential-nbc":
        segs = [
            alphabet.segment(w[key]) for key in ("segment_xy", "segment_yz", "segment_xz")
        ]
        suffs = [sufficiency_of(rule, seg) for seg in segs]
        sets_ok = (
            segs[0].symbol_set() == {w["x"], w["y"]}
            and segs[1].symbol_set() == {w["y"], w["z"]}
            and segs[2].symbol_set() == {w["x"], w["z"]}
        )
        return (
            sets_ok
            and all(s.status == MINIMAL_SUFFICIENT for s in suffs)
            and suffs[0].decision == w["x"]
            and suffs[1].decision == w["y"]
            and suffs[2].decision == w["z"]
        )
    if report.axiom == "neutrality":
        seq = alphabet.sequence(w["sequence"])
        sigma = Relabeling.from_names(alphabet, w["sigma"])
        moved = alphabet.sequence(w["relabeled"])
        return (
            relabel(seq, sigma) == moved
            and rule.decide(seq) == w["decision"]
            and rule.decide(moved) == w["relabeled_decision"]
            and sigma.apply_name(w["decision"]) == w["expected"]
            and w["relabeled_decision"] != w["expected"]
        )
    if report.axiom == "acyclicity":
        cycle = w["cycle"]
        edges = w["edges"]
        if len(edges) != len(cycle) or len(cycle) < 2:
            return False
        for edge, configs in zip(edges, zip(cycle, cycle[1:] + cycle[:1])):
            if (edge["winner_config"], edge["loser_config"]) != configs:
                return False
            seq = alphabet.sequence(edge["sequence"])
            window = seq.window(rule.facts.bound)
            bits = tuple(_config_text(window, alphabet.index(edge[key])) for key in ("winner", "loser"))
            if bits != configs or rule.decide(seq) != edge["winner"]:
                return False
        return True
    raise SeqdecError(f"unknown axiom {report.axiom!r}")


CHECKERS: dict[str, Callable[[RuleHandle], AxiomReport]] = {
    "monotonicity": check_monotonicity,
    "informational-dominance": check_informational_dominance,
    "replacement": check_replacement,
    "sequential-alpha": check_sequential_alpha,
    "sequential-nbc": check_snbc,
    "neutrality": check_neutrality,
    "acyclicity": check_acyclicity,
}

SUITES: dict[str, tuple[str, ...]] = {
    "csr": ("monotonicity", "informational-dominance"),
    "osr": ("replacement", "sequential-alpha", "sequential-nbc"),
    "config": ("neutrality", "acyclicity"),
    "all": tuple(CHECKERS),
}


def run_suite(rule: RuleHandle, suite: str) -> list[AxiomReport]:
    """Run a named checker suite in its declared order."""
    if suite not in SUITES:
        raise SeqdecError(f"unknown suite {suite!r}, expected one of {sorted(SUITES)}")
    return [CHECKERS[name](rule) for name in SUITES[suite]]
