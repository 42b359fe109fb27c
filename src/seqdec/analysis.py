"""Rule-agnostic stopping analysis, axiom checking, and identification.

Everything here works against a :class:`RuleHandle`, either an automaton or
a black box that tabulates itself into one: a pure evaluator with a
declared horizon H as the prefix tree of its windows, a budgeted machine by
one walk of its run tree (``TmRuns.tabulate``).  A declared horizon is
checked against the automaton's uniform bound.  One peel of the automaton
gives every state's decision, a terminal's output or the one the peel
forces, and the one stopping verdict: the uniform bound K, one past the
longest run through open states, or an input on which the rule never
decides.

Every walk reads the automaton's rows, and every walk for shortest words
is one breadth-first :func:`~seqdec.automaton.search`, whose parent map
gives each node's word by :func:`~seqdec.automaton.path`, so nodes keep
pointers, not words.  Stopping questions walk at most K states along the
input.  The open states' shortest words are the automaton's ``reach``; one
pass over them in the peel's order gives each state's reachable decisions
and the number of minimal sufficient segments, which only ``analyze``
lists, under ``WINDOW_CAP``, one open word at a time, each open state's
children found once.  The decisive set, two of the OSR axioms, the
choice-rule check and ``identify_osr``'s ranking ask only which symbol sets
occur with which decision: one search over (state, symbols read), under
``WINDOW_CAP`` open nodes times symbols.  Monotonicity, informational
dominance, replacement, neutrality and the agreement check of
identification search products of states; the last two share one search
over a pair of automata, each held still once decided, the second reading a
relabeled input.  Only acyclicity lists all |alphabet|^K windows, as its
graph over occupancy patterns is as large, and past ``WINDOW_CAP`` windows
it raises :class:`ResourceLimit`; its shortest cycle is one search per
start.

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
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple

from .core import (
    WINDOW_CAP, Alphabet, Relabeling, ResourceLimit, Segment, SeqSpec, SeqdecError,
    ValidationError, _require_same_alphabet, _require_windows, constant, favorable_deletion,
    favorable_shift, relabel,
)
# NonStoppingRuleError is raised by the stopping verdict; analyses re-export it
from .automaton import (
    MINIMAL_SUFFICIENT, NOT_SUFFICIENT, SUFFICIENT, DecisionAutomaton, NonStoppingRuleError,
    Sufficiency, path, search,
)
from . import heuristics
from .machines import TmRuns, TwoTapeTm
from .heuristics import CsrSpec, OsrSpec, RuleSpec

Word = tuple[int, ...]
# a minimal sufficient segment's symbol set and decision
Outcome = tuple[frozenset[str], str]

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
    """A plain evaluator with a declared horizon H, as the black box of its windows.

    ``close(seq)`` gives the decision on ``seq``.  The evaluator decides at
    depth H if a window's single-symbol closures agree, so it tabulates as
    the prefix tree of its windows, as a config rule does.
    """

    decide: Callable[[SeqSpec], str]
    alphabet: Alphabet
    horizon: int

    def close(self, seq: SeqSpec) -> tuple[None, str]:
        return None, self.decide(seq)

    def tabulate(self) -> DecisionAutomaton:
        alphabet, h = self.alphabet, self.horizon

        def closed(word: Word) -> str:
            got = {self.decide(_closure(alphabet, word, c)) for c in range(len(alphabet))}
            if len(got) > 1:
                text = _word_text(alphabet, word)
                why = f"decisions after window {text!r} differ across closures {sorted(got)}"
                raise HorizonViolation(text, h, why)
            return got.pop()

        words = itertools.product(range(len(alphabet)), repeat=h)
        return heuristics.segment_tree_automaton(alphabet, h, map(closed, words))


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


class OpenState(NamedTuple):
    """What is known of one reachable open state.

    A shortest word reaching it, lexicographic among the shortest, is
    ``depth`` symbols long, and ``Facts.word_to`` rebuilds it from the
    automaton's ``reach``; ``toward`` maps each decision some continuation
    can still force to the least symbol that leads toward it; and
    ``segments`` counts the words from it whose last symbol is the first to
    decide.
    """

    depth: int
    toward: dict[str, int]
    segments: int


@dataclass(eq=False)
class Facts:
    """Stopping facts of one rule's decision automaton, each built on first use.

    States are the automaton's integers, and walks follow its ``rows``.
    ``decision(state)`` is a terminal's output or the decision the
    automaton's peel forces, None while the outcome is still open; every
    reachable non-terminal state is in the peel, and a decided state's
    successors are all decided.  ``bound`` is the peel's stopping verdict,
    the least K such that every length-K window forces the decision, so one
    past the deepest open word and the length of the last minimal segment.
    """

    automaton: DecisionAutomaton
    alphabet: Alphabet
    start: int
    decision: Callable[[int], str | None]
    bound: int

    @classmethod
    def of(cls, rule: RuleHandle) -> Facts:
        aut = rule.automaton or rule.runs.tabulate()  # type: ignore[union-attr]
        bound, outcome = aut.bound, list(aut.outputs)
        for q, (_, out) in aut.peel.items():
            outcome[q] = out
        facts = cls(aut, aut.alphabet, aut.start, outcome.__getitem__, bound)
        if (h := rule.horizon) is not None and bound > h:
            # the first open window: each step the least symbol whose state stays open for the rest
            state, word = aut.start, []
            for left in reversed(range(h)):
                i, state = next((i, r) for i, r in enumerate(aut.rows[state])
                                if outcome[r] is None and aut.peel[r][0] >= left)
                word.append(i)
            text = _word_text(aut.alphabet, word)
            raise HorizonViolation(text, h, f"the decision after window {text!r} is still open")
        return facts

    def decisions(self, word: Iterable[int]) -> Iterator[str | None]:
        """Decision after each prefix of ``word``, the empty prefix first."""
        rows, state = self.automaton.rows, self.start
        yield self.decision(state)
        for idx in word:
            state = rows[state][idx]
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
    def _outcome_search(self) -> tuple[dict[Outcome, tuple[int, frozenset[str]]], dict]:
        """``outcomes`` with the parent map of its search."""
        rows, decision, names = self.automaton.rows, self.decision, self.alphabet.symbols
        found: dict[Outcome, tuple[int, frozenset[str]]] = {}
        opened = 0

        def successors(node: tuple[int, frozenset[str]]) -> list:
            if opened * len(names) > WINDOW_CAP:
                what = f"{opened} (state, symbol set) nodes times {len(names)} symbols"
                raise ResourceLimit(what, WINDOW_CAP)
            state, read = node
            return [(i, (r, read | {name})) for i, (r, name) in enumerate(zip(rows[state], names))]

        def verdict(node: tuple[int, frozenset[str]]) -> bool | None:
            nonlocal opened
            if (got := decision(node[0])) is None:
                opened += 1
                return None
            found.setdefault((node[1], got), node)
            return False

        return found, search([(None, (self.start, frozenset()))], successors, verdict)[1]

    @property
    def outcomes(self) -> dict[Outcome, tuple[int, frozenset[str]]]:
        """First minimal sufficient segment of each (symbol set, decision) pair.

        One search over (state, set of the symbols read) reaches each node
        once, by its first word in length-then-lexicographic order, and goes
        on from the open ones, so each pair's segment is its first in
        ``open_words``' order, and the pairs come in that order.  Each pair
        maps to the decided node its segment reaches, which ``first_segment``
        spells out.  Past ``WINDOW_CAP`` open nodes times symbols it raises
        ``ResourceLimit``, before going on from one more node.
        """
        return self._outcome_search[0]

    def first_segment(self, outcome: Outcome) -> str:
        """The text of the first minimal sufficient segment of an ``outcomes`` pair."""
        found, parent = self._outcome_search
        return _word_text(self.alphabet, path(parent, found[outcome])[1:])

    @cached_property
    def decisive(self) -> DecisiveSet:
        """Read off ``outcomes``: each witness is the first minimal sufficient
        segment that holds its symbol and decides otherwise."""
        witnesses: dict[str, tuple[str, str]] = {}
        for sset, dec in self.outcomes:
            for name in sset - witnesses.keys() - {dec}:
                witnesses[name] = (self.first_segment((sset, dec)), dec)
        complement = tuple(s for s in self.alphabet if s in witnesses)
        decisive = tuple(s for s in self.alphabet if s not in witnesses)
        return DecisiveSet(decisive, complement, {s: witnesses[s] for s in complement})

    def open_words(self, root, pieces, plan) -> Iterator[tuple]:
        """Each open word with a decided child, breadth first, lexicographic
        within a length: its label, ``root`` plus ``pieces[i]`` per symbol i
        read, and its state's plan, ``plan`` of the state's decided children
        as (symbol, decision) pairs, built once per state with its open
        children.  The minimal sufficient segments are these children, or the
        empty word at a decided start; past ``WINDOW_CAP`` none is listed."""
        opened = self.open_states
        count = opened[self.start].segments if opened else 1
        if count > WINDOW_CAP:
            raise ResourceLimit(f"{count} minimal sufficient segments", WINDOW_CAP)
        rows, decision, plans = self.automaton.rows, self.decision, {}
        frontier = [(root, self.start)] if opened else []
        while frontier:
            nxt = []
            for label, state in frontier:
                if (known := plans.get(state)) is None:
                    row = rows[state]
                    decided = [(i, d) for i, r in enumerate(row) if (d := decision(r)) is not None]
                    more = [(pieces[i], r) for i, r in enumerate(row) if decision(r) is None]
                    known = plans[state] = (plan(decided) if decided else None, more)
                if known[0] is not None:
                    yield label, known[0]
                nxt += [(label + piece, r) for piece, r in known[1]]
            frontier = nxt

    @cached_property
    def open_states(self) -> dict[int, OpenState]:
        """Every reachable open state, breadth first, with what lies below it.

        A decided state's successors are all decided, so the automaton's
        ``reach`` enters each open state first from an open one: its parent
        map gives the open states' order and depths.  One pass in the peel's
        order, successors first, gives each its decisions and its count of
        minimal sufficient continuations.
        """
        rows, decision = self.automaton.rows, self.decision
        depth: dict[int, int] = {}
        for q, (p, _) in self.automaton.reach.items():
            if decision(q) is None:
                depth[q] = 0 if p is None else depth[p] + 1
        below: dict[int, tuple[dict[str, int], int]] = {}
        for q in self.automaton.peel:
            if q not in depth:
                continue
            toward, segments = {}, 0
            for i, r in enumerate(rows[q]):
                if r in depth:
                    for d in below[r][0]:
                        toward.setdefault(d, i)
                    segments += below[r][1]
                else:
                    toward.setdefault(decision(r), i)
                    segments += 1
            below[q] = (toward, segments)
        return {q: OpenState(d, *below[q]) for q, d in depth.items()}

    def word_to(self, state: int) -> Word:
        """The shortest word of a reachable ``state``, from the automaton's ``reach``."""
        return path(self.automaton.reach, state)[1:]

    def forcible(self, state: int) -> AbstractSet[str]:
        """Decisions that some continuation from a reachable ``state`` forces."""
        got = self.decision(state)
        return {got} if got is not None else self.open_states[state].toward.keys()

    def path_to(self, state: int, decision: str) -> Word:
        """Word from a reachable ``state`` that forces ``decision``, by ``toward`` symbols."""
        word: list[int] = []
        while self.decision(state) is None:
            i = self.open_states[state].toward[decision]
            word.append(i)
            state = self.automaton.rows[state][i]
        return tuple(word)

    @cached_property
    def held(self) -> tuple[tuple[int, ...], ...]:
        """The rows with each decided state held still: a run read on them stays
        where it first decides."""
        n = len(self.alphabet)
        return tuple(row if self.decision(q) is None else (q,) * n
                     for q, row in enumerate(self.automaton.rows))


def uniform_bound_search(rule: RuleHandle) -> int:
    """Least K such that every length-K window already forces the decision:
    one past the longest run through open states."""
    return rule.facts.bound


def stopping_time(rule: RuleHandle, seq: SeqSpec) -> int:
    """Least k whose window of ``seq`` is sufficient."""
    return rule.facts.stop(seq)[0]


def enumerate_minimal_sufficient(rule: RuleHandle) -> Iterator[tuple[Segment, str]]:
    """Segments where sufficiency first becomes true, with their decisions,
    breadth first, lexicographic within a length: exactly the minimal
    sufficient segments, as sufficiency is monotone under extension."""
    facts, alphabet = rule.facts, rule.alphabet
    if (got := facts.decision(facts.start)) is not None:
        yield Segment(alphabet, ()), got
    for word, decided in facts.open_words((), [(i,) for i in range(len(alphabet))], list):
        for i, dec in decided:
            yield Segment(alphabet, word + (i,)), dec


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


def _non_decisive_outcomes(rule: RuleHandle) -> tuple[DecisiveSet, dict[Outcome, tuple]]:
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
        doc = {"axiom": self.axiom, "verdict": self.verdict, "witness": self.witness,
               "checked": self.checked, "horizon": self.horizon}
        return doc if self.details is None else {**doc, "details": self.details}


def _word_text(alphabet: Alphabet, word: Word) -> str:
    return " ".join(map(alphabet.symbols.__getitem__, word))


def _closure_text(alphabet: Alphabet, word: Word, cyc: int | None = None) -> str:
    """``word`` closed by repeating ``cyc``, by default its last symbol."""
    if cyc is None:
        cyc = word[-1] if word else 0
    return f"{_word_text(alphabet, word)}|{alphabet.name(cyc)}"


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
    facts, held = rule.facts, rule.facts.held
    n = len(rule.alphabet)

    def advance(state: int, word: Word) -> int:
        for i in word:
            state = held[state][i]
        return state

    def successors(node: tuple) -> list:
        orig, copy, kind, name = node
        return [(i, (a, b, kind, name)) for i, (a, b) in enumerate(zip(held[orig], held[copy]))]

    def verdict(node: tuple) -> bool | None:
        orig, copy, kind, name = node
        legal = facts.forcible(orig) & {name} if kind == "shift" else facts.forcible(orig) - {name}
        if orig == copy or not legal or len(legal) == 1 and legal == facts.forcible(copy):
            return False
        return None if facts.decision(orig) is None or facts.decision(copy) is None else True

    moves = [((e,), (), "deletion", e) for e in range(n)]
    moves += [((b, a), (a, b), "shift", a) for a in range(n) for b in range(n) if b != a]
    found, parent, checked = search(
        [
            ((q, ours, theirs), (advance(q, ours), advance(q, theirs), kind, rule.alphabet.name(sym)))
            for q in facts.open_states
            for ours, theirs, kind, sym in moves
        ],
        successors,
        verdict,
    )
    if found is None:
        return AxiomReport("monotonicity", True, None, checked, facts.bound)
    steps, (orig, copy, kind, _) = path(parent, found), found
    (q, ours, theirs), common = steps[0], steps[1:]
    word = facts.word_to(q)
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
    facts, rows = rule.facts, rule.facts.automaton.rows
    opened = facts.open_states
    outputs = opened[facts.start].toward if opened else {}
    decisions = [s for s in rule.alphabet if s in outputs]
    decisions += sorted(o for o in outputs if o not in rule.alphabet)
    checked = 0
    for d in decisions:
        others = [i for i, name in enumerate(rule.alphabet) if name != d]

        def successors(pair: tuple) -> list:
            a, b = rows[pair[0]], rows[pair[1]]
            return [(i, (a[i], b[i])) for i in others]

        def verdict(pair: tuple) -> bool | None:
            if d not in facts.forcible(pair[0]):
                return False
            return True if facts.decision(pair[1]) is not None else None

        found, parent, count = search(
            [(q, (q, facts.start)) for q, state in opened.items() if d in state.toward],
            successors,
            verdict,
        )
        checked += count
        if found is not None:
            steps, composite_state = path(parent, found), found[0]
            q, blocking = steps[0], steps[1:]
            cut_word = facts.word_to(q)
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
    facts, rows = rule.facts, rule.facts.automaton.rows
    alphabet = rule.alphabet
    others = [alphabet.index(name) for name in facts.decisive.complement]

    def verdict(node: tuple) -> bool | None:
        orig, copy, replaced = node
        if replaced and facts.decision(copy) is not None:
            return False
        return replaced if facts.decision(orig) is not None else None

    found, parent, checked = search(
        [(None, (facts.start, facts.start, False))],
        lambda node: [
            ((i, j), (rows[node[0]][i], rows[node[1]][j], node[2] or i != j))
            for i in others
            for j in ((i,) if node[2] else others)
        ],
        verdict,
    )
    if found is None:
        return AxiomReport("replacement", True, None, checked, facts.bound)
    steps, copy = path(parent, found)[1:], found[1]
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
    holds the first and whose second decision is in the first set; each
    first class looks only at the classes deciding inside its set.
    """
    facts, k = rule.facts, rule.facts.bound
    _, pool = _non_decisive_outcomes(rule)
    if len(pool) ** 2 > WINDOW_CAP:
        raise ResourceLimit(f"{len(pool)}^2 pairs of (symbol set, decision) classes", WINDOW_CAP)
    classes = list(pool)
    deciding: dict[str, list[int]] = {}
    for j, (_, dec) in enumerate(classes):
        deciding.setdefault(dec, []).append(j)
    checked = 0
    for m_set, m_dec in classes:
        # the second classes in pool order: each decides in m_set, and its set holds m_set
        held = sorted(j for s in m_set for j in deciding.get(s, ()) if m_set <= classes[j][0])
        for p_set, p_dec in map(classes.__getitem__, held):
            checked += 1
            if p_dec != m_dec:
                witness = {
                    "segment_m": facts.first_segment((m_set, m_dec)),
                    "decision_m": m_dec,
                    "segment_m_prime": facts.first_segment((p_set, p_dec)),
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
    facts, k = rule.facts, rule.facts.bound
    dset, pool = _non_decisive_outcomes(rule)
    checked = 0
    for x, y, z in itertools.permutations(sorted(dset.complement), 3):
        xy, yz, xz = ((frozenset(pair), pair[0]) for pair in ((x, y), (y, z), (z, x)))
        if xy not in pool or yz not in pool:
            continue
        checked += 1
        if xz in pool:
            witness = {
                "x": x, "y": y, "z": z,
                "segment_xy": facts.first_segment(xy),
                "segment_yz": facts.first_segment(yz),
                "segment_xz": facts.first_segment(xz),
                "decisions": [x, y, z],
            }
            return AxiomReport("sequential-nbc", False, witness, checked, k)
    return AxiomReport("sequential-nbc", True, None, checked, k)


def _require_choice_rule(rule: RuleHandle, *, in_window: bool) -> None:
    """Every decision must be an alternative and, with ``in_window``, occur in
    its nonempty window.  A window extends a minimal segment with its
    decision, and a segment without it extends to a window without it, so
    ``Facts.outcomes`` is read, and only its first offending segment named."""
    for sset, dec in rule.facts.outcomes:
        if dec not in rule.alphabet:
            text = rule.facts.first_segment((sset, dec))
            raise NotAChoiceRule(f"decision {dec!r} after {text!r} is not an alternative")
        if in_window and sset and dec not in sset:
            text = rule.facts.first_segment((sset, dec))
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
    facts, rows = rule.facts, rule.facts.automaton.rows
    k = facts.bound
    _require_windows(rule.alphabet, k)
    # every window of length k in lexicographic order, with its state
    windows: list[tuple[Word, int]] = [((), facts.start)]
    for _ in range(k):
        windows = [(w + (i,), r) for w, q in windows for i, r in enumerate(rows[q])]
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
    """Shortest directed cycle, first by length then by start node order: from
    each start, the path to the first node reached with an edge back to it."""
    best: tuple[str, ...] | None = None
    for start in sorted(succ):
        found, parent, _ = search([(start, start)], lambda node: [(c, c) for c in succ[node]],
                                  lambda node: start in succ[node] or None)
        if found is not None:
            cycle = path(parent, found)
            if best is None or len(cycle) < len(best):
                best = cycle
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
    counts = {name: stopping_time(rule, constant(rule.alphabet, name)) for name in rule.alphabet}
    spec = CsrSpec(rule.alphabet, {s: Fraction(1, max(c, 1)) for s, c in counts.items()}, Fraction(1))
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

    A breadth-first search over pairs of states, each on its ``held`` rows,
    ends a branch where both are decided.  Returns w with both decisions, or
    None; and the number of product transitions.
    """

    held, their_held = ours.held, theirs.held

    def successors(pair: tuple) -> list:
        a, b = held[pair[0]], their_held[pair[1]]
        return [(i, (a[i], b[j])) for i, j in enumerate(perm)]

    def verdict(pair: tuple) -> bool | None:
        got, want = ours.decision(pair[0]), theirs.decision(pair[1])
        return None if got is None or want is None else rename(got) != want

    found, parent, checked = search([(None, (ours.start, theirs.start))], successors, verdict)
    if found is None:
        return None, checked
    mine, other = found
    return (path(parent, found)[1:], ours.decision(mine), theirs.decision(other)), checked


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
        why = f"recovered rule disagrees on {seq.text()!r} ({mine!r} vs {other!r})"
        raise error_cls(why, sequence=seq)
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
            ok_shape = favorable_shift(seq, w["position"]) == moved
            ok_favorable = seq.symbol_at(w["position"] + 1) == w["decision"]
        else:
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
        extends = ext_a.window(len(replaced)) == ext_b.window(len(replaced)) == replaced.word
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
