"""Rule-agnostic stopping analysis, axiom checking, and identification.

Everything here works against a :class:`RuleHandle`, either an automaton or
a pure black-box evaluator with a declared horizon.  Both are read as one
kind of machine: a start state, a step per symbol, and a decision per state
that is None while the outcome is open.  An automaton's states are its own;
a black box's are its windows up to the horizon, decided by a table that is
validated against every single-symbol closure while it is built, which is
how a lying horizon declaration is caught.

Stopping questions walk at most K states along the input, K being the
uniform bound.  K and the minimal sufficient segments come from one
breadth-first search that carries each open word's state.  Only the
checkers that enumerate windows build the table of all |alphabet|^K window
decisions, and past ``WINDOW_CAP`` windows they raise :class:`ResourceLimit`.

Checkers report a first counterexample in lexicographic enumeration order,
so reports are deterministic.  Every Fail witness is fully replayable from
its recorded sequence texts via :func:`replay_witness`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .core import (
    Alphabet,
    Relabeling,
    ResourceLimit,
    Segment,
    SeqSpec,
    SeqdecError,
    constant,
    relabel,
)
from .automaton import (
    MINIMAL_SUFFICIENT,
    NOT_SUFFICIENT,
    SUFFICIENT,
    DecisionAutomaton,
    Sufficiency,
    decidedness,
    evaluate,
    verify_stopping,
)
from . import heuristics
from .heuristics import (
    CsrSpec,
    OsrSpec,
    RuleSpec,
    csr_uniform_bound,
    evaluate_rule,
    segment_tree_automaton,
)

Word = tuple[int, ...]

# Most windows any table here may hold: 16 times the largest table that the
# test suite or the benchmark workloads build (65,536 windows).
WINDOW_CAP = 1 << 20


class HorizonViolation(SeqdecError):
    """Black-box decisions depend on positions beyond the declared horizon.

    This indicts the caller's horizon assertion, not the rule, which is why
    it is an error rather than a Fail verdict.
    """


class NonStoppingRuleError(SeqdecError):
    """The automaton admits an endless undecided run; analyses refuse to guess."""


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


@dataclass
class RuleHandle:
    """A decision rule under analysis: an automaton or a pure black box.

    Black-box evaluators must be pure (same input, same output); the
    declared horizon asserts that decisions depend only on the first that
    many positions.
    """

    alphabet: Alphabet
    automaton: DecisionAutomaton | None = None
    evaluator: Callable[[SeqSpec], str] | None = None
    horizon: int | None = None

    def __post_init__(self) -> None:
        if (self.automaton is None) == (self.evaluator is None):
            raise SeqdecError("exactly one of automaton or evaluator must be given")
        if self.evaluator is not None and (self.horizon is None or self.horizon < 1):
            raise SeqdecError("black-box rules need a declared horizon >= 1")

    @classmethod
    def from_automaton(cls, aut: DecisionAutomaton) -> RuleHandle:
        return cls(alphabet=aut.alphabet, automaton=aut)

    @classmethod
    def from_callable(
        cls, alphabet: Alphabet, evaluator: Callable[[SeqSpec], str], horizon: int
    ) -> RuleHandle:
        return cls(alphabet=alphabet, evaluator=evaluator, horizon=horizon)

    @classmethod
    def from_rule(cls, spec: RuleSpec) -> RuleHandle:
        return cls.from_automaton(heuristics.compile_rule(spec))

    def decide(self, seq: SeqSpec) -> str:
        if self.automaton is not None:
            return evaluate(self.automaton, seq)[0]
        return self.evaluator(seq)  # type: ignore[misc]

    @cached_property
    def facts(self) -> Facts:
        return Facts.of(self)


def _closure(alphabet: Alphabet, word: Word, cycle_idx: int) -> SeqSpec:
    return SeqSpec(alphabet, Segment(alphabet, word), Segment(alphabet, (cycle_idx,)))


def _require_windows(alphabet: Alphabet, length: int) -> None:
    if len(alphabet) ** length > WINDOW_CAP:
        raise ResourceLimit(len(alphabet), length, WINDOW_CAP)


def _tabulate_blackbox(rule: RuleHandle) -> list[dict[Word, str | None]]:
    """Layered decision maps for all window lengths 0..H.

    The full-length layer holds the decision of every length-H window,
    validated across every single-symbol closure; shorter layers hold the
    common decision of all extensions, or None where extensions disagree
    (the window is not yet sufficient).
    """
    h = rule.horizon
    assert h is not None and rule.evaluator is not None
    _require_windows(rule.alphabet, h)
    n = len(rule.alphabet)
    layers: list[dict[Word, str | None]] = [dict() for _ in range(h + 1)]
    for word in itertools.product(range(n), repeat=h):
        got = {rule.evaluator(_closure(rule.alphabet, word, c)) for c in range(n)}
        if len(got) > 1:
            text = Segment(rule.alphabet, word).text()
            raise HorizonViolation(
                f"decisions after window {text!r} differ across closures {sorted(got)}; "
                f"the rule reads past the declared horizon {h}"
            )
        layers[h][word] = got.pop()
    for m in range(h - 1, -1, -1):
        for word, dec in layers[m + 1].items():
            short = word[:m]
            layers[m][short] = dec if layers[m].get(short, dec) == dec else None
    return layers


@dataclass(eq=False)
class Facts:
    """Stopping facts of one rule, each built on first use.

    The rule is read as a machine: ``start``, ``step(state, index)`` and
    ``decision(state)``, which is None while the outcome is still open.  No
    run stays open for more than ``limit`` symbols.  ``agreement_checked``
    is the number of closures the last identification verified.
    """

    alphabet: Alphabet
    start: Hashable
    step: Callable[[Hashable, int], Hashable]
    decision: Callable[[Hashable], str | None]
    limit: int
    agreement_checked: int | None = None

    @classmethod
    def of(cls, rule: RuleHandle) -> Facts:
        aut = rule.automaton
        if aut is None:
            layers = _tabulate_blackbox(rule)
            h = rule.horizon
            # past the horizon the window, and so the decision, stays put
            return cls(
                rule.alphabet,
                (),
                lambda w, i: w if len(w) == h else w + (i,),
                lambda w: layers[len(w)][w],
                h,
            )
        verdict = verify_stopping(aut)
        if not verdict.stops:
            raise NonStoppingRuleError(
                "the automaton admits an endless run; no stopping analysis applies"
            )
        dec = decidedness(aut)
        names, transitions = aut.alphabet.symbols, aut.transitions
        return cls(
            rule.alphabet,
            aut.initial,
            lambda q, i: transitions[q][names[i]],
            lambda q: dec[q].decision,
            verdict.bound,
        )

    def decisions(self, word: Iterable[int]) -> Iterator[str | None]:
        """Decision after each prefix of ``word``, the empty prefix first."""
        state = self.start
        yield self.decision(state)
        for idx in word:
            state = self.step(state, idx)
            yield self.decision(state)

    def decided(self, word: Word) -> str | None:
        """Decision forced by ``word``, or None if it is not sufficient."""
        *_, last = self.decisions(word)
        return last

    @cached_property
    def minimal(self) -> list[tuple[Word, str]]:
        """Minimal sufficient segments, breadth first, lexicographic within a length.

        Each open word carries its state, so every word costs one step.
        """
        n = len(self.alphabet)
        minimal: list[tuple[Word, str]] = []
        frontier: list[tuple[Word, Hashable]] = [((), self.start)]
        for _ in range(self.limit + 1):
            nxt: list[tuple[Word, Hashable]] = []
            for word, state in frontier:
                got = self.decision(state)
                if got is not None:
                    minimal.append((word, got))
                else:
                    nxt.extend((word + (i,), self.step(state, i)) for i in range(n))
            frontier = nxt
        assert not frontier, "sufficiency search overran the stopping bound"
        return minimal

    @property
    def bound(self) -> int:
        """One past the deepest open word, so the length of the last minimal segment."""
        return len(self.minimal[-1][0])

    @cached_property
    def table(self) -> dict[Word, str]:
        """Decision of every length-``bound`` window, in lexicographic order."""
        n, k = len(self.alphabet), self.bound
        _require_windows(self.alphabet, k)
        layer: list[tuple[Word, Hashable]] = [((), self.start)]
        for _ in range(k):
            layer = [(w + (i,), self.step(q, i)) for w, q in layer for i in range(n)]
        table = {word: self.decision(state) for word, state in layer}
        assert None not in table.values(), "full-depth windows must be decided"
        return table


def uniform_bound_search(rule: RuleHandle) -> int:
    """Least K such that every length-K window already forces the decision.

    Breadth-first search over the segment tree from the empty word, pruning
    at sufficient segments: the bound is one past the deepest segment that
    is still open.
    """
    return rule.facts.bound


def stopping_time(rule: RuleHandle, seq: SeqSpec) -> int:
    """Least k whose window of ``seq`` is sufficient."""
    for k, got in enumerate(rule.facts.decisions(map(seq.at, itertools.count(1)))):
        if got is not None:
            return k
    raise AssertionError("unreachable: every run is decided within the bound")


def enumerate_minimal_sufficient(rule: RuleHandle) -> Iterator[tuple[Segment, str]]:
    """Segments where sufficiency first becomes true, with their decisions.

    Exactly the minimal sufficient segments: the parent of each emitted
    segment was open, and sufficiency is monotone under extension.
    Breadth-first, lexicographic within a length.
    """
    for word, dec in rule.facts.minimal:
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


def decision_on(rule: RuleHandle, word: Word) -> str:
    """Decision forced by a window at least as long as the uniform bound."""
    facts = rule.facts
    if len(word) < facts.bound:
        raise SeqdecError(f"window of length {len(word)} shorter than the bound {facts.bound}")
    return facts.decided(word[: facts.bound])  # type: ignore[return-value]


def tabulate_automaton(rule: RuleHandle) -> DecisionAutomaton:
    """Segment-tree automaton tabulating the rule's decisions at its bound.

    This is the constructive per-instance bridge from an observed black box
    (a budgeted machine run, say) to an automaton.
    """
    facts = rule.facts
    k, table = facts.bound, facts.table
    return segment_tree_automaton(rule.alphabet, max(k, 1), lambda w: table[w[:k]])


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
    facts = rule.facts
    alphabet = rule.alphabet
    witnesses: dict[str, tuple[str, str]] = {}
    for word, dec in facts.minimal:
        seg = Segment(alphabet, word)
        for name in seg.symbol_set():
            if name != dec and name not in witnesses:
                witnesses[name] = (seg.text(), dec)
    complement = tuple(s for s in alphabet if s in witnesses)
    decisive = tuple(s for s in alphabet if s not in witnesses)
    return DecisiveSet(decisive, complement, witnesses)


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
    return Segment(alphabet, word).text()


def _closure_text(alphabet: Alphabet, word: Word) -> str:
    cyc = word[-1] if word else 0
    return f"{_word_text(alphabet, word)}|{alphabet.name(cyc)}"


def check_monotonicity(rule: RuleHandle) -> AxiomReport:
    """Moving the chosen symbol earlier must not change the choice.

    Quantifies over all windows one past the bound (a deletion consumes one
    position), each closed by a repeating cycle; closures cannot influence a
    bound-limited rule beyond the window, which the table construction
    already validated, so each transformation is checked once.
    """
    facts = rule.facts
    k, table = facts.bound, facts.table
    n = len(rule.alphabet)
    checked = 0
    for word in itertools.product(range(n), repeat=k + 1):
        chosen = table[word[:k]]
        chosen_idx = rule.alphabet.index(chosen) if chosen in rule.alphabet else None
        for pos in range(1, k + 1):
            moves = []
            if chosen_idx is not None and word[pos] == chosen_idx:
                swapped = list(word)
                swapped[pos - 1], swapped[pos] = swapped[pos], swapped[pos - 1]
                moves.append(("shift", tuple(swapped)))
            if chosen_idx is None or word[pos - 1] != chosen_idx:
                moves.append(("deletion", word[: pos - 1] + word[pos:]))
            for transform, moved in moves:
                checked += 1
                if table[moved[:k]] != chosen:
                    return AxiomReport(
                        "monotonicity",
                        False,
                        {
                            "sequence": _closure_text(rule.alphabet, word),
                            "decision": chosen,
                            "transform": transform,
                            "position": pos,
                            "transformed": _closure_text(rule.alphabet, moved),
                            "transformed_decision": table[moved[:k]],
                        },
                        checked,
                        k,
                    )
    return AxiomReport("monotonicity", True, None, checked, k)


def check_informational_dominance(rule: RuleHandle) -> AxiomReport:
    """A sufficient segment avoiding x blocks x after any strict truncation.

    Sufficient segments are covered through their minimal prefixes: any
    violation through a longer sufficient segment is the same violation
    through that segment's minimal sufficient prefix with the remainder
    folded into the tail quantifier, so the check is exhaustive.
    """
    facts = rule.facts
    k, table, minimal = facts.bound, facts.table, facts.minimal
    n = len(rule.alphabet)
    pool = [
        (word, dec, Segment(rule.alphabet, word).symbol_set()) for word, dec in minimal
    ]
    checked = 0
    for m_word, m_dec, _ in pool:
        blockers = [n_word for n_word, _, n_set in pool if m_dec not in n_set]
        for n_word in blockers:
            for cut in range(len(m_word)):
                combined = m_word[:cut] + n_word
                fill_len = max(k - len(combined), 0)
                for fill in itertools.product(range(n), repeat=fill_len):
                    window = (combined + fill)[:k]
                    checked += 1
                    if table[window] == m_dec:
                        return AxiomReport(
                            "informational-dominance",
                            False,
                            {
                                "minimal_sufficient": _word_text(rule.alphabet, m_word),
                                "decision": m_dec,
                                "sufficient": _word_text(rule.alphabet, n_word),
                                "truncation": cut,
                                "composite": _closure_text(rule.alphabet, combined + fill),
                                "composite_decision": m_dec,
                            },
                            checked,
                            k,
                        )
    return AxiomReport("informational-dominance", True, None, checked, k)


def _distinguishing_extensions(
    rule: RuleHandle, word: Word
) -> tuple[tuple[Word, str], tuple[Word, str]]:
    """Two full windows extending an open word that decide differently."""
    facts = rule.facts
    k, table = facts.bound, facts.table
    n = len(rule.alphabet)
    first: tuple[Word, str] | None = None
    for fill in itertools.product(range(n), repeat=max(k - len(word), 0)):
        full = (word + fill)[:k]
        dec = table[full]
        if first is None:
            first = (word + fill, dec)
        elif dec != first[1]:
            return first, (word + fill, dec)
    raise AssertionError("word was expected to be non-sufficient")


def check_replacement(rule: RuleHandle) -> AxiomReport:
    """Swapping one non-decisive symbol for another keeps sufficiency."""
    facts = rule.facts
    k = facts.bound
    dset = decisive_set(rule)
    dprime = set(dset.complement)
    checked = 0
    for m_word, _ in facts.minimal:
        seg = Segment(rule.alphabet, m_word)
        if not seg.symbol_set() <= dprime:
            continue
        for pos in range(1, len(m_word) + 1):
            for name in dset.complement:
                replaced = (
                    m_word[: pos - 1] + (rule.alphabet.index(name),) + m_word[pos:]
                )
                checked += 1
                if facts.decided(replaced) is None:
                    (ext_a, dec_a), (ext_b, dec_b) = _distinguishing_extensions(
                        rule, replaced
                    )
                    return AxiomReport(
                        "replacement",
                        False,
                        {
                            "segment": _word_text(rule.alphabet, m_word),
                            "position": pos,
                            "replacement": name,
                            "replaced": _word_text(rule.alphabet, replaced),
                            "extension_a": _closure_text(rule.alphabet, ext_a),
                            "decision_a": dec_a,
                            "extension_b": _closure_text(rule.alphabet, ext_b),
                            "decision_b": dec_b,
                        },
                        checked,
                        k,
                    )
    return AxiomReport("replacement", True, None, checked, k)


def check_sequential_alpha(rule: RuleHandle) -> AxiomReport:
    """Shrinking the support of a non-decisive choice cannot flip it."""
    facts = rule.facts
    k = facts.bound
    dset = decisive_set(rule)
    dprime = set(dset.complement)
    pool = [
        (word, dec, Segment(rule.alphabet, word).symbol_set())
        for word, dec in facts.minimal
        if Segment(rule.alphabet, word).symbol_set() <= dprime
    ]
    checked = 0
    for m_word, m_dec, m_set in pool:
        for p_word, p_dec, p_set in pool:
            if m_set <= p_set and p_dec in m_set:
                checked += 1
                if p_dec != m_dec:
                    return AxiomReport(
                        "sequential-alpha",
                        False,
                        {
                            "segment_m": _word_text(rule.alphabet, m_word),
                            "decision_m": m_dec,
                            "segment_m_prime": _word_text(rule.alphabet, p_word),
                            "decision_m_prime": p_dec,
                        },
                        checked,
                        k,
                    )
    return AxiomReport("sequential-alpha", True, None, checked, k)


def check_snbc(rule: RuleHandle) -> AxiomReport:
    """No cycles across two-symbol minimal sufficient segments."""
    facts = rule.facts
    k = facts.bound
    dset = decisive_set(rule)
    dprime = set(dset.complement)
    buckets: dict[frozenset[str], list[tuple[Word, str]]] = {}
    for word, dec in facts.minimal:
        sset = Segment(rule.alphabet, word).symbol_set()
        if len(sset) == 2 and sset <= dprime:
            buckets.setdefault(sset, []).append((word, dec))
    checked = 0
    for x, y, z in itertools.permutations(sorted(dprime), 3):
        for m_word, m_dec in buckets.get(frozenset((x, y)), []):
            if m_dec != x:
                continue
            for p_word, p_dec in buckets.get(frozenset((y, z)), []):
                if p_dec != y:
                    continue
                for q_word, q_dec in buckets.get(frozenset((x, z)), []):
                    checked += 1
                    if q_dec == z:
                        return AxiomReport(
                            "sequential-nbc",
                            False,
                            {
                                "x": x,
                                "y": y,
                                "z": z,
                                "segment_xy": _word_text(rule.alphabet, m_word),
                                "segment_yz": _word_text(rule.alphabet, p_word),
                                "segment_xz": _word_text(rule.alphabet, q_word),
                                "decisions": [m_dec, p_dec, q_dec],
                            },
                            checked,
                            k,
                        )
    return AxiomReport("sequential-nbc", True, None, checked, k)


def _require_choice_rule(rule: RuleHandle, *, in_window: bool) -> None:
    facts = rule.facts
    for word, dec in facts.table.items():
        if dec not in rule.alphabet:
            raise NotAChoiceRule(
                f"decision {dec!r} after {_word_text(rule.alphabet, word)!r} "
                "is not an alternative"
            )
        if in_window and word and rule.alphabet.index(dec) not in word:
            raise NotAChoiceRule(
                f"decision {dec!r} does not occur in its window "
                f"{_word_text(rule.alphabet, word)!r}"
            )


def check_neutrality(rule: RuleHandle) -> AxiomReport:
    """Relabeling the alternatives must relabel the choice the same way."""
    _require_choice_rule(rule, in_window=False)
    facts = rule.facts
    k, table = facts.bound, facts.table
    n = len(rule.alphabet)
    checked = 0
    for word in itertools.product(range(n), repeat=k):
        decision = table[word]
        for perm in itertools.permutations(range(n)):
            mapped = tuple(perm[i] for i in word)
            expected = rule.alphabet.name(perm[rule.alphabet.index(decision)])
            checked += 1
            if table[mapped] != expected:
                sigma = Relabeling(rule.alphabet, perm)
                return AxiomReport(
                    "neutrality",
                    False,
                    {
                        "sequence": _closure_text(rule.alphabet, word),
                        "decision": decision,
                        "sigma": sigma.as_dict(),
                        "relabeled": _closure_text(rule.alphabet, mapped),
                        "relabeled_decision": table[mapped],
                        "expected": expected,
                    },
                    checked,
                    k,
                )
    return AxiomReport("neutrality", True, None, checked, k)


def _bits_text(bits: tuple[int, ...]) -> str:
    return "".join(str(b) for b in bits)


def _config_of(word: Word, idx: int) -> tuple[int, ...]:
    return tuple(1 if w == idx else 0 for w in word)


def check_acyclicity(rule: RuleHandle) -> AxiomReport:
    """The revealed order over window configurations must have no cycles.

    Every window reveals the winner's occupancy pattern as preferred to the
    pattern of each other occurring symbol.  Pass emits a topological order
    of the revealed graph (one linear extension); Fail returns the shortest
    cycle with one witness sequence per edge.
    """
    _require_choice_rule(rule, in_window=True)
    facts = rule.facts
    k, table = facts.bound, facts.table
    n = len(rule.alphabet)
    edges: dict[tuple[str, str], dict] = {}
    checked = 0
    for word in itertools.product(range(n), repeat=k):
        if not word:
            continue
        winner = rule.alphabet.index(table[word])
        win_cfg = _bits_text(_config_of(word, winner))
        for other in sorted(set(word)):
            if other == winner:
                continue
            lose_cfg = _bits_text(_config_of(word, other))
            checked += 1
            edges.setdefault(
                (win_cfg, lose_cfg),
                {
                    "winner_config": win_cfg,
                    "loser_config": lose_cfg,
                    "sequence": _closure_text(rule.alphabet, word),
                    "winner": rule.alphabet.name(winner),
                    "loser": rule.alphabet.name(other),
                },
            )
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    for out in succ.values():
        out.sort()
    cycle = _shortest_cycle(succ)
    if cycle is not None:
        witness_edges = [
            edges[(cycle[i], cycle[(i + 1) % len(cycle)])] for i in range(len(cycle))
        ]
        return AxiomReport(
            "acyclicity",
            False,
            {"cycle": list(cycle), "edges": witness_edges},
            checked,
            k,
        )
    order = _topological_order(succ)
    return AxiomReport(
        "acyclicity", True, None, checked, k, details={"configuration_order": order}
    )


def _shortest_cycle(succ: dict[str, list[str]]) -> tuple[str, ...] | None:
    """Shortest directed cycle, first by length then by start node order."""
    best: tuple[str, ...] | None = None
    for start in sorted(succ):
        back = {start: None}
        frontier = [start]
        found = None
        while frontier and found is None:
            nxt = []
            for node in frontier:
                for child in succ[node]:
                    if child == start:
                        path = [node]
                        while back[path[-1]] is not None:
                            path.append(back[path[-1]])
                        found = tuple(reversed(path))
                        break
                    if child not in back:
                        back[child] = node
                        nxt.append(child)
                if found is not None:
                    break
            frontier = nxt
        if found is not None and (best is None or len(found) < len(best)):
            best = found
    return best


def _topological_order(succ: dict[str, list[str]]) -> list[str]:
    """Kahn's algorithm, best-ranked first, deterministic by node name."""
    indeg = {node: 0 for node in succ}
    for node in succ:
        for child in succ[node]:
            indeg[child] += 1
    ready = sorted(node for node, d in indeg.items() if d == 0)
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


def identify_csr(rule: RuleHandle) -> CsrSpec:
    """Recover score-threshold parameters from black-box behavior.

    The critical count of each symbol is its stopping time on the constant
    sequence; unit threshold and reciprocal weights reproduce the rule.
    Agreement is verified over the whole witness family before returning.
    """
    spec = CsrSpec(
        rule.alphabet,
        {
            name: Fraction(1, max(stopping_time(rule, constant(rule.alphabet, name)), 1))
            for name in rule.alphabet
        },
        Fraction(1),
    )
    rule.facts.agreement_checked = agreement_count(rule, spec)
    return spec


def identify_osr(rule: RuleHandle) -> OsrSpec:
    """Recover ranked-threshold parameters from black-box behavior.

    The span is the uniform bound; decisive symbols rank above the rest in
    alphabet order (the data cannot order them further), the rest are
    ordered by how they win against each other across two-or-more-symbol
    minimal sufficient segments, and the threshold alternative is the
    best-ranked non-decisive symbol.  Agreement is verified before
    returning.
    """
    facts = rule.facts
    span = max(facts.bound, 1)
    dset = decisive_set(rule)
    dprime = list(dset.complement)
    beaten: dict[str, set[str]] = {name: set() for name in dprime}
    for word, dec in facts.minimal:
        sset = Segment(rule.alphabet, word).symbol_set()
        if sset <= set(dprime) and dec in beaten:
            beaten[dec] |= sset - {dec}
    ranked = sorted(dprime, key=lambda s: (-len(beaten[s]), rule.alphabet.index(s)))
    order = tuple(dset.decisive) + tuple(ranked)
    threshold_alt = ranked[0] if ranked else order[-1]
    spec = OsrSpec(rule.alphabet, order, threshold_alt, span)
    facts.agreement_checked = agreement_count(rule, spec)
    return spec


def agreement_count(rule: RuleHandle, spec: RuleSpec) -> int:
    """Size check of the identification round trip; raises on disagreement.

    Compares the rule with ``spec`` on every single-symbol closure of every
    window as long as the longer of their two bounds.
    """
    if isinstance(spec, CsrSpec):
        depth, error_cls = csr_uniform_bound(spec), NotCsr
    elif isinstance(spec, OsrSpec):
        depth, error_cls = spec.span, NotOsr
    else:
        raise SeqdecError(f"no agreement check for {type(spec).__name__}")
    checked = 0
    n = len(rule.alphabet)
    for word in itertools.product(range(n), repeat=max(rule.facts.bound, depth)):
        for cyc in range(n):
            seq = _closure(rule.alphabet, word, cyc)
            checked += 1
            ours, theirs = rule.decide(seq), evaluate_rule(spec, seq)
            if ours != theirs:
                raise error_cls(
                    f"recovered rule disagrees on {seq.text()!r} ({ours!r} vs {theirs!r})",
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
        prefix_ok = composite.window(cut + len(n_seg)) == tuple(
            m_seg.word[:cut]
        ) + tuple(n_seg.word)
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
        for i, edge in enumerate(edges):
            if edge["winner_config"] != cycle[i]:
                return False
            if edge["loser_config"] != cycle[(i + 1) % len(cycle)]:
                return False
            seq = alphabet.sequence(edge["sequence"])
            k = rule.facts.bound
            win_bits = _bits_text(_config_of(seq.window(k), alphabet.index(edge["winner"])))
            lose_bits = _bits_text(_config_of(seq.window(k), alphabet.index(edge["loser"])))
            if win_bits != edge["winner_config"] or lose_bits != edge["loser_config"]:
                return False
            if rule.decide(seq) != edge["winner"]:
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
