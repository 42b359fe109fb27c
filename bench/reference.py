"""Reference answers computed apart from seqdec.

Nothing here imports seqdec.  Rules are plain Python objects that decide a
sequence from a fixed-length window, sequences are parsed from the same
``prefix|cycle`` literals the command line takes, and automata are read from
their emitted JSON documents.  The benchmark checks every seqdec output
against these functions, or against a property the method must have, never
against a stored copy of an earlier output.

Contents:

* deciders: score-threshold first crossing with integer counts, the
  ranked-threshold span choice, configuration pattern ranking, and the seven
  broken rules of the mutation suite;
* closed forms for score-threshold rules: uniform bound 1 + sum(n_i - 1) and
  minimal state count prod(n_i) + |alphabet|;
* brute force over window completions for small rules: stop position,
  uniform bound, minimal sufficient segments and the decisive set;
* an iterative decider and longest-undecided-path walker over automaton JSON;
* replay of axiom-failure witnesses through a reference rule.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# ---------------------------------------------------------------- sequences


def parse_seq(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a ``prefix|cycle`` literal into its two symbol tuples."""
    left, right = text.split("|")
    prefix, cycle = tuple(left.split()), tuple(right.split())
    if not cycle:
        raise ValueError(f"empty cycle in {text!r}")
    return prefix, cycle


def seq_text(prefix, cycle) -> str:
    return " ".join(prefix) + "|" + " ".join(cycle)


def symbol_at(seq, pos: int) -> str:
    """Symbol at 1-based position ``pos`` of a parsed sequence."""
    prefix, cycle = seq
    if pos <= len(prefix):
        return prefix[pos - 1]
    return cycle[(pos - len(prefix) - 1) % len(cycle)]


def window(seq, k: int) -> tuple[str, ...]:
    return tuple(symbol_at(seq, i) for i in range(1, k + 1))


def closure(word, cyc: str):
    """The sequence that reads ``word`` and then repeats ``cyc``."""
    return (tuple(word), (cyc,))


def unrolled(seq, n: int):
    """The same sequence written with a prefix at least ``n`` long."""
    prefix, cycle = seq
    if len(prefix) >= n:
        return seq
    need = n - len(prefix)
    reps = -(-need // len(cycle))
    ext = (cycle * reps)[:need]
    shift = need % len(cycle)
    return (prefix + ext, cycle[shift:] + cycle[:shift])


def same_sequence(a, b) -> bool:
    horizon = len(a[0]) + len(b[0]) + math.lcm(len(a[1]), len(b[1]))
    return window(a, horizon) == window(b, horizon)


# --------------------------------------------------------------- the rules


class WindowRule:
    """A rule that reads at most ``horizon`` positions.

    Subclasses implement ``decide_window`` on a full-length window; the
    decision of an infinite sequence is that of its first window.
    """

    alphabet: tuple[str, ...]
    horizon: int

    def decide_window(self, word: tuple[str, ...]) -> str:
        raise NotImplementedError

    def decide(self, seq) -> str:
        return self.decide_window(window(seq, self.horizon))


class Csr(WindowRule):
    """Score-threshold rule read as integer critical counts."""

    def __init__(self, alphabet, weights, threshold):
        self.alphabet = tuple(alphabet)
        t = Fraction(threshold)
        self.counts = {s: math.ceil(t / Fraction(weights[s])) for s in self.alphabet}
        self.horizon = self.uniform_bound()

    @classmethod
    def from_doc(cls, doc: dict) -> Csr:
        return cls(doc["alphabet"], doc["weights"], doc["threshold"])

    def uniform_bound(self) -> int:
        return 1 + sum(n - 1 for n in self.counts.values())

    def minimal_states(self) -> int:
        return math.prod(self.counts.values()) + len(self.alphabet)

    def crossing(self, seq) -> tuple[str, int]:
        """First symbol whose occurrence count reaches its critical count."""
        seen = dict.fromkeys(self.alphabet, 0)
        for pos in range(1, self.horizon + 1):
            s = symbol_at(seq, pos)
            seen[s] += 1
            if seen[s] == self.counts[s]:
                return s, pos
        raise AssertionError("no crossing within the uniform bound")

    def decide_window(self, word):
        return self.crossing((tuple(word), (word[-1],)))[0]

    def stop(self, seq) -> int:
        # every symbol not yet at its count can still win by repetition,
        # so with two or more symbols the decision is forced exactly at the
        # first crossing
        return self.crossing(seq)[1]

    def minimal_sufficient(self) -> list[tuple[tuple[str, ...], str]]:
        """Words whose last symbol is the first to reach its count."""
        found = []
        stack = [((), tuple(0 for _ in self.alphabet))]
        while stack:
            word, vec = stack.pop()
            for i, s in enumerate(self.alphabet):
                if vec[i] + 1 == self.counts[s]:
                    found.append((word + (s,), s))
                else:
                    stack.append((word + (s,), vec[:i] + (vec[i] + 1,) + vec[i + 1 :]))
        return found


class Osr(WindowRule):
    """Ranked-threshold rule: first symbol above the threshold, else best."""

    def __init__(self, alphabet, order, threshold_alt, span):
        self.alphabet = tuple(alphabet)
        self.rank = {s: i for i, s in enumerate(order)}
        self.threshold_alt = threshold_alt
        self.horizon = int(span)

    @classmethod
    def from_doc(cls, doc: dict) -> Osr:
        return cls(doc["alphabet"], doc["order"], doc["threshold_alt"], doc["span"])

    def decide_window(self, word):
        limit = self.rank[self.threshold_alt]
        for s in word:
            if self.rank[s] < limit:
                return s
        return min(word, key=self.rank.__getitem__)


class Config(WindowRule):
    """Occurring symbol whose window occupancy pattern ranks best."""

    def __init__(self, alphabet, window_len, table):
        self.alphabet = tuple(alphabet)
        self.horizon = int(window_len)
        self.table = dict(table)

    @classmethod
    def from_doc(cls, doc: dict) -> Config:
        return cls(doc["alphabet"], doc["window"], doc["comparator"]["table"])

    def decide_window(self, word):
        def rank(s):
            return self.table["".join("1" if x == s else "0" for x in word)]

        return max(set(word), key=rank)


def rule_from_doc(doc: dict) -> WindowRule:
    return {"csr": Csr, "osr": Osr, "config": Config}[doc["kind"]].from_doc(doc)


class Lookup(WindowRule):
    """A rule given by a decision function on windows of a fixed length."""

    def __init__(self, alphabet, horizon, fn):
        self.alphabet = tuple(alphabet)
        self.horizon = horizon
        self.fn = fn

    def decide_window(self, word):
        return self.fn(word)


# The broken rules of the mutation suite, one per axiom, written again here
# from their documented behaviour.


def _second_position(w):
    return w[1]


def _first_unless_repeat(w):
    if w[0] not in w[1:]:
        return w[0]
    others = [x for x in w[1:] if x != w[0]]
    return others[0] if others else w[0]


_MAJORITY = {frozenset("ab"): "a", frozenset("bc"): "b", frozenset("ac"): "c"}


def _cyclic_majority(w):
    return _MAJORITY.get(frozenset(w[:2]), w[0])


def _config_triangle(w):
    occ = sorted(set(w))
    cfg = {s: "".join("1" if x == s else "0" for x in w) for s in occ}
    by_cfg = {v: k for k, v in cfg.items()}
    cfgs = set(cfg.values())
    if cfgs == {"10011", "01000", "00100"}:
        return by_cfg["01000"]
    if cfgs == {"10000", "01011", "00100"}:
        return by_cfg["00100"]
    return max(occ, key=lambda s: int(cfg[s], 2))


def broken_rules() -> dict[str, tuple[WindowRule, str]]:
    """Broken rule per axiom, with the checker suite that holds the axiom."""
    abc = ("a", "b", "c")
    second = Lookup(abc, 2, _second_position)
    return {
        "monotonicity": (second, "csr"),
        "informational-dominance": (Lookup(abc, 3, _first_unless_repeat), "csr"),
        "replacement": (Csr(abc, {"a": 1, "b": Fraction(1, 3), "c": Fraction(1, 3)}, 1), "osr"),
        "sequential-alpha": (second, "osr"),
        "sequential-nbc": (Lookup(abc, 2, _cyclic_majority), "osr"),
        "neutrality": (Csr(("x", "y"), {"x": 3, "y": 1}, 3), "config"),
        "acyclicity": (Lookup(abc, 5, _config_triangle), "config"),
    }


SUITES = {
    "csr": ("monotonicity", "informational-dominance"),
    "osr": ("replacement", "sequential-alpha", "sequential-nbc"),
    "config": ("neutrality", "acyclicity"),
}

# ------------------------------------------------------------- brute force


def forced(rule: WindowRule, word) -> str | None:
    """The decision every completion of ``word`` to a full window gives, or
    None when two completions decide differently."""
    word = tuple(word)
    seen = None
    for fill in itertools.product(rule.alphabet, repeat=max(rule.horizon - len(word), 0)):
        dec = rule.decide_window((word + fill)[: rule.horizon])
        if seen is not None and dec != seen:
            return None
        seen = dec
    return seen


def brute_stop(rule: WindowRule, seq) -> int:
    for k in range(rule.horizon + 1):
        if forced(rule, window(seq, k)) is not None:
            return k
    raise AssertionError("full windows must be forced")


def brute_minimal_sufficient(rule: WindowRule) -> tuple[int, list[tuple[tuple[str, ...], str]]]:
    """Uniform bound and minimal sufficient segments by tree search."""
    minimal = []
    deepest_open = -1
    frontier = [()]
    while frontier:
        nxt = []
        for word in frontier:
            dec = forced(rule, word)
            if dec is not None:
                minimal.append((word, dec))
            else:
                deepest_open = max(deepest_open, len(word))
                nxt.extend(word + (s,) for s in rule.alphabet)
        frontier = nxt
    return deepest_open + 1, minimal


def decisive(alphabet, minimal) -> tuple[list[str], list[str]]:
    """Symbols chosen by every minimal sufficient segment holding them."""
    beaten = {s for word, dec in minimal for s in word if s != dec}
    return [s for s in alphabet if s not in beaten], [s for s in alphabet if s in beaten]


def minimal_sufficient(rule: WindowRule):
    """Uniform bound and minimal sufficient segments, closed form for CSR."""
    if isinstance(rule, Csr) and len(rule.alphabet) > 1:
        return rule.uniform_bound(), rule.minimal_sufficient()
    return brute_minimal_sufficient(rule)


def stop_position(rule: WindowRule, seq) -> int:
    if isinstance(rule, Csr) and len(rule.alphabet) > 1:
        return rule.stop(seq)
    return brute_stop(rule, seq)


# ------------------------------------------------------- automaton documents


def automaton_decide(doc: dict, seq) -> tuple[str, int] | None:
    """Decision and absorption position of an automaton document.

    Returns None when the run provably never absorbs: the pair of state and
    phase within prefix and cycle repeats.
    """
    prefix, cycle = seq
    trans, terminal = doc["transitions"], doc["terminal"]
    state = doc["initial"]
    seen = set()
    pos = 0
    while True:
        phase = pos if pos < len(prefix) else len(prefix) + (pos - len(prefix)) % len(cycle)
        if (state, phase) in seen:
            return None
        seen.add((state, phase))
        pos += 1
        state = trans[state][symbol_at(seq, pos)]
        if state in terminal:
            return terminal[state], pos


def longest_undecided_path(doc: dict) -> int | None:
    """Uniform bound of an automaton document: 1 + the longest run through
    reachable non-terminal states, or None when such a run can loop.

    Iterative post-order walk, so chains of any length are fine.
    """
    trans, terminal, alphabet = doc["transitions"], doc["terminal"], doc["alphabet"]
    depth: dict[str, int] = {}
    on_path: set[str] = set()
    stack = [(doc["initial"], False)]
    while stack:
        state, expanded = stack.pop()
        if expanded:
            on_path.discard(state)
            depth[state] = max(
                (1 + depth[t] for t in (trans[state][s] for s in alphabet) if t not in terminal),
                default=0,
            )
            continue
        if state in depth:
            continue
        if state in on_path:
            return None
        on_path.add(state)
        stack.append((state, True))
        for s in alphabet:
            t = trans[state][s]
            if t in terminal or t in depth:
                continue
            if t in on_path:
                return None
            stack.append((t, False))
    return 1 + depth[doc["initial"]]


def tabulate(rule: WindowRule) -> dict:
    """Prefix-tree automaton document deciding like ``rule``."""

    def name(word):
        return "<" + " ".join(word) + ">"

    transitions, outputs = {}, set()
    words = [()]
    for word in words:
        row = {}
        for s in rule.alphabet:
            child = word + (s,)
            if len(child) == rule.horizon:
                out = rule.decide_window(child)
                outputs.add(out)
                row[s] = "dec:" + out
            else:
                row[s] = name(child)
                words.append(child)
        transitions[name(word)] = row
    terminal = {"dec:" + o: o for o in sorted(outputs)}
    for t in terminal:
        transitions[t] = {s: t for s in rule.alphabet}
    return {
        "alphabet": list(rule.alphabet),
        "states": [name(w) for w in words] + sorted(terminal),
        "initial": name(()),
        "transitions": transitions,
        "terminal": terminal,
    }


# ------------------------------------------------------------ witness replay


def _is_minimal(rule, word, decision=None) -> bool:
    dec = forced(rule, word)
    if dec is None or (decision is not None and dec != decision):
        return False
    return len(word) == 0 or forced(rule, word[:-1]) is None


def replay(rule: WindowRule, axiom: str, w: dict) -> bool:
    """True when a recorded failure witness holds under the reference rule."""
    seg = lambda text: tuple(text.split())  # noqa: E731
    if axiom == "monotonicity":
        seq = parse_seq(w["sequence"])
        moved = parse_seq(w["transformed"])
        pos = w["position"]
        base = unrolled(seq, pos + 1)[0]
        if w["transform"] == "shift":
            word = list(base)
            word[pos - 1], word[pos] = word[pos], word[pos - 1]
            favorable = base[pos] == w["decision"]
        else:
            word = list(base[: pos - 1] + base[pos:])
            favorable = base[pos - 1] != w["decision"]
        expected = (tuple(word), unrolled(seq, pos + 1)[1])
        return (
            favorable
            and same_sequence(expected, moved)
            and rule.decide(seq) == w["decision"]
            and rule.decide(moved) == w["transformed_decision"] != w["decision"]
        )
    if axiom == "informational-dominance":
        m, n = seg(w["minimal_sufficient"]), seg(w["sufficient"])
        composite = parse_seq(w["composite"])
        cut = w["truncation"]
        return (
            cut < len(m)
            and window(composite, cut + len(n)) == m[:cut] + n
            and w["decision"] not in n
            and _is_minimal(rule, m, w["decision"])
            and forced(rule, n) is not None
            and rule.decide(composite) == w["decision"]
        )
    if axiom == "replacement":
        m, replaced = seg(w["segment"]), seg(w["replaced"])
        pos = w["position"]
        ext_a, ext_b = parse_seq(w["extension_a"]), parse_seq(w["extension_b"])
        return (
            len(m) == len(replaced)
            and m[: pos - 1] == replaced[: pos - 1]
            and m[pos:] == replaced[pos:]
            and replaced[pos - 1] == w["replacement"]
            and _is_minimal(rule, m)
            and window(ext_a, len(replaced)) == replaced
            and window(ext_b, len(replaced)) == replaced
            and rule.decide(ext_a) == w["decision_a"]
            and rule.decide(ext_b) == w["decision_b"]
            and w["decision_a"] != w["decision_b"]
        )
    if axiom == "sequential-alpha":
        m, p = seg(w["segment_m"]), seg(w["segment_m_prime"])
        return (
            _is_minimal(rule, m, w["decision_m"])
            and _is_minimal(rule, p, w["decision_m_prime"])
            and set(m) <= set(p)
            and w["decision_m_prime"] in m
            and w["decision_m"] != w["decision_m_prime"]
        )
    if axiom == "sequential-nbc":
        x, y, z = w["x"], w["y"], w["z"]
        pairs = (("segment_xy", {x, y}, x), ("segment_yz", {y, z}, y), ("segment_xz", {x, z}, z))
        return all(
            set(seg(w[key])) == symbols and _is_minimal(rule, seg(w[key]), dec)
            for key, symbols, dec in pairs
        )
    if axiom == "neutrality":
        sigma = w["sigma"]
        seq, moved = parse_seq(w["sequence"]), parse_seq(w["relabeled"])
        mapped = (tuple(sigma[s] for s in seq[0]), tuple(sigma[s] for s in seq[1]))
        return (
            sorted(sigma) == sorted(sigma.values()) == sorted(rule.alphabet)
            and same_sequence(mapped, moved)
            and rule.decide(seq) == w["decision"]
            and sigma[w["decision"]] == w["expected"]
            and rule.decide(moved) == w["relabeled_decision"] != w["expected"]
        )
    if axiom == "acyclicity":
        cycle, edges = w["cycle"], w["edges"]
        if len(cycle) < 2 or len(edges) != len(cycle):
            return False
        for i, edge in enumerate(edges):
            seq = parse_seq(edge["sequence"])
            win = window(seq, rule.horizon)

            def bits(s):
                return "".join("1" if x == s else "0" for x in win)

            if not (
                edge["winner_config"] == cycle[i] == bits(edge["winner"])
                and edge["loser_config"] == cycle[(i + 1) % len(cycle)] == bits(edge["loser"])
                and rule.decide(seq) == edge["winner"]
            ):
                return False
        return True
    return False
