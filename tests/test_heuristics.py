"""Tests for the satisficing rule families and their compilers."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqdec.core import Alphabet, Segment, SeqSpec, constant
from seqdec.automaton import isomorphic, minimize
from seqdec.heuristics import (
    BUILTIN_COMPARATORS,
    Comparator,
    ConfigRuleSpec,
    CsrSpec,
    InvalidRuleError,
    OsrSpec,
    config_compile,
    csr_compile,
    csr_critical_counts,
    osr_compile,
    rule_from_json,
    rule_to_json,
    segment_tree_automaton,
)
from tests.conftest import ABC, XY, build_twosym_threshold2, oracle_verify_stopping
from tests.definitions import (
    concat,
    config_encode,
    config_evaluate,
    csr_evaluate,
    csr_uniform_bound,
    enumerate_segments,
    evaluate,
    osr_evaluate,
    run,
)

ONE = Fraction(1)


def unit_csr(alphabet, threshold):
    return CsrSpec(alphabet, {s: ONE for s in alphabet}, Fraction(threshold))


CSR3 = unit_csr(ABC, 3)
FIG_CSR = unit_csr(XY, 2)
OSR_AB = OsrSpec(ABC, ("a", "b", "c"), "b", 2)


def closures(alphabet, length):
    """All words of a length, each closed with every single-symbol cycle."""
    for seg in enumerate_segments(alphabet, length):
        for name in alphabet:
            yield concat(seg, constant(alphabet, name))


def bit_words(window: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=window)]


@st.composite
def config_specs(draw):
    """Config rules over 1-4 symbols, windows 1-6, a builtin or a complete
    table of distinct ranks, a permutation of 0..2^w-1 or any ints, negative
    and sparse ones included."""
    alphabet = Alphabet(tuple("abcd"[: draw(st.integers(1, 4))]))
    window = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("table", "sparse") + BUILTIN_COMPARATORS))
    words = bit_words(window)
    if kind == "table":
        comparator = Comparator(window, table=dict(zip(words, draw(st.permutations(range(len(words)))))))
    elif kind == "sparse":
        ranks = st.lists(st.integers(-(1 << 40), 1 << 40), min_size=len(words), max_size=len(words), unique=True)
        comparator = Comparator(window, table=dict(zip(words, draw(ranks))))
    else:
        comparator = Comparator(window, builtin=kind)
    return ConfigRuleSpec(alphabet, window, comparator)


class TestCsrSpec:
    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidRuleError):
            CsrSpec(XY, {"x": ONE, "y": Fraction(0)}, ONE)

    def test_threshold_positive(self):
        with pytest.raises(InvalidRuleError):
            unit_csr(XY, 0)

    def test_weights_must_cover_alphabet(self):
        with pytest.raises(InvalidRuleError):
            CsrSpec(ABC, {"a": ONE}, ONE)


class TestCsrEvaluate:
    def test_cycle_sequence_crosses_at_seven(self):
        assert csr_evaluate(CSR3, ABC.sequence("|a b c")) == ("a", 7)

    def test_immediate_crossing(self):
        spec = CsrSpec(XY, {"x": Fraction(5), "y": ONE}, Fraction(5))
        assert csr_evaluate(spec, XY.sequence("x|y")) == ("x", 1)

    def test_weighted_crossing(self):
        spec = CsrSpec(ABC, {"a": ONE, "b": Fraction(2), "c": ONE}, Fraction(3))
        # scores after positions 1..3: b=2, a=1, b=4 >= 3
        assert csr_evaluate(spec, ABC.sequence("|b a")) == ("b", 3)

    def test_exact_boundary_crossing(self):
        spec = CsrSpec(XY, {"x": Fraction(1, 3), "y": ONE}, ONE)
        assert csr_evaluate(spec, constant(XY, "x")) == ("x", 3)


class TestCriticalCounts:
    def test_unit_weights(self):
        assert csr_critical_counts(CSR3) == {"a": 3, "b": 3, "c": 3}

    def test_weight_equals_threshold(self):
        spec = CsrSpec(XY, {"x": Fraction(3), "y": ONE}, Fraction(3))
        assert csr_critical_counts(spec)["x"] == 1

    def test_ceiling_arithmetic_matches_constant_sequences(self):
        spec = CsrSpec(XY, {"x": ONE, "y": Fraction(2)}, Fraction(3))
        counts = csr_critical_counts(spec)
        assert counts == {"x": 3, "y": 2}
        for name in XY:
            assert csr_evaluate(spec, constant(XY, name))[1] == counts[name]


class TestCsrUniformBound:
    def test_two_symbols_threshold_two(self):
        assert csr_uniform_bound(FIG_CSR) == 3

    def test_single_symbol(self):
        one = Alphabet(("x",))
        assert csr_uniform_bound(CsrSpec(one, {"x": ONE}, Fraction(5))) == 5

    def test_three_symbols_threshold_three(self):
        assert csr_uniform_bound(CSR3) == 7

    @pytest.mark.parametrize("spec", [FIG_CSR, unit_csr(ABC, 2)])
    def test_equals_bruteforce_maximum(self, spec):
        bound = csr_uniform_bound(spec)
        stops = [csr_evaluate(spec, seq)[1] for seq in closures(spec.alphabet, bound)]
        assert max(stops) == bound


class TestCsrCompile:
    def test_minimized_matches_handbuilt_six_states(self):
        small = minimize(csr_compile(FIG_CSR))
        assert len(small.states) == 6
        assert isomorphic(small, build_twosym_threshold2())

    def test_immediate_decision_machine(self):
        spec = CsrSpec(ABC, {s: Fraction(2) for s in ABC}, Fraction(2))
        aut = csr_compile(spec)
        assert len(aut.states) == 1 + len(ABC)

    def test_count_vector_state_space(self):
        # all vectors below the critical counts are reachable
        aut = csr_compile(CSR3)
        assert len(aut.states) - len(aut.terminal) == 27
        assert len(aut.terminal) == 3
        aut2 = csr_compile(unit_csr(ABC, 2))
        assert len(aut2.states) - len(aut2.terminal) == 8

    def test_reachability_oracle(self):
        # BFS over evaluator-observable count vectors agrees with the compiler
        spec = CsrSpec(ABC, {"a": ONE, "b": Fraction(2), "c": ONE}, Fraction(3))
        counts = csr_critical_counts(spec)
        seen = {tuple(0 for _ in ABC)}
        todo = [tuple(0 for _ in ABC)]
        while todo:
            vec = todo.pop()
            for i, name in enumerate(ABC):
                if vec[i] + 1 < counts[name]:
                    nxt = vec[:i] + (vec[i] + 1,) + vec[i + 1 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
        aut = csr_compile(spec)
        assert len(aut.states) - len(aut.terminal) == len(seen)

    @pytest.mark.parametrize("spec", [FIG_CSR, CSR3])
    def test_compile_evaluate_agreement(self, spec):
        aut = csr_compile(spec)
        bound = csr_uniform_bound(spec)
        for seq in closures(spec.alphabet, bound):
            assert evaluate(aut, seq) == csr_evaluate(spec, seq)

    def test_minimize_keeps_all_count_vectors(self):
        # distinct remaining-needs profiles are pairwise distinguishable, so
        # minimization cannot merge any of the 27 vectors; cross-checked by a
        # direct segment-equivalence oracle on the evaluator
        aut = csr_compile(CSR3)
        assert len(minimize(aut).states) == len(aut.states)

        bound = csr_uniform_bound(CSR3)
        reps = {}
        for length in range(bound):
            for seg in enumerate_segments(ABC, length):
                state = run(aut, seg)
                if state not in aut.terminal:
                    reps.setdefault(state, seg)
        classes = []
        for state, seg in sorted(reps.items()):
            profile = tuple(
                csr_evaluate(CSR3, concat(seg + fill, constant(ABC, "a")))[0]
                for fill in enumerate_segments(ABC, bound)
            )
            classes.append(profile)
        assert len(set(classes)) == len(classes) == 27


class TestOsrEvaluate:
    def test_below_threshold_prefix_takes_best_seen(self):
        assert osr_evaluate(OSR_AB, ABC.sequence("b c|a")) == "b"

    def test_above_threshold_chosen_immediately(self):
        assert osr_evaluate(OSR_AB, ABC.sequence("a b|c")) == "a"

    def test_constant_sequence(self):
        for name in ABC:
            assert osr_evaluate(OSR_AB, constant(ABC, name)) == name

    def test_invariant_to_positions_past_span(self):
        for seg in enumerate_segments(ABC, OSR_AB.span):
            picks = {
                osr_evaluate(OSR_AB, concat(seg, constant(ABC, name))) for name in ABC
            }
            assert len(picks) == 1


class TestOsrCompile:
    def test_span_one_single_state(self):
        aut = osr_compile(OsrSpec(ABC, ("a", "b", "c"), "b", 1))
        assert len(aut.states) - len(aut.terminal) == 1
        for name in ABC:
            assert evaluate(aut, constant(ABC, name))[0] == name

    def test_agreement_on_all_windows(self):
        aut = osr_compile(OSR_AB)
        for seq in closures(ABC, OSR_AB.span):
            assert evaluate(aut, seq)[0] == osr_evaluate(OSR_AB, seq)

    def test_threshold_at_top_reduces_to_maximizer(self):
        spec = OsrSpec(ABC, ("a", "b", "c"), "a", 3)
        aut = osr_compile(spec)

        def max_of_prefix(seq):
            seen = [seq.symbol_at(i) for i in range(1, spec.span + 1)]
            return min(seen, key=spec.order.index)

        for seq in closures(ABC, spec.span):
            assert evaluate(aut, seq)[0] == max_of_prefix(seq) == osr_evaluate(spec, seq)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidRuleError):
            OsrSpec(ABC, ("a", "b"), "b", 2)
        with pytest.raises(InvalidRuleError):
            OsrSpec(ABC, ("a", "b", "c"), "z", 2)
        with pytest.raises(InvalidRuleError):
            OsrSpec(ABC, ("a", "b", "c"), "b", 0)


class TestConfigEncode:
    def test_cycle_pattern(self):
        assert config_encode(ABC.sequence("|a b c"), "a", 6) == (1, 0, 0, 1, 0, 0)

    def test_absent_symbol_all_zero(self):
        assert config_encode(XY.sequence("|x"), "y", 4) == (0, 0, 0, 0)

    @given(
        st.lists(st.integers(0, 2), max_size=4),
        st.lists(st.integers(0, 2), min_size=1, max_size=3),
        st.integers(1, 8),
    )
    def test_encodings_form_feasible_collection(self, pre, cyc, window):
        # the patterns of the alphabet carry exactly one 1 per position
        seq = SeqSpec(ABC, Segment(ABC, tuple(pre)), Segment(ABC, tuple(cyc)))
        patterns = [config_encode(seq, name, window) for name in ABC]
        assert [sum(column) for column in zip(*patterns)] == [1] * window


class TestConfigEvaluate:
    def test_first_position_priority_picks_first(self):
        spec = ConfigRuleSpec(XY, 3, Comparator(3, builtin="first-position-priority"))
        for seq in closures(XY, 3):
            assert config_evaluate(spec, seq) == seq.symbol_at(1)

    def test_single_candidate(self):
        spec = ConfigRuleSpec(ABC, 3, Comparator(3, builtin="numeric-value"))
        assert config_evaluate(spec, constant(ABC, "b")) == "b"

    def test_reversed_numeric_table(self):
        # rank by the numeric value of the reversed bit-word
        table = {
            "".join(map(str, bits)): int("".join(map(str, reversed(bits))), 2)
            for bits in __import__("itertools").product((0, 1), repeat=3)
        }
        spec = ConfigRuleSpec(XY, 3, Comparator(3, table=table))
        seq = XY.sequence("x y x|x")
        # x encodes 101, y encodes 010; reversed values 5 vs 2
        assert config_evaluate(spec, seq) == "x"

    def test_table_validation(self):
        with pytest.raises(InvalidRuleError):
            Comparator(2, table={"00": 0, "01": 1})  # not total
        with pytest.raises(InvalidRuleError):
            Comparator(2, table={"00": 0, "01": 1, "10": 1, "11": 2})  # not injective


def compile_counting_ranks(spec):
    """``config_compile(spec)`` and the bit-words its comparator ranked, in order."""
    calls, rank = [], Comparator.rank
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Comparator, "rank", lambda self, bits: calls.append(bits) or rank(self, bits))
        return config_compile(spec), calls


class TestConfigCompile:
    @settings(max_examples=100, deadline=None)
    @given(spec=config_specs())
    def test_agreement_on_all_windows(self, spec):
        aut, calls = compile_counting_ranks(spec)
        # each occupancy mask is ranked at most once
        assert len(calls) == len(set(calls)) <= 2**spec.window
        for seq in closures(spec.alphabet, spec.window):
            assert evaluate(aut, seq)[0] == config_evaluate(spec, seq)

    @pytest.mark.parametrize("size, window", [(300, 1), (64, 2), (12, 3)])
    def test_wide_alphabets_decide_every_window(self, size, window):
        # a window holds at most `window` of the symbols, however many there are
        alphabet = Alphabet(tuple(f"s{i}" for i in range(size)))
        words = bit_words(window)
        # a permutation of the words' indices, shifted to take negative ranks too
        table = {word: i * 37 % len(words) - len(words) // 2 for i, word in enumerate(words)}
        spec = ConfigRuleSpec(alphabet, window, Comparator(window, table=table))
        aut, calls = compile_counting_ranks(spec)
        assert len(calls) == len(set(calls)) <= 2**window
        closing = constant(alphabet, alphabet.symbols[0])
        for seg in enumerate_segments(alphabet, window):
            seq = concat(seg, closing)
            assert evaluate(aut, seq)[0] == config_evaluate(spec, seq)

    def test_one_symbol_fills_its_one_window(self):
        a = Alphabet(("a",))
        table = {word: -(i << 20) for i, word in enumerate(bit_words(4))}
        spec = ConfigRuleSpec(a, 4, Comparator(4, table=table))
        aut = config_compile(spec)
        assert aut.states == ("<>", "<a>", "<a a>", "<a a a>", "dec:a")
        assert evaluate(aut, constant(a, "a"))[0] == config_evaluate(spec, constant(a, "a")) == "a"
        # one window, so at most two of the 2^40 masks are ranked
        wide, calls = compile_counting_ranks(ConfigRuleSpec(a, 40, Comparator(40, builtin="numeric-value")))
        assert len(wide.states) == 41 and wide.outputs[-1] == "a" and len(calls) <= 2

    def test_bound_equals_window(self):
        # every run absorbs at the window, while the first symbol already decides
        spec = ConfigRuleSpec(XY, 3, Comparator(3, builtin="first-position-priority"))
        aut = config_compile(spec)
        assert oracle_verify_stopping(aut).bound == 3
        assert aut.bound == minimize(aut).bound == 1

    def test_segment_tree_shape(self):
        words = itertools.product(range(2), repeat=2)
        aut = segment_tree_automaton(XY, 2, (XY.name(w[0]) for w in words))
        assert len(aut.states) == 3 + 2  # words of length < 2, plus two outputs


class TestRuleJson:
    @pytest.mark.parametrize(
        "spec",
        [
            CSR3,
            CsrSpec(ABC, {"a": ONE, "b": Fraction(2, 3), "c": Fraction(3)}, Fraction(5, 2)),
            OSR_AB,
            ConfigRuleSpec(XY, 3, Comparator(3, builtin="first-position-priority")),
            ConfigRuleSpec(
                XY, 1, Comparator(1, table={"0": 0, "1": 1})
            ),
        ],
    )
    def test_round_trip(self, spec):
        assert rule_from_json(rule_to_json(spec)) == spec

    def test_fraction_strings(self):
        text = """{"kind": "csr", "alphabet": ["a", "b", "c"],
                   "weights": {"a": "1", "b": "2/3", "c": "3"}, "threshold": "3"}"""
        spec = rule_from_json(text)
        assert spec.weights["b"] == Fraction(2, 3)

    def test_malformed_rejected(self):
        with pytest.raises(InvalidRuleError):
            rule_from_json('{"kind": "csr", "alphabet": ["a"]}')
        with pytest.raises(InvalidRuleError):
            rule_from_json('{"kind": "nope", "alphabet": ["a"]}')
