"""Tests for alphabets, segments, and eventually periodic sequences."""

import math

import pytest
from hypothesis import given, strategies as st

from seqdec.core import (
    Alphabet,
    AlphabetMismatchError,
    Relabeling,
    Segment,
    SeqSpec,
    ValidationError,
    concat,
    constant,
    enumerate_segments,
    favorable_deletion,
    favorable_shift,
    prefix_of,
    relabel,
)

ABC = Alphabet(("a", "b", "c"))
XY = Alphabet(("x", "y"))


def seqs(alphabet=ABC, max_prefix=4, max_cycle=3):
    """Hypothesis strategy for small sequences over an alphabet."""
    idx = st.integers(0, len(alphabet) - 1)
    return st.builds(
        lambda p, c: SeqSpec(alphabet, Segment(alphabet, tuple(p)), Segment(alphabet, tuple(c))),
        st.lists(idx, max_size=max_prefix),
        st.lists(idx, min_size=1, max_size=max_cycle),
    )


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Alphabet(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Alphabet(("a", "a"))

    @pytest.mark.parametrize("name", ["a b", "a|b", "|", " a", "a\t", "a\nb", "a\u2003b", ""])
    def test_rejects_names_no_literal_can_spell(self, name):
        # a sequence literal splits on whitespace and '|', and drops empty names
        with pytest.raises(ValidationError) as err:
            Alphabet(("c", name))
        assert str(err.value) == f"symbol name {name!r} is empty or contains whitespace or '|'"

    def test_index_round_trip(self):
        assert [ABC.index(s) for s in ABC] == [0, 1, 2]
        assert ABC.name(2) == "c"

    def test_unknown_symbol(self):
        with pytest.raises(ValidationError):
            ABC.index("z")


class TestSegment:
    def test_empty_segment_is_valid(self):
        assert len(ABC.segment("")) == 0

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValidationError):
            Segment(XY, (2,))

    def test_symbol_set_and_occurrences(self):
        seg = ABC.segment("a b a c a")
        assert seg.symbol_set() == {"a", "b", "c"}
        assert seg.occurrences("a") == 3
        assert seg.occurrences("a", upto=2) == 1

    def test_concat_operator_requires_same_alphabet(self):
        with pytest.raises(AlphabetMismatchError):
            ABC.segment("a") + XY.segment("x")


class TestPositionFunction:
    def test_prefix_then_cycle(self):
        s = ABC.sequence("a b|c")
        assert [s.symbol_at(i) for i in range(1, 6)] == ["a", "b", "c", "c", "c"]

    def test_pure_cycle(self):
        s = ABC.sequence("|a b c")
        assert [s.symbol_at(i) for i in range(1, 8)] == ["a", "b", "c", "a", "b", "c", "a"]

    def test_text_round_trip(self):
        for text in ("a b|c", "|a b c", "a|a"):
            assert ABC.sequence(text).text() == text

    def test_literal_requires_single_bar(self):
        with pytest.raises(ValidationError):
            ABC.sequence("a b c")
        with pytest.raises(ValidationError):
            ABC.sequence("a|b|c")

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValidationError):
            ABC.sequence("a b|")


class TestPrefixOf:
    def test_cycle_sequence_length_seven(self):
        # first-k window of the pure (a b c) cycle
        assert prefix_of(ABC.sequence("|a b c"), 7).text() == "a b c a b c a"

    def test_zero_gives_empty_segment(self):
        assert len(prefix_of(ABC.sequence("a|b"), 0)) == 0

    def test_hand_unrolled(self):
        s = SeqSpec(XY, XY.segment("x"), XY.segment("y"))
        assert prefix_of(s, 3).symbols() == ("x", "y", "y")

    @given(seqs(), st.integers(0, 12))
    def test_length_and_positions(self, s, k):
        seg = prefix_of(s, k)
        assert len(seg) == k
        assert all(seg.word[i] == s.at(i + 1) for i in range(k))


class TestConcat:
    def test_definition_unfold(self):
        r = concat(ABC.segment("a b"), constant(ABC, "c"))
        assert r.prefix.text() == "a b" and r.cycle.text() == "c"

    def test_empty_head_is_identity(self):
        t = ABC.sequence("a|b c")
        assert concat(ABC.segment(""), t) == t

    def test_position_function(self):
        r = concat(ABC.segment("a b c a b c a"), constant(ABC, "b"))
        expect = ["a", "b", "c", "a", "b", "c", "a", "b", "b", "b"]
        assert [r.symbol_at(i) for i in range(1, 11)] == expect

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            concat(XY.segment("x"), constant(ABC, "a"))

    @given(seqs(), st.lists(st.integers(0, 2), max_size=4))
    def test_prefix_of_concat_recovers_head(self, tail, word):
        head = Segment(ABC, tuple(word))
        assert prefix_of(concat(head, tail), len(head)) == head


class TestFavorableShift:
    def test_definition_unfold(self):
        s = concat(ABC.segment("a b"), constant(ABC, "c"))
        assert favorable_shift(s, 1).window(5) == ABC.sequence("b a|c").window(5)

    def test_constant_sequence_fixed(self):
        s = constant(ABC, "a")
        assert favorable_shift(s, 4) == s

    def test_inside_cycle(self):
        got = favorable_shift(ABC.sequence("|a b c"), 3)
        assert [got.symbol_at(i) for i in range(1, 6)] == ["a", "b", "a", "c", "b"]

    @given(seqs(), st.integers(1, 8))
    def test_involution(self, s, k):
        assert favorable_shift(favorable_shift(s, k), k) == s

    @given(seqs(), st.integers(1, 8))
    def test_only_touches_swapped_positions(self, s, k):
        t = favorable_shift(s, k)
        assert t.at(k) == s.at(k + 1) and t.at(k + 1) == s.at(k)
        n = len(s.prefix) + len(s.cycle) + k + 2
        assert all(t.at(i) == s.at(i) for i in range(1, n) if i not in (k, k + 1))


class TestFavorableDeletion:
    def test_delete_only_distinct_symbol(self):
        s = concat(XY.segment("x"), constant(XY, "y"))
        assert favorable_deletion(s, 1) == constant(XY, "y")

    def test_inside_cycle(self):
        got = favorable_deletion(ABC.sequence("|a b c"), 2)
        assert [got.symbol_at(i) for i in range(1, 6)] == ["a", "c", "a", "b", "c"]

    def test_constant_sequence_fixed(self):
        s = constant(ABC, "c")
        assert favorable_deletion(s, 3) == s

    @given(seqs(), st.integers(1, 8))
    def test_positions_shift_down(self, s, k):
        t = favorable_deletion(s, k)
        n = len(s.prefix) + len(s.cycle) + k + 2
        assert all(t.at(i) == s.at(i) for i in range(1, k))
        assert all(t.at(i) == s.at(i + 1) for i in range(k, n))

    @given(seqs(), st.integers(1, 6), st.integers(1, 10))
    def test_occurrence_counts(self, s, k, j):
        t = favorable_deletion(s, k)
        deleted = s.symbol_at(k)
        for name in s.alphabet:
            before = prefix_of(s, j).occurrences(name)
            if j < k:
                assert prefix_of(t, j).occurrences(name) == before
            else:
                after = prefix_of(t, j).occurrences(name)
                expect = prefix_of(s, j + 1).occurrences(name)
                assert after == expect - (1 if name == deleted else 0)


class TestRelabel:
    def test_identity(self):
        s = ABC.sequence("a b|c")
        assert relabel(s, Relabeling.identity(ABC)) == s

    def test_swap(self):
        sigma = Relabeling.from_names(XY, {"x": "y", "y": "x"})
        assert relabel(XY.sequence("|x y"), sigma) == XY.sequence("|y x")

    def test_three_cycle(self):
        sigma = Relabeling.from_names(ABC, {"a": "b", "b": "c", "c": "a"})
        assert relabel(ABC.sequence("|a b c"), sigma) == ABC.sequence("|b c a")

    def test_non_bijection_rejected(self):
        with pytest.raises(ValidationError):
            Relabeling.from_names(ABC, {"a": "b"})  # two symbols now map to b

    @given(seqs(), st.permutations(range(3)))
    def test_inverse_round_trip(self, s, perm):
        sigma = Relabeling(ABC, tuple(perm))
        assert relabel(relabel(s, sigma), sigma.inverse()) == s


class TestEnumerateSegments:
    def test_base_enumeration(self):
        got = [seg.text() for seg in enumerate_segments(XY, 1)]
        assert got == ["x", "y"]

    def test_length_two_order(self):
        segs = list(enumerate_segments(ABC, 2))
        assert len(segs) == 9
        assert segs[0].text() == "a a" and segs[-1].text() == "c c"

    def test_cardinality(self):
        assert sum(1 for _ in enumerate_segments(XY, 10)) == 1024

    def test_no_duplicates(self):
        words = [seg.word for seg in enumerate_segments(ABC, 3)]
        assert len(set(words)) == len(words)


class TestEquality:
    def test_representation_independent(self):
        assert ABC.sequence("|a b") == ABC.sequence("a|b a")
        assert ABC.sequence("|b") == ABC.sequence("b b|b b b")

    def test_distinct_sequences_differ(self):
        assert ABC.sequence("|a b") != ABC.sequence("|b a")
        assert ABC.sequence("a|b") != ABC.sequence("|b")

    def test_hash_consistent_with_eq(self):
        s, t = ABC.sequence("|a b"), ABC.sequence("a b|a b")
        assert s == t and hash(s) == hash(t)

    def test_canonical_is_minimal(self):
        c = ABC.sequence("a b a|b a b a").canonical()
        assert c.prefix.text() == "" and c.cycle.text() == "a b"

    @given(seqs(max_prefix=3, max_cycle=3), seqs(max_prefix=3, max_cycle=3))
    def test_eq_matches_full_window_agreement(self, s, t):
        # the decision window |p|+|p'|+lcm(|c|,|c'|) is exact: agreement on it
        # coincides with agreement on a much larger window
        window = len(s.prefix) + len(t.prefix) + math.lcm(len(s.cycle), len(t.cycle))
        wide = window * 3 + 5
        agree = all(s.at(i) == t.at(i) for i in range(1, wide + 1))
        assert (s == t) == agree

    @given(seqs(), st.integers(1, 10))
    def test_unrolled_preserves_function(self, s, n):
        assert s.unrolled(n) == s
        assert len(s.unrolled(n).prefix) >= n
