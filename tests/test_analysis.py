"""Tests for stopping analysis, axiom checkers, and identification."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqdec.core import Alphabet, AlphabetMismatchError, ResourceLimit, Segment, SeqSpec, constant
from seqdec.automaton import (
    MINIMAL_SUFFICIENT, NOT_SUFFICIENT, SUFFICIENT, DecisionAutomaton, NonStoppingRuleError, Sufficiency,
)
from seqdec.heuristics import Comparator, ConfigRuleSpec, CsrSpec, OsrSpec
from seqdec.analysis import (
    CHECKERS,
    SUITES,
    HorizonViolation,
    NotAChoiceRule,
    NotCsr,
    NotOsr,
    RuleHandle,
    agreement_count,
    check_acyclicity,
    check_informational_dominance,
    check_monotonicity,
    check_neutrality,
    check_replacement,
    check_sequential_alpha,
    check_snbc,
    decisive_set,
    enumerate_minimal_sufficient,
    identify_csr,
    identify_osr,
    replay_witness,
    run_suite,
    stopping_time,
    sufficiency_of,
    tabulate_automaton,
    uniform_bound_search,
)
from tests.conftest import ABC, XY
from tests.definitions import csr_evaluate, evaluate, osr_evaluate
from tests.test_search import automata
from tests.mutants import MUTANTS

ONE = Fraction(1)
CSR3 = CsrSpec(ABC, {s: ONE for s in ABC}, Fraction(3))
FIG_CSR = CsrSpec(XY, {s: ONE for s in XY}, Fraction(2))
OSR_AB = OsrSpec(ABC, ("a", "b", "c"), "b", 2)


def fig_handles():
    """The same rule as an automaton and as a declared-horizon black box."""
    aut = RuleHandle.from_rule(FIG_CSR)
    box = RuleHandle.from_callable(XY, lambda s: csr_evaluate(FIG_CSR, s)[0], horizon=3)
    return aut, box


def closure(alphabet, word, cyc):
    return SeqSpec(alphabet, Segment(alphabet, word), Segment(alphabet, (cyc,)))


def oracle_minimal_sufficient(rule, bound):
    """Unpruned enumeration with tail-basis sufficiency, fully independent
    of the layered analysis: every word up to the bound is classified by
    direct rule evaluation over all fills and closures."""
    n = len(rule.alphabet)
    memo = {}

    def suff(word):
        if word in memo:
            return memo[word]
        decisions = set()
        for fill in itertools.product(range(n), repeat=bound - len(word)):
            for cyc in range(n):
                decisions.add(rule.decide(closure(rule.alphabet, word + fill, cyc)))
        memo[word] = decisions.pop() if len(decisions) == 1 else None
        return memo[word]

    found = []
    for m in range(bound + 1):
        for word in itertools.product(range(n), repeat=m):
            dec = suff(word)
            if dec is not None and all(suff(word[:j]) is None for j in range(m)):
                found.append((word, dec))
    return found


class TestStoppingTime:
    def test_threshold_three_cycle_sequence(self):
        rule = RuleHandle.from_rule(CSR3)
        assert stopping_time(rule, ABC.sequence("|a b c")) == 7

    def test_immediately_decisive_first_symbol(self):
        rule = RuleHandle.from_rule(OsrSpec(ABC, ("a", "b", "c"), "b", 2))
        assert stopping_time(rule, ABC.sequence("a|c")) == 1

    def test_constant_sequence_two_occurrences(self):
        for rule in fig_handles():
            assert stopping_time(rule, constant(XY, "x")) == 2

    def test_handle_kinds_agree(self):
        aut, box = fig_handles()
        for word in itertools.product(range(2), repeat=3):
            for cyc in range(2):
                seq = closure(XY, word, cyc)
                assert stopping_time(aut, seq) == stopping_time(box, seq)

    def test_sequence_over_another_alphabet_refused(self):
        for rule in fig_handles():
            for ask in (stopping_time, RuleHandle.decide):
                with pytest.raises(AlphabetMismatchError):
                    ask(rule, ABC.sequence("|a"))


class TestUniformBoundSearch:
    def test_figure_rule(self):
        for rule in fig_handles():
            assert uniform_bound_search(rule) == 3

    def test_threshold_three(self):
        assert uniform_bound_search(RuleHandle.from_rule(CSR3)) == 7

    def test_maximizer_never_stops_early(self):
        spec = OsrSpec(ABC, ("a", "b", "c"), "a", 3)
        assert uniform_bound_search(RuleHandle.from_rule(spec)) == 3

    def test_automaton_bound_matches_absorption_bound(self):
        # compiled CSR and OSR automata decide only where they absorb
        from tests.conftest import oracle_verify_stopping

        for spec in (CSR3, FIG_CSR, OSR_AB):
            rule = RuleHandle.from_rule(spec)
            assert uniform_bound_search(rule) == oracle_verify_stopping(rule.automaton).bound

    def test_max_stopping_time_equals_bound(self):
        rule = RuleHandle.from_rule(FIG_CSR)
        k = uniform_bound_search(rule)
        stops = [
            stopping_time(rule, closure(XY, word, word[-1]))
            for word in itertools.product(range(2), repeat=k)
        ]
        assert max(stops) == k


class TestMinimalSufficient:
    def test_figure_rule_frozen_set(self):
        got = {
            (seg.text(), dec)
            for seg, dec in enumerate_minimal_sufficient(RuleHandle.from_rule(FIG_CSR))
        }
        assert got == {
            ("x x", "x"),
            ("y y", "y"),
            ("x y x", "x"),
            ("x y y", "y"),
            ("y x x", "x"),
            ("y x y", "y"),
        }

    def test_first_position_rule_has_length_one_segments(self):
        rule = RuleHandle.from_callable(ABC, lambda s: s.symbol_at(1), horizon=1)
        got = [(seg.text(), dec) for seg, dec in enumerate_minimal_sufficient(rule)]
        assert got == [("a", "a"), ("b", "b"), ("c", "c")]

    def test_threshold_three_contains_cycle_window(self):
        rule = RuleHandle.from_rule(CSR3)
        ms = {(seg.text(), dec) for seg, dec in enumerate_minimal_sufficient(rule)}
        assert ("a b c a b c a", "a") in ms

    @pytest.mark.parametrize(
        "spec", [FIG_CSR, OSR_AB, ConfigRuleSpec(XY, 3, Comparator(3, builtin="numeric-value"))]
    )
    def test_pruned_equals_unpruned_oracle(self, spec):
        rule = RuleHandle.from_rule(spec)
        bound = uniform_bound_search(rule)
        pruned = [(tuple(seg.word), dec) for seg, dec in enumerate_minimal_sufficient(rule)]
        assert sorted(pruned) == sorted(oracle_minimal_sufficient(rule, bound))

    def test_sufficiency_verdicts(self):
        rule = RuleHandle.from_rule(CSR3)
        assert sufficiency_of(rule, ABC.segment("a b c a b c")).status == NOT_SUFFICIENT
        v = sufficiency_of(rule, ABC.segment("a b c a b c a"))
        assert v.status == MINIMAL_SUFFICIENT and v.decision == "a"
        v = sufficiency_of(rule, ABC.segment("a b c a b c a b"))
        assert v.status == SUFFICIENT and v.decision == "a"


class TestHorizon:
    def test_black_box_segment_past_horizon(self):
        ab = Alphabet(("a", "b"))
        spec = CsrSpec(ab, {"a": Fraction(1, 2), "b": ONE}, ONE)
        box = RuleHandle.from_callable(ab, lambda s: csr_evaluate(spec, s)[0], horizon=2)
        seg = ab.segment("a a a")
        got = sufficiency_of(box, seg)
        assert got == Sufficiency(SUFFICIENT, "a")
        assert sufficiency_of(RuleHandle.from_automaton(tabulate_automaton(box)), seg) == got

    def test_lying_horizon_detected(self):
        rule = RuleHandle.from_callable(ABC, lambda s: s.symbol_at(3), horizon=2)
        with pytest.raises(HorizonViolation):
            uniform_bound_search(rule)

    def test_generous_horizon_is_fine(self):
        rule = RuleHandle.from_callable(XY, lambda s: s.symbol_at(1), horizon=3)
        assert uniform_bound_search(rule) == 1

    @pytest.mark.parametrize(
        "alphabet, horizon", [(XY, 19), (ABC, 12), (Alphabet(tuple("abcd")), 10)]
    )
    def test_segment_tree_past_the_state_cap_runs_nothing(self, alphabet, horizon):
        # at most 2^20 windows, but more than 2^18 tree states
        calls = []
        rule = RuleHandle.from_callable(
            alphabet, lambda s: calls.append(1) or s.symbol_at(1), horizon=horizon
        )
        with pytest.raises(ResourceLimit, match="states exceed the cap"):
            uniform_bound_search(rule)
        assert calls == []

    def test_a_state_entered_at_several_depths_names_the_first_open_window(self):
        # p is entered after 'a' and after 'b a', and its shortest depth is 1
        ab = Alphabet(("a", "b"))
        transitions = {"s": {"a": "p", "b": "q"}, "q": {"a": "p", "b": "dec:b"},
                       "p": {"a": "dec:a", "b": "dec:b"}}
        transitions.update({t: {"a": t, "b": t} for t in ("dec:a", "dec:b")})
        aut = DecisionAutomaton(ab, ("s", "p", "q", "dec:a", "dec:b"), "s", transitions,
                                {"dec:a": "a", "dec:b": "b"})
        assert aut.bound == 3
        with pytest.raises(HorizonViolation, match="after window 'b a' is still open") as info:
            RuleHandle(ab, automaton=aut, horizon=2).facts
        assert (info.value.window, info.value.horizon) == ("b a", 2)

    @settings(max_examples=200, deadline=None)
    @given(aut=automata(), horizon=st.integers(1, 5))
    def test_a_violated_horizon_names_the_first_open_window(self, aut, horizon):
        try:
            facts = RuleHandle.from_automaton(aut).facts
        except NonStoppingRuleError:
            return
        windows = itertools.product(range(len(aut.alphabet)), repeat=horizon)
        first = next((w for w in windows if facts.decided(w) is None), None)
        rule = RuleHandle(aut.alphabet, automaton=aut, horizon=horizon)
        if first is None:
            assert rule.facts.bound <= horizon
            return
        with pytest.raises(HorizonViolation) as info:
            rule.facts
        assert info.value.window == " ".join(aut.alphabet.symbols[i] for i in first)

    def test_non_stopping_automaton_refused(self):
        loop = DecisionAutomaton(XY, ("q",), "q", {"q": {"x": "q", "y": "q"}}, {})
        with pytest.raises(NonStoppingRuleError, match=r"never decides on '\|x'") as info:
            uniform_bound_search(RuleHandle.from_automaton(loop))
        assert info.value.sequence == XY.sequence("|x")


class TestDecisiveSet:
    def test_above_threshold_symbols_are_decisive(self):
        dset = decisive_set(RuleHandle.from_rule(OSR_AB))
        assert dset.decisive == ("a",)
        assert dset.complement == ("b", "c")
        # witnesses replay: the recorded segment contains the symbol and
        # picks something else
        rule = RuleHandle.from_rule(OSR_AB)
        for name, (seg_text, dec) in dset.witnesses.items():
            seg = ABC.segment(seg_text)
            assert name in seg.symbol_set() and dec != name
            got = sufficiency_of(rule, seg)
            assert got.status == MINIMAL_SUFFICIENT and got.decision == dec

    def test_span_one_makes_every_symbol_decisive(self):
        spec = OsrSpec(ABC, ("a", "b", "c"), "c", 1)
        assert decisive_set(RuleHandle.from_rule(spec)).decisive == ("a", "b", "c")

    def test_threshold_rule_has_no_decisive_symbol(self):
        assert decisive_set(RuleHandle.from_rule(FIG_CSR)).decisive == ()


class TestNecessity:
    """Rules of each characterized family pass their axiom suite."""

    @pytest.mark.parametrize(
        "spec",
        [
            FIG_CSR,
            CSR3,
            CsrSpec(ABC, {"a": ONE, "b": Fraction(2), "c": ONE}, Fraction(3)),
            CsrSpec(XY, {"x": Fraction(1, 2), "y": Fraction(3, 2)}, Fraction(3, 2)),
        ],
    )
    def test_score_threshold_rules(self, spec):
        rule = RuleHandle.from_rule(spec)
        assert check_monotonicity(rule).passed
        assert check_informational_dominance(rule).passed

    @pytest.mark.parametrize(
        "spec",
        [
            OSR_AB,
            OsrSpec(ABC, ("c", "a", "b"), "a", 3),
            OsrSpec(ABC, ("a", "b", "c"), "a", 3),
            OsrSpec(XY, ("y", "x"), "y", 2),
            OsrSpec(ABC, ("b", "c", "a"), "c", 1),
        ],
    )
    def test_ranked_threshold_rules(self, spec):
        rule = RuleHandle.from_rule(spec)
        assert check_replacement(rule).passed
        assert check_sequential_alpha(rule).passed
        assert check_snbc(rule).passed

    @pytest.mark.parametrize(
        "spec",
        [
            ConfigRuleSpec(XY, 3, Comparator(3, builtin="first-position-priority")),
            ConfigRuleSpec(XY, 3, Comparator(3, builtin="numeric-value")),
            ConfigRuleSpec(ABC, 2, Comparator(2, builtin="numeric-value")),
        ],
    )
    def test_configuration_rules(self, spec):
        rule = RuleHandle.from_rule(spec)
        assert check_neutrality(rule).passed
        assert check_acyclicity(rule).passed

    def test_first_position_rule_passes_monotonicity(self):
        rule = RuleHandle.from_callable(ABC, lambda s: s.symbol_at(1), horizon=1)
        assert check_monotonicity(rule).passed


class TestMutants:
    """Each checker fails its documented mutant with a replayable witness."""

    @pytest.mark.parametrize("axiom", sorted(MUTANTS))
    def test_fails_with_replayable_witness(self, axiom):
        rule = MUTANTS[axiom]()
        report = CHECKERS[axiom](rule)
        assert not report.passed
        assert report.witness is not None
        assert replay_witness(rule, report)

    @pytest.mark.parametrize("axiom", sorted(MUTANTS))
    def test_reports_are_deterministic(self, axiom):
        first = CHECKERS[axiom](MUTANTS[axiom]())
        second = CHECKERS[axiom](MUTANTS[axiom]())
        assert first == second

    def test_triangle_mutant_reveals_three_cycle(self):
        report = check_acyclicity(MUTANTS["acyclicity"]())
        assert len(report.witness["cycle"]) == 3

    def test_cyclic_majority_reveals_two_cycle(self):
        from tests.mutants import cyclic_majority_rule

        report = check_acyclicity(cyclic_majority_rule())
        assert not report.passed and len(report.witness["cycle"]) == 2

    def test_neutrality_witness_matches_direct_evaluation(self):
        # independently confirm the documented violating shape: with
        # critical counts (1, 3), swapping the symbols changes the choice
        spec = CsrSpec(XY, {"x": Fraction(3), "y": ONE}, Fraction(3))
        assert csr_evaluate(spec, XY.sequence("y x|x"))[0] == "x"
        assert csr_evaluate(spec, XY.sequence("x y|y"))[0] == "x"
        # sigma swaps x and y, so the first decision should have mapped to y


class TestAcyclicityDetails:
    def test_pass_emits_topological_order(self):
        spec = ConfigRuleSpec(XY, 3, Comparator(3, builtin="first-position-priority"))
        rule = RuleHandle.from_rule(spec)
        report = check_acyclicity(rule)
        assert report.passed
        order = report.details["configuration_order"]
        assert len(order) == len(set(order))

    def test_revealed_relation_embeds_into_comparator(self):
        comp = Comparator(3, builtin="first-position-priority")
        spec = ConfigRuleSpec(XY, 3, comp)
        rule = RuleHandle.from_rule(spec)
        order = check_acyclicity(rule).details["configuration_order"]
        ranks = [comp.rank(tuple(int(b) for b in cfg)) for cfg in order]
        assert ranks == sorted(ranks, reverse=True)

    def test_non_choice_rule_rejected(self):
        rule = RuleHandle.from_callable(XY, lambda s: "yes", horizon=1)
        with pytest.raises(NotAChoiceRule):
            check_neutrality(rule)
        with pytest.raises(NotAChoiceRule):
            check_acyclicity(rule)


class TestIdentifyCsr:
    def test_figure_rule_black_box(self):
        _, box = fig_handles()
        spec = identify_csr(box).spec
        assert spec.threshold == 1
        assert spec.weights == {"x": Fraction(1, 2), "y": Fraction(1, 2)}

    def test_scale_invariance_round_trip(self):
        source = CsrSpec(ABC, {"a": ONE, "b": Fraction(2), "c": ONE}, Fraction(3))
        rule = RuleHandle.from_rule(source)
        spec = identify_csr(rule).spec
        assert spec.threshold == 1
        assert spec.weights == {"a": Fraction(1, 3), "b": Fraction(1, 2), "c": Fraction(1, 3)}
        assert agreement_count(rule, spec) > 0

    def test_degenerate_first_position_rule(self):
        rule = RuleHandle.from_callable(ABC, lambda s: s.symbol_at(1), horizon=1)
        spec = identify_csr(rule).spec
        assert spec.threshold == 1 and set(spec.weights.values()) == {ONE}

    def test_ranked_rule_is_not_a_threshold_rule(self):
        rule = RuleHandle.from_rule(OSR_AB)
        with pytest.raises(NotCsr) as err:
            identify_csr(rule)
        assert err.value.sequence is not None


class TestIdentifyOsr:
    def test_round_trip_observational_equivalence(self):
        rule = RuleHandle.from_rule(OSR_AB)
        spec = identify_osr(rule).spec
        for word in itertools.product(range(3), repeat=spec.span):
            for cyc in range(3):
                seq = closure(ABC, word, cyc)
                assert osr_evaluate(spec, seq) == osr_evaluate(OSR_AB, seq)

    def test_maximizer_special_case(self):
        source = OsrSpec(ABC, ("a", "b", "c"), "a", 3)
        rule = RuleHandle.from_rule(source)
        spec = identify_osr(rule).spec
        assert decisive_set(rule).decisive == ("a",)
        assert spec.threshold_alt == "b"
        for word in itertools.product(range(3), repeat=3):
            seq = closure(ABC, word, word[0])
            assert osr_evaluate(spec, seq) == osr_evaluate(source, seq)

    def test_span_one_rule(self):
        rule = RuleHandle.from_callable(ABC, lambda s: s.symbol_at(1), horizon=1)
        spec = identify_osr(rule).spec
        assert spec.span == 1
        for name in ABC:
            assert osr_evaluate(spec, constant(ABC, name)) == name

    def test_threshold_rule_is_not_a_ranked_rule(self):
        rule = RuleHandle.from_rule(FIG_CSR)
        with pytest.raises(NotOsr):
            identify_osr(rule)


class TestTabulate:
    def test_tabulated_automaton_agrees(self):
        rule = RuleHandle.from_callable(
            ABC, lambda s: osr_evaluate(OSR_AB, s), horizon=2
        )
        aut = tabulate_automaton(rule)
        for word in itertools.product(range(3), repeat=2):
            for cyc in range(3):
                seq = closure(ABC, word, cyc)
                assert evaluate(aut, seq)[0] == rule.decide(seq)


class TestReports:
    def test_json_shape(self):
        report = check_monotonicity(RuleHandle.from_rule(FIG_CSR))
        doc = report.to_json_dict()
        assert doc["axiom"] == "monotonicity"
        assert doc["verdict"] == "pass"
        assert doc["witness"] is None
        assert doc["checked"] > 0 and doc["horizon"] == 3
        json.dumps(doc)  # serializable

    def test_fail_report_serializes(self):
        rule = MUTANTS["neutrality"]()
        doc = check_neutrality(rule).to_json_dict()
        assert doc["verdict"] == "fail"
        json.dumps(doc)

    def test_suites(self):
        rule = RuleHandle.from_rule(FIG_CSR)
        reports = run_suite(rule, "csr")
        assert [r.axiom for r in reports] == ["monotonicity", "informational-dominance"]
        assert set(SUITES["all"]) == set(CHECKERS)


class TestPaperScenario:
    """The worked threshold-three example, end to end."""

    def test_blocking_segment_forces_other_choice(self):
        # truncating the minimal sufficient window after six symbols and
        # splicing in a sufficient segment without its choice yields b
        rule = RuleHandle.from_rule(CSR3)
        n_seg = ABC.segment("b b c b b")
        assert sufficiency_of(rule, n_seg).is_sufficient
        composite = ABC.sequence("a b c a b c b b c b b|c")
        assert rule.decide(composite) == "b"
        assert csr_evaluate(CSR3, composite) == ("b", 7)
