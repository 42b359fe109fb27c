"""Recovering a rule's parameters from nothing but its choices.

Given only a black-box evaluator, the analysis measures how many times each
alternative must repeat before the box commits to it, turns the counts into
reciprocal weights with a unit threshold, and checks that the recovered rule
agrees with the box on every input, by one search over pairs of states of
the two machines.  The recovered weights need
not equal the originals; score rules are scale invariant.
"""

from fractions import Fraction

from seqdec import (
    Alphabet,
    CsrSpec,
    OsrSpec,
    RuleHandle,
    csr_evaluate,
    identify_csr,
    identify_osr,
    osr_evaluate,
)

abc = Alphabet(("a", "b", "c"))

secret = CsrSpec(abc, {"a": Fraction(1), "b": Fraction(2), "c": Fraction(1)}, Fraction(3))
box = RuleHandle.from_callable(abc, lambda seq: csr_evaluate(secret, seq)[0], horizon=6)

recovered, checked = identify_csr(box)
print("hidden weights:   ", {k: str(v) for k, v in secret.weights.items()}, "threshold", secret.threshold)
print("recovered weights:", {k: str(v) for k, v in recovered.weights.items()}, "threshold", recovered.threshold)
print("state-pair transitions that verified agreement:", checked)

ranked_secret = OsrSpec(abc, ("c", "a", "b"), "a", 3)
ranked_box = RuleHandle.from_callable(
    abc, lambda seq: osr_evaluate(ranked_secret, seq), horizon=3
)
ranked, checked = identify_osr(ranked_box)
print("\nhidden ranking:   ", ranked_secret.order, "threshold alt", ranked_secret.threshold_alt)
print("recovered ranking:", ranked.order, "threshold alt", ranked.threshold_alt, "span", ranked.span)
print("state-pair transitions that verified agreement:", checked)
