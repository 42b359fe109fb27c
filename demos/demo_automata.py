"""Compiling a stopping rule into a finite machine and minimizing it.

With two alternatives, unit scores, and threshold two, the compiled machine
minimizes to six states: the empty history, one occurrence of either
alternative, one of each, and the two absorbing outcomes.
"""

from fractions import Fraction

from seqdec import (
    Alphabet,
    CsrSpec,
    RuleHandle,
    csr_compile,
    minimize,
    to_dot,
)

alphabet = Alphabet(("x", "y"))
rule = CsrSpec(alphabet, {"x": Fraction(1), "y": Fraction(1)}, Fraction(2))

raw = csr_compile(rule)
small = minimize(raw)
print(f"compiled: {len(raw.states)} states; minimized: {len(small.states)} states")

facts = RuleHandle.from_automaton(small).facts
print(f"every input decides within {facts.bound} observations")

print("\nruns:")
for text in ("|x", "|x y", "y|x"):
    seq = alphabet.sequence(text)
    stop, decision = facts.stop(seq)
    print(f"  {text:<8} -> {decision} at position {stop}")

print("\nper-state commitments:")
for state in small.states:
    print(f"  {state:<4} {facts.decision(state) or 'open'}")

print("\nDOT rendering:\n")
print(to_dot(small))
