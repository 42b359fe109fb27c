"""Score-threshold choice on an endless stream of recommendations.

A decision maker scores three alternatives equally and takes the first one
whose cumulative score reaches three.  On the cycling stream a b c a b c ...
nothing separates the alternatives until the seventh position, where a
collects its third appearance.
"""

from fractions import Fraction

from seqdec import (
    Alphabet,
    CsrSpec,
    RuleHandle,
    csr_critical_counts,
    enumerate_minimal_sufficient,
    prefix_of,
    stopping_time,
    sufficiency_of,
    uniform_bound_search,
)

alphabet = Alphabet(("a", "b", "c"))
rule = CsrSpec(alphabet, {name: Fraction(1) for name in alphabet}, Fraction(3))

print("weights:", {k: str(v) for k, v in rule.weights.items()}, "threshold:", rule.threshold)
print("per-symbol critical counts:", csr_critical_counts(rule))
handle = RuleHandle.from_rule(rule)
print("worst-case stopping position:", uniform_bound_search(handle))

stream = alphabet.sequence("|a b c")
choice, stop = handle.decide(stream), stopping_time(handle, stream)
print(f"\non the stream {stream.text()!r}: choice {choice!r} at position {stop}")
window = prefix_of(stream, stop)
print(f"the decision is already forced by the window {window.text()!r}")

for k in (6, 7, 8):
    verdict = sufficiency_of(handle, prefix_of(stream, k))
    print(f"  first {k} symbols: {verdict.status}", f"-> {verdict.decision}" if verdict.decision else "")

segments = list(enumerate_minimal_sufficient(handle))
print(f"\nthis rule has {len(segments)} minimal sufficient segments; the shortest:")
for seg, decision in segments[:6]:
    print(f"  {seg.text():<12} -> {decision}")
