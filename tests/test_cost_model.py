"""The cost model as counters, not clocks.

Each checker's ``checked`` counter is deterministic work, so its growth can
be pinned where wall time cannot.  On the CSR family csr3/c (three symbols,
weights 1/c, threshold 1, c^3 + 3 states) the log-log slope of each counter
against states x symbols is fitted over c = 4, 6, 8, 10 and pinned at its
value when the pins were set plus 0.15.  A change that raises a slope past
its pin fails here; one that lowers a slope tightens its pin.
"""

import math
from fractions import Fraction

import pytest

from seqdec.analysis import (
    RuleHandle, check_informational_dominance, check_monotonicity, check_neutrality, identify_csr,
)
from seqdec.core import Alphabet
from seqdec.heuristics import CsrSpec

ABC = Alphabet(("a", "b", "c"))
SIZES = (4, 6, 8, 10)

# counter -> (how to read it off a rule, slope when pinned + 0.15); the counts
# at c = 4, 6, 8, 10 were 2,400 / 15,876 / 62,208 / 181,500 (slope 1.60),
# 432 / 1,620 / 4,032 / 8,100 (1.08), 384 / 1,296 / 3,072 / 6,000 (1.02) and
# 192 / 648 / 1,536 / 3,000 (1.02)
PINS = {
    "informational dominance": (lambda rule: check_informational_dominance(rule).checked, 1.75),
    "monotonicity": (lambda rule: check_monotonicity(rule).checked, 1.23),
    "neutrality": (lambda rule: check_neutrality(rule).checked, 1.17),
    "identify_csr": (lambda rule: identify_csr(rule).checked, 1.17),
}


def loglog_slope(xs: list[int], ys: list[int]) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


@pytest.fixture(scope="module")
def family() -> list[RuleHandle]:
    return [RuleHandle.from_rule(CsrSpec(ABC, {s: Fraction(1, c) for s in ABC}, Fraction(1)))
            for c in SIZES]


@pytest.mark.parametrize("counter", PINS)
def test_counter_slope_stays_under_its_pin(family, counter):
    read, pin = PINS[counter]
    sizes = [len(rule.automaton.states) * len(ABC) for rule in family]
    slope = loglog_slope(sizes, [read(rule) for rule in family])
    assert 0.5 < slope <= pin, f"{counter}: slope {slope:.3f} against states x symbols"
