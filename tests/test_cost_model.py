"""The cost model as counters, not clocks.

Each checker's ``checked`` counter is deterministic work, so its growth can
be pinned where wall time cannot.  On each family of rules below, the
log-log slope of each growing counter against states x symbols is fitted
over four sizes and pinned at its value when the pins were set plus 0.15.
A change that raises a slope past its pin fails here; one that lowers a
slope tightens its pin.  The families:

* csr3/c: three symbols, weights 1/c, threshold 1, c^3 + 3 states, for
  c = 4, 6, 8, 10;
* the chain {a: 1/n, b: 1}, threshold 1, n + 2 states, for n = 50, 100,
  200, 400, where informational dominance is quadratic in the states and
  neutrality stops at the first swap, 4 transitions at every size;
* osrN/3: N symbols ranked in alphabet order, the best one the threshold,
  span 3, for N = 6, 8, 10, 12.
"""

import math
from fractions import Fraction

import pytest

from seqdec.analysis import (
    RuleHandle, check_informational_dominance, check_monotonicity, check_neutrality,
    check_replacement, check_sequential_alpha, check_snbc, identify_csr, identify_osr,
)
from seqdec.core import Alphabet
from seqdec.heuristics import CsrSpec, OsrSpec

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


def chain(n: int) -> RuleHandle:
    ab = Alphabet(("a", "b"))
    return RuleHandle.from_rule(CsrSpec(ab, {"a": Fraction(1, n), "b": Fraction(1)}, Fraction(1)))


def osr_span3(size: int) -> RuleHandle:
    ab = Alphabet(tuple(f"s{i:02d}" for i in range(size)))
    return RuleHandle.from_rule(OsrSpec(ab, ab.symbols, ab.symbols[0], 3))


FAMILIES = {"chain": (chain, (50, 100, 200, 400)), "osrN/3": (osr_span3, (6, 8, 10, 12))}

# (family, counter) -> (how to read it off a rule, slope when pinned + 0.15); the
# counts were 1,325 / 5,150 / 20,300 / 80,600 (slope 2.01), 98 / 198 / 398 / 798
# (1.03) and 100 / 200 / 400 / 800 (1.02) on the chain; 495 / 1,365 / 2,907 / 5,313
# (1.75), 65 / 189 / 417 / 781 (1.83), 10 / 35 / 84 / 165 (2.06) and 66 / 120 /
# 190 / 276 (1.05) on osrN/3
FAMILY_PINS = {
    ("chain", "informational dominance"): (PINS["informational dominance"][0], 2.16),
    ("chain", "monotonicity"): (PINS["monotonicity"][0], 1.18),
    ("chain", "identify_csr"): (PINS["identify_csr"][0], 1.17),
    ("osrN/3", "replacement"): (lambda rule: check_replacement(rule).checked, 1.90),
    ("osrN/3", "sequential-alpha"): (lambda rule: check_sequential_alpha(rule).checked, 1.98),
    ("osrN/3", "SNBC"): (lambda rule: check_snbc(rule).checked, 2.21),
    ("osrN/3", "identify_osr"): (lambda rule: identify_osr(rule).checked, 1.20),
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


def assert_under_pin(rules: list[RuleHandle], read, pin: float, counter: str) -> None:
    sizes = [len(rule.automaton.states) * len(rule.alphabet) for rule in rules]
    slope = loglog_slope(sizes, [read(rule) for rule in rules])
    assert 0.5 < slope <= pin, f"{counter}: slope {slope:.3f} against states x symbols"


@pytest.mark.parametrize("counter", PINS)
def test_counter_slope_stays_under_its_pin(family, counter):
    assert_under_pin(family, *PINS[counter], counter)


@pytest.fixture(scope="module")
def families() -> dict[str, list[RuleHandle]]:
    return {name: [build(size) for size in sizes] for name, (build, sizes) in FAMILIES.items()}


@pytest.mark.parametrize("name, counter", FAMILY_PINS, ids=[" ".join(key) for key in FAMILY_PINS])
def test_family_counter_slope_stays_under_its_pin(families, name, counter):
    assert_under_pin(families[name], *FAMILY_PINS[name, counter], f"{name} {counter}")
