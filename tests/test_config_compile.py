"""The bytes ``seqdec compile`` prints for a fixed corpus of config rules.

Each rule is compiled with and without ``--minimize``; the SHA-256 prefix
of its stdout must match the one recorded when the compiler called
``config_evaluate`` once per prefix-tree leaf, but for the bound, which is
the peel's forced-decision bound.
"""

import contextlib
import hashlib
import io

import pytest

from seqdec.cli import main
from seqdec.core import Alphabet
from seqdec.heuristics import Comparator, ConfigRuleSpec, rule_to_json
from tests.test_heuristics import bit_words


def golden_spec(symbols: str, window: int, comparator: str) -> ConfigRuleSpec:
    if comparator == "table":
        # multiplying by an odd number permutes the residues mod 2^window
        table = {w: (5 * int(w, 2) + 3) % 2**window for w in bit_words(window)}
        comp = Comparator(window, table=table)
    else:
        comp = Comparator(window, builtin=comparator)
    return ConfigRuleSpec(Alphabet(tuple(symbols)), window, comp)


# SHA-256 prefixes of ``seqdec compile`` stdout, plain then ``--minimize``,
# as printed when the compiler called ``config_evaluate`` once per leaf, with
# "uniform_bound" the least K at which every window forces the decision: a
# rule that the first symbol decides prints 1 (0 over one symbol), not the
# window at which the unminimized prefix tree absorbs
GOLDEN = {
    "x/1/table": ["907ccf8724a6a3d4", "215a8ed3109119da"],
    "x/1/numeric-value": ["907ccf8724a6a3d4", "215a8ed3109119da"],
    "x/1/first-position-priority": ["907ccf8724a6a3d4", "215a8ed3109119da"],
    "x/3/table": ["cbf71a1d39366518", "215a8ed3109119da"],
    "x/3/numeric-value": ["cbf71a1d39366518", "215a8ed3109119da"],
    "x/3/first-position-priority": ["cbf71a1d39366518", "215a8ed3109119da"],
    "x/5/table": ["10d2535cae25f59a", "215a8ed3109119da"],
    "x/5/numeric-value": ["10d2535cae25f59a", "215a8ed3109119da"],
    "x/5/first-position-priority": ["10d2535cae25f59a", "215a8ed3109119da"],
    "xy/1/table": ["9e440bd9a7b51c7a", "19b43354611a11f4"],
    "xy/1/numeric-value": ["9e440bd9a7b51c7a", "19b43354611a11f4"],
    "xy/1/first-position-priority": ["9e440bd9a7b51c7a", "19b43354611a11f4"],
    "xy/3/table": ["164d4c1206a0f1f4", "c13c3cc401607b70"],
    "xy/3/numeric-value": ["3f50f26c0486bbc1", "19b43354611a11f4"],
    "xy/3/first-position-priority": ["3f50f26c0486bbc1", "19b43354611a11f4"],
    "xy/5/table": ["ebbb990142be6156", "98d071cefb11a88d"],
    "xy/5/numeric-value": ["49d3cdf5eed4d546", "19b43354611a11f4"],
    "xy/5/first-position-priority": ["49d3cdf5eed4d546", "19b43354611a11f4"],
    "abc/1/table": ["17bf8652240fa9c0", "b9ad03ed47c447d2"],
    "abc/1/numeric-value": ["17bf8652240fa9c0", "b9ad03ed47c447d2"],
    "abc/1/first-position-priority": ["17bf8652240fa9c0", "b9ad03ed47c447d2"],
    "abc/3/table": ["6723b13625c8b6ce", "864eab93d1091228"],
    "abc/3/numeric-value": ["1773ba83a12a1da9", "b9ad03ed47c447d2"],
    "abc/3/first-position-priority": ["1773ba83a12a1da9", "b9ad03ed47c447d2"],
    "abc/5/table": ["4b106c4f78e1be39", "d98b811a8ef38e6b"],
    "abc/5/numeric-value": ["607d9c07d5cbdad6", "b9ad03ed47c447d2"],
    "abc/5/first-position-priority": ["607d9c07d5cbdad6", "b9ad03ed47c447d2"],
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_compile_output_is_unchanged(tmp_path, case):
    symbols, window, comparator = case.split("/")
    path = tmp_path / "rule.json"
    path.write_text(rule_to_json(golden_spec(symbols, int(window), comparator)))
    digests = []
    for extra in ([], ["--minimize"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["compile", str(path), *extra]) == 0
        digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest()[:16])
    assert digests == GOLDEN[case]
