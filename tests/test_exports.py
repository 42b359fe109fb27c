"""The package's export list: every name resolves, once, in sorted order."""

import functools

import seqdec
import seqdec.cli


def test_every_exported_name_resolves():
    missing = [name for name in seqdec.__all__ if not hasattr(seqdec, name)]
    assert missing == []


def test_export_list_is_unique_and_sorted():
    assert len(set(seqdec.__all__)) == len(seqdec.__all__)
    assert seqdec.__all__ == sorted(seqdec.__all__)


# the direct semantics, kept only as oracles in tests/definitions.py, and the bitstream collection
DIRECT = {
    "automaton": ("DivergenceError", "evaluate", "run"),
    "core": ("concat", "enumerate_segments"),
    "heuristics": ("BitstreamCollection", "bitstream_collection", "config_encode",
                   "config_evaluate", "csr_evaluate", "csr_uniform_bound", "evaluate_rule",
                   "osr_evaluate"),
}
# what the benchmark calls: a missing name would fail every one of its runs
BENCH_CALLS = ("isomorphic", "minimize", "compile_rule", "automaton_to_tm", "cli.main",
               "automaton.from_json_dict", "automaton.to_json_dict", "machines.to_json_dict",
               "heuristics.rule_from_dict")


def test_the_second_stopping_pass_is_not_exported():
    # the peel's verdict (uniform_bound_search, NonStoppingRuleError) is the only one,
    # and the compiled automaton the only semantics
    for name in ("StopVerdict", "verify_stopping", "Decidedness", "decidedness"):
        assert not hasattr(seqdec, name) and name not in seqdec.__all__
    for module, names in DIRECT.items():
        for name in names:
            assert not hasattr(seqdec, name) and not hasattr(getattr(seqdec, module), name)
            assert name not in seqdec.__all__
    assert {"uniform_bound_search", "NonStoppingRuleError"} <= set(seqdec.__all__)
    for path in BENCH_CALLS:
        target = functools.reduce(getattr, path.split("."), seqdec)
        assert callable(target) and ("." in path or path in seqdec.__all__), path
