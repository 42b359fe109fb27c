"""The package's export list: every name resolves, once, in sorted order."""

import seqdec


def test_every_exported_name_resolves():
    missing = [name for name in seqdec.__all__ if not hasattr(seqdec, name)]
    assert missing == []


def test_export_list_is_unique_and_sorted():
    assert len(set(seqdec.__all__)) == len(seqdec.__all__)
    assert seqdec.__all__ == sorted(seqdec.__all__)


def test_the_second_stopping_pass_is_not_exported():
    # the peel's verdict (uniform_bound_search, NonStoppingRuleError) is the only one
    for name in ("StopVerdict", "verify_stopping", "Decidedness", "decidedness"):
        assert not hasattr(seqdec, name) and name not in seqdec.__all__
    assert {"uniform_bound_search", "NonStoppingRuleError"} <= set(seqdec.__all__)
