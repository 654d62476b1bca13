"""The pinned plan_cold counts checker compares exactly and reports every miss."""

from tools.check_plan_cold_counts import differences


def _metrics(**values):
    return {
        name.replace("_", "."): {"value": float(value), "unit": "count"}
        for name, value in values.items()
    }


def test_equal_counts_pass():
    assert differences({"lp.solves": 26}, _metrics(lp_solves=26)) == []


def test_a_shifted_or_missing_count_is_reported():
    lines = differences({"lp.solves": 26, "anneal.lps": 10}, _metrics(lp_solves=27))
    assert lines == [
        "lp.solves: recorded 26, measured 27.0",
        "anneal.lps: recorded 10, measured None",
    ]
