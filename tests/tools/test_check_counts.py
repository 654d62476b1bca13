"""The pinned counts checker compares exactly and reports every miss."""

import json
from pathlib import Path

from tools.check_counts import differences, main, recorded_workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


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


def test_every_record_names_a_benchmark_workload():
    workloads = {entry["name"] for entry in json.loads(BENCHMARK.read_text())["workloads"]}
    assert recorded_workloads() == ["operate_week", "plan_cold"]
    assert set(recorded_workloads()) <= workloads


def test_a_workload_without_a_record_fails_before_running(capsys):
    assert main(["serve_mixed"]) == 1
    assert "no counts record for serve_mixed" in capsys.readouterr().out
