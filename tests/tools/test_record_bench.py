"""The trajectory recorder appends one whole entry or leaves the file alone."""

import json

import pytest

from tools import record_bench

WORKLOADS = ["plan_cold", "serve_mixed", "operate_week"]
HISTORY = {
    "baseline_seed": {"sec5c_scheduler_timing_ms": {"50MW": 11.0}},
    "entries": [{"revision": "a7df04e", "serve_throughput": {"requests": 240}}],
}


def _result(workload, correct=True, failed=0):
    metrics = {
        "setup_s": {"value": 0.8, "unit": "s"},
        "peak_rss_mb": {"value": 96.0 + len(workload), "unit": "MB"},
        "latency_ms": {"value": 1500.0, "unit": "ms"},
        "work_per_s": {"value": 0.66, "unit": "1/s"},
    }
    return {"correct": correct, "attempted": 8, "failed": failed, "metrics": metrics}


@pytest.fixture
def trajectory(tmp_path, monkeypatch):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"workloads": [{"name": name} for name in WORKLOADS]}))
    path = tmp_path / "BENCH_solver.json"
    path.write_text(json.dumps(HISTORY, indent=2) + "\n")
    monkeypatch.setattr(record_bench, "BENCHMARK", benchmark)
    monkeypatch.setattr(record_bench, "TRAJECTORY", path)
    monkeypatch.setattr(
        record_bench, "commit",
        lambda: {"revision": "0123abc", "date": "2026-10-18T06:09:49+00:00"},
    )
    return path


def test_a_run_appends_exactly_one_entry(trajectory, monkeypatch):
    ran = []

    def run_workload(workload):
        ran.append(workload)
        return _result(workload)

    monkeypatch.setattr(record_bench, "run_workload", run_workload)
    assert record_bench.main() == 0
    assert ran == WORKLOADS
    recorded = json.loads(trajectory.read_text())
    assert recorded["baseline_seed"] == HISTORY["baseline_seed"]
    assert recorded["entries"][:-1] == HISTORY["entries"]
    entry = recorded["entries"][-1]
    assert entry["revision"] == "0123abc"
    assert entry["date"] == "2026-10-18T06:09:49+00:00"
    assert set(entry["machine"]) == {"platform", "python", "cpus"}
    assert entry["perfbench_seed"] == 0
    assert entry["workloads"] == {workload: _result(workload) for workload in WORKLOADS}


@pytest.mark.parametrize(
    "bad",
    [None, _result("serve_mixed", correct=False), _result("serve_mixed", failed=1)],
    ids=["run-failed", "incorrect", "failed-operation"],
)
def test_a_bad_workload_leaves_the_file_unchanged(trajectory, monkeypatch, bad):
    before = trajectory.read_bytes()
    monkeypatch.setattr(
        record_bench, "run_workload",
        lambda workload: bad if workload == "serve_mixed" else _result(workload),
    )
    assert record_bench.main() != 0
    assert trajectory.read_bytes() == before


def test_run_workload_reads_the_last_output_line(monkeypatch):
    class Completed:
        returncode = 0
        stdout = "plan_cold: info line\n" + json.dumps(_result("plan_cold")) + "\n"

    calls = []
    monkeypatch.setattr(
        record_bench.subprocess, "run",
        lambda command, **kwargs: calls.append(command) or Completed(),
    )
    assert record_bench.run_workload("plan_cold") == _result("plan_cold")
    assert calls[0][1:] == ["perfbench/run.py", "--workload", "plan_cold", "--seed", "0"]
    Completed.returncode = 1
    assert record_bench.run_workload("plan_cold") is None
