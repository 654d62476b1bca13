"""The replays of one record run at the same time and give the same bits.

``operate_plan`` and ``survivability_study`` hand their independent replays
to ``run_replays``, which runs the first in the caller's thread and the rest
on a thread pool sized by ``available_cpu_count``.  A record must not depend
on the thread count, on which replay finishes first, or on other records
being replayed at the same time.
"""

import json
import sys
import threading

import pytest

from repro.core.tool import PlacementTool
from repro.operator.faults import FaultSpec
from repro.operator.replay import OperateConfig, ReplayHarness, operate_plan, survivability_study
from repro.parallel import executors
from repro.parallel.executors import ExecutorFactory
from repro.scenarios import get_scenario

#: A site outage, a forecast blackout and a solver failure: the stressed
#: replay exercises the retry ladder and the persistence fallback.
FAULTS = FaultSpec.from_dict(
    {
        "site_outages": [{"site": 0, "start_step": 6, "duration_steps": 4}],
        "forecast_blackouts": [{"start_step": 12, "duration_steps": 4}],
        "solver_faults": [8],
    }
)


@pytest.fixture(scope="module")
def smoke():
    """The operate-smoke plan, its operating config and its service power."""
    spec = get_scenario("operate-smoke").build().base
    plan = PlacementTool.from_spec(spec).plan_spec(spec).plan
    config = OperateConfig(**dict(spec.operate_knobs(), forecast_error=0.25))
    return plan, config, spec.total_capacity_kw


def _text(record):
    return json.dumps(record, sort_keys=True)


def _operate(smoke, faults=None):
    plan, config, capacity_kw = smoke
    return _text(operate_plan(plan, config, total_capacity_kw=capacity_kw, faults=faults))


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(executors, "available_cpu_count", lambda: cpus)


@pytest.fixture(scope="module")
def inline(smoke):
    """Records with one CPU available: every replay runs in the caller's thread."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _on_cpus(monkeypatch, 1)
        return {"nominal": _operate(smoke), "stressed": _operate(smoke, FAULTS)}


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("program", ["nominal", "stressed"])
def test_operate_record_is_the_same_on_any_number_of_cpus(
    smoke, inline, monkeypatch, cpus, program
):
    _on_cpus(monkeypatch, cpus)
    faults = FAULTS if program == "stressed" else None
    assert _operate(smoke, faults) == inline[program]
    record = json.loads(inline[program])
    assert [record[policy]["policy"] for policy in ("forecast", "oracle")] == [
        "forecast",
        "oracle",
    ]
    if program == "stressed":
        assert record["stress"]["replay"]["slide_retries"] >= 1


def test_survivability_record_is_the_same_inline_and_threaded(smoke, monkeypatch):
    plan, config, capacity_kw = smoke
    n1_sizing = {
        dc.name: {
            "capacity_kw": 1.3 * dc.capacity_kw,
            "solar_kw": dc.solar_kw,
            "wind_kw": dc.wind_kw,
            "battery_kwh": dc.battery_kwh,
        }
        for dc in plan.datacenters
    }

    def study(cpus):
        _on_cpus(monkeypatch, cpus)
        return _text(
            survivability_study(plan, n1_sizing, config, total_capacity_kw=capacity_kw)
        )

    serial = study(1)
    assert len(json.loads(serial)["sites"]) > 1
    assert study(2) == serial
    assert study(4) == serial


def test_replays_run_on_the_caller_and_a_pool_thread(smoke, inline, monkeypatch):
    _on_cpus(monkeypatch, 2)
    threads = []
    run = ReplayHarness.run

    def recorded(harness, policy="forecast"):
        threads.append(threading.get_ident())
        return run(harness, policy)

    monkeypatch.setattr(ReplayHarness, "run", recorded)
    assert _operate(smoke) == inline["nominal"]
    assert len(threads) == 2
    assert threading.get_ident() in threads and len(set(threads)) == 2


def test_concurrent_records_are_independent(smoke, inline, monkeypatch):
    # Four records of two replay threads each, with frequent thread
    # switches: eight HiGHS handles solving at once, more threads than cores.
    _on_cpus(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ExecutorFactory(kind="thread", max_workers=4).create(4) as pool:
            futures = [pool.submit(_operate, smoke) for _ in range(4)]
            records = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert records == [inline["nominal"]] * 4


@pytest.mark.parametrize("failing", ["oracle", "stressed"])
def test_a_failed_replay_reaches_the_caller_and_leaves_no_thread(
    smoke, monkeypatch, failing
):
    _on_cpus(monkeypatch, 4)
    run = ReplayHarness.run

    def broken(harness, policy="forecast"):
        if policy == failing or (failing == "stressed" and harness.faults is not None):
            raise RuntimeError(f"{failing} replay failed")
        return run(harness, policy)

    monkeypatch.setattr(ReplayHarness, "run", broken)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match=f"{failing} replay failed"):
        _operate(smoke, FAULTS)
    assert set(threading.enumerate()) == before
