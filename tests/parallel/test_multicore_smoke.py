"""Multi-core smoke: a process-executor sweep at 4 workers is bit-identical to serial.

CI runs these on a multi-core runner (``pytest -m multicore``); on the
single-CPU dev container they still execute (oversubscribed, a little
slower), so the pickling boundary is exercised in every tier-1 run too.
"""

import pytest

from repro.scenarios import ExperimentRunner, get_scenario

pytestmark = pytest.mark.multicore


def test_smoke_sweep_process_matches_serial():
    sweep = get_scenario("smoke").build()
    serial = ExperimentRunner(workers=1, executor="serial").run(sweep)
    process = ExperimentRunner(workers=4, executor="process").run(sweep)
    assert [(p.overrides, p.record) for p in process] == [
        (p.overrides, p.record) for p in serial
    ]

