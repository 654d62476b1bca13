"""The newline-delimited-JSON transport: batch dedup, typed error lines,
id matching, and the full SIGTERM drain through ``repro serve --stdin``."""

import asyncio
import io
import json
import os
import signal
import subprocess
import sys
import time

from repro.scenarios.spec import ScenarioSpec
from repro.serve import PlanServer, ServeConfig, serve_stdio

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def test_stdio_batch_dedups_and_types_errors():
    spec = ScenarioSpec(total_capacity_kw=30_000.0)
    solves = []

    def solve(parsed):
        solves.append(parsed.content_hash())
        time.sleep(0.05)
        return {"objective": 3.0}, False, {}

    lines = (
        "\n".join(
            [
                json.dumps({"id": 1, "spec": spec.to_dict()}),
                json.dumps({"id": 2, "spec": spec.to_dict()}),
                json.dumps({"id": 3, "spec": spec.to_dict()}),
                "",  # blank lines are skipped, not answered
                "this is not json",
                # Nested past the recursion limit: the decoder raises
                # RecursionError, still answered as a typed bad_request.
                "[" * 100_000 + "]" * 100_000,
                json.dumps({"id": 9, "spec": 42}),
            ]
        )
        + "\n"
    )
    server = PlanServer(ServeConfig(executor="thread", workers=2), solve_fn=solve)
    output = io.StringIO()

    code = asyncio.run(serve_stdio(server, io.StringIO(lines), output))

    assert code == 0
    responses = [json.loads(line) for line in output.getvalue().splitlines()]
    assert len(responses) == 6
    by_id = {response["id"]: response for response in responses}
    # Three identical lines collapse onto one solve; ids still match back.
    assert len(solves) == 1
    assert [by_id[i]["status"] for i in (1, 2, 3)] == ["ok"] * 3
    assert sorted(by_id[i]["dedup"] for i in (1, 2, 3)) == [False, True, True]
    assert [r["error"] for r in responses if r["id"] is None] == ["bad_request"] * 2
    assert by_id[9]["error"] == "spec_error"
    assert server.metrics.dedup_hits == 2
    assert server.metrics.solves_started == 1


def test_eof_drains_and_exits_zero_with_no_input():
    server = PlanServer(
        ServeConfig(executor="thread"), solve_fn=lambda spec: ({}, False, {})
    )
    output = io.StringIO()
    code = asyncio.run(serve_stdio(server, io.StringIO(""), output))
    assert code == 0
    assert output.getvalue() == ""
    assert server.draining


def test_sigterm_drains_in_flight_work_before_exit():
    """The deployment contract: SIGTERM answers admitted requests, then exit 0."""
    spec = ScenarioSpec(
        num_locations=12,
        catalog_seed=3,
        days_per_season=1,
        hours_per_epoch=6,
        total_capacity_kw=20_000.0,
        search={
            "keep_locations": 4,
            "max_iterations": 3,
            "patience": 3,
            "num_chains": 1,
            "seed": 3,
            "max_datacenters": 3,
        },
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--stdin",
            "--executor",
            "serial",
            "--no-cache",
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    try:
        # First request doubles as the readiness probe: once its response
        # line arrives, the event loop is up and the signal handler is in.
        process.stdin.write(json.dumps({"id": "warm", "spec": spec.to_dict()}) + "\n")
        process.stdin.flush()
        warm = json.loads(process.stdout.readline())
        assert warm["id"] == "warm" and warm["status"] == "ok"
        second = spec.with_updates(total_capacity_kw=25_000.0)
        process.stdin.write(json.dumps({"id": "sig", "spec": second.to_dict()}) + "\n")
        process.stdin.flush()
        time.sleep(0.1)  # the request is admitted (likely mid-solve)
        process.send_signal(signal.SIGTERM)
        # stdin stays OPEN: exit must come from the signal-triggered drain,
        # not from EOF.
        process.wait(timeout=120)
        stdout = process.stdout.read()
        stderr = process.stderr.read()
        process.stdin.close()
    except Exception:
        process.kill()
        raise
    assert process.returncode == 0, stderr
    responses = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    assert len(responses) == 1
    assert responses[0]["status"] == "ok"
    assert responses[0]["id"] == "sig"
