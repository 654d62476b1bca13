"""Admission pipeline semantics, tested through the ``solve_fn`` seam.

Every test drives :meth:`PlanServer.handle` directly with a fake solver, so
dedup, admission control, waiter timeouts, draining and error typing are
exercised without a single LP solve.
"""

import asyncio
import threading
import time

import pytest

from repro.scenarios.spec import ScenarioSpec
from repro.serve import PlanServer, ServeConfig


def run(coroutine):
    return asyncio.run(coroutine)


def payload(request_id=None, **updates):
    spec = ScenarioSpec(**updates) if updates else ScenarioSpec()
    body = {"spec": spec.to_dict()}
    if request_id is not None:
        body["id"] = request_id
    return body


def instant_solver(record=None):
    def solve(spec):
        return dict(record or {"objective": 1.0}), False, {}

    return solve


class TestConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ServeConfig(executor="quantum")
        with pytest.raises(ValueError, match="workers"):
            ServeConfig(workers=0)
        with pytest.raises(ValueError, match="queue_limit"):
            ServeConfig(queue_limit=0)
        with pytest.raises(ValueError, match="timeout_s"):
            ServeConfig(timeout_s=0.0)

    def test_none_timeout_means_wait_forever(self):
        assert ServeConfig(timeout_s=None).timeout_s is None


class TestDedup:
    def test_identical_concurrent_requests_share_one_solve(self):
        solves = []

        def solve(spec):
            solves.append(spec.content_hash())
            time.sleep(0.05)
            return {"v": 1}, False, {}

        server = PlanServer(ServeConfig(executor="thread", workers=2), solve_fn=solve)

        async def scenario():
            responses = await asyncio.gather(
                server.handle(payload("a")),
                server.handle(payload("b")),
                server.handle(payload("c")),
            )
            await server.drain(grace_s=5.0)
            return responses

        responses = run(scenario())
        assert len(solves) == 1
        assert [r["status"] for r in responses] == ["ok"] * 3
        assert sorted(r["dedup"] for r in responses) == [False, True, True]
        assert {r["id"] for r in responses} == {"a", "b", "c"}
        assert len({r["content_hash"] for r in responses}) == 1
        assert server.metrics.solves_started == 1
        assert server.metrics.dedup_hits == 2
        assert server.metrics.responses_ok == 3

    def test_semantically_equal_specs_dedup_despite_labels(self):
        # name/description are excluded from the content hash on purpose.
        server = PlanServer(ServeConfig(executor="thread"), solve_fn=instant_solver())

        async def scenario():
            first = await server.handle(payload("x", name="morning run"))
            second = await server.handle(payload("y", name="evening run"))
            await server.drain(grace_s=5.0)
            return first, second

        first, second = run(scenario())
        assert first["content_hash"] == second["content_hash"]
        # Sequential requests: the first solve already finished, so the
        # second goes through the runner's own cache path, not live dedup.
        assert server.metrics.solves_started == 2

    def test_distinct_specs_solve_separately(self):
        server = PlanServer(ServeConfig(executor="thread"), solve_fn=instant_solver())

        async def scenario():
            responses = await asyncio.gather(
                server.handle(payload("a", total_capacity_kw=10_000.0)),
                server.handle(payload("b", total_capacity_kw=20_000.0)),
            )
            await server.drain(grace_s=5.0)
            return responses

        responses = run(scenario())
        assert [r["status"] for r in responses] == ["ok", "ok"]
        assert len({r["content_hash"] for r in responses}) == 2
        assert server.metrics.solves_started == 2
        assert server.metrics.dedup_hits == 0


class TestAdmission:
    def test_overload_rejects_distinct_but_admits_identical(self):
        gate = threading.Event()

        def solve(spec):
            gate.wait(5.0)
            return {"v": 1}, False, {}

        server = PlanServer(
            ServeConfig(executor="thread", workers=2, queue_limit=1), solve_fn=solve
        )

        async def scenario():
            first = asyncio.ensure_future(server.handle(payload("a")))
            await asyncio.sleep(0.05)
            overloaded = await server.handle(payload("b", total_capacity_kw=1000.0))
            # Deduped waiters are free: the herd never trips admission.
            attached = asyncio.ensure_future(server.handle(payload("c")))
            await asyncio.sleep(0.05)
            gate.set()
            first_r, attached_r = await asyncio.gather(first, attached)
            await server.drain(grace_s=5.0)
            return first_r, overloaded, attached_r

        first, overloaded, attached = run(scenario())
        assert first["status"] == "ok"
        assert overloaded["status"] == "error"
        assert overloaded["error"] == "overloaded"
        assert overloaded["id"] == "b"
        assert attached["status"] == "ok"
        assert attached["dedup"] is True
        assert server.metrics.errors["overloaded"] == 1

    def test_waiter_timeout_leaves_the_solve_running(self):
        release = threading.Event()
        solves = []

        def solve(spec):
            solves.append(1)
            release.wait(5.0)
            return {"v": 1}, False, {}

        server = PlanServer(
            ServeConfig(executor="thread", workers=2, timeout_s=0.05), solve_fn=solve
        )

        async def scenario():
            timed_out = await server.handle(payload("slow"))
            release.set()
            retry = await server.handle(payload("retry"))
            await server.drain(grace_s=5.0)
            return timed_out, retry

        timed_out, retry = run(scenario())
        assert timed_out["status"] == "error"
        assert timed_out["error"] == "timeout"
        assert timed_out["id"] == "slow"
        assert retry["status"] == "ok"
        assert server.metrics.errors["timeout"] == 1

    def test_draining_server_rejects_new_work(self):
        server = PlanServer(ServeConfig(executor="thread"), solve_fn=instant_solver())

        async def scenario():
            await server.drain(grace_s=1.0)
            return await server.handle(payload("late"))

        response = run(scenario())
        assert response["status"] == "error"
        assert response["error"] == "draining"
        assert response["id"] == "late"


class TestErrors:
    def test_malformed_payloads_get_typed_spec_errors(self):
        server = PlanServer(ServeConfig(executor="thread"), solve_fn=instant_solver())

        async def scenario():
            bad_shape = await server.handle("not an object")
            bad_field = await server.handle({"id": 4, "spec": {"bogus": 1}})
            await server.drain(grace_s=1.0)
            return bad_shape, bad_field

        bad_shape, bad_field = run(scenario())
        assert bad_shape["error"] == "spec_error"
        assert bad_field["error"] == "spec_error"
        assert bad_field["id"] == 4  # best-effort id echo on parse failures
        assert server.metrics.errors["spec_error"] == 2
        assert server.metrics.solves_started == 0

    def test_retired_operate_knob_is_a_spec_error(self):
        server = PlanServer(ServeConfig(executor="thread"), solve_fn=instant_solver())
        spec = ScenarioSpec(workflow="operate").to_dict()
        spec["operate"] = {"incremental": False}

        async def scenario():
            response = await server.handle({"id": "old", "spec": spec})
            await server.drain(grace_s=1.0)
            return response

        response = run(scenario())
        assert response["error"] == "spec_error"
        assert "unknown operate knobs" in response["message"]
        assert response["id"] == "old"
        assert server.metrics.solves_started == 0

    @pytest.mark.parametrize(
        "search, message",
        [
            ({"bogus_knob": 1}, "unknown search knobs"),
            ({"keep_locations": 0}, "at least one location"),
        ],
    )
    def test_malformed_search_block_is_a_spec_error(self, search, message):
        server = PlanServer(ServeConfig(executor="serial"), solve_fn=instant_solver())
        spec = ScenarioSpec().to_dict()
        spec["search"] = search

        async def scenario():
            response = await server.handle({"id": "bad-search", "spec": spec})
            await server.drain(grace_s=1.0)
            return response

        response = run(scenario())
        assert response["error"] == "spec_error"
        assert message in response["message"]
        assert server.metrics.solves_started == 0

    @pytest.mark.parametrize(
        "field_name, value",
        [("catalog_seed", "abc"), ("num_locations", 2.5), ("emulation", {"num_vms": "x"})],
    )
    def test_wrong_typed_field_is_a_spec_error(self, field_name, value):
        server = PlanServer(ServeConfig(executor="serial"), solve_fn=instant_solver())
        spec = ScenarioSpec().to_dict()
        spec[field_name] = value

        async def scenario():
            response = await server.handle({"id": "typed", "spec": spec})
            await server.drain(grace_s=1.0)
            return response

        response = run(scenario())
        assert response["error"] == "spec_error"
        assert field_name in response["message"]
        assert server.metrics.solves_started == 0

    def test_solver_crash_becomes_typed_internal_error(self):
        def solve(spec):
            raise RuntimeError("catalogue imploded")

        server = PlanServer(ServeConfig(executor="thread"), solve_fn=solve)

        async def scenario():
            response = await server.handle(payload("boom"))
            await server.drain(grace_s=1.0)
            return response

        response = run(scenario())
        assert response["status"] == "error"
        assert response["error"] == "internal"
        assert "catalogue imploded" in response["message"]
        assert server.metrics.errors["internal"] == 1


class TestObservability:
    def test_snapshot_reports_counters_and_caches(self):
        server = PlanServer(
            ServeConfig(executor="thread"), solve_fn=instant_solver({"objective": 2.0})
        )

        async def scenario():
            await server.handle(payload("one"))
            snapshot = server.metrics_snapshot()
            health = server.health()
            await server.drain(grace_s=1.0)
            return snapshot, health

        snapshot, health = run(scenario())
        assert snapshot["requests_total"] == 1
        assert snapshot["responses_ok"] == 1
        assert snapshot["latency"]["count"] == 1
        assert snapshot["latency"]["p50_s"] >= 0.0
        assert snapshot["executor"] == "thread"
        assert snapshot["queue_limit"] == 64
        # Thread mode reports the in-parent runner through the same
        # worker-stats channel process workers use.
        assert snapshot["worker_caches"]["workers_reporting"] >= 1
        assert health == {
            "status": "ok",
            "in_flight": 0,
            "waiters": 0,
            "executor": "thread",
        }
