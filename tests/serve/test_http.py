"""HTTP front-end round-trips, error statuses, and the server-vs-direct
differential: a record served over ``POST /plan`` must be bit-identical to
what a fresh :class:`ExperimentRunner` computes for the same spec."""

import asyncio
import json

from repro.scenarios import ExperimentRunner, ScenarioSpec
from repro.serve import HttpFrontend, PlanServer, ServeConfig

TINY_SEARCH = {
    "keep_locations": 4,
    "max_iterations": 3,
    "patience": 3,
    "num_chains": 1,
    "seed": 3,
    "max_datacenters": 3,
}


def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        num_locations=12,
        catalog_seed=3,
        days_per_season=1,
        hours_per_epoch=6,
        total_capacity_kw=20_000.0,
        search=dict(TINY_SEARCH),
    )


async def http_request(reader, writer, method, path, payload=None, raw_body=None):
    """One keep-alive request/response exchange on an open connection."""
    body = raw_body if raw_body is not None else (
        b"" if payload is None else json.dumps(payload).encode("utf-8")
    )
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: localhost\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    data = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, json.loads(data)


def test_plan_round_trip_is_bit_identical_to_direct_run():
    spec = tiny_spec()

    async def scenario():
        server = PlanServer(ServeConfig(executor="serial", cache_dir=None))
        frontend = HttpFrontend(server, port=0)
        await frontend.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)
            status, first = await http_request(
                reader, writer, "POST", "/plan", {"id": "r1", "spec": spec.to_dict()}
            )
            assert status == 200
            # Same connection, same spec: keep-alive works and the runner's
            # futures memo answers without re-solving.
            status2, second = await http_request(
                reader, writer, "POST", "/plan", {"id": "r2", "spec": spec.to_dict()}
            )
            assert status2 == 200
            status_m, metrics = await http_request(reader, writer, "GET", "/metrics")
            status_h, health = await http_request(reader, writer, "GET", "/healthz")
            writer.close()
            await writer.wait_closed()
        finally:
            await frontend.stop(grace_s=10.0)
        return first, second, (status_m, metrics), (status_h, health)

    first, second, (status_m, metrics), (status_h, health) = asyncio.run(scenario())
    assert first["status"] == "ok" and first["id"] == "r1"
    assert second["status"] == "ok" and second["id"] == "r2"
    assert first["content_hash"] == spec.content_hash()
    assert json.dumps(second["record"], sort_keys=True) == json.dumps(
        first["record"], sort_keys=True
    )
    assert status_m == 200
    assert metrics["responses_ok"] == 2
    assert metrics["worker_caches"]["workers_reporting"] >= 1
    assert status_h == 200 and health["status"] == "ok"

    # The differential gate: server responses ARE sweep results, bit for bit.
    direct = ExperimentRunner(cache_dir=None, workers=1, executor="serial").run_point(spec)
    assert json.dumps(first["record"], sort_keys=True) == json.dumps(
        direct.record, sort_keys=True
    )


def test_http_error_paths_and_draining():
    async def scenario():
        server = PlanServer(ServeConfig(executor="serial", cache_dir=None))
        frontend = HttpFrontend(server, port=0)
        await frontend.start()
        results = {}
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)
            results["get_plan"] = await http_request(reader, writer, "GET", "/plan")
            results["unknown"] = await http_request(reader, writer, "GET", "/nope")
            results["bad_json"] = await http_request(
                reader, writer, "POST", "/plan", raw_body=b"{not json"
            )
            results["deep_json"] = await http_request(
                reader, writer, "POST", "/plan", raw_body=b"[" * 50_000 + b"]" * 50_000
            )
            results["bad_spec"] = await http_request(
                reader, writer, "POST", "/plan", {"id": 9, "spec": 42}
            )
            # Flip to draining mid-connection: health goes 503 and new plan
            # requests are refused with the typed kind.
            await server.drain(grace_s=1.0)
            results["drain_health"] = await http_request(reader, writer, "GET", "/healthz")
            results["drain_plan"] = await http_request(
                reader, writer, "POST", "/plan", {"spec": {}}
            )
            writer.close()
            await writer.wait_closed()
        finally:
            await frontend.stop(grace_s=1.0)
        return results

    results = asyncio.run(scenario())
    status, body = results["get_plan"]
    assert status == 405 and body["error"] == "method_not_allowed"
    status, body = results["unknown"]
    assert status == 404 and body["error"] == "not_found"
    status, body = results["bad_json"]
    assert status == 400 and body["error"] == "bad_request"
    status, body = results["deep_json"]
    assert status == 400 and body["error"] == "bad_request"
    status, body = results["bad_spec"]
    assert status == 400 and body["error"] == "spec_error" and body["id"] == 9
    status, body = results["drain_health"]
    assert status == 503 and body["status"] == "draining"
    status, body = results["drain_plan"]
    assert status == 503 and body["error"] == "draining"


def test_oversized_body_is_refused():
    from repro.serve.http import MAX_BODY_BYTES

    async def scenario():
        server = PlanServer(ServeConfig(executor="serial", cache_dir=None))
        frontend = HttpFrontend(server, port=0)
        await frontend.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)
            head = (
                "POST /plan HTTP/1.1\r\n"
                "Host: localhost\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                "\r\n"
            )
            writer.write(head.encode("latin-1"))
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.split()[1])
            writer.close()
            await writer.wait_closed()
        finally:
            await frontend.stop(grace_s=1.0)
        return status

    assert asyncio.run(scenario()) == 413
