"""Replay-driven load benchmark for the ``repro serve`` daemon.

Boots a :class:`PlanServer` behind the stdlib HTTP front-end on a loopback
port, then fires hundreds of planning requests — a round-robin replay over a
mixed catalogue of *downsized registered scenarios* — from concurrent
keep-alive clients.  Reported numbers:

- sustained throughput (plans/second over the whole burst),
- client-side latency percentiles (p50/p95/p99/max),
- the server's dedup rate (identical in-flight requests collapsing onto one
  solve) and distinct solves started,
- the workers' warm-vs-cold cache rates (compiled skeletons, problems,
  catalogues, on-disk artifacts) reported back through ``/metrics``.

Every distinct spec is also differentially checked: the record served over
HTTP must be bit-identical (canonical JSON) to what a fresh
:class:`ExperimentRunner` computes directly — the daemon is a cache in front
of ``repro sweep``, never a different answer.  A mismatch exits nonzero.

Usage::

    PYTHONPATH=src python benchmarks/serve_load.py [--requests 240]
        [--distinct 12] [--clients 8] [--executor thread]

The throughput trajectory is perfbench's ``serve_mixed`` workload
(``perfbench/run.py``); this script is the quick replay and bit-identity
check.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios import ExperimentRunner, ScenarioSpec, get_scenario  # noqa: E402
from repro.serve import HttpFrontend, PlanServer, ServeConfig  # noqa: E402
from repro.serve.metrics import percentile  # noqa: E402

#: Registered scenarios the replay draws points from (planning sweeps only:
#: operate/robust scenarios run extra phases that belong to their own
#: benchmarks, not the serving path).
REPLAY_SCENARIOS = (
    "smoke",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table2",
)

#: The downsizing applied to every replayed spec so one solve is ~0.1 s:
#: a 12-location catalogue on a coarse epoch grid with a short search.
TINY_OVERRIDES = dict(
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


def build_catalogue(distinct: int) -> List[ScenarioSpec]:
    """The first ``distinct`` unique downsized specs across the replay mix."""
    specs: List[ScenarioSpec] = []
    seen = set()
    for name in REPLAY_SCENARIOS:
        for point in get_scenario(name).build().points():
            spec = point.spec.with_updates(**TINY_OVERRIDES)
            key = spec.content_hash()
            if key in seen:
                continue
            seen.add(key)
            specs.append(spec)
            if len(specs) >= distinct:
                return specs
    return specs


class ServerThread:
    """The daemon's event loop on a background thread, bound to port 0."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.port: Optional[int] = None
        self.server: Optional[PlanServer] = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, name="serve-load", daemon=True)

    def _run(self) -> None:
        import asyncio

        async def main() -> None:
            self.server = PlanServer(self.config)
            frontend = HttpFrontend(self.server, port=0)
            await frontend.start()
            self.port = frontend.port
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await frontend.stop(grace_s=30.0)

        asyncio.run(main())

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise RuntimeError("server thread did not come up")

    def metrics(self) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30.0)
        try:
            connection.request("GET", "/metrics")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=120.0)


def client_worker(
    port: int,
    payloads: List[bytes],
    start_offset: int,
    count: int,
    latencies: List[float],
    records: Dict[str, str],
    failures: List[str],
) -> None:
    """One keep-alive client replaying ``count`` requests round-robin."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300.0)
    try:
        for step in range(count):
            body = payloads[(start_offset + step) % len(payloads)]
            started = time.perf_counter()
            connection.request(
                "POST", "/plan", body, {"Content-Type": "application/json"}
            )
            raw = connection.getresponse().read()
            latencies.append(time.perf_counter() - started)
            response = json.loads(raw)
            if response.get("status") != "ok":
                failures.append(f"{response.get('error')}: {response.get('message')}")
                continue
            records.setdefault(
                response["content_hash"],
                json.dumps(response["record"], sort_keys=True),
            )
    except Exception as error:  # noqa: BLE001 - report, don't hang the pool
        failures.append(f"{type(error).__name__}: {error}")
    finally:
        connection.close()


def run_load(
    total_requests: int = 240,
    distinct: int = 12,
    clients: int = 8,
    executor: str = "thread",
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    check_differential: bool = True,
) -> Dict[str, Any]:
    specs = build_catalogue(distinct)
    payloads = [
        json.dumps({"id": index, "spec": spec.to_dict()}).encode("utf-8")
        for index, spec in enumerate(specs)
    ]
    config = ServeConfig(
        executor=executor,
        workers=workers,
        queue_limit=max(64, distinct * 2),
        timeout_s=300.0,
        cache_dir=cache_dir,
    )
    daemon = ServerThread(config)
    daemon.start()

    per_client = total_requests // clients
    extra = total_requests - per_client * clients
    latencies: List[float] = []
    records: Dict[str, str] = {}
    failures: List[str] = []
    threads = []
    started = time.perf_counter()
    for index in range(clients):
        count = per_client + (1 if index < extra else 0)
        # Clients start at staggered offsets so identical specs overlap
        # in flight — the dedup path under load, not just in unit tests.
        thread = threading.Thread(
            target=client_worker,
            args=(daemon.port, payloads, index, count, latencies, records, failures),
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    metrics = daemon.metrics()
    daemon.stop()

    if failures:
        raise RuntimeError(f"{len(failures)} requests failed; first: {failures[0]}")

    mismatches = []
    if check_differential:
        for spec in specs:
            direct = ExperimentRunner(
                cache_dir=None, workers=1, executor="serial"
            ).run_point(spec)
            expected = json.dumps(direct.record, sort_keys=True)
            served = records.get(spec.content_hash())
            if served != expected:
                mismatches.append(spec.content_hash())

    window = sorted(latencies)
    caches = metrics["worker_caches"]
    result = {
        "requests": total_requests,
        "distinct_specs": len(specs),
        "clients": clients,
        "executor": executor,
        "workers": metrics["workers"],
        "elapsed_s": round(elapsed, 3),
        "plans_per_second": round(total_requests / elapsed, 1),
        "client_latency": {
            "p50_s": round(percentile(window, 0.50), 4),
            "p95_s": round(percentile(window, 0.95), 4),
            "p99_s": round(percentile(window, 0.99), 4),
            "max_s": round(window[-1], 4) if window else None,
        },
        "solves_started": metrics["solves_started"],
        "dedup_hits": metrics["dedup_hits"],
        "dedup_rate": round(metrics["dedup_hits"] / total_requests, 4),
        "worker_caches": {
            "workers_reporting": caches["workers_reporting"],
            "skeleton_warm_rate": _round_rate(caches["skeleton_warm_rate"]),
            "problem_warm_rate": _round_rate(caches["problem_warm_rate"]),
            "catalog_warm_rate": _round_rate(caches["catalog_warm_rate"]),
            "artifact_hit_rate": _round_rate(caches["artifact_hit_rate"]),
        },
        "differential_checked": len(specs) if check_differential else 0,
        "differential_mismatches": mismatches,
    }
    return result


def _round_rate(value: Any) -> Any:
    if isinstance(value, float) and value == value:
        return round(value, 4)
    return None  # NaN: that cache saw no traffic


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=240)
    parser.add_argument("--distinct", type=int, default=12)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--executor", default="thread", choices=("serial", "thread", "process")
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument(
        "--no-differential",
        action="store_true",
        help="skip the server-vs-direct bit-identity check (quick smoke runs)",
    )
    args = parser.parse_args()

    result = run_load(
        total_requests=args.requests,
        distinct=args.distinct,
        clients=args.clients,
        executor=args.executor,
        workers=args.workers,
        cache_dir=args.cache_dir,
        check_differential=not args.no_differential,
    )

    latency = result["client_latency"]
    print(
        f"serve_load [{result['executor']}]: {result['requests']} requests "
        f"({result['distinct_specs']} distinct specs, {result['clients']} clients) "
        f"in {result['elapsed_s']:.2f}s = {result['plans_per_second']:.1f} plans/s"
    )
    print(
        f"  latency p50 {latency['p50_s'] * 1000:.1f} ms / "
        f"p99 {latency['p99_s'] * 1000:.1f} ms / max {latency['max_s'] * 1000:.1f} ms"
    )
    print(
        f"  {result['solves_started']} solves, {result['dedup_hits']} dedup hits "
        f"({100 * result['dedup_rate']:.1f} % of requests), worker caches: "
        f"skeleton warm {result['worker_caches']['skeleton_warm_rate']}, "
        f"problem warm {result['worker_caches']['problem_warm_rate']}"
    )
    if result["differential_mismatches"]:
        print(
            f"DIFFERENTIAL FAILURE: {len(result['differential_mismatches'])} specs "
            f"served records differing from direct runs: "
            f"{result['differential_mismatches']}"
        )
        return 1
    if result["differential_checked"]:
        print(
            f"  differential: {result['differential_checked']} distinct specs "
            "bit-identical to direct ExperimentRunner records"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
