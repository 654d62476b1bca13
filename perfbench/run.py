"""The repo's benchmark: four workloads over the planner, the daemon and the operator.

Run from the root of a checkout (see ``perfbench/README.md``)::

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --all                  # every workload, one table
    python3 perfbench/run.py --counts-check         # exact layer counts repeat
    python3 perfbench/run.py --ab HEAD~1            # interleaved A/B against a revision

With ``--workload`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The benchmark drives the program only through subprocesses
(``perfbench/worker.py`` and ``python -m repro.cli serve``), so this file never
imports ``repro`` and can measure another revision's source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from hostspeed import Host  # noqa: E402
from tracing import Tracer, wrapper_cost_s  # noqa: E402
from worker import digest  # noqa: E402

ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
REFERENCE = BENCH_DIR / "reference.json"
WORK_DIR = ".perfbench-work"

#: Every workload ``run.py`` can run.  ``sweep_figs`` is not in ``BENCHMARK.json``:
#: its one 12 s sweep is too long an operation to repeat within a run.
WORKLOADS = ("plan_cold", "sweep_figs", "serve_mixed", "operate_week")

#: A run must end well inside the 180 s every invocation is allowed.
RUN_DEADLINE_S = 170.0

#: Set-up samples per run; the median is reported.
SETUP_SAMPLES = 3

#: Relative tolerance of a plan's monthly cost against the reference.
COST_RTOL = 1e-6

#: Point records of one ``sweep_figs`` sweep (Figs. 8, 9 and 10, 15 points each).
SWEEP_POINTS = 45

#: Requests per ``serve_mixed`` burst, and the closed-loop clients sending them.
SERVE_REQUESTS = 160
SERVE_CLIENTS = 2

#: Operating weeks are drawn from these traffic seeds and the 52 weeks of a year.
TRAFFIC_SEEDS = 1000
HOURS_PER_WEEK = 168

#: Weeks an ``operate_week`` run replays, two per season.
OPERATE_WEEKS = 8

#: Traced runs ``--counts-check`` compares per workload.
COUNTS_CHECK_RUNS = 2

#: Interleaved pairs of runs per workload in ``--ab`` mode.
AB_PAIRS = 10

#: Per-layer counts that repeat exactly for a given workload and seed; every
#: other count depends on thread or process timing (see the README).
EXACT_COUNTS = {
    "plan_cold": {
        "weather.tmy_calls", "geo.nearest_calls", "profiles.locations",
        "runner.catalog_builds", "runner.profile_builds", "runner.problem_builds",
        "runner.memo_hits", "runner.artifact_hits", "runner.artifact_misses",
        "runner.process_fallbacks", "compiler.skeleton_builds",
        "compiler.skeleton_derives", "compiler.skeleton_hits",
        "screen.candidates", "screen.priced", "screen.survival", "pricing.calls",
        "pricing.sitings", "anneal.lps", "anneal.memo_hits", "anneal.memo_hit_rate",
        "refine.rounds", "lp.solves", "lp.iterations",
    },
    "sweep_figs": {
        "runner.problem_builds", "runner.memo_hits", "runner.artifact_hits",
        "runner.artifact_misses", "runner.process_fallbacks",
        "screen.candidates", "screen.priced", "screen.survival", "pricing.calls",
        "pricing.sitings", "anneal.lps", "anneal.memo_hits", "anneal.memo_hit_rate",
        "refine.rounds", "lp.solves", "lp.iterations",
    },
    "serve_mixed": {"serve.requests", "serve.errors", "serve.process_fallbacks"},
    "operate_week": {
        "dispatch.steps", "dispatch.lp_solves", "dispatch.cold_loads",
        "dispatch.warm_start_rate", "dispatch.iterations", "dispatch.slide_retries",
        "replay.degraded",
        "lp.solves", "lp.iterations",
    },
}


class OperationFailed(RuntimeError):
    """A worker or daemon did not deliver its result."""


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of the values (0 <= q <= 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- the program under test ---------------------------------------------------


class Program:
    """One source tree of the program, driven through fresh interpreters."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(work)
        self.host = Host()

    def scratch_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.work)

    def _timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def worker(self, task: Dict[str, Any]) -> Tuple[float, List[Dict[str, Any]], Dict[str, Any]]:
        """Run one worker task: (seconds to ``ready``, progress messages, result)."""
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(task)],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(self._timeout(), process.kill)
        watchdog.start()
        ready = None
        messages: List[Dict[str, Any]] = []
        try:
            for line in process.stdout:
                message = json.loads(line)
                if message.get("ready"):
                    ready = time.perf_counter() - started
                else:
                    messages.append(message)
        finally:
            watchdog.cancel()
            process.stdout.close()
            code = process.wait()
        if code != 0 or ready is None or not messages or "result" not in messages[-1]:
            raise OperationFailed(f"worker task {task['task']!r} exited with code {code}")
        return ready, messages[:-1], messages[-1]["result"]

    def source_digest(self) -> str:
        """Digest of the program's Python sources and the worker that drives them."""
        digest = hashlib.sha256(sys.version.encode("utf-8"))
        sources = sorted((self.root / "src").rglob("*.py"))
        for path in sources + [WORKER]:
            name = path.name if path == WORKER else str(path.relative_to(self.root))
            digest.update(name.encode("utf-8") + b"\0" + path.read_bytes())
        return digest.hexdigest()

    def setup_samples(self, task: Dict[str, Any]) -> List[float]:
        """Set-up times of a worker task (to ``ready``, plus any planning it reports)."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            ready, progress, _ = self.worker(task)
            samples.append(ready + sum(message.get("planned_s", 0.0) for message in progress))
            self.host.sample()
        return samples


class Daemon:
    """``python -m repro.cli serve`` on a free port with a fresh artifact cache."""

    def __init__(self, program: Program) -> None:
        self.program = program
        started = time.perf_counter()
        self.cache_dir = program.scratch_dir()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", self.cache_dir],
            cwd=program.root,
            env=program.env,
            stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(program._timeout(), self.process.kill)
        watchdog.start()
        try:
            banner = self.process.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", banner)
            if match is None:
                raise OperationFailed(f"the daemon did not start: {banner!r}")
            self.port = int(match.group(1))
            while True:
                if self.process.poll() is not None:
                    raise OperationFailed("the daemon exited before answering /healthz")
                try:
                    status, _ = self.get("/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    break
                time.sleep(0.005)
        except BaseException:
            watchdog.cancel()
            self.stop()
            raise
        watchdog.cancel()
        self.setup_s = time.perf_counter() - started

    def get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30.0)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def pids(self) -> List[int]:
        """The daemon and every process under it (its pool workers)."""
        found, queue = [], [self.process.pid]
        while queue:
            pid = queue.pop()
            found.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        queue.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
        return found

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then make sure nothing it started survives."""
        pids = self.pids()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=max(1.0, min(60.0, self.program._timeout())))
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        # A drained daemon has already joined its pool; anything left is killed
        # and waited for, so no process outlives the run.
        stragglers = [pid for pid in pids[1:] if _alive(pid)]
        for pid in stragglers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
        deadline = time.perf_counter() + 10.0
        while any(_alive(pid) for pid in stragglers) and time.perf_counter() < deadline:
            time.sleep(0.05)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _alive(pid: int) -> bool:
    """Whether a process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


# -- outcome of one run -------------------------------------------------------


class Outcome:
    """Operations attempted and failed, output checks, and the samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.setup: List[float] = []
        self.inputs: List[float] = []  # median time of each input's runs, seconds
        self.work = 0.0                # work units of those inputs
        self.rss: List[float] = []
        self.layers: Dict[str, float] = {}
        self.notes: List[str] = []  # failures, to standard error
        self.info: List[str] = []   # further figures, to standard output

    def fail(self, note: str, wrong_output: bool = False, repeat: bool = False) -> None:
        """Count a failed operation; a failed repeat is one more attempted operation."""
        self.attempted += repeat
        self.failed += 1
        self.correct = self.correct and not wrong_output
        if len(self.notes) < 5:
            self.notes.append(note)

    def end_to_end(self, host: Host) -> Dict[str, float]:
        """The metrics, with every time divided by the host's slowdown over the run."""
        if not self.inputs or not self.setup:
            raise OperationFailed(f"none of {self.attempted} operations completed "
                                  f"({self.failed} failed); nothing to report")
        slowdown = host.slowdown()
        latency = quantile(self.inputs, 0.50)
        self.info.append(
            f"as measured: setup_s {statistics.median(self.setup):.4f}, latency_ms "
            f"{1000 * latency:.1f}; host slowdown {slowdown:.4f} over {len(host.probes)} probes"
        )
        return {
            "setup_s": statistics.median(self.setup) / slowdown,
            "peak_rss_mb": max(self.rss),
            "latency_ms": 1000.0 * latency / slowdown,
            "work_per_s": self.work / sum(self.inputs) * slowdown,
        }


def repeated(program: Program, seconds: float, operation: Callable[[bool], bool]) -> None:
    """Run an operation once, then again while another would end within ``seconds``.

    ``operation(first)`` returns whether it went without a failure.  The
    projection uses the wall time of every call so far, failed ones and
    probes included, and no operation starts after the run's deadline.  A
    failure ends the repeats: the same input would fail again, and counting
    it again would make the failure count depend on speed.
    """
    started = time.perf_counter()
    runs, ok = 0, True
    while ok and (runs == 0 or (
        not program.expired()
        and (time.perf_counter() - started) * (runs + 1) / runs <= seconds
    )):
        ok = operation(runs == 0)
        runs += 1


def plan_ok(summary: Dict[str, Any], reference: Dict[str, Any]) -> bool:
    """Same siting as the reference and a monthly cost within ``COST_RTOL``."""
    if summary["siting"] != reference["siting"] or summary["feasible"] != reference["feasible"]:
        return False
    cost, expected = summary["monthly_cost"], reference["monthly_cost"]
    return cost == expected or abs(cost - expected) <= COST_RTOL * abs(expected)


def merge_runner_counts(layers: Dict[str, float], stats: Dict[str, Any], fallbacks: int) -> None:
    for name in ("catalog_builds", "profile_builds", "problem_builds", "memo_hits",
                 "artifact_hits", "artifact_misses"):
        layers[f"runner.{name}"] = layers.get(f"runner.{name}", 0) + stats.get(name, 0)
    for name in ("skeleton_builds", "skeleton_derives", "skeleton_hits"):
        layers[f"compiler.{name}"] = layers.get(f"compiler.{name}", 0) + stats.get(name, 0)
    layers["runner.process_fallbacks"] = layers.get("runner.process_fallbacks", 0) + fallbacks


def add_layers(total: Dict[str, float], report: Optional[Dict[str, float]]) -> None:
    for name, value in (report or {}).items():
        total[name] = total.get(name, 0.0) + value


# -- workloads ----------------------------------------------------------------
#
# Every timed run takes one fixed set of inputs from its seed and runs each
# input once; those first runs are the operations counted in ``attempted``.
# The run then repeats the inputs while its measured time allows, re-checking
# every output, and each input reports the median of its runs.  Set-up is
# timed on its own after the operations.  The host is probed between
# operations, and ``Outcome.end_to_end`` divides every time of the run by the
# host's slowdown (``hostspeed.py``).  A traced run does the first runs only.


def plan_cold(program: Program, seed: int, seconds: float, trace: bool) -> Outcome:
    """Cold 1373-candidate ``sec3d`` plans of one catalogue, each in a fresh interpreter."""
    references = load_reference()["plan_cold"]
    catalog_seed = sorted(references, key=int)[seed % len(references)]
    reference = references[catalog_seed]
    out = Outcome()
    times: List[float] = []

    def plan(first: bool) -> bool:
        out.attempted += first
        try:
            _, _, result = program.worker(
                {"task": "plan", "catalog_seed": int(catalog_seed), "trace": trace}
            )
        except OperationFailed as error:
            out.fail(str(error), repeat=not first)
            return False
        program.host.sample()
        if not plan_ok(result["summary"], reference):
            out.fail(f"catalogue {catalog_seed}: {result['summary']} differs from the "
                     f"reference {reference}", True, repeat=not first)
            return False
        times.append(result["op_s"])
        out.rss.append(result["peak_rss_mb"])
        if trace:
            out.layers = dict(result["layers"], **{"host.slowdown": program.host.slowdown()})
            merge_runner_counts(out.layers, result["runner"], result["process_fallbacks"])
        return True

    repeated(program, 0.0 if trace else seconds, plan)
    if times and not trace:  # the plan completed; its time and set-up are reported
        out.inputs.append(statistics.median(times))
        out.work = 1.0
        out.setup = program.setup_samples({"task": "import"})
        out.info.append(f"catalogue {catalog_seed}: {len(times)} plans")
    return out


def sweep_figs(program: Program, seed: int, seconds: float, trace: bool) -> Outcome:
    """Figs. 8-10 through one thread-executor runner with a fresh artifact cache."""
    references = load_reference()["sweep_figs"]
    out = Outcome()
    times: List[float] = []

    def sweep(first: bool) -> bool:
        cache_dir = program.scratch_dir()
        try:
            _, _, result = program.worker(
                {"task": "sweep", "order_seed": seed, "cache_dir": cache_dir, "trace": trace}
            )
        except OperationFailed as error:
            out.attempted += SWEEP_POINTS * first
            for _ in range(SWEEP_POINTS):
                out.fail(str(error), repeat=not first)
            return False
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        program.host.sample()
        points = result["points"]
        out.attempted += len(points) * first
        ok = True
        for content_hash, summary in points:
            reference = references.get(content_hash)
            if reference is None or not plan_ok(summary, reference):
                ok = False
                out.fail(f"sweep point {content_hash[:12]}: {summary} differs from the "
                         f"reference {reference}", True, repeat=not first)
        if ok:
            times.append(result["op_s"])
            out.work = len(points)
            out.rss.append(result["peak_rss_mb"])
            if trace:
                out.layers = dict(result["layers"], **{"host.slowdown": program.host.slowdown()})
                merge_runner_counts(out.layers, result["runner"], result["process_fallbacks"])
        return ok

    repeated(program, 0.0 if trace else seconds, sweep)
    if times and not trace:
        out.inputs.append(statistics.median(times))
        out.setup = program.setup_samples({"task": "import"})
        out.info.append(f"{len(times)} sweeps")
    return out


def operating_weeks(seed: int) -> List[Tuple[int, int]]:
    """Seeded (traffic seed, start hour) weeks, cycling through the four seasons.

    Replay cost depends on the season, so each run takes its weeks from the
    seasons in turn rather than leaving the seasonal mix to chance.
    """
    rng = random.Random(seed)
    return [
        (rng.randrange(TRAFFIC_SEEDS), HOURS_PER_WEEK * (13 * (index % 4) + rng.randrange(13)))
        for index in range(OPERATE_WEEKS)
    ]


def operate_week(program: Program, seed: int, seconds: float, trace: bool) -> Outcome:
    """Weekly replays of the ``operate-fig06`` plan under both policies."""
    out = Outcome()
    weeks = operating_weeks(seed)
    # A traced run replays each week once, so its counts repeat exactly.
    task = {"task": "operate", "trace": trace, "replays": weeks,
            "seconds": None if trace else seconds}
    _, _, result = program.worker(task)
    program.host.probes.extend(result["probes"])
    out.rss.append(result["peak_rss_mb"])
    for replay in result["replays"]:
        out.attempted += 1
        week = f"traffic_seed={replay['traffic_seed']} start_hour={replay['start_hour']}"
        if "error" in replay:
            out.fail(f"replay {week}: {replay['error']}")
        elif not replay["finite"]:
            out.fail(f"replay {week}: non-finite cost", True)
        else:
            if "repeat_error" in replay:
                out.fail(f"replay {week}, repeated: {replay['repeat_error']}",
                         replay["repeat_wrong"], repeat=True)
            out.inputs.append(statistics.median(replay["times_s"]))
            out.work += replay["steps"]
    if trace:
        layers: Dict[str, float] = {"host.slowdown": program.host.slowdown()}
        for replay in result["replays"]:
            add_layers(layers, replay["layers"])
            for policy in replay.get("policies", {}).values():
                add_layers(layers, {
                    "dispatch.lp_solves": policy["lp_solves"],
                    "dispatch.cold_loads": policy["cold_loads"],
                    "dispatch.warm_solves": policy["warm_start_rate"] * policy["lp_solves"],
                    "dispatch.iterations": policy["simplex_iterations"],
                    "dispatch.slide_retries": policy["slide_retries"],
                    "replay.degraded": int(policy["degraded"]),
                })
        layers["dispatch.warm_start_rate"] = ratio(
            layers.pop("dispatch.warm_solves", 0.0), layers.get("dispatch.lp_solves", 0)
        )
        out.layers = layers
        return out
    out.setup = program.setup_samples({"task": "operate", "setup_only": True})
    out.info.append(f"{sum(map(len, (replay.get('times_s', []) for replay in result['replays'])))}"
                    f" replays of {len(weeks)} weeks")
    return out


def request_mix(rng: random.Random, distinct: int) -> List[List[int]]:
    """One burst: every point once plus Zipf-popular repeats, split among the clients."""
    popularity = list(range(distinct))
    rng.shuffle(popularity)
    weights = [0.0] * distinct
    for rank, point in enumerate(popularity):
        weights[point] = 1.0 / (rank + 1)
    requests = list(range(distinct)) + rng.choices(
        range(distinct), weights=weights, k=SERVE_REQUESTS - distinct
    )
    rng.shuffle(requests)
    return [requests[client::SERVE_CLIENTS] for client in range(SERVE_CLIENTS)]


def serve_burst(
    port: int, payloads: List[bytes], mix: List[List[int]], tracer: Optional[Tracer]
) -> Tuple[float, List[Tuple[int, float, Optional[Dict[str, Any]], str]]]:
    """Closed-loop keep-alive clients; returns (wall, [(point, latency, response, error)])."""
    outcomes: List[Tuple[int, float, Optional[Dict[str, Any]], str]] = []

    def client(sequence: List[int]) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)
        try:
            for point in sequence:
                started = time.perf_counter()
                try:
                    connection.request("POST", "/plan", payloads[point],
                                       {"Content-Type": "application/json"})
                    response = json.loads(connection.getresponse().read())
                    error = "" if response.get("status") == "ok" else str(response.get("error"))
                except (OSError, http.client.HTTPException, ValueError) as failure:
                    response, error = None, f"{type(failure).__name__}: {failure}"
                    connection.close()
                ended = time.perf_counter()
                if tracer is not None:
                    tracer.spans.append(("serve", threading.get_ident(), started, ended, True))
                outcomes.append((point, ended - started, response, error))
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(sequence,)) for sequence in mix]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, outcomes


def serve_reference(program: Program) -> Dict[str, Any]:
    """The served points and their direct records, computed once per source tree.

    Computing the 24 records serially takes about as long as a measured run,
    so they are kept under the work directory, keyed by the source digest.
    """
    path = ROOT / WORK_DIR / f"serve-reference-{program.source_digest()[:32]}.json"
    if path.is_file():
        return json.loads(path.read_text())
    _, _, reference = program.worker({"task": "serve_reference"})
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(reference))
    os.replace(partial, path)
    return reference


def serve_mixed(program: Program, seed: int, seconds: float, trace: bool) -> Outcome:
    """Mixed registered points against ``repro serve`` with its default process pool."""
    out = Outcome()
    reference = serve_reference(program)
    payloads = [
        json.dumps({"id": index, "spec": spec}).encode("utf-8")
        for index, spec in enumerate(reference["specs"])
    ]
    mix = request_mix(random.Random(seed), len(payloads))
    bursts: List[Tuple[float, int]] = []  # (wall, OK responses)
    requests: List[float] = []

    def burst(first: bool) -> bool:
        """The run's burst against a freshly booted daemon with an empty cache."""
        daemon = Daemon(program)
        try:
            out.setup.append(daemon.setup_s)
            _, before = daemon.get("/metrics")
            tracer = Tracer() if trace else None
            wall, outcomes = serve_burst(daemon.port, payloads, mix, tracer)
            program.host.sample()  # the daemon and its pool are idle now
            _, after = daemon.get("/metrics")
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        out.attempted += len(outcomes) * first
        failed = out.failed
        latencies = []
        for point, latency, response, error in outcomes:
            if error:
                out.fail(f"request for point {point}: {error}", repeat=not first)
                latency = wall  # a failed request misses any latency limit
            elif response.get("content_hash") != reference["hashes"][point] or (
                digest(response["record"]) != reference["digests"][point]
            ):
                out.fail(f"point {point}: served record differs from a direct run", True,
                         repeat=not first)
                latency = wall
            latencies.append(latency)
        bursts.append((wall, len(outcomes) - (out.failed - failed)))
        requests.extend(latencies)
        out.rss.append(rss)
        if trace:
            out.layers = serve_layers(tracer, before, after, latencies, wall)
            out.layers["host.slowdown"] = program.host.slowdown()
        return out.failed == failed

    repeated(program, 0.0 if trace else seconds, burst)
    if trace:
        return out
    # The burst is the operation: request percentiles moved 20-50 % between
    # runs on a two-CPU machine, so they are reported but not gated.
    out.inputs.append(statistics.median(wall for wall, _ in bursts))
    out.work = bursts[0][1]  # OK responses; a burst with failures ends the repeats
    while len(out.setup) < SETUP_SAMPLES:
        daemon = Daemon(program)
        out.setup.append(daemon.setup_s)
        daemon.stop()
        program.host.sample()
    out.info.append(
        f"{len(bursts)} bursts; request latency as measured: "
        f"p50 {1000 * quantile(requests, 0.5):.2f} ms, "
        f"p90 {1000 * quantile(requests, 0.9):.1f} ms over {len(requests)} requests"
    )
    return out


def serve_layers(
    tracer: Tracer, before: Dict[str, Any], after: Dict[str, Any],
    latencies: List[float], wall: float,
) -> Dict[str, float]:
    """Layer metrics of one burst from client spans and the /metrics difference."""
    begin = min(span[2] for span in tracer.spans)
    own = tracer.self_times(begin, begin + wall)
    # The client records its spans inline; a wrapped call's cost bounds theirs.
    layers = {"serve.self_s": own.get("serve", 0.0), "other.self_s": own.get("other", 0.0),
              "trace.wall_s": wall, "trace.overhead_s": len(tracer.spans) * wrapper_cost_s()}

    def delta(*path: str) -> float:
        new, old = after, before
        for key in path:
            new, old = new.get(key, {}), old.get(key, {})
        return float(new or 0) - float(old or 0)

    requests = delta("requests_total")
    counters = {
        name: delta("worker_caches", "counters", name)
        for name in ("catalog_hits", "catalog_builds", "profile_builds", "problem_builds",
                     "memo_hits", "artifact_hits", "artifact_misses", "skeleton_builds",
                     "skeleton_derives", "skeleton_hits")
    }
    merge_runner_counts(layers, counters, int(delta("process_fallbacks")))
    server_p50_ms = 1000.0 * after["latency"]["p50_s"]
    layers.update({
        "serve.requests": requests,
        "serve.errors": float(sum(after.get("errors", {}).values())
                              - sum(before.get("errors", {}).values())),
        "serve.dedup_hits": delta("dedup_hits"),
        "serve.dedup_rate": ratio(delta("dedup_hits"), requests),
        "serve.solves_started": delta("solves_started"),
        "serve.client_p50_ms": 1000.0 * quantile(latencies, 0.5),
        "serve.client_p90_ms": 1000.0 * quantile(latencies, 0.9),
        "serve.server_p50_ms": server_p50_ms,
        "serve.transport_ms": 1000.0 * quantile(latencies, 0.5) - server_p50_ms,
        "serve.skeleton_warm_rate": ratio(
            counters["skeleton_hits"] + counters["skeleton_derives"],
            counters["skeleton_hits"] + counters["skeleton_derives"] + counters["skeleton_builds"],
        ),
        "serve.catalog_warm_rate": ratio(
            counters["catalog_hits"], counters["catalog_hits"] + counters["catalog_builds"]
        ),
        "serve.artifact_hit_rate": ratio(
            counters["artifact_hits"], counters["artifact_hits"] + counters["artifact_misses"]
        ),
        "serve.process_fallbacks": delta("process_fallbacks"),
    })
    return layers


RUNNERS = {
    "plan_cold": plan_cold,
    "sweep_figs": sweep_figs,
    "serve_mixed": serve_mixed,
    "operate_week": operate_week,
}


def per_layer(layers: Dict[str, float], names: Sequence[str]) -> Dict[str, float]:
    """Every per-layer metric; layers a workload does not reach read 0."""
    values = dict(layers)
    values["weather.tmy_s"] = values.get("weather.busy_s", 0.0)
    values["geo.nearest_s"] = values.get("geo.busy_s", 0.0)
    values["trace.overhead_frac"] = ratio(values.get("trace.overhead_s", 0.0),
                                          values.get("trace.wall_s", 0.0))
    values["screen.survival"] = ratio(values.get("screen.priced", 0.0),
                                      values.get("screen.candidates", 0.0))
    hits, lps = values.get("anneal.memo_hits", 0.0), values.get("anneal.lps", 0.0)
    values["anneal.memo_hit_rate"] = ratio(hits, hits + lps)
    return {name: float(values.get(name, 0.0)) for name in names}


# -- modes --------------------------------------------------------------------


def run_workload(args: argparse.Namespace, program_root: Path) -> Dict[str, Any]:
    """One run of one workload: the result object the last output line carries."""
    benchmark = load_benchmark()
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR))
    try:
        program = Program(program_root, work, time.perf_counter() + RUN_DEADLINE_S)
        out = RUNNERS[args.workload](program, args.seed, float(args.seconds), bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        section = benchmark["per_layer"]
        values = per_layer(out.layers, [metric["name"] for metric in section])
    else:
        section = benchmark["end_to_end"]
        values = out.end_to_end(program.host)
    for note in out.notes:
        print(f"{args.workload}: {note}", file=sys.stderr)
    for line in out.info:
        print(f"{args.workload}: {line}")
    return {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in section
        },
    }


def invoke(workload: str, seed: int, seconds: int, trace: int,
           program_root: Optional[Path] = None) -> Dict[str, Any]:
    """Run this benchmark in a child process and parse its result line."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if program_root is not None:
        command += ["--program-root", str(program_root)]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if completed.returncode != 0:
        raise OperationFailed(f"{workload} seed {seed} exited with {completed.returncode}")
    *info, last = completed.stdout.strip().splitlines()
    result = json.loads(last)
    result["info"] = info
    return result


#: The end-to-end metrics under the names a reader of each workload expects.
ALIASES = {
    "plan_cold": {"latency_ms": "plan_s", "work_per_s": "plans_per_s"},
    "sweep_figs": {"latency_ms": "sweep_s", "work_per_s": "points_per_s"},
    "serve_mixed": {"latency_ms": "burst_ms", "work_per_s": "serve_plans_per_s"},
    "operate_week": {"latency_ms": "replay_ms", "work_per_s": "operate_steps_per_s"},
}


def print_all(args: argparse.Namespace) -> int:
    """Every workload once: end-to-end metrics, failures and, with --trace 1, layers."""
    status = 0
    for workload in args.workloads:
        try:
            result = invoke(workload, args.seed, args.seconds, 0)
        except OperationFailed as error:
            print(f"{workload}: {error}")
            status = 1
            continue
        aliases = ALIASES[workload]
        print(f"{workload}  (attempted {result['attempted']}, failed {result['failed']}, "
              f"failed_frac {ratio(result['failed'], result['attempted']):.4f}, "
              f"correct {result['correct']})")
        for name, metric in result["metrics"].items():
            value = metric["value"]
            label = aliases.get(name, name)
            if label in ("plan_s", "sweep_s"):
                value, unit = value / 1000.0, "s"
            else:
                unit = metric["unit"]
            print(f"  {label:<22} {value:>12.4f} {unit}")
        for line in result["info"]:
            print(f"  {line}")
        if args.trace:
            layers = invoke(workload, args.seed, args.seconds, 1)["metrics"]
            print("  layer table (self time adds up to trace.wall_s):")
            for name, metric in layers.items():
                if metric["value"]:
                    print(f"    {name:<28} {metric['value']:>14.4f} {metric['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def counts_check(args: argparse.Namespace) -> int:
    """Traced runs repeated with one seed: exact counts must match, others show spread."""
    status = 0
    for workload in args.workloads:
        runs = [invoke(workload, args.seed, args.seconds, 1)["metrics"]
                for _ in range(COUNTS_CHECK_RUNS)]
        exact = EXACT_COUNTS[workload]
        print(f"{workload}: {COUNTS_CHECK_RUNS} traced runs, seed {args.seed}")
        for name, metric in runs[0].items():
            values = [run[name]["value"] for run in runs]
            counted = (metric["unit"] in ("count", "ratio")
                       and not name.startswith(("trace.", "host.")))
            if not counted or (name not in exact and not any(values)):
                continue  # a timing, or a layer this workload does not reach
            if name in exact:
                verdict = "exact, equal" if len(set(values)) == 1 else "EXACT COUNT DIFFERS"
                status |= len(set(values)) != 1
            else:
                verdict = f"timing-dependent, min {min(values):g} max {max(values):g}"
            print(f"  {name:<28} {values[0]:>12g}  {verdict}")
    return status


def ab_compare(args: argparse.Namespace) -> int:
    """Interleaved runs of the working tree and ``git archive REV``, same benchmark code."""
    benchmark = load_benchmark()
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR, prefix="ab-"))
    base, change = work / "base", work / "change"
    try:
        # Both sides run from fresh copies of ``src`` without bytecode, so
        # neither starts with compiled modules the other lacks.
        base.mkdir()
        archive = subprocess.run(["git", "archive", args.ab, "src"], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        for cache in list(base.rglob("__pycache__")):
            shutil.rmtree(cache)
        shutil.copytree(ROOT / "src", change / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
        report: Dict[str, Any] = {}
        for workload in args.workloads:
            sides: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
            for pair in range(AB_PAIRS):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                runs = {}
                for side in order:
                    root = base if side == "base" else change
                    try:
                        runs[side] = invoke(workload, args.seed + pair, args.seconds, 0, root)
                    except OperationFailed as error:
                        print(f"  pair {pair}: {side} run failed: {error}")
                if len(runs) == 2:  # only complete pairs are compared
                    for side, run in runs.items():
                        sides[side].append(run)
            pairs = len(sides["base"])
            report[workload] = {}
            print(f"{workload}: {pairs} complete pairs of {AB_PAIRS}, "
                  f"{args.ab} (base) vs working tree (change)")
            if not pairs:
                continue
            for name, direction in better.items():
                base_values = [run["metrics"][name]["value"] for run in sides["base"]]
                new_values = [run["metrics"][name]["value"] for run in sides["change"]]
                wins = sum(
                    (new < old) if direction == "lower" else (new > old)
                    for old, new in zip(base_values, new_values)
                )
                entry = {
                    side: {"q1": quantile(values, 0.25), "median": quantile(values, 0.5),
                           "q3": quantile(values, 0.75)}
                    for side, values in (("base", base_values), ("change", new_values))
                }
                entry["change_wins"] = wins / pairs
                report[workload][name] = entry
                print(f"  {name:<16} base {entry['base']['median']:>10.4f} "
                      f"[{entry['base']['q1']:.4f}, {entry['base']['q3']:.4f}]  change "
                      f"{entry['change']['median']:>10.4f} [{entry['change']['q1']:.4f}, "
                      f"{entry['change']['q3']:.4f}]  change wins {wins}/{pairs}")
            failed = {side: sum(run["failed"] for run in runs) for side, runs in sides.items()}
            print(f"  failed operations: base {failed['base']}, change {failed['change']}")
        print(json.dumps(report))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def write_reference(args: argparse.Namespace) -> int:
    """Recompute the stored plan and sweep references from the program as it stands."""
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR))
    try:
        program = Program(ROOT, work, time.perf_counter() + 3600.0)
        seeds = [2014 + offset for offset in range(8)]
        _, _, result = program.worker({"task": "reference", "catalog_seeds": seeds})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload once, print a table")
    parser.add_argument("--counts-check", action="store_true",
                        help="repeat traced runs and compare the exact per-layer counts")
    parser.add_argument("--ab", metavar="REV", help="interleaved A/B against a git revision")
    parser.add_argument("--only", default=None,
                        help="comma-separated workloads for --all/--counts-check/--ab "
                             "(default: those of BENCHMARK.json)")
    parser.add_argument("--program-root", type=Path, default=ROOT,
                        help="source tree to measure (default: this checkout)")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute perfbench/reference.json")
    args = parser.parse_args(argv)

    program_root = args.program_root.resolve()
    if not (program_root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {program_root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if args.only is None:
        args.only = ",".join(workload["name"] for workload in load_benchmark()["workloads"])
    args.workloads = [name for name in args.only.split(",") if name]
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    if args.write_reference:
        return write_reference(args)
    if args.ab:
        return ab_compare(args)
    if args.counts_check:
        return counts_check(args)
    if args.all:
        return print_all(args)
    if args.workload is None:
        parser.error("choose --workload, --all, --counts-check, --ab or --write-reference")
    try:
        result = run_workload(args, program_root)
    except OperationFailed as error:
        print(f"{args.workload}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
