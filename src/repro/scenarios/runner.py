"""Parameter sweeps and the experiment runner.

:class:`ParameterSweep` expands a base :class:`~repro.scenarios.spec.ScenarioSpec`
over named axes (cartesian product or zipped), producing one resolved spec per
sweep point.  :class:`ExperimentRunner` executes the points and returns a
:class:`~repro.scenarios.results.ResultSet`, sharing every cache that makes a
sweep cheaper than independent runs:

* one world catalogue / profile set per (catalogue, grid, candidates) key —
  profile synthesis dominates small runs and is identical across points;
* one :class:`~repro.core.provisioning.ProvisioningCompiler` per *problem
  signature* (the spec fields that define the fixed-siting LP), so sweep
  points that differ only in search settings reuse the compiled per-site
  skeletons and CSC templates introduced by the fast-siting-search work;
* an in-memory point memo keyed by content hash — canonicalisation collapses
  equivalent points (every 0 %-green curve of Figs. 8-12 prices the same
  brown network), so duplicates are evaluated exactly once per process; and
* an optional on-disk artifact cache keyed by the same content hash, so
  re-running an unchanged scenario is a file read.

Execution is deterministic for a fixed spec: every point owns its seeded
heuristic search, points never share mutable solver state, and the result
order is the sweep order no matter how many workers run the points.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import tempfile
import threading
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro import obs
from repro.core.heuristic import HeuristicSolver
from repro.core.parameters import FrameworkParameters
from repro.core.provisioning import ProvisioningCompiler
from repro.core.single_site import SingleSiteAnalyzer
from repro.core.tool import PlacementTool
from repro.lpsolver import SolverOptions
from repro.parallel.executors import ExecutorFactory, available_cpu_count
from repro.parallel.work import PointTask, new_token, run_point_task
from repro.scenarios.results import PointResult, ResultSet
from repro.scenarios.spec import ScenarioSpec, code_fingerprint

#: Schema version of the on-disk artifact payload.  Version 2 wraps the point
#: in a code fingerprint (see :func:`repro.scenarios.spec.code_fingerprint`):
#: artifacts written by a different package version or solver backend are
#: rejected on load and recomputed, instead of silently replaying numbers the
#: old code produced.
ARTIFACT_SCHEMA_VERSION = 2

_T = TypeVar("_T")


def list_artifacts(cache_dir: Union[str, os.PathLike]) -> List[str]:
    """Paths of the sweep-point artifacts stored under ``cache_dir``, sorted.

    This function owns the artifact naming convention together with
    :meth:`ExperimentRunner._artifact_path`; CLI tooling goes through it so
    a layout change cannot silently desynchronise ``repro cache info``.
    """
    cache_dir = str(cache_dir)
    if not os.path.isdir(cache_dir):
        return []
    return sorted(
        os.path.join(cache_dir, entry)
        for entry in os.listdir(cache_dir)
        if entry.startswith("point-") and entry.endswith(".json")
    )


def clear_artifact_cache(cache_dir: Union[str, os.PathLike]) -> int:
    """Delete every stored sweep-point artifact; returns how many were removed.

    Only the runner's own ``point-*.json`` files (and leftover ``*.tmp``
    write staging files) are touched, so a mistyped directory cannot be
    emptied wholesale.
    """
    removed = 0
    cache_dir = str(cache_dir)
    for path in list_artifacts(cache_dir):
        try:
            os.unlink(path)
        except OSError:
            continue
        removed += 1
    if os.path.isdir(cache_dir):
        for entry in os.listdir(cache_dir):  # leftover write-staging files
            if entry.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(cache_dir, entry))
                except OSError:
                    continue
    return removed


@dataclass
class SweepPoint:
    """One resolved point of a sweep: the axis overrides and the final spec."""

    overrides: Dict[str, Any]
    spec: ScenarioSpec


@dataclass
class ParameterSweep:
    """A grid of scenarios derived from one base spec.

    ``axes`` maps field names (dotted paths reach into the ``search`` /
    ``emulation`` / ``param_overrides`` dictionaries) to the values each axis
    takes.  ``mode="cartesian"`` sweeps the full product in axis-declaration
    order (first axis outermost); ``mode="zip"`` pairs the axes element-wise,
    which expresses irregular grids such as Fig. 6's three configurations.
    """

    base: ScenarioSpec
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    mode: str = "cartesian"
    name: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("cartesian", "zip"):
            raise ValueError(f"unknown sweep mode {self.mode!r}; expected 'cartesian' or 'zip'")
        for axis, values in self.axes.items():
            if len(list(values)) == 0:
                raise ValueError(f"sweep axis {axis!r} has no values")
        if self.mode == "zip" and self.axes:
            lengths = {axis: len(list(values)) for axis, values in self.axes.items()}
            if len(set(lengths.values())) > 1:
                raise ValueError(f"zip-mode axes must have equal lengths, got {lengths}")
        if not self.name:
            self.name = self.base.name

    def points(self) -> List[SweepPoint]:
        """The sweep points, in deterministic sweep order."""
        if not self.axes:
            return [SweepPoint(overrides={}, spec=self.base)]
        names = list(self.axes)
        columns = [list(self.axes[name]) for name in names]
        if self.mode == "zip":
            combos = list(zip(*columns))
        else:
            combos = list(itertools.product(*columns))
        points: List[SweepPoint] = []
        for combo in combos:
            overrides = dict(zip(names, combo))
            points.append(SweepPoint(overrides=overrides, spec=self.base.with_updates(**overrides)))
        return points

    def __len__(self) -> int:
        return len(self.points())


class ExperimentRunner:
    """Executes scenario specs and sweeps, with shared caches.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk artifact cache; ``None`` disables it.
        Cached points are keyed by the spec content hash, so editing any
        semantic field of a scenario invalidates exactly that point.
    workers:
        Sweep points evaluated concurrently; ``None`` means the CPUs
        available to this process (container CPU quotas included).  Results
        (and all numbers in them) are independent of this knob; it only
        changes wall-clock time.
    executor:
        ``"thread"`` (default), ``"process"`` or ``"serial"``.  Process
        execution ships each point's :class:`~repro.scenarios.spec.ScenarioSpec`
        dictionary to a worker, which rebuilds a serial runner lazily (one
        per process, shared across the points it serves) and sends back the
        JSON record; the live ``solution`` object of such points is ``None``,
        exactly like cache-served points.  Records are bit-identical across
        all three executors.
    base_params:
        Baseline framework parameters that spec ``param_overrides`` apply to
        (Table I defaults when omitted).
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
        workers: Optional[int] = None,
        base_params: Optional[FrameworkParameters] = None,
        solver_options: Optional[SolverOptions] = None,
        executor: str = "thread",
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("the runner needs at least one worker")
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.workers = workers if workers is not None else available_cpu_count()
        self.executor = executor
        self._factory = ExecutorFactory(kind=executor, max_workers=self.workers)
        self.base_params = base_params or FrameworkParameters()
        self.solver_options = solver_options or SolverOptions()
        # Shared construction caches (see _shared): each entry is the Future
        # of its one build.
        self._catalogs: Dict[Tuple, Future] = {}
        self._profiles: Dict[Tuple, Future] = {}
        self._problems: Dict[str, Future] = {}
        self._memo: Dict[str, Future] = {}
        self._lock = threading.Lock()
        # Process workers key their per-process runner rebuild by this token.
        self._runner_token = new_token("runner")
        #: Points recovered by re-running serially after a dead process pool.
        self.process_fallbacks = 0
        #: Warm-vs-cold cache accounting (catalogue/profile/problem rebuilds,
        #: on-disk artifact hits, futures-memo dedup hits and the skeleton
        #: counts of every point's compilers); see :meth:`cache_stats`.
        #: Guarded by ``self._lock``.
        self.cache_counters: Counter[str] = Counter({
            "catalog_hits": 0,
            "catalog_builds": 0,
            "profile_hits": 0,
            "profile_builds": 0,
            "problem_hits": 0,
            "problem_builds": 0,
            "artifact_hits": 0,
            "artifact_misses": 0,
            "memo_hits": 0,
            "skeleton_hits": 0,
            "skeleton_derives": 0,
            "skeleton_builds": 0,
        })

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self.cache_counters[counter] += amount

    def cache_stats(self) -> Dict[str, int]:
        """Warm-vs-cold counters for this runner's in-memory and disk caches.

        The skeleton counters (``skeleton_hits``/``derives``/``builds``)
        cover every compiler a point ran, shared or its own: each point is
        evaluated inside a :func:`repro.obs.counting` tally, added here when
        the point finishes, failed points included.  Keys are fixed; a
        counter nothing touched reads 0.  For process-executor sweeps the
        interesting counters live in the *workers*; those cross back in the
        stats payload of :func:`repro.parallel.work.run_point_task`.
        """
        with self._lock:
            return dict(self.cache_counters)

    # -- public API -----------------------------------------------------------
    def run(self, experiment: Union[ScenarioSpec, ParameterSweep]) -> ResultSet:
        """Run a spec (as a one-point sweep) or a full sweep."""
        sweep = (
            experiment
            if isinstance(experiment, ParameterSweep)
            else ParameterSweep(base=experiment)
        )
        points = sweep.points()
        futures: List[Tuple[SweepPoint, Future]] = []
        to_submit: List[Tuple[str, ScenarioSpec]] = []
        with self._lock:
            for point in points:
                key = point.spec.content_hash()
                future = self._memo.get(key)
                if future is None:
                    future = Future()
                    self._memo[key] = future
                    to_submit.append((key, point.spec))
                else:
                    self.cache_counters["memo_hits"] += 1
                futures.append((point, future))

        if to_submit:
            if self._factory.kind == "process":
                self._fill_process(to_submit)
            else:
                # Thread or serial: _fill captures failures on the memo
                # future itself, so the pool futures never raise here.
                with self._factory.create(len(to_submit)) as pool:
                    list(pool.map(lambda item: self._fill(*item), to_submit))  # reprolint: ok(PKL001) thread/serial-only branch; the process path ships PointTask via _fill_process

        results: List[PointResult] = []
        for point, future in futures:
            base = future.result()
            results.append(
                PointResult(
                    spec=point.spec,
                    overrides=point.overrides,
                    # Deep-copied: deduped points (and later runs) must not
                    # alias one mutable record — annotating a row in place
                    # would silently edit the memo and the other points.
                    record=copy.deepcopy(base.record),
                    from_cache=base.from_cache,
                    solution=base.solution,
                )
            )
        return ResultSet(results)

    def run_point(self, spec: ScenarioSpec) -> PointResult:
        """Run a single scenario and return its point result."""
        return self.run(spec)[0]

    # -- point evaluation -----------------------------------------------------
    def _fill(self, key: str, spec: ScenarioSpec) -> None:
        future = self._memo[key]
        try:
            future.set_result(self._evaluate(key, spec))
        except BaseException as error:
            # Propagate to this run's waiters, but do not memoize the failure:
            # a later run of an equivalent point should recompute, not re-raise
            # a stale (possibly transient) error.
            with self._lock:
                if self._memo.get(key) is future:
                    del self._memo[key]
            future.set_exception(error)

    def _fill_process(self, to_submit: List[Tuple[str, ScenarioSpec]]) -> None:
        """Evaluate uncached points on a process pool, in submission order.

        The parent serves on-disk artifacts itself (no point shipping a spec
        whose record is already a file read); everything else crosses the
        pickling boundary as a :class:`~repro.parallel.work.PointTask`.
        A worker failure is set on exactly that point's memo future — every
        waiter observes it, nothing deadlocks — and the memo entry is
        dropped so a later run recomputes instead of replaying the error.
        The one exception is a *dead pool* (a worker killed by a signal or
        the OOM killer raises :class:`~concurrent.futures.process.
        BrokenProcessPool` on every outstanding future): the affected points
        are re-run serially in the parent instead, so one lost worker
        degrades a sweep to slower, not to failed.
        """
        from concurrent.futures.process import BrokenProcessPool

        pending: List[Tuple[str, ScenarioSpec]] = []
        for key, spec in to_submit:
            cached = self._load_artifact(key)
            if cached is not None:
                self._memo[key].set_result(cached)
            else:
                pending.append((key, spec))
        if not pending:
            return
        with self._factory.create(len(pending)) as pool:
            submitted = []
            for key, spec in pending:
                task = PointTask(
                    token=self._runner_token,
                    spec=spec.to_dict(),
                    cache_dir=self.cache_dir,
                    base_params=self.base_params,
                    solver_options=self.solver_options,
                )
                submitted.append((key, spec, task, pool.submit(run_point_task, task)))
            for key, spec, task, task_future in submitted:
                future = self._memo[key]
                try:
                    try:
                        record, from_cache, _ = task_future.result()
                    except BrokenProcessPool:
                        self.process_fallbacks += 1
                        record, from_cache, _ = run_point_task(task)
                except BaseException as error:
                    with self._lock:
                        if self._memo.get(key) is future:
                            del self._memo[key]
                    future.set_exception(error)
                else:
                    future.set_result(
                        PointResult(
                            spec=spec.canonical(), record=record, from_cache=from_cache
                        )
                    )

    def _evaluate(self, key: str, spec: ScenarioSpec) -> PointResult:
        cached = self._load_artifact(key)
        if cached is not None:
            return cached
        spec = spec.canonical()
        with obs.counting() as counts:
            try:
                if spec.workflow == "plan":
                    record, solution = self._run_plan(spec)
                elif spec.workflow == "single_site":
                    record, solution = self._run_single_site(spec)
                elif spec.workflow == "emulate":
                    record, solution = self._run_emulate(spec)
                elif spec.workflow == "operate":
                    record, solution = self._run_operate(spec)
                else:  # pragma: no cover - __post_init__ rejects unknown workflows
                    raise ValueError(f"unknown workflow {spec.workflow!r}")
            finally:
                with self._lock:
                    self.cache_counters.update(counts)
        result = PointResult(spec=spec, record=record, solution=solution)
        self._store_artifact(key, result)
        return result

    # -- workflows ------------------------------------------------------------
    def _run_plan(self, spec: ScenarioSpec) -> Tuple[Dict[str, Any], Any]:
        tool = self.tool_for(spec)
        problem, compiler = self._problem_for(spec, tool)
        solver = HeuristicSolver(
            problem,
            settings=spec.build_search_settings(),
            solver_options=tool.solver_options,
            compiler=compiler,
        )
        solution = solver.solve()
        record: Dict[str, Any] = {
            "workflow": "plan",
            "feasible": bool(solution.feasible),
            "monthly_cost": float(solution.monthly_cost),
            "monthly_cost_musd": float(solution.monthly_cost) / 1e6,
            "evaluations": int(solution.evaluations),
            "solver_cache_hits": int(solution.cache_hits),
            "message": solution.message,
        }
        plan = solution.plan
        if plan is not None:
            record.update(
                {
                    "num_datacenters": plan.num_datacenters,
                    "capacity_mw": plan.total_capacity_kw / 1000.0,
                    "solar_mw": plan.total_solar_kw / 1000.0,
                    "wind_mw": plan.total_wind_kw / 1000.0,
                    "battery_mwh": plan.total_battery_kwh / 1000.0,
                    "green_fraction": float(plan.green_fraction),
                    "availability": float(plan.availability),
                    "datacenters": [
                        {
                            "name": dc.name,
                            "size_class": dc.size_class,
                            "capacity_kw": float(dc.capacity_kw),
                            "solar_kw": float(dc.solar_kw),
                            "wind_kw": float(dc.wind_kw),
                            "battery_kwh": float(dc.battery_kwh),
                            "monthly_cost": float(dc.total_monthly_cost),
                        }
                        for dc in sorted(plan.datacenters, key=lambda d: d.name)
                    ],
                }
            )
        else:
            record.update(
                {
                    "num_datacenters": 0,
                    "capacity_mw": float("nan"),
                    "solar_mw": float("nan"),
                    "wind_mw": float("nan"),
                    "battery_mwh": float("nan"),
                    "green_fraction": float("nan"),
                    "availability": float("nan"),
                    "datacenters": [],
                }
            )
        self._attach_ensemble(record, spec, problem, plan)
        self._attach_contingency(record, spec, compiler, plan)
        return record, solution

    def _attach_ensemble(
        self, record: Dict[str, Any], spec: ScenarioSpec, problem: Any, plan: Any
    ) -> None:
        """Evaluate the plan against the spec's ensemble, if one is configured.

        Attaches the full report under ``record["robustness"]`` plus a few
        flattened scalars for sweep tables; a spec with an empty ``ensemble``
        block (every pre-robustness scenario) is untouched.
        """
        config = spec.ensemble_config()
        if config is None or plan is None:
            return
        from repro.robust.stochastic import ensemble_report, plan_siting_and_sizing

        siting, sizing = plan_siting_and_sizing(plan)
        report = ensemble_report(problem, siting, sizing, config, options=self.solver_options)
        record["robustness"] = report
        record["ensemble_expected_cost"] = report["expected_cost"]
        record["ensemble_cvar_cost"] = report["cvar_cost"]
        record["ensemble_regret_mean"] = report["regret_mean"]
        record["ensemble_regret_max"] = report["regret_max"]
        if "stochastic_expected_cost" in report:
            record["stochastic_expected_cost"] = report["stochastic_expected_cost"]
            record["stochastic_saving_pct"] = report["stochastic_saving_pct"]

    def _attach_contingency(
        self,
        record: Dict[str, Any],
        spec: ScenarioSpec,
        compiler: Any,
        plan: Any,
        operate_config: Any = None,
    ) -> None:
        """Attach the N-1 contingency report when the spec asks for one.

        Planner-level: the joint survivable LP plus per-outage repricing of
        both sizings (``record["contingency"]``).  On operate
        runs (``operate_config`` given) the replay-level survivability study
        is attached too — both sizings operated through every single-site
        outage window over one shared trace.
        """
        config = spec.contingency_config()
        if config is None or plan is None:
            return
        from repro.robust.contingency import contingency_report
        from repro.robust.stochastic import plan_siting_and_sizing

        siting, sizing = plan_siting_and_sizing(plan)
        report = contingency_report(
            compiler, siting, sizing, config=config, options=self.solver_options
        )
        record["contingency"] = report
        record["n1_cost_premium_pct"] = report["cost_premium_pct"]
        record["det_worst_unserved_kwh"] = report["worst_case"]["det"]["unserved_kwh"]
        record["n1_worst_unserved_kwh"] = report["worst_case"]["n1"]["unserved_kwh"]
        record["det_violations"] = report["det_violations"]
        record["n1_violations"] = report["n1_violations"]
        if operate_config is not None:
            from repro.operator.replay import survivability_study

            study = survivability_study(
                plan,
                report["n1_sizing"],
                operate_config,
                survivability_epsilon=config.survivability_epsilon,
                outage_start_step=config.outage_start_step,
                outage_duration_steps=config.outage_duration_steps,
                total_capacity_kw=spec.total_capacity_kw,
            )
            record["survivability"] = study
            record["survivability_within_epsilon"] = study["plans"]["n1"]["within_epsilon"]
            record["survivability_unserved_reduction_kwh"] = study["unserved_reduction_kwh"]
            record["survivability_cost_premium_pct"] = study["cost_premium_pct"]

    def _run_single_site(self, spec: ScenarioSpec) -> Tuple[Dict[str, Any], Any]:
        tool = self.tool_for(spec)
        analyzer = SingleSiteAnalyzer.from_spec(
            spec, base_params=self.base_params, solver_options=tool.solver_options
        )
        costs = analyzer.cost_distribution(
            tool.profiles,
            capacity_kw=spec.total_capacity_kw,
            min_green_fraction=spec.min_green_fraction,
            sources=spec.sources_enum,
            storage=spec.storage_enum,
        )
        feasible_costs = sorted(c.monthly_cost for c in costs if c.feasible)
        record: Dict[str, Any] = {
            "workflow": "single_site",
            "capacity_kw": spec.total_capacity_kw,
            "num_locations": len(costs),
            "num_feasible": len(feasible_costs),
            "min_monthly_cost": feasible_costs[0] if feasible_costs else float("nan"),
            "median_monthly_cost": (
                float(np.median(feasible_costs)) if feasible_costs else float("nan")
            ),
            "locations": [
                dict(cost.table_row(), feasible=bool(cost.feasible),
                     monthly_cost=float(cost.monthly_cost))
                for cost in costs
            ],
        }
        return record, costs

    def _run_emulate(self, spec: ScenarioSpec) -> Tuple[Dict[str, Any], Any]:
        from repro.greennebula.emulation import EmulatedCloud

        cloud = EmulatedCloud.from_spec(spec)
        summary = cloud.run()
        record: Dict[str, Any] = {
            "workflow": "emulate",
            "sites": [dc.name for dc in cloud.datacenters],
            "num_vms": cloud.config.num_vms,
            "total_hours": summary.total_hours,
            "total_migrations": summary.total_migrations,
            "migrated_state_mb": float(summary.migrated_state_mb),
            "total_green_used_kwh": float(summary.total_green_used_kwh),
            "total_brown_kwh": float(summary.total_brown_kwh),
            "green_fraction": float(summary.green_fraction),
            "load_series": {
                dc.name: [float(value) for value in cloud.load_series(dc.name)]
                for dc in cloud.datacenters
            },
        }
        return record, cloud

    def _run_operate(self, spec: ScenarioSpec) -> Tuple[Dict[str, Any], Any]:
        """Provision a plan with the heuristic, then replay an operating run.

        The siting/provisioning stage goes through the same shared
        problem/compiler caches as the ``plan`` workflow (operations knobs do
        not change the problem signature), so operate points sweeping only
        forecast or traffic knobs share compiled LP skeletons; the replay
        itself is the :mod:`repro.operator` rolling-horizon harness, run under
        the forecast-driven policy and under the oracle over the same
        synthesized trace, the two replays at the same time
        (:func:`~repro.operator.replay.run_replays`).
        """
        from repro.operator.replay import OperateConfig, operate_plan

        tool = self.tool_for(spec)
        problem, compiler = self._problem_for(spec, tool)
        solver = HeuristicSolver(
            problem,
            settings=spec.build_search_settings(),
            solver_options=tool.solver_options,
            compiler=compiler,
        )
        solution = solver.solve()
        record: Dict[str, Any] = {
            "workflow": "operate",
            "feasible": bool(solution.feasible),
            "plan_monthly_cost": float(solution.monthly_cost),
            "plan_evaluations": int(solution.evaluations),
            "message": solution.message,
        }
        plan = solution.plan
        if not solution.feasible or plan is None:
            return record, solution
        config = OperateConfig(**spec.operate_knobs())
        record.update(
            operate_plan(
                plan,
                config,
                total_capacity_kw=spec.total_capacity_kw,
                faults=spec.fault_spec(),
            )
        )
        self._attach_ensemble(record, spec, problem, plan)
        self._attach_contingency(record, spec, compiler, plan, operate_config=config)
        return record, solution

    # -- shared construction caches -------------------------------------------
    def _shared(
        self, cache: Dict[Any, Future], key: Any, counter: str, build: Callable[[], _T]
    ) -> _T:
        """Build ``cache[key]`` once, however many points ask for it at once.

        The first caller publishes a :class:`Future` under the lock, counts a
        ``{counter}_builds`` and builds outside the lock; every other caller
        counts a ``{counter}_hits`` and waits on that future.  A failed build
        raises in every waiter and is dropped, so the next call rebuilds.
        """
        with self._lock:
            waiting = cache.get(key)
            if waiting is None:
                future: Future = Future()
                cache[key] = future
            self.cache_counters[f"{counter}_{'builds' if waiting is None else 'hits'}"] += 1
        if waiting is not None:
            shared: _T = waiting.result()
            return shared
        try:
            value = build()
        except BaseException as error:
            with self._lock:
                cache.pop(key, None)
            future.set_exception(error)
            raise
        future.set_result(value)
        return value

    def _catalog_for(self, spec: ScenarioSpec) -> Any:
        key = (spec.num_locations, spec.catalog_seed, spec.include_anchors)
        return self._shared(self._catalogs, key, "catalog", spec.build_catalog)

    def _profiles_for(self, spec: ScenarioSpec, tool: PlacementTool) -> list:
        key = (
            spec.num_locations,
            spec.catalog_seed,
            spec.include_anchors,
            spec.days_per_season,
            spec.hours_per_epoch,
            spec.candidate_names,
        )
        return self._shared(
            self._profiles,
            key,
            "profile",
            lambda: tool.profile_builder.build_all(
                tool.epoch_grid, names=tool.candidate_names
            ),
        )

    def tool_for(self, spec: ScenarioSpec) -> PlacementTool:
        """A placement tool for the spec, with the catalogue and profiles shared."""
        tool = PlacementTool.from_spec(
            spec,
            catalog=self._catalog_for(spec),
            base_params=self.base_params,
            solver_options=self.solver_options,
        )
        tool._profiles = self._profiles_for(spec, tool)
        return tool

    def _problem_for(self, spec: ScenarioSpec, tool: PlacementTool) -> Any:
        """One siting problem + provisioning compiler per problem signature.

        Points that define the same fixed-siting LP (everything except the
        search settings and the workflow) share the problem object and its
        compiled per-site skeletons; both are read-only during solving and
        the compiler is thread-safe, so concurrent points may share them.
        """

        def build() -> Tuple[Any, ProvisioningCompiler]:
            problem = tool.build_problem(
                total_capacity_kw=spec.total_capacity_kw,
                min_green_fraction=spec.min_green_fraction,
                sources=spec.sources_enum,
                storage=spec.storage_enum,
                migration_factor=spec.migration_factor,
                net_meter_credit=spec.net_meter_credit,
                min_availability=spec.min_availability,
                green_enforcement=spec.green_enforcement_enum,
            )
            return problem, ProvisioningCompiler(problem)

        return self._shared(self._problems, spec.problem_signature(), "problem", build)

    # -- on-disk artifact cache -----------------------------------------------
    def _artifact_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"point-{key}.json")

    def _load_artifact(self, key: str) -> Optional[PointResult]:
        path = self._artifact_path(key)
        if path is None:
            return None
        if not os.path.exists(path):
            self._count("artifact_misses")
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
                self._count("artifact_misses")
                return None
            if payload.get("fingerprint") != code_fingerprint():
                # Written by different code (older package, another LP backend):
                # the spec alone no longer guarantees the numbers, so recompute.
                self._count("artifact_misses")
                return None
            result = PointResult.from_dict(payload["point"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # A truncated write, corrupt JSON, or a payload whose shape the
            # deserializer rejects is a cache *miss*, never a crash: the point
            # is recomputed and the bad file overwritten in place.
            self._count("artifact_misses")
            return None
        result.from_cache = True
        self._count("artifact_hits")
        return result

    def _store_artifact(self, key: str, result: PointResult) -> None:
        path = self._artifact_path(key)
        if path is None:
            return
        payload = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "fingerprint": code_fingerprint(),
            "point": result.to_dict(),
        }
        os.makedirs(self.cache_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
