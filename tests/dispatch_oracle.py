"""Reference dispatch window builder and replay fixtures for the operator tests.

:func:`reference_row_form` assembles the dispatcher's *current* window step
by step from Python lists — the original, obviously-correct construction of
the window LP.  :class:`~repro.operator.dispatch.RollingDispatcher` fills a
compiled window template instead; the tests pin the two byte for byte
(``tests/operator/test_dispatch_template.py``) and compare warm window
objectives against :func:`rebuild_window`, a cold solve of the reference.

Everything here reads the dispatcher's window state (start step, anchors,
forecasts, realized faults) but none of its assembly code.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.lpsolver import highs_backend
from repro.lpsolver.model import RowFormLP
from repro.lpsolver.result import SolveStatus
from repro.operator.dispatch import DispatchConfig, RollingDispatcher, SiteAsset
from repro.operator.traffic import TrafficModel

#: Per-site variable offsets inside a step block (see ``dispatch._SITE_VARS``).
_C, _M, _B, _G, _CH, _DIS, _LEV, _X = range(8)
_EPSILON_COST = 1e-6


def two_sites(needed, battery_kwh=200.0, capacity_kw=700.0):
    """Two antiphase solar sites with ``needed`` steps of PUE and production."""
    hours = np.arange(needed, dtype=float)

    def build(name, phase):
        production = np.clip(np.sin(2 * np.pi * (hours + phase) / 24.0), 0, None)
        return SiteAsset(
            name=name,
            capacity_kw=capacity_kw,
            battery_kwh=battery_kwh,
            energy_price_per_kwh=0.12,
            pue=1.2 + 0.1 * np.cos(hours / 5.0),
            production_kw=production * capacity_kw * 1.5,
        )

    return [build("alpha", 0.0), build("beta", 12.0)]


def replay(dispatcher, sites, demand, production, steps, horizon, check=None, faults=None):
    """Commit ``steps`` decisions, feeding each back as the next anchors.

    ``faults(step)`` returns the ``(capacity_now, wan_factor)`` realized at a
    step; without it every step runs nominal.
    """
    capacities = np.array([site.capacity_kw for site in sites])
    load = np.minimum(np.array([0.6, 0.4]) * demand[0], capacities)
    level = np.zeros(len(sites))
    for step in range(steps):
        demand_hat = demand[step : step + horizon].copy()
        production_hat = production[:, step : step + horizon].copy()
        capacity_now, wan_factor = (None, 1.0) if faults is None else faults(step)
        window = dict(capacity_now=capacity_now, wan_factor=wan_factor)
        if step == 0:
            decision = dispatcher.start(0, load, level, demand_hat, production_hat, **window)
        else:
            decision = dispatcher.advance(load, level, demand_hat, production_hat, **window)
        if check is not None:
            check(step, decision)
        load = decision.compute_kw.copy()
        level = decision.level_kwh.copy()
    return dispatcher


STEPS, HORIZON = 12, 6

#: Replay set-ups of the digest and differential tests:
#: (name, DispatchConfig keywords, :func:`two_sites` keywords, replay set-up).
CASES = (
    ("net-metering", {"allow_export": True}, {}, {}),
    ("batteries-only", {"allow_export": False}, {}, {}),
    ("no-storage", {"allow_export": False}, {"battery_kwh": 0.0}, {}),
    ("shed-tiers", {"shed_tiers": ((0.6, 20.0), (0.4, 5.0))}, {"capacity_kw": 250.0}, {}),
    ("faulted", {}, {}, {"faulted": True}),
    ("solve-failures", {}, {}, {"failures": (2, 5)}),
    ("solver-outages", {"greedy_fallback": True}, {}, {"outages": (3, 4)}),
)


def fault_schedule(sites):
    """Site ``alpha`` down and ``beta`` at half capacity over steps 3-5, WAN halved over 4-7."""
    capacities = np.array([site.capacity_kw for site in sites])

    def faults(step):
        capacity_now = capacities * np.array([0.0, 0.5]) if 3 <= step <= 5 else None
        return capacity_now, 0.5 if 4 <= step <= 7 else 1.0

    return faults


def replay_case(config_kwargs, site_kwargs, setup, steps=STEPS, horizon=HORIZON, check=None):
    """Replay one set-up of :data:`CASES`; returns the dispatcher and its decisions.

    ``check(dispatcher, step, decision)`` sees every committed decision.
    """
    needed = steps + horizon
    sites = two_sites(needed, **site_kwargs)
    demand = np.asarray(TrafficModel(seed=3).synthesize(needed, total_capacity_kw=1000.0).demand_kw)
    production = np.stack([site.production_kw for site in sites])
    dispatcher = RollingDispatcher(sites, DispatchConfig(horizon=horizon, **config_kwargs))
    dispatcher.inject_solve_failures(setup.get("failures", ()))
    dispatcher.inject_solver_outages(setup.get("outages", ()))
    decisions = []

    def record(step, decision):
        decisions.append(decision)
        if check is not None:
            check(dispatcher, step, decision)

    faults = fault_schedule(sites) if setup.get("faulted") else None
    replay(dispatcher, sites, demand, production, steps, horizon, check=record, faults=faults)
    return dispatcher, decisions


# -- reference window assembly ----------------------------------------------------
def _col(base: int, site: int, var: int) -> int:
    return base + 1 + 8 * site + var


def _tier_col(dispatcher: RollingDispatcher, base: int, tier: int) -> int:
    if tier == 0:
        return base
    return base + 1 + 8 * dispatcher._N + (tier - 1)


def _step_columns(dispatcher: RollingDispatcher) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cost, lower, upper) of one step's column block."""
    cfg = dispatcher.config
    delta = cfg.step_hours
    n = dispatcher._ncols_step
    cost = np.zeros(n)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for k, (_, penalty) in enumerate(dispatcher._tiers):
        cost[_tier_col(dispatcher, 0, k)] = penalty * delta
    for d, site in enumerate(dispatcher.sites):
        base = 1 + 8 * d
        upper[base + _C] = site.capacity_kw
        cost[base + _B] = site.energy_price_per_kwh * delta
        cost[base + _M] = cfg.migration_penalty_per_kw
        cost[base + _CH] = _EPSILON_COST * delta
        cost[base + _DIS] = _EPSILON_COST * delta
        upper[base + _LEV] = site.battery_kwh
        if site.battery_kwh <= 0:
            upper[base + _CH] = 0.0
            upper[base + _DIS] = 0.0
        if cfg.allow_export:
            cost[base + _X] = (_EPSILON_COST - cfg.export_credit * site.energy_price_per_kwh) * delta
        else:
            upper[base + _X] = 0.0
    return cost, lower, upper


def _step_rows(
    dispatcher: RollingDispatcher,
    absolute: int,
    base: int,
    prev_base: Optional[int],
    demand: float,
    production: np.ndarray,
    load_anchor: Optional[np.ndarray],
    level_anchor: Optional[np.ndarray],
):
    """Row-wise CSR data of one step's row block.

    ``prev_base`` is the column base of the previous step's block, or
    ``None`` for the anchored first step (whose coupling terms move into
    the bounds via ``load_anchor`` / ``level_anchor``).
    """
    cfg = dispatcher.config
    delta = cfg.step_hours
    eff = cfg.battery_efficiency
    mf = cfg.migration_factor
    N, K = dispatcher._N, dispatcher._K
    anchored = prev_base is None
    row_lower: List[float] = []
    row_upper: List[float] = []
    cols: List[List[int]] = []
    vals: List[List[float]] = []

    # demand: unserved (all tiers) + sum(compute) >= demand
    tier_cols = [_tier_col(dispatcher, base, k) for k in range(K)]
    cols.append(tier_cols + [_col(base, d, _C) for d in range(N)])
    vals.append([1.0] * (K + N))
    row_lower.append(float(demand))
    row_upper.append(np.inf)
    # wan: sum(migrate) <= budget
    cols.append([_col(base, d, _M) for d in range(N)])
    vals.append([1.0] * N)
    row_lower.append(-np.inf)
    row_upper.append(cfg.wan_move_kw if cfg.wan_move_kw is not None else np.inf)

    for d, site in enumerate(dispatcher.sites):
        c, m, b, g, ch, dis, lev, x = (_col(base, d, var) for var in range(8))
        pue = float(site.pue[absolute])
        # capacity: compute + incoming-migration overhead within the cap
        cols.append([c, m])
        vals.append([1.0, 1.0])
        row_lower.append(-np.inf)
        row_upper.append(site.capacity_kw)
        # migration: load that left since the previous step
        if anchored:
            cols.append([m, c])
            vals.append([1.0, 1.0])
            row_lower.append(float(load_anchor[d]))
        else:
            cols.append([m, c, _col(prev_base, d, _C)])
            vals.append([1.0, 1.0, -1.0])
            row_lower.append(0.0)
        row_upper.append(np.inf)
        # power balance: green + battery + brown cover the facility demand
        cols.append([g, dis, b, c, m])
        vals.append([1.0, 1.0, 1.0, -pue, -pue * mf])
        row_lower.append(0.0)
        row_upper.append(np.inf)
        # green allocation: direct use + charge + export within production
        cols.append([g, ch, x])
        vals.append([1.0, 1.0, 1.0])
        row_lower.append(-np.inf)
        row_upper.append(float(production[d]))
        # battery dynamics
        if anchored:
            cols.append([lev, ch, dis])
            vals.append([1.0, -eff * delta, delta])
            anchor = float(level_anchor[d])
            row_lower.append(anchor)
            row_upper.append(anchor)
        else:
            cols.append([lev, _col(prev_base, d, _LEV), ch, dis])
            vals.append([1.0, -1.0, -eff * delta, delta])
            row_lower.append(0.0)
            row_upper.append(0.0)

    if dispatcher._tiered:
        # tier caps: each priority class may shed at most its share
        for k in range(K):
            cols.append([_tier_col(dispatcher, base, k)])
            vals.append([1.0])
            row_lower.append(-np.inf)
            row_upper.append(dispatcher._tiers[k][0] * float(demand))

    starts = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum([len(entry) for entry in cols], out=starts[1:])
    return (
        np.asarray(row_lower),
        np.asarray(row_upper),
        starts,
        np.concatenate([np.asarray(entry, dtype=np.int64) for entry in cols]),
        np.concatenate([np.asarray(entry, dtype=float) for entry in vals]),
    )


def _override_first_step(
    dispatcher: RollingDispatcher,
    head: int,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    upper: np.ndarray,
) -> None:
    """Impose the realized (faulted) state on the window's first step (slot ``head``)."""
    col_base = head * dispatcher._ncols_step
    row_base = head * dispatcher._nrows_step
    for d in range(dispatcher._N):
        cap = float(dispatcher._capacity_now[d])
        upper[col_base + 1 + 8 * d + _C] = cap
        row_upper[row_base + 2 + 5 * d] = cap
        row_lower[row_base + 2 + 5 * d + 1] = min(float(dispatcher._load_kw[d]), cap)
    row_upper[row_base + 1] = dispatcher._wan_upper()


def reference_row_form(dispatcher: RollingDispatcher, head: Optional[int] = None) -> RowFormLP:
    """The dispatcher's current window as one RowFormLP, built step by step.

    Window step ``k`` goes to slot ``(head + k) % H``; ``head`` defaults to
    the dispatcher's own, and ``head=0`` gives the step-major window.
    """
    if dispatcher._start_step is None:
        raise RuntimeError("no window before start()")
    H = dispatcher._H
    head = dispatcher._head if head is None else head
    ncols_step, nrows_step = dispatcher._ncols_step, dispatcher._nrows_step
    ncols = H * ncols_step
    nrows = H * nrows_step
    cost = np.empty(ncols)
    lower = np.empty(ncols)
    upper = np.empty(ncols)
    row_lower = np.empty(nrows)
    row_upper = np.empty(nrows)
    coo_rows: List[np.ndarray] = []
    coo_cols: List[np.ndarray] = []
    coo_vals: List[np.ndarray] = []
    for t in range(H):
        absolute = dispatcher._start_step + t
        slot = (head + t) % H
        base = slot * ncols_step
        prev_base = None if t == 0 else ((slot - 1) % H) * ncols_step
        block = slice(base, base + ncols_step)
        cost[block], lower[block], upper[block] = _step_columns(dispatcher)
        r_lower, r_upper, starts, cols, vals = _step_rows(
            dispatcher,
            absolute,
            base,
            prev_base,
            dispatcher._demand_hat[t],
            dispatcher._production_hat[:, t],
            dispatcher._load_kw if t == 0 else None,
            dispatcher._level_kwh if t == 0 else None,
        )
        offset = slot * nrows_step
        row_lower[offset : offset + nrows_step] = r_lower
        row_upper[offset : offset + nrows_step] = r_upper
        lengths = np.diff(starts)
        coo_rows.append(np.repeat(np.arange(nrows_step, dtype=np.int64) + offset, lengths))
        coo_cols.append(cols)
        coo_vals.append(vals)

    rows = np.concatenate(coo_rows)
    cols = np.concatenate(coo_cols)
    vals = np.concatenate(coo_vals)
    order = np.argsort(cols * np.int64(nrows) + rows, kind="stable")
    indptr = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=ncols), out=indptr[1:])
    if dispatcher._faulted:
        _override_first_step(dispatcher, head, row_lower, row_upper, upper)
    return RowFormLP(
        cost=cost,
        a_indptr=indptr.astype(np.int32),
        a_indices=rows[order].astype(np.int32),
        a_data=vals[order],
        shape=(nrows, ncols),
        row_lower=row_lower,
        row_upper=row_upper,
        lower=lower,
        upper=upper,
        integrality=np.zeros(ncols, dtype=np.int64),
        maximise=False,
        objective_constant=0.0,
    )


_FIELDS = (
    "cost", "a_indptr", "a_indices", "a_data", "row_lower", "row_upper",
    "lower", "upper", "integrality",
)


def assert_row_forms_identical(got: RowFormLP, expected: RowFormLP) -> None:
    """Every array of the two row forms matches in dtype and bytes."""
    assert got.shape == expected.shape
    assert (got.maximise, got.objective_constant) == (expected.maximise, expected.objective_constant)
    for field in _FIELDS:
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


def rebuild_window(dispatcher: RollingDispatcher) -> float:
    """Cold-build and cold-solve the current window; returns the objective.

    Touches neither the dispatcher's HiGHS model nor its counters.
    """
    result = highs_backend.solve_row_form(reference_row_form(dispatcher), dispatcher.options)
    if result.status is not SolveStatus.OPTIMAL:
        raise AssertionError(
            f"reference window at step {dispatcher._start_step} not optimal: "
            f"{result.status.value}: {result.message}"
        )
    return float(result.objective)
