"""Rolling-horizon dispatch core of the online operations subsystem.

Every operating step re-solves a sliding-window LP deciding, for each sited
datacenter and each step of the look-ahead horizon: its share of the service
load, the migration volume it sheds, how much brown energy it buys, how the
on-site green production is split between direct use, battery charging and
net-metered export, and the battery trajectory.  The formulation is the
paper's Fig. 1 provisioning LP with the sizing variables frozen at the
provisioned plan and the cyclic year replaced by an anchored look-ahead
window — plus an explicit unserved-demand slack whose penalty turns
capacity shortfalls (flash crowds) into a measurable SLA violation instead
of an infeasible LP.

The window LP is **never rebuilt between steps**: the model lives in a
:class:`~repro.lpsolver.highs_backend.MutableHighsModel` whose columns and
rows are laid out step-major, so advancing the horizon is

1. delete the expiring first step's column/row block,
2. re-anchor the new first step to the realized load and battery levels
   (the coefficients tying it to the deleted block vanish with the block,
   leaving pure bound edits),
3. append a fresh block at the horizon's far end, carrying over the basis
   statuses of the expiring block (per-block basis memory), and
4. refresh the forecast-dependent right-hand sides (demand, production),

with the previous optimal basis carried across the splice.  Only the
resilience ladder reloads the window cold.  A cold rebuild of the identical
window (:meth:`RollingDispatcher.rebuild_window`) serves as the differential
oracle, and ``stats`` counts loads/slides/solves so tests can assert that a
replay of *n* steps performs exactly one cold load and ``n - 1`` in-place
slides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lpsolver import SolverOptions
from repro.lpsolver import highs_backend
from repro.lpsolver.model import RowFormLP
from repro.lpsolver.result import SolveStatus

#: Per-site variables of one window step, in column order.
_SITE_VARS = ("compute", "migrate", "brown", "green_direct", "charge", "discharge", "level", "export")
_C, _M, _B, _G, _CH, _DIS, _LEV, _X = range(8)

#: Tie-break cost ($/kWh) nudging the LP to use green directly rather than
#: export-and-reimport, and to leave the battery alone when it changes nothing.
_EPSILON_COST = 1e-6


@dataclass
class SiteAsset:
    """One provisioned datacenter as the operator sees it.

    ``pue`` and ``production_kw`` are precomputed per *operating step* over
    the whole replay (trace steps plus the forecast horizon), so the dispatch
    LP and the traffic/forecast layers index them by absolute step.
    """

    name: str
    capacity_kw: float
    battery_kwh: float
    energy_price_per_kwh: float
    pue: np.ndarray
    production_kw: np.ndarray
    solar_kw: float = 0.0
    wind_kw: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_kw <= 0:
            raise ValueError("a site needs positive IT capacity")
        if min(self.battery_kwh, self.energy_price_per_kwh) < 0:
            raise ValueError("battery capacity and energy price cannot be negative")
        self.pue = np.asarray(self.pue, dtype=float)
        self.production_kw = np.asarray(self.production_kw, dtype=float)
        if self.pue.shape != self.production_kw.shape:
            raise ValueError("pue and production series must share one length")

    @classmethod
    def from_plan_datacenter(cls, dc, hours: np.ndarray) -> "SiteAsset":
        """Operator view of one :class:`~repro.core.solution.DatacenterPlan`.

        The plan's epoch grid covers representative days; operating hours map
        onto it cyclically, exactly like the GreenNebula emulation does.
        """
        profile = dc.profile
        indices = np.array([profile.epochs.epoch_index(hour) for hour in np.asarray(hours)])
        production = (
            profile.solar_alpha[indices] * dc.solar_kw
            + profile.wind_beta[indices] * dc.wind_kw
        )
        return cls(
            name=dc.name,
            capacity_kw=float(dc.capacity_kw),
            battery_kwh=float(dc.battery_kwh),
            energy_price_per_kwh=float(profile.energy_price_per_kwh),
            pue=profile.pue[indices],
            production_kw=production,
            solar_kw=float(dc.solar_kw),
            wind_kw=float(dc.wind_kw),
        )


@dataclass
class DispatchConfig:
    """Knobs of the sliding-window dispatch LP."""

    horizon: int = 24                      #: look-ahead window length in steps
    step_hours: float = 1.0
    migration_factor: float = 1.0          #: paper's epoch-fraction migration overhead
    battery_efficiency: float = 0.75
    allow_export: bool = True              #: net-metered export of surplus green
    export_credit: float = 1.0             #: fraction of retail price paid for exports
    wan_move_kw: Optional[float] = None    #: per-step cap on total shifted load (None = uncapped)
    unserved_penalty: float = 10.0         #: $/kWh of demand left unserved (SLA)
    migration_penalty_per_kw: float = 1e-3  #: $ per kW of load shifted
    #: Tiered load shedding: ``((fraction, penalty_per_kwh), ...)`` priority
    #: classes.  Each tier may shed at most ``fraction`` of the step's demand
    #: at its own price; fractions must sum to 1.  ``None`` keeps the single
    #: global slack priced at ``unserved_penalty``.  Cheap (low-priority)
    #: tiers shed first simply because the LP minimises cost.
    shed_tiers: Optional[Tuple[Tuple[float, float], ...]] = None
    #: Engage the proportional-to-capacity greedy dispatcher when the
    #: retry -> cold-rebuild ladder exhausts, instead of raising
    #: :class:`DispatchError`.  Decisions taken this way are flagged
    #: ``degraded`` so replays complete with an honest record.
    greedy_fallback: bool = True

    def __post_init__(self) -> None:
        if self.horizon < 2:
            raise ValueError("the dispatch window needs at least two steps")
        if self.step_hours <= 0:
            raise ValueError("the step duration must be positive")
        if not 0.0 <= self.migration_factor <= 1.0:
            raise ValueError("the migration factor must lie in [0, 1]")
        if not 0.0 < self.battery_efficiency <= 1.0:
            raise ValueError("the battery efficiency must lie in (0, 1]")
        if not 0.0 <= self.export_credit <= 1.0:
            raise ValueError("the export credit must lie in [0, 1]")
        if self.wan_move_kw is not None and self.wan_move_kw < 0:
            raise ValueError("the WAN move budget cannot be negative")
        if self.unserved_penalty <= 0:
            raise ValueError("the unserved-demand penalty must be positive")
        if self.shed_tiers is not None:
            tiers = tuple((float(frac), float(penalty)) for frac, penalty in self.shed_tiers)
            if not tiers:
                raise ValueError("shed_tiers needs at least one (fraction, penalty) tier")
            fractions = [frac for frac, _ in tiers]
            if any(frac <= 0 for frac in fractions) or abs(sum(fractions) - 1.0) > 1e-6:
                raise ValueError("shed-tier fractions must be positive and sum to 1")
            if any(penalty <= 0 for _, penalty in tiers):
                raise ValueError("shed-tier penalties must be positive")
            self.shed_tiers = tiers


@dataclass
class DispatchDecision:
    """The committed first step of one window solve (all arrays site-ordered)."""

    step: int
    objective: float
    compute_kw: np.ndarray
    migrate_kw: np.ndarray
    brown_kw: np.ndarray
    green_direct_kw: np.ndarray
    charge_kw: np.ndarray
    discharge_kw: np.ndarray
    level_kwh: np.ndarray
    export_kw: np.ndarray
    unserved_kw: float
    iterations: int = 0
    #: Unserved split by shedding tier (config order); None without tiers.
    unserved_by_tier: Optional[np.ndarray] = None
    #: True when the decision came from the greedy fallback, not the LP.
    degraded: bool = False

    @property
    def moved_kw(self) -> float:
        """Total load shifted away from its previous site this step.

        The migrate columns are bounded at zero, but the solver may return
        them a round-off below it; the total is clamped so such noise never
        reads as a negative move (non-negative totals pass through unchanged).
        """
        return max(float(self.migrate_kw.sum()), 0.0)


class DispatchError(RuntimeError):
    """Raised when a window LP fails to solve to optimality."""


class RollingDispatcher:
    """Sliding-window dispatcher over one persistent mutable HiGHS model.

    Not thread-safe; one dispatcher per replay.  :meth:`start` cold-loads
    the first window and every :meth:`advance` splices the next one in
    place; ``stats["cold_loads"]`` counts the start plus every cold reload
    of the resilience ladder.
    """

    def __init__(
        self,
        sites: Sequence[SiteAsset],
        config: Optional[DispatchConfig] = None,
        options: Optional[SolverOptions] = None,
    ) -> None:
        if not sites:
            raise ValueError("the dispatcher needs at least one site")
        self.sites = list(sites)
        self.config = config or DispatchConfig()
        self.options = options or SolverOptions()
        self._N = len(self.sites)
        self._H = self.config.horizon
        # Tiered shedding appends its extra columns/rows at the *end* of each
        # step block so every legacy index (col 0 unserved, per-site offsets)
        # survives unchanged; without tiers the layout is exactly the old one.
        self._tiered = self.config.shed_tiers is not None
        self._tiers: Tuple[Tuple[float, float], ...] = (
            self.config.shed_tiers
            if self._tiered
            else ((1.0, self.config.unserved_penalty),)
        )
        self._K = len(self._tiers)
        self._ncols_step = 1 + 8 * self._N + (self._K - 1)
        self._nrows_step = 2 + 5 * self._N + (self._K if self._tiered else 0)
        self._model = highs_backend.MutableHighsModel()
        # Current window state (kept for slides, RHS refreshes and rebuilds).
        self._start_step: Optional[int] = None
        self._load_kw: Optional[np.ndarray] = None
        self._level_kwh: Optional[np.ndarray] = None
        self._demand_hat: Optional[np.ndarray] = None
        self._production_hat: Optional[np.ndarray] = None
        # Realized first-step state under faults: per-site capacity actually
        # available right now (outages) and the WAN budget fraction in effect.
        # Future window steps always assume nominal conditions — faults are
        # unanticipated, the operator only observes them as they happen.
        self._capacity_nominal = np.array([site.capacity_kw for site in self.sites])
        self._capacity_now = self._capacity_nominal.copy()
        self._wan_factor = 1.0
        self._restore_first_step = False
        self._fault_steps: frozenset = frozenset()
        self._outage_steps: frozenset = frozenset()
        self._greedy = None
        self.stats: Dict[str, int] = {
            "lp_solves": 0,
            "cold_loads": 0,
            "slides": 0,
            "warm_solves": 0,
            "simplex_iterations": 0,
            "slide_retries": 0,
            "fallback_rebuilds": 0,
            "greedy_fallback_steps": 0,
        }

    def inject_solve_failures(self, steps) -> None:
        """Treat the warm solve at these window start steps as failed.

        Chaos-engineering hook: the listed steps skip the in-place warm solve
        and its basis-cleared retry, forcing the slide -> cold-rebuild
        fallback ladder so replays can verify graceful degradation (counters
        increment, objectives stay identical to the cold oracle).
        """
        self._fault_steps = frozenset(int(step) for step in steps)

    def inject_solver_outages(self, steps) -> None:
        """Treat *every* solve attempt at these window start steps as failed.

        Unlike :meth:`inject_solve_failures` (warm solve fails, the cold
        rebuild succeeds), an outage takes the solver down entirely: the
        whole retry -> cold-rebuild ladder exhausts, and the dispatcher
        either raises or — with ``greedy_fallback`` — commits a flagged
        degraded greedy decision so the replay still completes.
        """
        self._outage_steps = frozenset(int(step) for step in steps)

    # -- column/row block construction -----------------------------------------
    def _col(self, base: int, site: int, var: int) -> int:
        return base + 1 + 8 * site + var

    def _tier_col(self, base: int, tier: int) -> int:
        """Column of one shedding tier's unserved slack (tier 0 is column 0)."""
        if tier == 0:
            return base
        return base + 1 + 8 * self._N + (tier - 1)

    def _step_columns(self, absolute: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cost, lower, upper) of one step's column block."""
        cfg = self.config
        delta = cfg.step_hours
        n = self._ncols_step
        cost = np.zeros(n)
        lower = np.zeros(n)
        upper = np.full(n, np.inf)
        for k, (_, penalty) in enumerate(self._tiers):
            cost[self._tier_col(0, k)] = penalty * delta
        for d, site in enumerate(self.sites):
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
        self,
        absolute: int,
        base: int,
        prev_base: Optional[int],
        demand: float,
        production: np.ndarray,
        load_anchor: Optional[np.ndarray],
        level_anchor: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Row-wise CSR data of one step's row block.

        ``prev_base`` is the column base of the previous step's block, or
        ``None`` for the anchored first step (whose coupling terms move into
        the bounds via ``load_anchor`` / ``level_anchor``).
        """
        cfg = self.config
        delta = cfg.step_hours
        eff = cfg.battery_efficiency
        mf = cfg.migration_factor
        anchored = prev_base is None
        row_lower: List[float] = []
        row_upper: List[float] = []
        cols: List[List[int]] = []
        vals: List[List[float]] = []

        # demand: unserved (all tiers) + sum(compute) >= demand
        tier_cols = [self._tier_col(base, k) for k in range(self._K)]
        cols.append(tier_cols + [self._col(base, d, _C) for d in range(self._N)])
        vals.append([1.0] * (self._K + self._N))
        row_lower.append(float(demand))
        row_upper.append(np.inf)
        # wan: sum(migrate) <= budget
        cols.append([self._col(base, d, _M) for d in range(self._N)])
        vals.append([1.0] * self._N)
        row_lower.append(-np.inf)
        row_upper.append(cfg.wan_move_kw if cfg.wan_move_kw is not None else np.inf)

        for d, site in enumerate(self.sites):
            c = self._col(base, d, _C)
            m = self._col(base, d, _M)
            b = self._col(base, d, _B)
            g = self._col(base, d, _G)
            ch = self._col(base, d, _CH)
            dis = self._col(base, d, _DIS)
            lev = self._col(base, d, _LEV)
            x = self._col(base, d, _X)
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
                cols.append([m, c, self._col(prev_base, d, _C)])
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
                cols.append([lev, self._col(prev_base, d, _LEV), ch, dis])
                vals.append([1.0, -1.0, -eff * delta, delta])
                row_lower.append(0.0)
                row_upper.append(0.0)

        if self._tiered:
            # tier caps: each priority class may shed at most its share
            for k in range(self._K):
                cols.append([self._tier_col(base, k)])
                vals.append([1.0])
                row_lower.append(-np.inf)
                row_upper.append(self._tiers[k][0] * float(demand))

        starts = np.zeros(len(cols) + 1, dtype=np.int64)
        np.cumsum([len(entry) for entry in cols], out=starts[1:])
        return (
            np.asarray(row_lower),
            np.asarray(row_upper),
            starts,
            np.concatenate([np.asarray(entry, dtype=np.int64) for entry in cols]),
            np.concatenate([np.asarray(entry, dtype=float) for entry in vals]),
        )

    # -- whole-window assembly (cold path and differential oracle) --------------
    def _build_row_form(self) -> RowFormLP:
        """The current window as one RowFormLP (identical layout to the splices)."""
        H, N = self._H, self._N
        ncols = H * self._ncols_step
        nrows = H * self._nrows_step
        cost_parts, lower_parts, upper_parts = [], [], []
        row_lower = np.empty(nrows)
        row_upper = np.empty(nrows)
        coo_rows: List[np.ndarray] = []
        coo_cols: List[np.ndarray] = []
        coo_vals: List[np.ndarray] = []
        for t in range(H):
            absolute = self._start_step + t
            base = t * self._ncols_step
            prev_base = None if t == 0 else (t - 1) * self._ncols_step
            cost, lower, upper = self._step_columns(absolute)
            cost_parts.append(cost)
            lower_parts.append(lower)
            upper_parts.append(upper)
            r_lower, r_upper, starts, cols, vals = self._step_rows(
                absolute,
                base,
                prev_base,
                self._demand_hat[t],
                self._production_hat[:, t],
                self._load_kw if t == 0 else None,
                self._level_kwh if t == 0 else None,
            )
            offset = t * self._nrows_step
            row_lower[offset : offset + self._nrows_step] = r_lower
            row_upper[offset : offset + self._nrows_step] = r_upper
            lengths = np.diff(starts)
            coo_rows.append(np.repeat(np.arange(self._nrows_step, dtype=np.int64) + offset, lengths))
            coo_cols.append(cols)
            coo_vals.append(vals)

        rows = np.concatenate(coo_rows)
        cols = np.concatenate(coo_cols)
        vals = np.concatenate(coo_vals)
        order = np.argsort(cols * np.int64(nrows) + rows, kind="stable")
        indptr = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=ncols), out=indptr[1:])
        lower = np.concatenate(lower_parts)
        upper = np.concatenate(upper_parts)
        if self._faulted:
            self._override_first_step(row_lower, row_upper, upper)
        return RowFormLP(
            cost=np.concatenate(cost_parts),
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

    @property
    def _faulted(self) -> bool:
        """Is the realized first step operating off-nominal right now?"""
        return self._wan_factor < 1.0 or bool(
            np.any(self._capacity_now < self._capacity_nominal)
        )

    def _wan_upper(self) -> float:
        """Effective WAN cap of the realized step under the current factor."""
        budget = self.config.wan_move_kw
        if self._wan_factor >= 1.0:
            return budget if budget is not None else np.inf
        # A degradation with no configured budget scales an implicit budget
        # of the fleet's total IT capacity, so the fault still bites.
        if budget is None:
            budget = float(self._capacity_nominal.sum())
        return budget * self._wan_factor

    def _override_first_step(
        self, row_lower: np.ndarray, row_upper: np.ndarray, upper: np.ndarray
    ) -> None:
        """Impose the realized (faulted) state on the window's first step.

        Compute is capped at the capacity actually available, the capacity
        row follows, and load stranded above the cap is released from the
        migration anchor (it crashed with the site — charging it as WAN
        migration would make a hard outage infeasible).
        """
        for d in range(self._N):
            cap = float(self._capacity_now[d])
            upper[1 + 8 * d + _C] = cap
            row_upper[2 + 5 * d] = cap
            row_lower[2 + 5 * d + 1] = min(float(self._load_kw[d]), cap)
        row_upper[1] = self._wan_upper()

    # -- window lifecycle --------------------------------------------------------
    def _set_window(
        self,
        start_step: int,
        load_kw: np.ndarray,
        level_kwh: np.ndarray,
        demand_hat: np.ndarray,
        production_hat: np.ndarray,
        capacity_now: Optional[np.ndarray] = None,
        wan_factor: float = 1.0,
    ) -> None:
        load_kw = np.asarray(load_kw, dtype=float)
        level_kwh = np.asarray(level_kwh, dtype=float)
        demand_hat = np.asarray(demand_hat, dtype=float)
        production_hat = np.asarray(production_hat, dtype=float)
        if load_kw.shape != (self._N,) or level_kwh.shape != (self._N,):
            raise ValueError("anchors must carry one value per site")
        if demand_hat.shape != (self._H,) or production_hat.shape != (self._N, self._H):
            raise ValueError("forecast windows must cover exactly the horizon")
        if capacity_now is None:
            self._capacity_now = self._capacity_nominal.copy()
        else:
            capacity_now = np.asarray(capacity_now, dtype=float)
            if capacity_now.shape != (self._N,):
                raise ValueError("capacity_now must carry one value per site")
            self._capacity_now = np.minimum(capacity_now, self._capacity_nominal)
        if not 0.0 <= wan_factor <= 1.0:
            raise ValueError("the WAN degradation factor must lie in [0, 1]")
        self._wan_factor = float(wan_factor)
        self._start_step = start_step
        self._load_kw = load_kw
        self._level_kwh = level_kwh
        self._demand_hat = demand_hat
        self._production_hat = production_hat

    def start(
        self,
        start_step: int,
        load_kw: np.ndarray,
        level_kwh: np.ndarray,
        demand_hat: np.ndarray,
        production_hat: np.ndarray,
        capacity_now: Optional[np.ndarray] = None,
        wan_factor: float = 1.0,
    ) -> DispatchDecision:
        """Cold-load the first window and solve it."""
        self._set_window(
            start_step, load_kw, level_kwh, demand_hat, production_hat,
            capacity_now=capacity_now, wan_factor=wan_factor,
        )
        self._model.load(self._build_row_form())
        self._restore_first_step = self._faulted
        self.stats["cold_loads"] += 1
        return self._solve()

    def advance(
        self,
        load_kw: np.ndarray,
        level_kwh: np.ndarray,
        demand_hat: np.ndarray,
        production_hat: np.ndarray,
        capacity_now: Optional[np.ndarray] = None,
        wan_factor: float = 1.0,
    ) -> DispatchDecision:
        """Slide the window one step forward, re-anchor, refresh, solve."""
        if self._start_step is None:
            raise RuntimeError("advance() before start()")
        self._set_window(
            self._start_step + 1, load_kw, level_kwh, demand_hat, production_hat,
            capacity_now=capacity_now, wan_factor=wan_factor,
        )
        model = self._model
        # Per-block basis memory: the expiring step's statuses are
        # transplanted onto the appended step.  The slide is a pure block
        # swap, and the transplant beats plain projection on it (about 30 %
        # fewer simplex iterations).
        captured = model.capture_block_status(0, self._ncols_step, 0, self._nrows_step)
        # 1. drop the expiring step (its coupling coefficients go with it).
        model.delete_cols(np.arange(self._ncols_step, dtype=np.int64))
        model.delete_rows(np.arange(self._nrows_step, dtype=np.int64))
        # 2. re-anchor the (new) first step to the realized state.  Load
        #    stranded above the currently available capacity (a site outage)
        #    is released from the migration anchor — it crashed with the
        #    site, so it re-enters through the demand row instead.
        for d in range(self._N):
            mig_row = 2 + 5 * d + 1
            anchor_kw = min(float(self._load_kw[d]), float(self._capacity_now[d]))
            model.change_row_bounds(mig_row, anchor_kw, np.inf)
            bdyn_row = 2 + 5 * d + 4
            anchor = float(self._level_kwh[d])
            model.change_row_bounds(bdyn_row, anchor, anchor)
        # 3. append the fresh far-end step.
        t = self._H - 1
        absolute = self._start_step + t
        base = t * self._ncols_step
        cost, lower, upper = self._step_columns(absolute)
        empty = np.zeros(self._ncols_step + 1, dtype=np.int64)
        model.add_cols(cost, lower, upper, empty[: self._ncols_step + 1],
                       np.zeros(0, dtype=np.int64), np.zeros(0))
        r_lower, r_upper, starts, cols, vals = self._step_rows(
            absolute,
            base,
            (t - 1) * self._ncols_step,
            self._demand_hat[t],
            self._production_hat[:, t],
            None,
            None,
        )
        model.add_rows(r_lower, r_upper, starts, cols, vals)
        if captured is not None:
            model.overlay_block_status(base, captured[0],
                                       t * self._nrows_step, captured[1])
        # 4. refresh the forecast-dependent right-hand sides of the rest of
        #    the window (the appended step already carries fresh values).
        for k in range(t):
            offset = k * self._nrows_step
            demand_k = float(self._demand_hat[k])
            model.change_row_bounds(offset, demand_k, np.inf)
            for d in range(self._N):
                model.change_row_bounds(
                    offset + 2 + 5 * d + 3, -np.inf, float(self._production_hat[d, k])
                )
            if self._tiered:
                for tier in range(self._K):
                    model.change_row_bounds(
                        offset + 2 + 5 * self._N + tier,
                        -np.inf,
                        self._tiers[tier][0] * demand_k,
                    )
        # 5. impose (or lift) realized faults on the first step's bounds.
        #    Skipped entirely on the nominal path so fault support costs an
        #    unfaulted replay nothing.
        faulted = self._faulted
        if faulted or self._restore_first_step:
            indices = 1 + 8 * np.arange(self._N, dtype=np.int64) + _C
            model.change_col_bounds(indices, np.zeros(self._N), self._capacity_now)
            for d in range(self._N):
                model.change_row_bounds(2 + 5 * d, -np.inf, float(self._capacity_now[d]))
            model.change_row_bounds(1, -np.inf, self._wan_upper())
            self._restore_first_step = faulted
        self.stats["slides"] += 1
        return self._solve()

    # -- solving ----------------------------------------------------------------
    def _solve(self) -> DispatchDecision:
        # A solver outage (injected permanent failure) fails every rung of
        # the ladder; an injected solve failure only fails the warm legs.
        outage = self._start_step in self._outage_steps
        result = None
        warm = self._model.basis_snapshot() is not None or self.stats["lp_solves"] > 0
        injected = outage or self._start_step in self._fault_steps
        if not injected:
            result = self._model.solve(self.options)
        if injected or result.status is not SolveStatus.OPTIMAL:
            # Resilience ladder: a failed (or injected-as-failed) warm
            # solve first retries once with the carried basis dropped — a
            # badly repaired alien basis is the usual culprit — and only
            # then falls back to a cold rebuild of the window.  Every leg
            # is counted; a non-optimal status never leaks an objective.
            self.stats["slide_retries"] += 1
            if not injected:
                self._model.clear_basis()
                result = self._model.solve(self.options)
            if injected or result.status is not SolveStatus.OPTIMAL:
                self.stats["fallback_rebuilds"] += 1
                self.stats["cold_loads"] += 1
                self._model.load(self._build_row_form())
                self._restore_first_step = self._faulted
                result = None if outage else self._model.solve(self.options)
            warm = False
        if warm and result is not None and result.status is SolveStatus.OPTIMAL:
            self.stats["warm_solves"] += 1
        self.stats["lp_solves"] += 1
        if result is not None:
            self.stats["simplex_iterations"] += int(result.iterations)
        if result is None or result.status is not SolveStatus.OPTIMAL:
            if self.config.greedy_fallback:
                self.stats["greedy_fallback_steps"] += 1
                return self._greedy_decision()
            detail = (
                "solver unavailable (injected outage)"
                if result is None
                else f"{result.status.value}: {result.message}"
            )
            raise DispatchError(
                f"window LP at step {self._start_step} not optimal: {detail}"
            )
        return self._extract_decision(result.x, float(result.objective), int(result.iterations))

    def _greedy_decision(self) -> DispatchDecision:
        """Last-resort commitment of the realized step, flagged degraded."""
        from repro.operator.failover import GreedyFallbackDispatcher

        if self._greedy is None:
            self._greedy = GreedyFallbackDispatcher(self.sites, self.config)
        return self._greedy.decide(
            step=self._start_step,
            load_kw=self._load_kw,
            level_kwh=self._level_kwh,
            demand_kw=float(self._demand_hat[0]),
            production_kw=self._production_hat[:, 0],
            capacity_now=self._capacity_now,
            wan_budget_kw=self._wan_upper(),
        )

    def _extract_decision(self, x: np.ndarray, objective: float, iterations: int) -> DispatchDecision:
        block = np.asarray(x[: self._ncols_step], dtype=float)
        per_site = block[1 : 1 + 8 * self._N].reshape(self._N, 8)
        if self._tiered:
            tier_unserved = np.array([block[self._tier_col(0, k)] for k in range(self._K)])
            unserved = float(tier_unserved.sum())
        else:
            tier_unserved = None
            unserved = float(block[0])
        return DispatchDecision(
            step=self._start_step,
            objective=objective,
            compute_kw=per_site[:, _C].copy(),
            migrate_kw=per_site[:, _M].copy(),
            brown_kw=per_site[:, _B].copy(),
            green_direct_kw=per_site[:, _G].copy(),
            charge_kw=per_site[:, _CH].copy(),
            discharge_kw=per_site[:, _DIS].copy(),
            level_kwh=per_site[:, _LEV].copy(),
            export_kw=per_site[:, _X].copy(),
            unserved_kw=unserved,
            iterations=iterations,
            unserved_by_tier=tier_unserved,
        )

    # -- differential oracle ------------------------------------------------------
    def rebuild_window(self) -> float:
        """Cold-build and cold-solve the *current* window; returns the objective.

        Does not touch the mutable model or the counters — this is the
        differential oracle the sliding-horizon tests pin the in-place
        slides against (same window state, from-scratch assembly).
        """
        if self._start_step is None:
            raise RuntimeError("rebuild_window() before start()")
        result = highs_backend.solve_row_form(self._build_row_form(), self.options)
        if result.status is not SolveStatus.OPTIMAL:
            raise DispatchError(
                f"rebuilt window LP at step {self._start_step} not optimal: "
                f"{result.status.value}: {result.message}"
            )
        return float(result.objective)
