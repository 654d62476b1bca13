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

The window's steps live in a ring of ``H`` step blocks of columns and rows:
window step ``k`` occupies slot ``(head + k) % H``, and the head moves one
slot per slide, so the expiring step's slot takes the appended step.  The
head counts the steps since the last cold load, which loads the window
step-major (head 0).  Step 0 is anchored to the realized load and battery
levels, and only a few values move from one window to the next — the PUE
coefficients of the power balances, the forecast demand and production
right-hand sides, the tier caps and the step-0 anchors.  The dispatcher
therefore compiles one window template per head (:class:`_WindowTemplate`,
each rotated from the step-major one the first time its head comes up) and
fills its slots with NumPy gathers for each window.  Every window is loaded
into one persistent :class:`~repro.lpsolver.highs_backend.MutableHighsModel`;
the previous optimal basis already has every surviving step's statuses in
that step's slot and the expiring step's in the appended step's, so a slide
hands it back to HiGHS as it is (per-block basis memory).  ``stats`` counts
cold loads, slides and solves so tests can assert that a replay of *n* steps
performs exactly one cold load and ``n - 1`` warm slides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class _WindowTemplate:
    """The fixed part of every dispatch window at one ring head, and the slots each one fills.

    Column costs and bounds, the CSC structure and every constant matrix
    value and row bound are compiled once per head.  The slot arrays index
    the entries that change per window; those shaped ``(H, N)`` or ``(H, K)``
    are ordered by window step, those shaped ``(N,)`` belong to the anchored
    step 0.
    """

    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_indptr: np.ndarray
    a_indices: np.ndarray
    a_data: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    pue_slots: np.ndarray          #: a_data of ``-pue`` on compute (H, N)
    pue_mf_slots: np.ndarray       #: a_data of ``-pue * mf`` on migrate (H, N)
    demand_rows: np.ndarray        #: demand rows, lower bound (H,)
    green_rows: np.ndarray         #: green-allocation rows, upper bound (H, N)
    tier_rows: np.ndarray          #: tier-cap rows, upper bound (H, K or 0)
    tier_fractions: np.ndarray     #: demand share each tier-cap row allows (K or 0,)
    migration_rows: np.ndarray     #: step-0 migration anchors, lower bound (N,)
    battery_rows: np.ndarray       #: step-0 battery anchors, both bounds (N,)


def _csc_order(
    rows: np.ndarray, cols: np.ndarray, nrows: int, ncols: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC column pointers of COO entries, their CSC order and each entry's CSC position."""
    order = np.argsort(cols * np.int64(nrows) + rows, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    indptr = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=ncols), out=indptr[1:])
    return indptr.astype(np.int32), order, position


class DispatchError(RuntimeError):
    """Raised when a window LP fails to solve to optimality."""


class RollingDispatcher:
    """Sliding-window dispatcher over one persistent HiGHS model.

    Not thread-safe; one dispatcher per replay.  :meth:`start` cold-loads
    the first window step-major and every :meth:`advance` moves the ring's
    head one slot and loads the next window warm, with the previous basis as
    it is; ``stats["cold_loads"]`` counts the start plus every cold reload of
    the resilience ladder, each of which also puts the head back to slot 0.
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
        #: Step-local column of each tier's unserved slack (tier 0 is column 0).
        self._tier_cols = np.concatenate(([0], 1 + 8 * self._N + np.arange(self._K - 1)))
        self._nrows_step = 2 + 5 * self._N + (self._K if self._tiered else 0)
        self._model = highs_backend.MutableHighsModel()
        # Current window state (the template's slot values and the ladder's
        # cold reloads read it).
        self._start_step: Optional[int] = None
        #: Step of the last cold load: window step 0 lives in ring slot
        #: ``(start_step - origin) % H``.
        self._origin = 0
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
        #: Compiled window templates by ring head (head 0 is step-major).
        self._templates: Dict[int, _WindowTemplate] = {0: self._compile_window()}
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

        Chaos-engineering hook: the listed steps skip the warm solve
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

    # -- window template ---------------------------------------------------------
    def _step_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cost, lower, upper) of one step's column block (the same every step)."""
        cfg = self.config
        delta = cfg.step_hours
        n = self._ncols_step
        cost = np.zeros(n)
        lower = np.zeros(n)
        upper = np.full(n, np.inf)
        for tier_col, (_, penalty) in zip(self._tier_cols, self._tiers):
            cost[tier_col] = penalty * delta
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

    def _compile_window(self) -> _WindowTemplate:
        """Compile the H-step window with step 0 anchored, step-major (head 0).

        Per step and site the rows are capacity, migration, power balance,
        green allocation and battery dynamics, after the step's demand and
        WAN rows and before its tier caps.  Step ``t > 0`` couples to step
        ``t - 1`` through the migration and battery rows; step 0 carries
        those terms in its anchor bounds instead.  The column and row bounds
        are the same in every step block.
        """
        cfg = self.config
        H, N = self._H, self._N
        nc, nr = self._ncols_step, self._nrows_step
        delta = cfg.step_hours
        eff = cfg.battery_efficiency
        steps = np.arange(H)[:, None]
        col = steps * nc + 1 + 8 * np.arange(N)        # (H, N) site column base
        row = steps * nr + 2 + 5 * np.arange(N)        # (H, N) site row base
        demand_rows = steps * nr                         # (H, 1)
        tier_cols = steps * nc + self._tier_cols         # (H, K)
        capped = self._tiers if self._tiered else ()   # untiered: no cap rows
        tier_rows = steps * nr + 2 + 5 * N + np.arange(len(capped))
        blocks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        def add(rows: np.ndarray, cols: np.ndarray, value: float) -> np.ndarray:
            """Append broadcast COO entries; returns their COO positions."""
            entry_rows, entry_cols, entry_vals = np.broadcast_arrays(rows, cols, value)
            offset = sum(len(block[0]) for block in blocks)
            blocks.append(
                (entry_rows.ravel(), entry_cols.ravel(), entry_vals.ravel().astype(float))
            )
            return offset + np.arange(entry_rows.size).reshape(entry_rows.shape)

        # demand: unserved (all tiers) + sum(compute) >= demand
        add(demand_rows, tier_cols, 1.0)
        add(demand_rows, col + _C, 1.0)
        # wan: sum(migrate) <= budget
        add(demand_rows + 1, col + _M, 1.0)
        # capacity: compute + incoming-migration overhead within the cap
        add(row, col + _C, 1.0)
        add(row, col + _M, 1.0)
        # migration: load that left since the previous step
        add(row + 1, col + _M, 1.0)
        add(row + 1, col + _C, 1.0)
        add(row[1:] + 1, col[:-1] + _C, -1.0)
        # power balance: green + battery + brown cover the facility demand
        add(row + 2, col + _G, 1.0)
        add(row + 2, col + _DIS, 1.0)
        add(row + 2, col + _B, 1.0)
        pue_coo = add(row + 2, col + _C, 0.0)
        pue_mf_coo = add(row + 2, col + _M, 0.0)
        # green allocation: direct use + charge + export within production
        for var in (_G, _CH, _X):
            add(row + 3, col + var, 1.0)
        # battery dynamics
        add(row + 4, col + _LEV, 1.0)
        add(row + 4, col + _CH, -eff * delta)
        add(row + 4, col + _DIS, delta)
        add(row[1:] + 4, col[:-1] + _LEV, -1.0)
        # tier caps: each priority class may shed at most its share
        add(tier_rows, tier_cols, 1.0)

        ncols, nrows = H * nc, H * nr
        rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
        indptr, order, position = _csc_order(rows, cols, nrows, ncols)

        row_lower = np.zeros(nrows)
        row_upper = np.full(nrows, np.inf)
        for free_below in (demand_rows + 1, row, row + 3, tier_rows):
            row_lower[free_below] = -np.inf
        row_upper[demand_rows + 1] = cfg.wan_move_kw if cfg.wan_move_kw is not None else np.inf
        row_upper[row] = self._capacity_nominal
        row_upper[row + 4] = 0.0
        cost, lower, upper = self._step_columns()
        return _WindowTemplate(
            cost=np.tile(cost, H),
            lower=np.tile(lower, H),
            upper=np.tile(upper, H),
            a_indptr=indptr,
            a_indices=rows[order].astype(np.int32),
            a_data=vals[order],
            row_lower=row_lower,
            row_upper=row_upper,
            pue_slots=position[pue_coo],
            pue_mf_slots=position[pue_mf_coo],
            demand_rows=demand_rows[:, 0],
            green_rows=row + 3,
            tier_rows=tier_rows,
            tier_fractions=np.array([fraction for fraction, _ in capped]),
            migration_rows=row[0] + 1,
            battery_rows=row[0] + 4,
        )

    def _template(self, head: int) -> _WindowTemplate:
        """The window template with step 0 in ring slot ``head``, compiled once."""
        template = self._templates.get(head)
        if template is None:
            template = self._templates[head] = self._rotate(self._templates[0], head)
        return template

    def _rotate(self, template: _WindowTemplate, head: int) -> _WindowTemplate:
        """The step-major ``template`` with window step ``k`` moved to slot ``(head + k) % H``.

        Every matrix entry and slot row moves ``head`` step blocks round the
        ring and the entries are re-sorted into CSC order.  The column and
        row bounds repeat every step block, so they stay as they are.
        """
        nc, nr = self._ncols_step, self._nrows_step
        ncols, nrows = self._H * nc, self._H * nr

        def slot(rows: np.ndarray) -> np.ndarray:
            return (rows + head * nr) % nrows

        cols = (np.repeat(np.arange(ncols), np.diff(template.a_indptr)) + head * nc) % ncols
        rows = slot(template.a_indices.astype(np.int64))
        indptr, order, position = _csc_order(rows, cols, nrows, ncols)
        return replace(
            template,
            a_indptr=indptr,
            a_indices=rows[order].astype(np.int32),
            a_data=template.a_data[order],
            pue_slots=position[template.pue_slots],
            pue_mf_slots=position[template.pue_mf_slots],
            demand_rows=slot(template.demand_rows),
            green_rows=slot(template.green_rows),
            tier_rows=slot(template.tier_rows),
            migration_rows=slot(template.migration_rows),
            battery_rows=slot(template.battery_rows),
        )

    @property
    def _head(self) -> int:
        """Ring slot of the current window's step 0."""
        return (self._start_step - self._origin) % self._H

    def _window_row_form(self) -> RowFormLP:
        """The current window: its head's template with the slots filled."""
        template = self._template(self._head)
        steps = np.arange(self._start_step, self._start_step + self._H)
        pue = np.stack([site.pue[steps] for site in self.sites], axis=1)
        a_data = template.a_data.copy()
        a_data[template.pue_slots] = -pue
        a_data[template.pue_mf_slots] = -pue * self.config.migration_factor
        row_lower = template.row_lower.copy()
        row_upper = template.row_upper.copy()
        row_lower[template.demand_rows] = self._demand_hat
        row_upper[template.green_rows] = self._production_hat.T
        row_upper[template.tier_rows] = template.tier_fractions * self._demand_hat[:, None]
        row_lower[template.migration_rows] = self._load_kw
        row_lower[template.battery_rows] = self._level_kwh
        row_upper[template.battery_rows] = self._level_kwh
        upper = template.upper
        if self._faulted:
            upper = upper.copy()
            self._override_first_step(row_lower, row_upper, upper)
        nrows, ncols = len(row_lower), len(upper)
        return RowFormLP(
            cost=template.cost,
            a_indptr=template.a_indptr,
            a_indices=template.a_indices,
            a_data=a_data,
            shape=(nrows, ncols),
            row_lower=row_lower,
            row_upper=row_upper,
            lower=template.lower,
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
        migration would make a hard outage infeasible).  The first step's
        blocks sit in the head's slot.
        """
        col_base = self._head * self._ncols_step
        row_base = self._head * self._nrows_step
        for d in range(self._N):
            cap = float(self._capacity_now[d])
            upper[col_base + 1 + 8 * d + _C] = cap
            row_upper[row_base + 2 + 5 * d] = cap
            row_lower[row_base + 2 + 5 * d + 1] = min(float(self._load_kw[d]), cap)
        row_upper[row_base + 1] = self._wan_upper()

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
        """Cold-load the first window, step-major, and solve it."""
        self._set_window(
            start_step, load_kw, level_kwh, demand_hat, production_hat,
            capacity_now=capacity_now, wan_factor=wan_factor,
        )
        self._origin = start_step
        self._model.clear_basis()
        self._model.load(self._window_row_form())
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
        """Slide the window one step forward, re-anchor, refresh, solve warm."""
        if self._start_step is None:
            raise RuntimeError("advance() before start()")
        self._set_window(
            self._start_step + 1, load_kw, level_kwh, demand_hat, production_hat,
            capacity_now=capacity_now, wan_factor=wan_factor,
        )
        # Per-block basis memory: the head moved one slot, so every surviving
        # step keeps its slot and its statuses in the carried basis, and the
        # appended step takes the expiring step's slot and statuses.
        self._model.load(self._window_row_form())
        self.stats["slides"] += 1
        return self._solve()

    # -- solving ----------------------------------------------------------------
    def _solve(self) -> DispatchDecision:
        # A solver outage (injected permanent failure) fails every rung of
        # the ladder; an injected solve failure only fails the warm legs.
        outage = self._start_step in self._outage_steps
        result = None
        warm = self._model.basis_snapshot() is not None
        injected = outage or self._start_step in self._fault_steps
        if not injected:
            result = self._model.solve(self.options)
        if injected or result.status is not SolveStatus.OPTIMAL:
            # Resilience ladder: a failed (or injected-as-failed) warm
            # solve first retries once with the carried basis dropped — a
            # bad carried basis is the usual culprit — and only then falls
            # back to a cold reload of the window.  Every leg
            # is counted; a non-optimal status never leaks an objective.
            self.stats["slide_retries"] += 1
            if not injected:
                self._model.clear_basis()
                result = self._model.solve(self.options)
            if injected or result.status is not SolveStatus.OPTIMAL:
                self.stats["fallback_rebuilds"] += 1
                self.stats["cold_loads"] += 1
                self._origin = self._start_step
                self._model.clear_basis()
                self._model.load(self._window_row_form())
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
        first = self._head * self._ncols_step
        block = np.asarray(x[first : first + self._ncols_step], dtype=float)
        per_site = block[1 : 1 + 8 * self._N].reshape(self._N, 8)
        if self._tiered:
            tier_unserved = block[self._tier_cols]
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
