"""Fixed-siting provisioning LP (step 2 of the paper's heuristic).

Once the heuristic has decided *where* datacenters are placed and whether each
is "small" or "large" (which fixes the per-kW construction price), the
remaining problem — how much compute capacity, solar, wind and storage to
provision at each site, and how to distribute load and energy over the epochs
— is a pure LP.  This module builds and solves that LP and converts the
optimum into :class:`~repro.core.solution.NetworkPlan` objects.

The formulation follows Fig. 1 with one refinement: green energy is allocated
explicitly into "used directly", "stored to batteries", "stored to the grid"
and (implicitly) "curtailed", so that the green-fraction constraint counts
only green energy that actually serves the load (directly or via storage).
This closes a loophole in the figure's aggregate form in which simultaneous
charge/discharge could inflate the green numerator, and matches the intent
described in Sections II-B and IV.

The compiler emits each per-epoch constraint family — power balance, battery
dynamics, net-metering bank, migration coupling — as COO triplets of a
per-site skeleton, made in one way: the profile-free structure of the site's
size class (index arrays, sense masks, right-hand sides, bounds and every
location-independent value), built once per class, with the location's
values — PUE and production series, the brown-plant cap, prices and the
green-coupling demand terms — written into its value slots.  Skeletons are
cached per ``(location, size class)``, and a siting's LP is instantiated
directly in HiGHS row form through a per-shape CSC pattern cache, so the
annealing search pays assembly costs only once per pair it visits.  That
templated row form is the only assembly route, on every epoch grid; the
Fig. 1 MILP (:mod:`repro.core.formulation`) is built on it too.  A site's
column layout has one owner, :class:`_SiteLayout`.  A readable row-by-row
construction of the same LP lives in the test suite, where the differential
tests pin this builder against it, and a golden digest pins every skeleton.

Plan extraction is lazy: :class:`ProvisioningResult` materialises the
:class:`NetworkPlan` on first access of ``.plan``, so the thousands of
intermediate LPs the annealing search discards never pay extraction costs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.costs import CostModel
from repro.core.problem import GreenEnforcement, SitingProblem, StorageMode
from repro.core.solution import DatacenterPlan, NetworkPlan
from repro.energy.profiles import LocationProfile
from repro.lpsolver import ConstraintSense, RowFormLP, SolverOptions
from repro.lpsolver import highs_backend
from repro.lpsolver import validate as lp_validate
from repro.lpsolver.model import csc_order

#: Per-epoch variable families of one site, in registration order (after the
#: four scalar sizing variables capacity/solar/wind/battery).
_EPOCH_FAMILIES = (
    "compute",
    "migrate",
    "brown",
    "green_direct",
    "battery_charge",
    "battery_discharge",
    "battery_level",
    "net_charge",
    "net_discharge",
    "net_level",
)


def _sum_duplicates(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, num_cols: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block's triplets with duplicate ``(row, col)`` entries summed.

    Only single-epoch grids produce duplicates: the cyclic previous epoch is
    the epoch itself, so the migration and storage-dynamics blocks name one
    coordinate twice.  Summing them is what a COO-to-CSC conversion does.
    A block without duplicates keeps its triplet order, so multi-epoch
    skeletons (and the value slots derived from them) are unchanged.
    """
    codes = rows * np.int64(num_cols) + cols
    unique, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    if len(unique) == len(codes):
        return rows, cols, vals
    order = np.argsort(first)  # keep the first-occurrence order
    keep = first[order]
    sums = np.bincount(inverse, weights=vals, minlength=len(unique))
    return rows[keep], cols[keep], sums[order]


@dataclass
class _SiteLayout:
    """Index layout of one site's variables inside the model's vector.

    The one owner of the site's column layout: the ``NUM_SIZING`` scalar
    sizing columns ``[capacity, solar, wind, battery]``, then the ten
    per-epoch families of ``_EPOCH_FAMILIES``, ``num_epochs`` columns each.
    The layout is fully determined by the site's base offset and the number
    of epochs; at base 0 (``_SiteLayout(num_epochs=T)``) it gives the
    site-local indices the skeletons are written in.  Plan extraction also
    carries the site's profile and size class.
    """

    NUM_SIZING: ClassVar[int] = 4

    num_epochs: int
    base: int = 0
    profile: Optional[LocationProfile] = None
    size_class: str = ""

    def __post_init__(self) -> None:
        t = np.arange(self.num_epochs, dtype=np.int64)
        self.capacity = self.base
        self.solar = self.base + 1
        self.wind = self.base + 2
        self.battery = self.base + 3
        for k, family in enumerate(_EPOCH_FAMILIES):
            setattr(self, family, self.base + self.NUM_SIZING + k * self.num_epochs + t)

    @property
    def num_variables(self) -> int:
        return self.NUM_SIZING + len(_EPOCH_FAMILIES) * self.num_epochs


@dataclass
class _SiteSkeleton:
    """Constraint/objective skeleton of one ``(location, size class)``.

    Everything is expressed in site-local variable indices ``0..n-1``; the
    compiler offsets rows and columns when stitching sites into an LP.  The
    ``tri_*`` arrays hold the site's constraint blocks as one COO triplet
    concatenation (block-local row offsets applied, duplicate coordinates
    summed), with per-row right-hand sides and sense masks.  ``green_*``
    holds the site's contribution to the cross-site minimum-green coupling
    constraint.
    """

    num_epochs: int
    lower: np.ndarray
    upper: np.ndarray
    objective_cols: np.ndarray
    objective_vals: np.ndarray
    fixed_cost: float
    tri_rows: np.ndarray
    tri_cols: np.ndarray
    tri_vals: np.ndarray
    rhs: np.ndarray
    le_mask: np.ndarray
    ge_mask: np.ndarray
    green_rows: np.ndarray
    green_cols: np.ndarray
    green_vals: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.rhs.shape[0])


@dataclass
class _ClassStructure:
    """Profile-free skeleton of one size class, shared by all its locations.

    ``skeleton`` holds every index array, sense mask, right-hand side, bound
    and location-independent value; the location slots (PUE and production
    values, the brown-plant cap, objective prices and the green-coupling
    demand terms) hold zeros.  ``slots`` maps each constraint block to the
    offset where its values start in ``tri_vals``, and ``brown_cols`` are
    the columns the brown-plant cap bounds.
    """

    skeleton: _SiteSkeleton
    slots: Dict[str, int]
    brown_cols: np.ndarray


@dataclass
class _ModelTemplate:
    """Cached CSC sparsity pattern of one siting *shape*.

    Sitings whose ordered size-class tuples match produce LPs with identical
    sparsity patterns (per-site skeletons keep explicit zeros precisely so
    this holds across locations); only the coefficient values differ.  The
    template maps the deterministic triplet concatenation order onto CSC data
    order (``perm``) so assembling a new model of the same shape is a single
    fancy-index, and caches the per-row sense masks used to expand right-hand
    sides into HiGHS row bounds.
    """

    shape: Tuple[int, int]
    perm: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    le_mask: np.ndarray
    ge_mask: np.ndarray


class ProvisioningResult:
    """Outcome of a fixed-siting provisioning solve.

    ``monthly_cost`` is the LP objective.  The :class:`NetworkPlan` behind
    ``plan`` is extracted lazily on first access — the annealing search
    evaluates thousands of sitings but only ever reads the plan of the best
    one, so eager extraction would dominate the hot path.
    """

    __slots__ = ("feasible", "monthly_cost", "message", "_plan", "_extractor")

    def __init__(
        self,
        feasible: bool,
        monthly_cost: float,
        plan: Optional[NetworkPlan] = None,
        message: str = "",
        extractor: Optional[Callable[[], NetworkPlan]] = None,
    ) -> None:
        self.feasible = feasible
        self.monthly_cost = monthly_cost
        self.message = message
        self._plan = plan
        self._extractor = extractor

    @property
    def plan(self) -> Optional[NetworkPlan]:
        # Snapshot the extractor: a result may be read from several threads,
        # and two concurrent first reads must both see a callable (duplicate
        # extraction is harmless; both produce the same plan from the same
        # solve vector).
        extractor = self._extractor
        if self._plan is None and extractor is not None:
            self._plan = extractor()
            self._extractor = None
        return self._plan

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self.feasible

    def __repr__(self) -> str:
        return (
            f"ProvisioningResult(feasible={self.feasible}, "
            f"monthly_cost={self.monthly_cost:.6g}, message={self.message!r})"
        )


class ProvisioningCompiler:
    """Compiles siting decisions of one problem into row-form provisioning LPs.

    A site's skeleton (COO triplets, bounds, objective coefficients) is made
    in one way: the profile-free structure of its size class, built once per
    class (:meth:`_class_structure`), with the location's values written into
    its value slots (:meth:`_fill_site_skeleton`).  Skeletons are cached by
    ``(location, size class)``.  The annealing moves — add, remove, swap,
    resize, merge — revisit the same pairs constantly, so after warm-up a
    model assembly is little more than concatenating cached arrays and
    adding the cross-site coupling rows.  Thread-safe: the runner's thread
    executor shares one compiler across the sweep points that define the
    same LP (and ``repro serve``'s thread executor shares one runner), so
    concurrent points read and fill the skeleton cache together.
    """

    def __init__(self, problem: SitingProblem) -> None:
        self.problem = problem
        self.cost_model = CostModel(problem.params)
        self._profiles = problem.profile_map()
        self._skeletons: Dict[Tuple[str, str], _SiteSkeleton] = {}
        # Per-shape CSC pattern cache, keyed by (size classes, spread).
        self._templates: Dict[Tuple, _ModelTemplate] = {}
        self._structures: Dict[str, _ClassStructure] = {}
        self._lock = threading.Lock()

    # -- per-site skeleton -------------------------------------------------------
    def site_skeleton(self, name: str, size_class: str) -> _SiteSkeleton:
        """The cached skeleton of ``(name, size_class)``, made on first use.

        Counts warm-vs-cold into the open :mod:`repro.obs` tally (the
        ``ExperimentRunner``'s point, reported by its ``cache_stats()`` and
        the serve daemon's ``/metrics``): a hit reuses a cached skeleton, a
        derive fills a cached class structure, a build first builds the
        structure of its class.
        """
        key = (name, size_class)
        with self._lock:
            skeleton = self._skeletons.get(key)
            structure = self._structures.get(size_class)
        if skeleton is not None:
            obs.count("skeleton_hits")
            return skeleton
        profile = self._profiles.get(name)
        if profile is None:
            raise KeyError(f"siting refers to unknown location {name!r}")
        built = structure is None
        if structure is None:
            structure = self._class_structure(size_class)
        skeleton = self._fill_site_skeleton(structure, profile, size_class)
        with self._lock:
            if built:
                self._structures.setdefault(size_class, structure)
            skeleton = self._skeletons.setdefault(key, skeleton)
        obs.count("skeleton_builds" if built else "skeleton_derives")
        return skeleton

    def _fill_site_skeleton(
        self, structure: _ClassStructure, profile: LocationProfile, size_class: str
    ) -> _SiteSkeleton:
        """One location's skeleton: its class structure with the value slots written.

        Only the PUE/production value slots, the brown-plant cap bound, the
        objective prices and the green-coupling demand slots depend on the
        location; index arrays, right-hand sides and sense masks are shared.
        """
        problem = self.problem
        params = problem.params
        shared = structure.skeleton
        T = shared.num_epochs
        weights = problem.epochs.epoch_weights_hours()
        pue = profile.pue
        mf_pue = params.migration_factor * pue

        tri_vals = shared.tri_vals.copy()
        slots = structure.slots
        if "small_dc" in slots:
            tri_vals[slots["small_dc"]] = profile.max_pue
        o = slots["power_balance"]
        tri_vals[o + 4 * T : o + 5 * T] = -pue
        tri_vals[o + 5 * T : o + 6 * T] = -mf_pue
        o = slots["green_delivery_cap"]
        tri_vals[o : o + T] = pue
        tri_vals[o + T : o + 2 * T] = mf_pue
        o = slots["green_allocation"]
        tri_vals[o : o + T] = profile.solar_alpha
        tri_vals[o + T : o + 2 * T] = profile.wind_beta

        upper = shared.upper.copy()
        brown_cap = params.brown_plant_cap_fraction * profile.near_plant_capacity_kw
        upper[structure.brown_cols] = max(0.0, brown_cap)

        coefficients = self.cost_model.linear_coefficients(profile, size_class)
        obj_vals = [
            np.array(
                [
                    coefficients["capacity_kw"],
                    coefficients["solar_kw"],
                    coefficients["wind_kw"],
                    coefficients["battery_kwh"],
                ]
            ),
            coefficients["brown_kwh_year"] * weights,
        ]
        if problem.storage is StorageMode.NET_METERING:
            obj_vals.append(coefficients["net_discharge_kwh_year"] * weights)
            obj_vals.append(coefficients["net_charge_kwh_year"] * weights)

        green_vals = shared.green_vals
        if params.min_green_fraction > 0:
            frac = params.min_green_fraction
            green_vals = green_vals.copy()
            if problem.green_enforcement is GreenEnforcement.PER_EPOCH:
                green_vals[3 * T : 4 * T] = -(pue * frac)
                green_vals[4 * T : 5 * T] = -(mf_pue * frac)
            else:
                green_vals[3 * T : 4 * T] = -((pue * weights) * frac)
                green_vals[4 * T : 5 * T] = -((mf_pue * weights) * frac)

        return replace(
            shared,
            upper=upper,
            objective_vals=np.concatenate(obj_vals),
            fixed_cost=coefficients["fixed"],
            tri_vals=tri_vals,
            green_vals=green_vals,
        )

    def _class_structure(self, size_class: str) -> _ClassStructure:
        """The profile-free skeleton of ``size_class``, with zeros in its location slots."""
        problem = self.problem
        params = problem.params
        epochs = problem.epochs
        T = epochs.num_epochs
        weights = epochs.epoch_weights_hours()
        # Scalar on uniform grids, per-epoch array on adaptively refined ones.
        hours = np.broadcast_to(np.asarray(epochs.epoch_hours, dtype=float), (T,))
        t = np.arange(T, dtype=np.int64)
        prev = (t - 1) % T
        ones = np.ones(T)
        slot = np.zeros(T)  # a location's values, written by _fill_site_skeleton

        allow_solar = problem.sources.allows_solar
        allow_wind = problem.sources.allows_wind
        use_batteries = problem.storage is StorageMode.BATTERIES
        use_net_metering = problem.storage is StorageMode.NET_METERING
        inf = float("inf")

        site = _SiteLayout(num_epochs=T)
        cap, sol, wnd, bat = site.capacity, site.solar, site.wind, site.battery
        n_vars = site.num_variables
        lower = np.zeros(n_vars)
        upper = np.full(n_vars, inf)
        upper[sol] = inf if allow_solar else 0.0
        upper[wnd] = inf if allow_wind else 0.0
        upper[bat] = inf if use_batteries else 0.0
        upper[site.brown] = 0.0  # the brown-plant cap is a location slot
        storage_upper = inf if use_batteries else 0.0
        upper[site.battery_charge] = storage_upper
        upper[site.battery_discharge] = storage_upper
        upper[site.battery_level] = storage_upper
        net_upper = inf if use_net_metering else 0.0
        upper[site.net_charge] = net_upper
        upper[site.net_discharge] = net_upper
        upper[site.net_level] = net_upper

        # Each block's triplets land in the pre-concatenated skeleton arrays
        # (block-local rows offset by the rows emitted so far); ``slots``
        # records where each block's values start inside tri_vals.
        row_parts: List[np.ndarray] = []
        col_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        rhs_parts: List[np.ndarray] = []
        le_parts: List[np.ndarray] = []
        ge_parts: List[np.ndarray] = []
        slots: Dict[str, int] = {}
        vals_offset = 0
        row_offset = 0

        def block(row_lists, col_lists, val_lists, sense, rhs, label):
            nonlocal vals_offset, row_offset
            rows, cols, vals = _sum_duplicates(
                np.concatenate(row_lists),
                np.concatenate(col_lists),
                np.concatenate(val_lists),
                n_vars,
            )
            n_rows = len(rhs)
            row_parts.append(rows + row_offset)
            col_parts.append(cols)
            val_parts.append(vals)
            rhs_parts.append(np.asarray(rhs, dtype=float))
            le_parts.append(np.full(n_rows, sense is ConstraintSense.LESS_EQUAL))
            ge_parts.append(np.full(n_rows, sense is ConstraintSense.GREATER_EQUAL))
            slots[label] = vals_offset
            vals_offset += len(vals)
            row_offset += n_rows

        # Size-class consistency: the construction price per kW assumed in the
        # objective is only valid within the class's power range
        # (max_pue * capacity <= threshold; max_pue is a location slot).
        if size_class == "small":
            block(
                [np.zeros(1, dtype=np.int64)],
                [np.array([cap], dtype=np.int64)],
                [np.zeros(1)],
                ConstraintSense.LESS_EQUAL,
                [params.small_dc_threshold_kw],
                "small_dc",
            )
        # Migration overhead: load that left this site since the previous epoch
        # still consumes energy here during this epoch.
        block(
            [t, t, t],
            [site.migrate, site.compute[prev], site.compute],
            [ones, -ones, ones],
            ConstraintSense.GREATER_EQUAL,
            np.zeros(T),
            "migration",
        )
        # Constraint 1: provisioned capacity covers compute plus incoming load.
        block(
            [t, t, t],
            [np.full(T, cap, dtype=np.int64), site.compute, site.migrate],
            [ones, -ones, -ones],
            ConstraintSense.GREATER_EQUAL,
            np.zeros(T),
            "capacity_cover",
        )
        # Constraint 5: demand (-pue * compute - mf_pue * migrate, location
        # slots) is met by direct green, storage draws and brown.
        block(
            [t, t, t, t, t, t],
            [
                site.green_direct,
                site.battery_discharge,
                site.net_discharge,
                site.brown,
                site.compute,
                site.migrate,
            ],
            [ones, ones, ones, ones, slot, slot],
            ConstraintSense.GREATER_EQUAL,
            np.zeros(T),
            "power_balance",
        )
        # Green energy only counts toward the requirement when it actually
        # serves load: what is delivered (directly or from storage) in an epoch
        # cannot exceed that epoch's demand (pue * compute + mf_pue * migrate).
        # Surplus production is curtailed (or, with net metering, banked for
        # later).
        block(
            [t, t, t, t, t],
            [
                site.compute,
                site.migrate,
                site.green_direct,
                site.battery_discharge,
                site.net_discharge,
            ],
            [slot, slot, -ones, -ones, -ones],
            ConstraintSense.GREATER_EQUAL,
            np.zeros(T),
            "green_delivery_cap",
        )
        # Green allocation: direct use plus storage charging cannot exceed
        # production (solar alpha and wind beta per epoch, location slots).
        block(
            [t, t, t, t, t],
            [
                np.full(T, sol, dtype=np.int64),
                np.full(T, wnd, dtype=np.int64),
                site.green_direct,
                site.battery_charge,
                site.net_charge,
            ],
            [slot, slot, -ones, -ones, -ones],
            ConstraintSense.GREATER_EQUAL,
            np.zeros(T),
            "green_allocation",
        )
        if use_batteries:
            # Constraints 6-7: battery level dynamics (cyclic over the year).
            eff_hours = params.battery_efficiency * hours
            block(
                [t, t, t, t],
                [
                    site.battery_level,
                    site.battery_level[prev],
                    site.battery_charge,
                    site.battery_discharge,
                ],
                [ones, -ones, -eff_hours, hours],
                ConstraintSense.EQUAL,
                np.zeros(T),
                "battery_dynamics",
            )
            block(
                [t, t],
                [site.battery_level, np.full(T, bat, dtype=np.int64)],
                [ones, -ones],
                ConstraintSense.LESS_EQUAL,
                np.zeros(T),
                "battery_capacity",
            )
        if use_net_metering:
            # Constraints 8-9: net-metered energy bank (cyclic over the year).
            block(
                [t, t, t, t],
                [
                    site.net_level,
                    site.net_level[prev],
                    site.net_charge,
                    site.net_discharge,
                ],
                [ones, -ones, -hours, hours],
                ConstraintSense.EQUAL,
                np.zeros(T),
                "net_dynamics",
            )

        # Objective columns of this site; every price is a location slot.
        obj_cols = [np.array([cap, sol, wnd, bat], dtype=np.int64), site.brown]
        if use_net_metering:
            obj_cols.append(site.net_discharge)
            obj_cols.append(site.net_charge)
        objective_cols = np.concatenate(obj_cols)

        # This site's slice of the cross-site minimum-green coupling row(s):
        # delivered green counts positive, a ``frac`` share of the demand
        # counts negative (annual form weights epochs by their hours); the
        # demand terms are location slots.
        if params.min_green_fraction > 0:
            if problem.green_enforcement is GreenEnforcement.PER_EPOCH:
                green_val = np.ones(T)
                green_rows = np.concatenate([t] * 5)
            else:
                green_val = weights.astype(float)
                green_rows = np.zeros(5 * T, dtype=np.int64)
            green_cols = np.concatenate(
                [
                    site.green_direct,
                    site.battery_discharge,
                    site.net_discharge,
                    site.compute,
                    site.migrate,
                ]
            )
            green_vals = np.concatenate([green_val, green_val, green_val, slot, slot])
        else:
            green_rows = np.empty(0, dtype=np.int64)
            green_cols = np.empty(0, dtype=np.int64)
            green_vals = np.empty(0)

        skeleton = _SiteSkeleton(
            num_epochs=T,
            lower=lower,
            upper=upper,
            objective_cols=objective_cols,
            objective_vals=np.zeros(len(objective_cols)),
            fixed_cost=0.0,
            tri_rows=np.concatenate(row_parts),
            tri_cols=np.concatenate(col_parts),
            tri_vals=np.concatenate(val_parts),
            rhs=np.concatenate(rhs_parts),
            le_mask=np.concatenate(le_parts),
            ge_mask=np.concatenate(ge_parts),
            green_rows=green_rows,
            green_cols=green_cols,
            green_vals=green_vals,
        )
        return _ClassStructure(skeleton=skeleton, slots=slots, brown_cols=site.brown)

    # -- templated row-form assembly ------------------------------------------------
    def compile_row_form(
        self, siting: Mapping[str, str], enforce_spread: bool = True
    ) -> Tuple[RowFormLP, List[_SiteLayout]]:
        """Assemble the LP for one siting directly in HiGHS row form.

        Sitings with the same ordered size-class tuple share one CSC sparsity
        pattern, so after the first assembly of a shape only the coefficient
        values, bounds and right-hand sides are rebuilt (a few array
        concatenations and one fancy-index).
        """
        problem = self.problem
        params = problem.params
        T = problem.num_epochs
        skeletons: List[_SiteSkeleton] = []
        classes: List[str] = []
        for name, size_class in siting.items():
            skeletons.append(self.site_skeleton(name, size_class))
            classes.append(size_class)
        num_sites = len(skeletons)
        nvars_site = len(skeletons[0].lower)
        has_green = params.min_green_fraction > 0
        per_epoch = problem.green_enforcement is GreenEnforcement.PER_EPOCH

        key = (tuple(classes), bool(enforce_spread))
        with self._lock:
            template = self._templates.get(key)
        if template is None:
            template = self._build_template(skeletons, enforce_spread, has_green, per_epoch)
            with self._lock:
                template = self._templates.setdefault(key, template)

        # Values, right-hand sides, bounds and costs in the same deterministic
        # order the template's pattern was built in: the site blocks, then
        # Constraint 2 (the network provides the requested compute power in
        # every epoch), Constraint 3 (the minimum green share, over the year
        # or in every epoch) and the availability spread (every sited DC
        # keeps at least S/n servers).
        vals_parts = [skeleton.tri_vals for skeleton in skeletons]
        rhs_parts = [skeleton.rhs for skeleton in skeletons]
        vals_parts.append(np.ones(T * num_sites))
        rhs_parts.append(np.full(T, params.total_capacity_kw))
        if has_green:
            vals_parts.extend(skeleton.green_vals for skeleton in skeletons)
            rhs_parts.append(np.zeros(T if per_epoch else 1))
        if enforce_spread:
            vals_parts.append(np.ones(num_sites))
            rhs_parts.append(np.full(num_sites, params.total_capacity_kw / num_sites))
        vals = np.concatenate(vals_parts)
        rhs = np.concatenate(rhs_parts)

        num_cols = num_sites * nvars_site
        cost = np.zeros(num_cols)
        fixed_cost = 0.0
        for index, skeleton in enumerate(skeletons):
            cost[skeleton.objective_cols + index * nvars_site] = skeleton.objective_vals
            fixed_cost += skeleton.fixed_cost
        row_form = RowFormLP(
            cost=cost,
            a_indptr=template.indptr,
            a_indices=template.indices,
            a_data=vals[template.perm],
            shape=template.shape,
            row_lower=np.where(template.le_mask, -np.inf, rhs),
            row_upper=np.where(template.ge_mask, np.inf, rhs),
            lower=np.concatenate([skeleton.lower for skeleton in skeletons]),
            upper=np.concatenate([skeleton.upper for skeleton in skeletons]),
            integrality=np.zeros(num_cols, dtype=np.int64),
            maximise=False,
            objective_constant=fixed_cost,
        )
        if lp_validate.validation_enabled():
            lp_validate.validate_row_form(
                row_form,
                f"compiled skeleton instantiation ({num_sites} sites x {T} epochs)",
            )
        profiles = self._profiles
        layouts = [
            _SiteLayout(
                profile=profiles[name],
                size_class=size_class,
                base=index * nvars_site,
                num_epochs=T,
            )
            for index, (name, size_class) in enumerate(siting.items())
        ]
        return row_form, layouts

    def _build_template(
        self,
        skeletons: List[_SiteSkeleton],
        enforce_spread: bool,
        has_green: bool,
        per_epoch: bool,
    ) -> _ModelTemplate:
        problem = self.problem
        T = problem.num_epochs
        t = np.arange(T, dtype=np.int64)
        num_sites = len(skeletons)
        nvars_site = len(skeletons[0].lower)
        num_cols = num_sites * nvars_site
        sites = [
            _SiteLayout(num_epochs=T, base=index * nvars_site) for index in range(num_sites)
        ]

        rows_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        le_parts: List[np.ndarray] = []
        ge_parts: List[np.ndarray] = []
        row_offset = 0
        for skeleton, site in zip(skeletons, sites):
            rows_parts.append(skeleton.tri_rows + row_offset)
            cols_parts.append(skeleton.tri_cols + site.base)
            le_parts.append(skeleton.le_mask)
            ge_parts.append(skeleton.ge_mask)
            row_offset += skeleton.num_rows
        rows_parts.append(np.tile(t, num_sites) + row_offset)
        cols_parts.append(np.concatenate([site.compute for site in sites]))
        le_parts.append(np.zeros(T, dtype=bool))
        ge_parts.append(np.ones(T, dtype=bool))
        row_offset += T
        if has_green:
            green_rows = T if per_epoch else 1
            for skeleton, site in zip(skeletons, sites):
                rows_parts.append(skeleton.green_rows + row_offset)
                cols_parts.append(skeleton.green_cols + site.base)
            le_parts.append(np.zeros(green_rows, dtype=bool))
            ge_parts.append(np.ones(green_rows, dtype=bool))
            row_offset += green_rows
        if enforce_spread:
            rows_parts.append(np.arange(num_sites, dtype=np.int64) + row_offset)
            cols_parts.append(np.array([site.capacity for site in sites], dtype=np.int64))
            le_parts.append(np.zeros(num_sites, dtype=bool))
            ge_parts.append(np.ones(num_sites, dtype=bool))
            row_offset += num_sites

        rows = np.concatenate(rows_parts)
        cols = np.concatenate(cols_parts)
        num_rows = row_offset
        # Skeletons hold no duplicate coordinates; REPRO_VALIDATE=1 checks
        # every instantiation.
        indptr, perm = csc_order(rows, cols, (num_rows, num_cols))
        return _ModelTemplate(
            shape=(num_rows, num_cols),
            perm=perm,
            indices=rows[perm].astype(np.int32),
            indptr=indptr,
            le_mask=np.concatenate(le_parts),
            ge_mask=np.concatenate(ge_parts),
        )


def _extract_network_plan(
    problem: SitingProblem,
    cost_model: CostModel,
    sites: List[_SiteLayout],
    dims: Tuple[int, int],
    result,
) -> NetworkPlan:
    datacenters = [_extract_datacenter_plan(cost_model, site, result) for site in sites]
    return NetworkPlan(
        datacenters=datacenters,
        params=problem.params,
        storage=problem.storage.value,
        sources=problem.sources.value,
        solver_info={
            "objective": result.objective,
            "num_variables": dims[0],
            "num_constraints": dims[1],
        },
    )


def _extract_datacenter_plan(cost_model: CostModel, site: _SiteLayout, result) -> DatacenterPlan:
    profile = site.profile
    scalars = result.value_array(
        np.array([site.capacity, site.solar, site.wind, site.battery])
    )
    capacity_kw, solar_kw, wind_kw, battery_kwh = (float(v) for v in scalars)
    series = {
        "compute_power_kw": result.value_array(site.compute),
        "migrate_power_kw": result.value_array(site.migrate),
        "brown_power_kw": result.value_array(site.brown),
        "green_direct_kw": result.value_array(site.green_direct),
        "battery_charge_kw": result.value_array(site.battery_charge),
        "battery_discharge_kw": result.value_array(site.battery_discharge),
        "net_charge_kw": result.value_array(site.net_charge),
        "net_discharge_kw": result.value_array(site.net_discharge),
    }
    monthly_costs = {
        "land_dc": cost_model.land_monthly(profile, capacity_kw, 0.0, 0.0),
        "land_solar": cost_model.land_monthly(profile, 0.0, solar_kw, 0.0),
        "land_wind": cost_model.land_monthly(profile, 0.0, 0.0, wind_kw),
        "building_dc": cost_model.building_dc_monthly(profile, capacity_kw, site.size_class),
        "building_solar": cost_model.building_solar_monthly(solar_kw),
        "building_wind": cost_model.building_wind_monthly(wind_kw),
        "it_equipment": cost_model.it_equipment_monthly(capacity_kw),
        "battery": cost_model.battery_monthly(battery_kwh),
        "connection": cost_model.capex_independent_monthly(profile),
        "network_bandwidth": cost_model.network_bandwidth_monthly(capacity_kw),
        "brown_energy": cost_model.brown_energy_monthly(
            profile,
            series["brown_power_kw"],
            series["net_discharge_kw"],
            series["net_charge_kw"],
        ),
    }
    return DatacenterPlan(
        profile=profile,
        size_class=site.size_class,
        capacity_kw=capacity_kw,
        solar_kw=solar_kw,
        wind_kw=wind_kw,
        battery_kwh=battery_kwh,
        monthly_costs=monthly_costs,
        **series,
    )


def solve_provisioning(
    problem: SitingProblem,
    siting: Mapping[str, str],
    options: Optional[SolverOptions] = None,
    enforce_spread: bool = True,
    compiler: Optional[ProvisioningCompiler] = None,
    highs: Optional[highs_backend.MutableHighsModel] = None,
) -> ProvisioningResult:
    """Build and solve the fixed-siting LP (Fig. 1) of one siting decision.

    ``siting`` maps each location that hosts a datacenter to its size class
    (``"small"`` or ``"large"``).  With ``enforce_spread`` (default) each
    sited datacenter must host at least ``totalCapacity / n`` compute
    capacity, so the failure of ``n - 1`` datacenters leaves ``S/n`` servers
    — the paper's stricter availability condition.  ``compiler`` shares a
    per-site skeleton cache across calls on the same problem; ``highs`` (a
    long-lived :class:`~repro.lpsolver.highs_backend.MutableHighsModel`)
    enables basis reuse across structurally identical solves.  The
    resulting :class:`NetworkPlan` extracts lazily.
    """
    if not siting:
        raise ValueError("the siting decision must place at least one datacenter")
    for name, size_class in siting.items():
        if size_class not in ("small", "large"):
            raise ValueError(f"unknown size class {size_class!r} for {name!r}")
    if compiler is None:
        compiler = ProvisioningCompiler(problem)
    elif compiler.problem is not problem:
        raise ValueError("the shared compiler was built for a different problem")
    row_form, sites = compiler.compile_row_form(siting, enforce_spread)
    result = highs_backend.solve_row_form(row_form, options or SolverOptions(), highs)
    if not result.is_optimal:
        return ProvisioningResult(
            feasible=False,
            monthly_cost=float("inf"),
            plan=None,
            message=f"{result.status.value}: {result.message}",
        )
    # The extractor closes over small snapshots (layouts, cost model,
    # solution vector), so memoized results do not pin the compiled arrays.
    dims = (row_form.shape[1], row_form.shape[0])
    cost_model = compiler.cost_model
    return ProvisioningResult(
        feasible=True,
        monthly_cost=result.objective,
        plan=None,
        message=result.message,
        extractor=lambda: _extract_network_plan(problem, cost_model, sites, dims, result),
    )


def cheapest_size_classes(problem: SitingProblem, names: List[str]) -> Dict[str, str]:
    """Initial small/large guess: "large" when an even capacity split exceeds 10 MW."""
    if not names:
        return {}
    share_kw = problem.params.total_capacity_kw / len(names)
    size = "large" if share_kw * 1.1 > problem.params.small_dc_threshold_kw else "small"
    return {name: size for name in names}
