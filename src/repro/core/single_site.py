"""Single-datacenter cost analysis.

Section III-B of the paper explores the per-month cost of building one 25 MW
datacenter at each of the 1373 locations under three configurations — brown
(no renewables), 50 % solar and 50 % wind — producing the CDF of Fig. 6 and
the per-location attributes of Table II.  The same machinery doubles as the
location-filtering score of the heuristic solver (Section II-C).

The pricing LPs of a sweep are structurally identical (same epoch grid, same
scenario switches, one site), so sweeps accept a shared
:class:`~repro.lpsolver.MutableHighsModel` whose basis carry-over roughly
halves the per-location solve time, and :func:`priced_in_chunks` — the one
pricing path of both the Fig. 6 sweep and the heuristic's filter — prices
chunks of locations in turn, in the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.parameters import FrameworkParameters
from repro.core.problem import EnergySources, GreenEnforcement, SitingProblem, StorageMode
from repro.core.provisioning import (
    ProvisioningCompiler,
    ProvisioningResult,
    solve_provisioning,
)
from repro.core.screening import price_batch
from repro.core.solution import NetworkPlan
from repro.energy.profiles import LocationProfile
from repro.lpsolver import MutableHighsModel, SolverOptions


def scoring_parameters(
    params: FrameworkParameters, capacity_kw: float, min_green_fraction: float
) -> FrameworkParameters:
    """The single-datacenter pricing configuration (shared with the filter).

    Availability is halved so a single datacenter is admissible — the score
    of one location must not be forced infeasible by the network-level
    availability constraint.
    """
    return params.with_updates(
        total_capacity_kw=capacity_kw,
        min_green_fraction=min_green_fraction,
        min_availability=params.datacenter_availability / 2.0,
    )


def scoring_sources(min_green_fraction: float, sources: EnergySources) -> EnergySources:
    """No renewables are built (or allowed) when no green share is required."""
    return EnergySources.NONE if min_green_fraction == 0.0 else sources  # reprolint: ok(FLT001) user-supplied config sentinel, not a solver result


def single_site_size_class(
    capacity_kw: float, profile: LocationProfile, params: FrameworkParameters
) -> str:
    """Construction size class of one datacenter carrying ``capacity_kw``."""
    total_power = capacity_kw * profile.max_pue
    return "small" if total_power <= params.small_dc_threshold_kw else "large"


#: Row budget of one pricing chunk: chunks are sized so the LP rows of one
#: chunk's warm-start sequence stay bounded no matter how large the
#: candidate catalogue grows.
PRICING_CHUNK_ROW_CAP = 20_000

#: Floor on the chunk count; the split fixes which LPs share a warm-start
#: sequence, and so the priced costs bit for bit.
MIN_PRICING_CHUNKS = 8


def single_site_row_estimate(problem: SitingProblem) -> int:
    """Constraint rows of one single-site pricing LP of ``problem``.

    Mirrors the row blocks :class:`~repro.core.provisioning.ProvisioningCompiler`
    emits for a one-site siting (small-dc guard, migration, capacity cover,
    power balance, green delivery cap, green allocation, storage dynamics,
    total-capacity coupling and the green requirement row(s)).
    """
    T = problem.num_epochs
    rows = 1 + 5 * T  # small_dc guard + the five always-present epoch blocks
    if problem.storage is StorageMode.BATTERIES:
        rows += 2 * T  # battery dynamics + capacity
    elif problem.storage is StorageMode.NET_METERING:
        rows += T  # net-metering bank dynamics
    rows += T  # total-capacity coupling rows
    if problem.params.min_green_fraction > 0:
        rows += T if problem.green_enforcement is GreenEnforcement.PER_EPOCH else 1
    return rows


def pricing_chunk_count(
    num_items: int,
    rows_per_item: int,
    min_chunks: int = MIN_PRICING_CHUNKS,
    row_cap: int = PRICING_CHUNK_ROW_CAP,
) -> int:
    """Size-aware chunk count for a pricing sweep of ``num_items`` LPs.

    Chunks are capped at ``row_cap`` LP rows each so very large catalogues
    never chain thousands of sites on one handle, with at least
    ``min_chunks`` chunks.  The count depends only on the sweep size, which
    fixes the per-chunk pricing sequences (and therefore scores, bit for
    bit).
    """
    if num_items <= 0:
        return 1
    total_rows = num_items * max(1, rows_per_item)
    by_row_cap = -(-total_rows // max(1, row_cap))
    return min(num_items, max(min_chunks, int(by_row_cap)))


def split_chunks(items, num_chunks: int) -> list:
    """``items`` split into at most ``num_chunks`` contiguous chunks.

    The split depends only on ``num_chunks``, which is what fixes the
    per-chunk warm-start sequences (and therefore pricing scores, bit for
    bit).
    """
    if not items:
        return []
    num_chunks = max(1, min(num_chunks, len(items)))
    chunk_size = -(-len(items) // num_chunks)
    return [list(items[i : i + chunk_size]) for i in range(0, len(items), chunk_size)]


def priced_in_chunks(
    problem: SitingProblem,
    sitings: Sequence[Tuple[str, str]],
    options: SolverOptions,
    compiler: ProvisioningCompiler,
    price: Optional[Callable[..., List[Tuple[str, float, bool]]]] = None,
    highs: Optional[MutableHighsModel] = None,
) -> List[Tuple[str, float, bool]]:
    """Exactly price ``(location, size_class)`` pairs of ``problem`` in chunks.

    The one pricing path behind the heuristic's filter and
    :meth:`SingleSiteAnalyzer.cost_distribution`.  The pairs are split into
    :func:`pricing_chunk_count` contiguous chunks and each chunk is priced in
    the caller, in turn, site by site on a warm-started HiGHS handle
    (:func:`~repro.core.screening.price_batch`); every chunk shares
    ``compiler``.  ``price`` replaces the pricer, so a caller can route the
    chunks through its own module's binding of ``price_batch``.

    Without ``highs`` each chunk gets its own fresh handle, and the chunk
    split, which depends only on the sweep size, fixes the warm-start
    sequences.  With ``highs`` every chunk is priced on that one handle,
    carrying on from its previous solve, so the sequence is the caller's
    order of solves whatever the split.

    Rows come back as ``(location, monthly_cost, feasible)`` in ``sitings``
    order.
    """
    num_chunks = pricing_chunk_count(len(sitings), single_site_row_estimate(problem))
    chunks = split_chunks(sitings, num_chunks)
    pricer = price or price_batch
    # A replacement pricer need not take ``highs`` unless a handle is given.
    handle = {} if highs is None else {"highs": highs}
    rows: List[Tuple[str, float, bool]] = []
    for chunk in chunks:
        rows.extend(pricer(problem, chunk, options, compiler, **handle))
    return rows


@dataclass
class SingleSiteCost:
    """Cost and attributes of a single datacenter at one location.

    ``plan`` defers to the underlying provisioning result, so sweeps that
    only rank costs (the heuristic's location filter, the Fig. 6 CDF) never
    pay plan-extraction costs.
    """

    profile: LocationProfile
    configuration: str
    monthly_cost: float
    feasible: bool
    result: Optional[ProvisioningResult] = field(default=None, repr=False)

    @property
    def plan(self) -> Optional[NetworkPlan]:
        return self.result.plan if self.result is not None else None

    @property
    def name(self) -> str:
        return self.profile.name

    def table_row(self) -> Dict[str, float]:
        """The Table II attributes for this location."""
        return {
            "location": self.name,
            "configuration": self.configuration,
            "monthly_cost_musd": self.monthly_cost / 1e6,
            "solar_capacity_factor_pct": 100.0 * self.profile.solar_capacity_factor,
            "wind_capacity_factor_pct": 100.0 * self.profile.wind_capacity_factor,
            "max_pue": self.profile.max_pue,
            "electricity_usd_per_mwh": 1000.0 * self.profile.energy_price_per_kwh,
            "land_usd_per_m2": self.profile.land_price_per_m2,
            "distance_power_km": self.profile.distance_power_km,
            "distance_network_km": self.profile.distance_network_km,
        }


class SingleSiteAnalyzer:
    """Computes single-datacenter costs for Fig. 6, Table II and filtering."""

    def __init__(
        self,
        params: Optional[FrameworkParameters] = None,
        solver_options: Optional[SolverOptions] = None,
    ) -> None:
        self.params = params or FrameworkParameters()
        self.solver_options = solver_options or SolverOptions()

    @classmethod
    def from_spec(
        cls,
        spec,
        base_params: Optional[FrameworkParameters] = None,
        solver_options: Optional[SolverOptions] = None,
    ) -> "SingleSiteAnalyzer":
        """An analyzer carrying a scenario spec's cost-parameter overrides.

        The per-call arguments of :meth:`cost_at` / :meth:`cost_distribution`
        (capacity, green fraction, sources, storage) come from the same spec;
        the :class:`~repro.scenarios.runner.ExperimentRunner` fills them when
        it executes a ``single_site`` workflow.
        """
        return cls(params=spec.build_params(base_params), solver_options=solver_options)

    def cost_at(
        self,
        profile: LocationProfile,
        capacity_kw: float = 25_000.0,
        min_green_fraction: float = 0.0,
        sources: EnergySources = EnergySources.SOLAR_AND_WIND,
        storage: StorageMode = StorageMode.NET_METERING,
        highs: Optional[MutableHighsModel] = None,
    ) -> SingleSiteCost:
        """Cost of one datacenter of ``capacity_kw`` at ``profile``'s location.

        ``highs`` warm-starts HiGHS from the previous pricing LP's basis;
        pass one model per sequential sweep (models are not thread-safe).
        """
        if capacity_kw <= 0:
            raise ValueError("the datacenter capacity must be positive")
        problem, sitings = self._pricing_problem(
            [profile], capacity_kw, min_green_fraction, sources, storage
        )
        result = solve_provisioning(
            problem,
            dict(sitings),
            options=self.solver_options,
            enforce_spread=False,
            highs=highs,
        )
        return SingleSiteCost(
            profile=profile,
            configuration=self._configuration_label(min_green_fraction, problem.sources),
            monthly_cost=result.monthly_cost,
            feasible=result.feasible,
            result=result,
        )

    def cost_distribution(
        self,
        profiles: Sequence[LocationProfile],
        capacity_kw: float = 25_000.0,
        min_green_fraction: float = 0.0,
        sources: EnergySources = EnergySources.SOLAR_AND_WIND,
        storage: StorageMode = StorageMode.NET_METERING,
    ) -> List[SingleSiteCost]:
        """Single-site costs for many locations (the Fig. 6 distribution).

        The sweep goes through :func:`priced_in_chunks`, pricing its chunks
        in the caller; results keep the order of ``profiles``.  Sweep points
        fan out across processes one level up, in the
        :class:`~repro.scenarios.runner.ExperimentRunner`.

        Each chunk is priced site by site on one warm-started handle
        (:func:`~repro.core.screening.price_batch`).  The returned costs are
        slim (``result`` is ``None``); use :meth:`cost_at` when a plan is
        needed.
        """
        profiles = list(profiles)
        if not profiles:
            return []
        problem, sitings = self._pricing_problem(
            profiles, capacity_kw, min_green_fraction, sources, storage
        )
        rows = priced_in_chunks(
            problem, sitings, self.solver_options, ProvisioningCompiler(problem)
        )
        configuration = self._configuration_label(min_green_fraction, problem.sources)
        return [
            SingleSiteCost(
                profile=profile,
                configuration=configuration,
                monthly_cost=cost,
                feasible=feasible,
            )
            for profile, (_, cost, feasible) in zip(profiles, rows)
        ]

    def _pricing_problem(
        self,
        profiles: List[LocationProfile],
        capacity_kw: float,
        min_green_fraction: float,
        sources: EnergySources,
        storage: StorageMode,
    ) -> Tuple[SitingProblem, List[Tuple[str, str]]]:
        """The shared pricing problem plus per-location ``(name, class)`` pairs."""
        sources_used = scoring_sources(min_green_fraction, sources)
        params = scoring_parameters(self.params, capacity_kw, min_green_fraction)
        problem = SitingProblem(
            profiles=profiles, params=params, sources=sources_used, storage=storage
        )
        sitings = [
            (profile.name, single_site_size_class(capacity_kw, profile, params))
            for profile in profiles
        ]
        return problem, sitings

    @staticmethod
    def _configuration_label(min_green_fraction: float, sources: EnergySources) -> str:
        if min_green_fraction == 0.0 or sources is EnergySources.NONE:  # reprolint: ok(FLT001) config sentinel, not a solver result
            return "brown"
        return f"{sources.value}-{int(round(100 * min_green_fraction))}%"
