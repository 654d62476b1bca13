"""Vectorized admissible screening and exact pricing of candidates.

The location filter (and the Fig. 6 single-site sweep) price every candidate
with its own single-site provisioning LP.  At catalogue scale that pass
dominates end-to-end planning, so this module supplies the two stages that
replace it:

**Stage 1 — vectorized lower bound** (:func:`screen_lower_bounds`).  A
pure-numpy *admissible* lower bound on each candidate's single-site monthly
cost, computed for the whole catalogue as array operations over the stacked
epoch profiles.  Admissible means ``bound <= exact LP optimum`` whenever the
LP is feasible, so pruning by the bound is exact: a candidate whose bound
exceeds a known achieved cost can never belong to the shortlist.

The bound is the optimum of a relaxation of the single-site LP.  With ``S``
the required capacity, ``w_t`` the epoch weights in hours (``sum(w) = 8760``)
and ``pue_t`` the site's PUE series:

* the per-epoch total-capacity rows force ``compute_t >= S`` and the
  capacity-cover rows force ``capacity >= S``, so the build cost is at least
  ``c_cap * S`` and the annual energy delivered to load is at least
  ``E_req = S * sum(w_t * pue_t)`` (migration only adds demand);
* every delivered green kWh costs at least
  ``gamma = min(c_solar / A_solar, c_wind / A_wind)`` where
  ``A = sum(w_t * production_t)`` is the annual yield per installed kW —
  delivered green (direct, via batteries, or via the net-metering bank)
  never exceeds production, battery round-trip efficiency is ``<= 1``, and
  the cyclic net-metering bank settles non-negatively because the epoch
  weights are proportional to the epoch hours and the net-metering credit is
  capped at 1;
* every delivered brown kWh costs ``b`` (the local price), the annual brown
  total is capped by the near-plant capacity ``B_ann``, and the delivered
  green total must reach
  ``G_req = max(min_green_fraction * E_req, E_req - B_ann)`` (the PER_EPOCH
  green mode only tightens the ANNUAL requirement this uses).

Minimising ``gamma * G + b * (E_req - G)`` over the admissible ``G`` gives a
closed-form energy bound; adding the build and fixed costs yields the bound.
Three cheap *infeasibility certificates* (no green buildable but green
required; no green buildable and the brown cap below peak demand; no storage
and a dead epoch whose demand exceeds the brown cap) are sound: a certified
candidate's LP is infeasible, so it can be dropped without pricing.

**Stage 2 — exact pricing** (:func:`price_batch`).  Survivors are priced
exactly, one chunk at a time: one HiGHS handle per chunk (or the caller's
one handle) solves the chunk's single-site LPs in turn and carries each
optimal basis to the next site.  Sites of one size class have LPs of one
shape, so the dual simplex starts warm and re-converges in a few
iterations (:func:`price_per_site`).  Each site is solved on its own, so
an infeasible site is classified individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.costs import CostModel
from repro.core.problem import SitingProblem, StorageMode
from repro.lpsolver import MutableHighsModel, SolverOptions

__all__ = ["ScreenResult", "screen_lower_bounds", "price_batch", "price_per_site"]

#: Relative/absolute slack subtracted from the bound (and added to the
#: infeasibility-certificate comparisons) so float round-off in the vectorized
#: arithmetic or the LP solve can never flip an admissible bound above the
#: exact optimum.  The bound is typically several percent below the optimum;
#: this margin is orders of magnitude smaller than that gap.
_SAFETY_REL = 1e-9
_SAFETY_ABS = 1e-6


@dataclass
class ScreenResult:
    """Vectorized screen output, aligned with the problem's profile order."""

    names: List[str]
    lower_bounds: np.ndarray        #: admissible $/month bound; +inf when certified
    certified_infeasible: np.ndarray  #: sound infeasibility certificates (bool)

    @property
    def order(self) -> np.ndarray:
        """Candidate indices sorted by (bound, original index), certified last."""
        return np.argsort(self.lower_bounds, kind="stable")


def screen_lower_bounds(
    problem: SitingProblem,
    size_classes: Optional[Mapping[str, str]] = None,
) -> ScreenResult:
    """Admissible lower bounds on every candidate's single-site monthly cost.

    ``problem`` is the *pricing* problem (single-site scoring parameters
    already applied; ``params.total_capacity_kw`` is the per-site share).
    ``size_classes`` maps each location to the construction class its exact
    pricing LP will use (defaults to
    :func:`~repro.core.single_site.single_site_size_class` on the share), so
    the bound draws its objective coefficients from the very same
    :meth:`~repro.core.costs.CostModel.linear_coefficients` the LP objective
    is built from — the bound cannot drift from the model.
    """
    from repro.core.single_site import single_site_size_class

    params = problem.params
    profiles = problem.profiles
    share_kw = params.total_capacity_kw
    weights = problem.epochs.epoch_weights_hours()
    hours_per_year = float(weights.sum())

    pue = np.stack([profile.pue for profile in profiles])
    alpha = np.stack([profile.solar_alpha for profile in profiles])
    beta = np.stack([profile.wind_beta for profile in profiles])

    cost_model = CostModel(params)
    names: List[str] = []
    c_cap = np.empty(len(profiles))
    c_sol = np.empty(len(profiles))
    c_wnd = np.empty(len(profiles))
    brown_price = np.empty(len(profiles))
    fixed = np.empty(len(profiles))
    near_plant = np.empty(len(profiles))
    for index, profile in enumerate(profiles):
        if size_classes is not None:
            size_class = size_classes[profile.name]
        else:
            size_class = single_site_size_class(share_kw, profile, params)
        coefficients = cost_model.linear_coefficients(profile, size_class)
        names.append(profile.name)
        c_cap[index] = coefficients["capacity_kw"]
        c_sol[index] = coefficients["solar_kw"]
        c_wnd[index] = coefficients["wind_kw"]
        brown_price[index] = coefficients["brown_kwh_year"]
        fixed[index] = coefficients["fixed"]
        near_plant[index] = profile.near_plant_capacity_kw

    allow_solar = problem.sources.allows_solar
    allow_wind = problem.sources.allows_wind
    energy_required = share_kw * (pue @ weights)
    annual_solar = (alpha @ weights) if allow_solar else np.zeros(len(profiles))
    annual_wind = (beta @ weights) if allow_wind else np.zeros(len(profiles))
    inf = np.inf
    gamma = np.minimum(
        np.where(annual_solar > 0.0, c_sol / np.maximum(annual_solar, 1e-300), inf),
        np.where(annual_wind > 0.0, c_wnd / np.maximum(annual_wind, 1e-300), inf),
    )

    brown_cap_kw = np.maximum(0.0, params.brown_plant_cap_fraction * near_plant)
    brown_annual_kwh = hours_per_year * brown_cap_kw
    green_required = np.maximum(
        params.min_green_fraction * energy_required,
        energy_required - brown_annual_kwh,
    )
    green_required = np.maximum(green_required, 0.0)

    # Closed-form optimum of min gamma*G + b*(E - G) over admissible G:
    # all-green when green is the cheaper source, the minimum admissible green
    # share otherwise (gamma = inf collapses to all-brown, valid only when no
    # green is required).
    green_buildable = np.isfinite(gamma)
    gamma_safe = np.where(green_buildable, gamma, 0.0)
    mixed = gamma_safe * green_required + brown_price * (energy_required - green_required)
    energy_bound = np.where(
        green_buildable & (gamma < brown_price), gamma_safe * energy_required, mixed
    )

    # Sound infeasibility certificates.
    slack = 1.0 + _SAFETY_REL
    certified = ~green_buildable & (green_required > _SAFETY_ABS)
    peak_demand_kw = share_kw * pue.max(axis=1)
    certified |= ~green_buildable & (peak_demand_kw > brown_cap_kw * slack + _SAFETY_ABS)
    if problem.storage is StorageMode.NONE:
        # Without storage an epoch's demand is served by that epoch's green
        # production plus brown: a dead-production epoch whose demand exceeds
        # the brown cap is a certificate even when green is buildable.
        production = np.zeros_like(pue)
        if allow_solar:
            production += alpha
        if allow_wind:
            production += beta
        dead = production <= 0.0
        overloaded = share_kw * pue > brown_cap_kw[:, None] * slack + _SAFETY_ABS
        certified |= np.any(dead & overloaded, axis=1)

    bounds = fixed + c_cap * share_kw + energy_bound
    bounds = bounds - (np.abs(bounds) * _SAFETY_REL + _SAFETY_ABS)
    bounds = np.where(certified, inf, bounds)
    return ScreenResult(
        names=names,
        lower_bounds=bounds,
        certified_infeasible=certified,
    )


def price_batch(
    problem: SitingProblem,
    sitings: Sequence[Tuple[str, str]],
    options: SolverOptions,
    compiler=None,
    highs: Optional[MutableHighsModel] = None,
) -> List[Tuple[str, float, bool]]:
    """Price one chunk of ``(location, size_class)`` pairs.

    Returns ``(location, monthly_cost, feasible)`` rows in ``sitings`` order,
    and ``[]`` for an empty chunk.  The chunk is priced by
    :func:`price_per_site`: one warm-started HiGHS handle, site by site —
    ``highs`` when given, a fresh one otherwise.
    """
    if not sitings:
        return []
    return price_per_site(problem, sitings, options, compiler, highs=highs)


def price_per_site(
    problem: SitingProblem,
    sitings: Sequence[Tuple[str, str]],
    options: SolverOptions,
    compiler=None,
    highs: Optional[MutableHighsModel] = None,
) -> List[Tuple[str, float, bool]]:
    """Price ``sitings`` one site at a time on one warm-started handle.

    The handle is ``highs`` when given — it then starts from the basis its
    previous solve left — and a fresh
    :class:`~repro.lpsolver.MutableHighsModel` otherwise.  It carries the
    optimal basis from site to site and warm-starts every LP of the carried
    basis's shape (one size class), so the handle's solve sequence fixes
    the costs, bit for bit.  Each site is solved on its own, so an
    infeasible site is classified individually and leaves the carried basis
    as it was.
    """
    from repro.core.provisioning import ProvisioningCompiler, solve_provisioning

    if compiler is None:
        compiler = ProvisioningCompiler(problem)
    if highs is None:
        highs = MutableHighsModel()
    rows: List[Tuple[str, float, bool]] = []
    for name, size_class in sitings:
        result = solve_provisioning(
            problem,
            {name: size_class},
            options=options,
            enforce_spread=False,
            compiler=compiler,
            highs=highs,
        )
        rows.append((name, result.monthly_cost, result.feasible))
    return rows
