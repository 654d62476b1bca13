"""Heuristic solver: location filtering plus simulated-annealing siting search.

Section II-C of the paper makes the MILP tractable in three steps:

1. *Filter* the candidate locations down to the 50-100 most promising ones by
   pricing a few common single-datacenter configurations at every location and
   discarding expensive or redundant candidates.
2. *Fix the siting* (which locations host a datacenter and whether each is
   small or large), which turns the MILP into an LP solved exactly.
3. *Search* over sitings with a simulated-annealing procedure whose neighbour
   moves add, remove, swap, resize or merge datacenters, running several
   search chains with different move mixes that periodically synchronise on
   the best solution found.

The implementation mirrors those steps.  A search runs in its caller's
process — sweep points and serve requests are what cross process
boundaries (:mod:`repro.parallel`):

* the *filter* walks the candidates best first by an admissible lower
  bound on their single-site cost and prices, through
  :func:`~repro.core.single_site.priced_in_chunks`, only those that can
  still make the shortlist, one after another on one warm-started HiGHS
  model (a best-first bound-and-prune in the manner of branch and bound);
* the *search* runs its annealing chains sequentially, each chain starting
  from the best siting found so far — the role of the paper's periodic
  synchronisation — with its own RNG and move mix, so the outcome is
  deterministic for a fixed seed.

Every provisioning evaluation is memoized by its frozen siting — the
annealing moves revisit states constantly — and all evaluations share one
:class:`~repro.core.provisioning.ProvisioningCompiler` so the per-site model
skeleton is built once per ``(location, size class)`` pair.  Each solver
solves its LPs through :func:`~repro.core.provisioning.solve_provisioning`
on one long-lived HiGHS handle, which re-installs the previous optimal basis
whenever a move keeps the LP's shape (a swap, say).
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.problem import GreenEnforcement, SitingProblem
from repro.core.provisioning import (
    ProvisioningCompiler,
    ProvisioningResult,
    solve_provisioning,
)
# ``price_per_site`` is bound here beside ``price_batch`` (the chunk pricer
# that calls it) so a profiler or test patching this module's pricers can
# reach both.
from repro.core.screening import price_batch, price_per_site, screen_lower_bounds  # noqa: F401
from repro.core.single_site import (
    priced_in_chunks,
    scoring_parameters,
    scoring_sources,
    single_site_size_class,
)
from repro.core.solution import NetworkPlan
from repro.lpsolver import SolverOptions, highs_backend

#: Neighbour-move identifiers (the paper's four move kinds; "swap" is the
#: combination of a remove and an add in one step, and "merge" removes one
#: datacenter letting the LP grow the remaining ones).
MOVES = ("add", "remove", "swap", "resize", "merge")


@dataclass
class SearchSettings:
    """Tunables of the heuristic search."""

    keep_locations: int = 12          #: candidates kept after filtering
    max_iterations: int = 60          #: SA iterations per chain
    patience: int = 20                #: stop a chain after this many non-improving iterations
    initial_temperature: float = 0.05  #: SA temperature as a fraction of the current cost
    cooling: float = 0.93             #: geometric temperature decay per iteration
    num_chains: int = 2               #: sequential annealing chains, each from the best siting so far
    seed: int = 0                     #: RNG seed
    max_datacenters: int = 6          #: cap on simultaneously sited datacenters
    move_weights: Dict[str, float] = field(
        default_factory=lambda: {"add": 1.0, "remove": 1.0, "swap": 2.0, "resize": 1.0, "merge": 0.5}
    )
    #: Adaptive epoch grid: > 1 runs the filter and annealing search on a
    #: grid whose epochs are this factor coarser, then re-solves the best
    #: siting on selectively refined grids (only the epochs where the plan
    #: is storage- or migration-bound return to full resolution) until the
    #: objective converges.  1 disables the scheme.
    coarse_epoch_factor: int = 1
    #: Relative objective tolerance of the refinement loop.
    refine_tolerance: float = 0.002
    #: Cap on refinement rounds (each round solves one provisioning LP).
    refine_max_rounds: int = 6

    def __post_init__(self) -> None:
        if self.keep_locations < 1:
            raise ValueError("at least one location must survive filtering")
        if self.max_iterations < 1 or self.num_chains < 1:
            raise ValueError("the search needs at least one iteration and one chain")
        if not 0.0 < self.cooling <= 1.0:
            raise ValueError("the cooling factor must lie in (0, 1]")
        if self.coarse_epoch_factor < 1:
            raise ValueError("coarse_epoch_factor must be at least 1")
        if self.refine_tolerance < 0:
            raise ValueError("refine_tolerance cannot be negative")
        if self.refine_max_rounds < 1:
            raise ValueError("the refinement loop needs at least one round")
        unknown = set(self.move_weights) - set(MOVES)
        if unknown:
            raise ValueError(f"unknown neighbour moves: {sorted(unknown)}")


@dataclass
class HeuristicSolution:
    """Best plan found by the heuristic together with search diagnostics."""

    plan: Optional[NetworkPlan]
    monthly_cost: float
    feasible: bool
    evaluations: int
    filtered_locations: List[str]
    history: List[Tuple[int, float]]
    message: str = ""
    cache_hits: int = 0
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass
class _ChainOutcome:
    """What one annealing chain reports back to :meth:`HeuristicSolver.solve`."""

    best_siting: Dict[str, str]
    best_result: ProvisioningResult
    improvements: List[Tuple[int, float]]


class HeuristicSolver:
    """Filter + fixed-siting LP + simulated annealing (Section II-C)."""

    def __init__(
        self,
        problem: SitingProblem,
        settings: Optional[SearchSettings] = None,
        solver_options: Optional[SolverOptions] = None,
        compiler: Optional[ProvisioningCompiler] = None,
    ) -> None:
        self.problem = problem
        self.settings = settings or SearchSettings()
        self.solver_options = solver_options or SolverOptions()
        # An externally shared compiler must have been built for an equivalent
        # problem (same profiles, parameters and scenario switches); the
        # ExperimentRunner keys its shared compilers by that problem signature.
        self._compiler = compiler or ProvisioningCompiler(problem)
        # The memo key is the canonical sorted (location, class) tuple, so
        # any move order that reaches the same siting hits the same entry.
        # One thread drives each solver, so the memo is a plain dict shared
        # by the sequential chains.
        self._cache: Dict[Tuple[Tuple[str, str], ...], ProvisioningResult] = {}
        self._cache_owner: Dict[Tuple[Tuple[str, str], ...], Optional[int]] = {}
        self._cache_hits = 0
        self._cross_chain_hits = 0
        self._evaluations = 0
        # Every evaluation reloads this handle; a same-shape LP warm-starts
        # from the previous optimal basis.
        self._highs = highs_backend.MutableHighsModel()
        # Diagnostics of the last filter pass (candidate count, exact
        # pricings, screen-survival rate); merged into the solution stats.
        self._filter_stats: Dict[str, float] = {}

    # -- search accounting ---------------------------------------------------------
    @property
    def evaluations(self) -> int:
        """Provisioning LPs actually solved (memo misses)."""
        return self._evaluations

    @property
    def cache_hits(self) -> int:
        """Provisioning evaluations answered from the siting memo."""
        return self._cache_hits

    @property
    def cross_chain_hits(self) -> int:
        """Memo hits on entries that a *different* chain computed."""
        return self._cross_chain_hits

    # -- step 1: filtering ---------------------------------------------------------
    def filter_locations(self) -> List[str]:
        """Rank candidates by single-site cost and keep the cheapest ones.

        The score of a location is the cost of a single datacenter carrying an
        equal share of the service with the problem's green requirement and
        scenario switches — the "common configuration" pricing the paper uses.
        Infeasible locations (for example, ones whose nearest brown plant is
        too small) are discarded.

        The pricing pass runs in two stages.  Stage 1 computes a vectorized
        *admissible* lower bound on every candidate's score
        (:func:`~repro.core.screening.screen_lower_bounds`) — pure numpy over
        the stacked epoch profiles, no LPs.  Stage 2 walks the candidates in
        ascending-bound order, skipping certified-infeasible ones, and prices
        a candidate exactly only if, at its turn, its bound is within the
        current ``keep``-th cheapest feasible cost or within the cheapest
        cost of its longitude band.  Otherwise it is skipped for good: its
        exact cost is at least its bound and both thresholds only ever fall,
        so it could never enter the shortlist, and the pruning changes only
        the work, never the result.  Every pricing runs on one warm-started
        HiGHS model, so the warm-start sequence, and with it every priced
        cost, depends only on the candidate data.

        Like the paper's filter, similar locations are not all kept: the
        survivors are spread across time zones (the paper removes "subsets of
        locations that are similar (e.g., same time zone)"), which is what
        allows follow-the-renewables solutions — especially solar-heavy,
        no-storage ones — to place datacenters around the globe.
        """
        problem = self.problem
        settings = self.settings
        share_kw = problem.params.total_capacity_kw / max(1, problem.min_datacenters)
        # For the *scoring* step, require only a modest green share: a site can
        # be a valuable night-time/receiver location in a follow-the-renewables
        # network even if it cannot host the full green requirement by itself.
        score_green = min(problem.params.min_green_fraction, 0.5)
        # One shared pricing problem (the single-site scoring configuration of
        # SingleSiteAnalyzer.cost_at) so every location's LP flows through the
        # same compiler.  Scoring always uses ANNUAL green enforcement (as
        # cost_at does): the filter ranks sites by their annual economics even
        # when the network problem enforces the share per epoch.
        pricing_params = scoring_parameters(problem.params, share_kw, score_green)
        pricing_problem = problem.with_updates(
            params=pricing_params,
            sources=scoring_sources(score_green, problem.sources),
            green_enforcement=GreenEnforcement.ANNUAL,
        )
        profiles = pricing_problem.profiles
        sitings = [
            (profile.name, single_site_size_class(share_kw, profile, pricing_params))
            for profile in profiles
        ]
        longitudes = [profile.location.point.longitude for profile in profiles]
        bands = [int((longitude + 180.0) // 45.0) for longitude in longitudes]
        keep = max(settings.keep_locations, problem.min_datacenters)
        pricing_compiler = ProvisioningCompiler(pricing_problem)
        # One handle prices every candidate, carrying the optimal basis
        # from site to site, so the warm sequence is the walk's order.
        highs = highs_backend.MutableHighsModel()

        screen = screen_lower_bounds(pricing_problem, dict(sitings))
        bounds = screen.lower_bounds
        inf = float("inf")
        scored: List[Tuple[float, str, float]] = []
        # The keep cheapest feasible costs, negated: cheapest[0] is minus
        # the keep-th cheapest once the heap is full.
        cheapest: List[float] = []
        band_best: Dict[int, float] = {}
        priced = 0
        # Best first: the likely shortlist comes first in ascending-bound
        # order, so the two thresholds tighten after a few pricings.
        for index in screen.order.tolist():
            if screen.certified_infeasible[index]:
                continue
            # A candidate can only make the shortlist as its band's cheapest
            # or as one of the keep globally cheapest, and its exact cost is
            # at least its bound.  Both thresholds only ever fall, so a
            # candidate skipped here could never have entered the shortlist.
            global_cut = -cheapest[0] if len(cheapest) == keep else inf
            band = bands[index]
            if bounds[index] > global_cut and bounds[index] > band_best.get(band, inf):
                continue
            # The pricers are this module's bindings, so profilers that
            # patch them here see every pricing.
            ((name, cost, feasible),) = priced_in_chunks(
                pricing_problem,
                [sitings[index]],
                self.solver_options,
                compiler=pricing_compiler,
                price=price_batch,
                highs=highs,
            )
            priced += 1
            if not feasible:
                continue
            scored.append((cost, name, longitudes[index]))
            if len(cheapest) < keep:
                heapq.heappush(cheapest, -cost)
            elif cost < -cheapest[0]:
                heapq.heapreplace(cheapest, -cost)
            if cost < band_best.get(band, inf):
                band_best[band] = cost

        self._filter_stats = {
            "filter_candidates": float(len(profiles)),
            "filter_priced": float(priced),
            "filter_screened_out": float(len(profiles) - priced),
            "filter_screen_rate": priced / len(profiles) if profiles else 0.0,
        }

        scored.sort()

        # First pass: cheapest location of each 45-degree longitude band, so the
        # shortlist spans time zones; second pass: fill with the globally cheapest.
        selected: List[str] = []
        seen_bands: set = set()
        for cost, name, longitude in scored:
            band = int((longitude + 180.0) // 45.0)
            if band not in seen_bands and len(selected) < keep:
                selected.append(name)
                seen_bands.add(band)
        for cost, name, _ in scored:
            if len(selected) >= keep:
                break
            if name not in selected:
                selected.append(name)
        return selected

    # -- step 2: fixed-siting evaluation ----------------------------------------------
    def evaluate(
        self, siting: Dict[str, str], chain: Optional[int] = None
    ) -> ProvisioningResult:
        """Solve (and memoize) the provisioning LP for a siting decision.

        The memo is keyed by the canonical sorted ``(location, class)`` tuple
        — different move orders reaching the same siting hit the same entry.
        ``chain`` attributes memo hits: a hit on an entry another chain
        computed counts as cross-chain.
        """
        if len(siting) < self.problem.min_datacenters:
            return ProvisioningResult(
                feasible=False,
                monthly_cost=float("inf"),
                plan=None,
                message=(
                    f"{len(siting)} datacenters violate the availability requirement of "
                    f"{self.problem.min_datacenters}"
                ),
            )
        key = tuple(sorted(siting.items()))
        cached = self._cache.get(key)
        if cached is not None:
            self._cache_hits += 1
            owner = self._cache_owner[key]
            # Only chain-to-chain sharing counts: the initial siting is
            # evaluated outside any chain (chain=None) and must not inflate
            # the cross-chain stat of single-chain runs.
            if chain is not None and owner is not None and owner != chain:
                self._cross_chain_hits += 1
            return cached
        result = solve_provisioning(
            self.problem,
            siting,
            options=self.solver_options,
            compiler=self._compiler,
            highs=self._highs,
        )
        self._cache[key] = result
        self._cache_owner[key] = chain
        self._evaluations += 1
        return result

    # -- step 3: simulated annealing ----------------------------------------------------
    def solve(self) -> HeuristicSolution:
        """Run the full heuristic and return the best plan found."""
        settings = self.settings
        problem = self.problem
        if settings.coarse_epoch_factor > 1:
            adaptive = self._solve_adaptive()
            if adaptive is not None:
                return adaptive
        filter_started = time.perf_counter()
        candidates = self.filter_locations()
        filter_seconds = time.perf_counter() - filter_started
        if len(candidates) < problem.min_datacenters:
            return HeuristicSolution(
                plan=None,
                monthly_cost=float("inf"),
                feasible=False,
                evaluations=self._evaluations,
                filtered_locations=candidates,
                history=[],
                message=(
                    f"only {len(candidates)} feasible candidate locations, but the "
                    f"availability constraint requires {problem.min_datacenters}"
                ),
                cache_hits=self._cache_hits,
                stats={"filter_seconds": filter_seconds, **self._filter_stats},
            )

        search_started = time.perf_counter()
        best_siting = self._initial_siting(candidates)
        best_result = self.evaluate(best_siting)
        history: List[Tuple[int, float]] = [(0, best_result.monthly_cost)]
        # Sequential chains: each starts from the best state found so far,
        # which plays the role of the paper's periodic synchronisation
        # between parallel instances.
        iteration_offset = 0
        for chain in range(settings.num_chains):
            outcome = self._run_chain(chain, best_siting, best_result, candidates)
            history.extend(
                (iteration_offset + iteration, cost)
                for iteration, cost in outcome.improvements
            )
            iteration_offset += settings.max_iterations
            if outcome.best_result.monthly_cost < best_result.monthly_cost - 1e-6:
                best_siting, best_result = outcome.best_siting, outcome.best_result
        search_seconds = time.perf_counter() - search_started

        requests = self._evaluations + self._cache_hits
        return HeuristicSolution(
            plan=best_result.plan,
            monthly_cost=best_result.monthly_cost,
            feasible=best_result.feasible,
            evaluations=self._evaluations,
            filtered_locations=candidates,
            history=sorted(history),
            message=best_result.message,
            cache_hits=self._cache_hits,
            stats={
                "filter_seconds": filter_seconds,
                **self._filter_stats,
                "search_seconds": search_seconds,
                "memo_hit_rate": self._cache_hits / requests if requests else 0.0,
                "memo_cross_chain_hits": float(self._cross_chain_hits),
            },
        )

    def _solve_adaptive(self) -> Optional[HeuristicSolution]:
        """Coarse-grid search plus targeted epoch refinement of the winner.

        The filter and the annealing chains run against a problem whose epoch
        grid is ``coarse_epoch_factor`` times coarser (every provisioning LP
        shrinks by that factor); the best siting found is then re-solved on
        adaptively refined grids — only the epochs where the plan is storage-
        or migration-bound return to full resolution — until the objective
        converges within ``refine_tolerance``.  Returns ``None`` when the
        problem's grid cannot be coarsened (the caller falls back to the
        plain fine-grid search).
        """
        from repro.core.adaptive_grid import (
            AdaptiveGridRefiner,
            can_coarsen,
            coarsen_problem,
        )

        settings = self.settings
        factor = settings.coarse_epoch_factor
        if not can_coarsen(self.problem.epochs, factor):
            return None
        coarse_problem = coarsen_problem(self.problem, factor)
        sub = HeuristicSolver(
            coarse_problem,
            replace(settings, coarse_epoch_factor=1),
            self.solver_options,
        )
        coarse = sub.solve()
        # Accumulate (a solver can be solved more than once) so the public
        # counters stay consistent with the returned solution's stats.
        self._evaluations += sub._evaluations
        self._cache_hits += sub._cache_hits
        self._cross_chain_hits += sub._cross_chain_hits
        coarse.stats["coarse_epoch_factor"] = float(factor)
        coarse.stats["coarse_epochs"] = float(coarse_problem.num_epochs)
        coarse.stats["fine_epochs"] = float(self.problem.num_epochs)
        if not coarse.feasible or coarse.plan is None:
            return coarse
        refine_started = time.perf_counter()
        siting = {dc.name: dc.size_class for dc in coarse.plan.datacenters}
        refiner = AdaptiveGridRefiner(
            self.problem,
            factor=factor,
            tolerance=settings.refine_tolerance,
            max_rounds=settings.refine_max_rounds,
            options=self.solver_options,
        )
        final, report = refiner.refine(siting)
        self._evaluations += report.rounds  # the refinement LPs count too
        if not final.feasible:  # pragma: no cover - refinement keeps feasibility
            final = solve_provisioning(
                self.problem, siting, options=self.solver_options, compiler=self._compiler
            )
        stats = dict(coarse.stats)
        stats.update(
            {
                "refine_seconds": time.perf_counter() - refine_started,
                "refine_rounds": float(report.rounds),
                "refine_converged": float(report.converged),
                "refine_final_epochs": float(report.num_epochs_trace[-1]),
            }
        )
        return HeuristicSolution(
            plan=final.plan,
            monthly_cost=final.monthly_cost,
            feasible=final.feasible,
            evaluations=coarse.evaluations + report.rounds,
            filtered_locations=coarse.filtered_locations,
            history=coarse.history,
            message=final.message,
            cache_hits=coarse.cache_hits,
            stats=stats,
        )

    def _run_chain(
        self,
        chain: int,
        start_siting: Dict[str, str],
        start_result: ProvisioningResult,
        candidates: Sequence[str],
    ) -> _ChainOutcome:
        """One annealing chain; deterministic given its index and start state."""
        settings = self.settings
        rng = random.Random(settings.seed + 7919 * chain)
        move_weights = self._chain_move_weights(chain)
        current_siting = dict(start_siting)
        current_result = start_result
        best_siting = dict(start_siting)
        best_result = start_result
        improvements: List[Tuple[int, float]] = []
        temperature = settings.initial_temperature
        stale = 0
        for iteration in range(1, settings.max_iterations + 1):
            neighbour = self._neighbour(current_siting, candidates, rng, move_weights)
            if neighbour is None:
                continue
            result = self.evaluate(neighbour, chain=chain)
            if not result.feasible:
                continue
            if self._accept(current_result, result, temperature, rng):
                current_siting, current_result = neighbour, result
            if result.feasible and result.monthly_cost < best_result.monthly_cost - 1e-6:
                best_siting, best_result = dict(neighbour), result
                improvements.append((iteration, result.monthly_cost))
                stale = 0
            else:
                stale += 1
            temperature *= settings.cooling
            if stale >= settings.patience:
                break
        return _ChainOutcome(
            best_siting=best_siting,
            best_result=best_result,
            improvements=improvements,
        )

    # -- helpers --------------------------------------------------------------------------
    def _initial_siting(self, candidates: Sequence[str]) -> Dict[str, str]:
        """Start from the availability-minimum number of cheapest locations."""
        problem = self.problem
        count = min(len(candidates), max(problem.min_datacenters, 2))
        chosen = list(candidates[:count])
        return self._size_classes(chosen)

    def _size_classes(self, names: Sequence[str]) -> Dict[str, str]:
        problem = self.problem
        share_kw = problem.params.total_capacity_kw / max(1, len(names))
        siting = {}
        for name in names:
            max_pue = problem.profile_by_name(name).max_pue
            total_power = share_kw * max_pue
            siting[name] = "small" if total_power <= problem.params.small_dc_threshold_kw else "large"
        return siting

    def _chain_move_weights(self, chain: int) -> Dict[str, float]:
        """Each chain emphasises a different neighbour-generation mix."""
        weights = dict(self.settings.move_weights)
        emphasised = MOVES[chain % len(MOVES)]
        weights[emphasised] = weights.get(emphasised, 1.0) * 2.0
        return weights

    def _neighbour(
        self,
        siting: Dict[str, str],
        candidates: Sequence[str],
        rng: random.Random,
        move_weights: Dict[str, float],
    ) -> Optional[Dict[str, str]]:
        problem = self.problem
        settings = self.settings
        moves, weights = zip(*[(m, w) for m, w in move_weights.items() if w > 0])
        move = rng.choices(moves, weights=weights, k=1)[0]
        outside = [name for name in candidates if name not in siting]
        current = list(siting)

        if move == "add" and outside and len(siting) < settings.max_datacenters:
            names = current + [rng.choice(outside)]
            return self._size_classes(names)
        if move in ("remove", "merge") and len(siting) > problem.min_datacenters:
            victim = rng.choice(current)
            names = [name for name in current if name != victim]
            return self._size_classes(names)
        if move == "swap" and outside:
            victim = rng.choice(current)
            names = [name for name in current if name != victim]
            names.append(rng.choice(outside))
            return self._size_classes(names)
        if move == "resize":
            name = rng.choice(current)
            new_siting = dict(siting)
            new_siting[name] = "large" if siting[name] == "small" else "small"
            return new_siting
        return None

    @staticmethod
    def _accept(
        current: ProvisioningResult,
        candidate: ProvisioningResult,
        temperature: float,
        rng: random.Random,
    ) -> bool:
        if not current.feasible:
            return candidate.feasible
        if candidate.monthly_cost <= current.monthly_cost:
            return True
        if temperature <= 0:
            return False
        relative_increase = (candidate.monthly_cost - current.monthly_cost) / max(
            1.0, current.monthly_cost
        )
        return rng.random() < math.exp(-relative_increase / temperature)
