"""Differential tests for the annealing search's one solve path.

:meth:`~repro.core.heuristic.HeuristicSolver.evaluate` solves every siting
through :func:`~repro.core.provisioning.solve_provisioning` on the solver's
one long-lived HiGHS handle, which re-installs the previous optimal basis
whenever the next LP has the same shape.  These tests pin that path against
cold :func:`~repro.core.provisioning.solve_provisioning` solves on a fresh
handle, the differential oracle: a scripted add/remove/swap/resize sequence
must produce the same objectives and the same extracted plans as
from-scratch solves, for every storage mode and green-enforcement variant.
"""

import pytest

from repro.core import (
    EnergySources,
    HeuristicSolver,
    SearchSettings,
    SitingProblem,
    StorageMode,
)
from repro.core.problem import GreenEnforcement
from repro.core.provisioning import ProvisioningCompiler, solve_provisioning
from repro.lpsolver import highs_backend

SCENARIOS = [
    (StorageMode.NET_METERING, GreenEnforcement.ANNUAL),
    (StorageMode.NET_METERING, GreenEnforcement.PER_EPOCH),
    (StorageMode.BATTERIES, GreenEnforcement.ANNUAL),
    (StorageMode.NONE, GreenEnforcement.ANNUAL),
]


def _problem(all_profiles, params, storage, enforcement):
    green = 0.3 if storage is StorageMode.NONE else 0.5
    return SitingProblem(
        profiles=all_profiles,
        params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=green),
        sources=EnergySources.SOLAR_AND_WIND,
        storage=storage,
        green_enforcement=enforcement,
    )


def _scripted_moves(names):
    """Add, remove, swap, resize, a multi-site jump, and a return move."""
    return [
        {names[0]: "large", names[1]: "large"},
        {names[0]: "large", names[1]: "large", names[2]: "large"},   # add
        {names[0]: "large", names[2]: "large"},                      # remove
        {names[0]: "large", names[3]: "large"},                      # swap
        {names[0]: "large", names[3]: "small"},                      # resize
        {names[0]: "large", names[1]: "large", names[4]: "small", names[5]: "large"},
        {names[0]: "large", names[1]: "large"},                      # back: remove two
        {names[5]: "large", names[6]: "large", names[7]: "large"},   # full swap
        {names[0]: "large", names[1]: "large", names[2]: "large"},   # revisit a shape
    ]


def _plan_signature(plan):
    """Siting decision plus the plan's re-priced total, keyed comparably.

    Provisioning LPs are degenerate: warm- and cold-started simplex runs can
    land on *different optimal vertices* (identical objective, load shifted
    between epochs or sites), so per-epoch series are not comparable.  What
    must agree is the siting, the size classes, and the total monthly cost
    the cost model re-derives from each plan's series.
    """
    return (
        {dc.name: dc.size_class for dc in plan.datacenters},
        plan.total_monthly_cost,
    )


class TestIncrementalDifferential:
    @pytest.mark.parametrize("storage,enforcement", SCENARIOS)
    def test_scripted_moves_match_rebuild(self, all_profiles, params, storage, enforcement):
        problem = _problem(all_profiles, params, storage, enforcement)
        names = [profile.name for profile in problem.profiles]
        compiler = ProvisioningCompiler(problem)
        solver = HeuristicSolver(problem, compiler=compiler)
        for siting in _scripted_moves(names):
            warm = solver.evaluate(siting)
            rebuilt = solve_provisioning(problem, siting, compiler=compiler)
            assert warm.feasible == rebuilt.feasible, siting
            if not warm.feasible:
                continue
            # The LP optimum is unique in value: the warm-started objective
            # must equal the cold rebuild's bit-for-bit up to FP roundoff.
            assert warm.monthly_cost == pytest.approx(rebuilt.monthly_cost, rel=1e-9)
            lhs_siting, lhs_total = _plan_signature(warm.plan)
            rhs_siting, rhs_total = _plan_signature(rebuilt.plan)
            assert lhs_siting == rhs_siting
            assert lhs_total == pytest.approx(rhs_total, rel=1e-6)
            # Both vertices price back to the LP objective.
            assert lhs_total == pytest.approx(warm.monthly_cost, rel=1e-6)

    def test_reused_handle_warm_starts(self, all_profiles, params, monkeypatch):
        """Same-shape moves re-solve from the previous basis, in fewer iterations."""
        problem = _problem(all_profiles, params, StorageMode.NET_METERING,
                           GreenEnforcement.ANNUAL)
        names = [profile.name for profile in problem.profiles]
        # Distinct two-site swaps: every LP has one shape and none hits the memo.
        sequence = [
            {names[a]: "large", names[b]: "large"}
            for a, b in [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (2, 4), (4, 5)]
        ]
        iterations = []
        solve_row_form = highs_backend.solve_row_form

        def counting(row_form, options, model=None, check=False):
            result = solve_row_form(row_form, options, model, check)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(highs_backend, "solve_row_form", counting)
        compiler = ProvisioningCompiler(problem)
        solver = HeuristicSolver(problem, compiler=compiler)
        warm = [solver.evaluate(siting).monthly_cost for siting in sequence]
        warm_iterations = list(iterations)
        iterations.clear()
        cold = [
            solve_provisioning(problem, siting, compiler=compiler).monthly_cost
            for siting in sequence
        ]
        assert len(warm_iterations) == len(iterations) == len(sequence)
        assert warm == pytest.approx(cold, rel=1e-9)
        assert sum(warm_iterations) < sum(iterations)

    def test_evaluator_rejects_empty_siting(self, all_profiles, params):
        problem = _problem(all_profiles, params, StorageMode.NET_METERING,
                           GreenEnforcement.ANNUAL)
        with pytest.raises(ValueError, match="at least one datacenter"):
            solve_provisioning(
                problem,
                {},
                compiler=ProvisioningCompiler(problem),
                highs=highs_backend.MutableHighsModel(),
            )


class TestHeuristicIncrementalEquivalence:
    def test_search_memo_matches_cold_solves(self, all_profiles, params):
        """Every siting the search memoized (warm-started on the solver's
        handle) re-solves cold to the same feasibility and objective."""
        problem = _problem(all_profiles, params, StorageMode.NET_METERING,
                           GreenEnforcement.ANNUAL)
        settings = SearchSettings(
            keep_locations=8,
            max_iterations=14,
            patience=8,
            num_chains=2,
            seed=3,
            max_datacenters=4,
        )
        solver = HeuristicSolver(problem, settings)
        solution = solver.solve()
        assert solution.feasible
        assert len(solver._cache) == solution.evaluations > 1
        for key, result in solver._cache.items():
            cold = solve_provisioning(problem, dict(key))
            assert result.feasible == cold.feasible, key
            if cold.feasible:
                assert result.monthly_cost == pytest.approx(cold.monthly_cost, rel=1e-9)


class TestMemoCanonicalisation:
    def test_move_order_reaches_same_entry(self, all_profiles, params, fast_settings):
        problem = _problem(all_profiles, params, StorageMode.NET_METERING,
                           GreenEnforcement.ANNUAL)
        solver = HeuristicSolver(problem, fast_settings)
        names = [profile.name for profile in problem.profiles]
        forward = solver.evaluate({names[0]: "large", names[1]: "large"})
        reordered = solver.evaluate({names[1]: "large", names[0]: "large"})
        assert reordered is forward
        assert solver.cache_hits == 1

    def test_cross_chain_hits_attributed(self, all_profiles, params):
        problem = _problem(all_profiles, params, StorageMode.NET_METERING,
                           GreenEnforcement.ANNUAL)
        solver = HeuristicSolver(problem, SearchSettings(keep_locations=6, seed=1))
        names = [profile.name for profile in problem.profiles]
        siting = {names[0]: "large", names[1]: "large"}
        solver.evaluate(siting, chain=0)
        solver.evaluate(dict(siting), chain=0)   # same chain: plain hit
        solver.evaluate(dict(siting), chain=1)   # other chain: cross-chain hit
        assert solver.cache_hits == 2
        assert solver.cross_chain_hits == 1

    def test_stats_exposed_in_solution(self, all_profiles, params, fast_settings):
        problem = _problem(all_profiles, params, StorageMode.NET_METERING,
                           GreenEnforcement.ANNUAL)
        solution = HeuristicSolver(problem, fast_settings).solve()
        assert "memo_hit_rate" in solution.stats
        assert "memo_cross_chain_hits" in solution.stats
        requests = solution.evaluations + solution.cache_hits
        assert solution.stats["memo_hit_rate"] == pytest.approx(
            solution.cache_hits / requests
        )
