"""Differential tests of the two-stage filter pricing pipeline.

The whole scheme rests on two exactness claims, and each is pinned against
the LP ground truth:

* **admissibility** — the vectorized screen's lower bound never exceeds the
  exact single-site LP optimum, and its infeasibility certificates only fire
  on LPs that really are infeasible, across the scenario matrix the
  experiments use (Fig. 6 brown/solar/wind sweeps, the Table II storage
  modes, the Section III-D search configuration);
* **warm pricing** — a chunk priced on one warm-started handle returns the
  same rows as a fresh solve of each siting, infeasible sites included, and
  the filter shortlist is bit-identical with the screen on or off.  The
  filter always screens; the unscreened run is reached by patching the
  heuristic module's screen binding.
"""

import contextlib

import numpy as np
import pytest

from repro.core import heuristic, screening
from repro.core import (
    EnergySources,
    HeuristicSolver,
    SearchSettings,
    SitingProblem,
    StorageMode,
)
from repro.core.problem import GreenEnforcement
from repro.core.provisioning import ProvisioningCompiler, solve_provisioning
from repro.core.screening import (
    ScreenResult,
    price_batch,
    screen_lower_bounds,
)
from repro.core.single_site import (
    SingleSiteAnalyzer,
    scoring_parameters,
    scoring_sources,
    single_site_size_class,
)
from repro.energy import ProfileBuilder
from repro.lpsolver import MutableHighsModel
from repro.weather import build_world_catalog


def _pricing_problem(problem):
    """The filter's single-site pricing problem for ``problem``."""
    share_kw = problem.params.total_capacity_kw / max(1, problem.min_datacenters)
    score_green = min(problem.params.min_green_fraction, 0.5)
    params = scoring_parameters(problem.params, share_kw, score_green)
    return (
        problem.with_updates(
            params=params,
            sources=scoring_sources(score_green, problem.sources),
            green_enforcement=GreenEnforcement.ANNUAL,
        ),
        share_kw,
    )


def _exact_rows(pricing_problem, share_kw, options):
    compiler = ProvisioningCompiler(pricing_problem)
    rows = {}
    for profile in pricing_problem.profiles:
        size_class = single_site_size_class(
            share_kw, profile, pricing_problem.params
        )
        result = solve_provisioning(
            pricing_problem,
            {profile.name: size_class},
            options=options,
            enforce_spread=False,
            compiler=compiler,
        )
        rows[profile.name] = (result.monthly_cost, result.feasible)
    return rows


#: (total capacity, green fraction, sources, storage) — the Fig. 6 sweep
#: configurations, the Table II storage modes and the Sec. III-D search
#: configuration, which together exercise every bound term (brown-only
#: pricing, solar/wind gamma, batteries, no-storage dead epochs).
SCENARIOS = [
    pytest.param(50_000.0, 0.5, EnergySources.SOLAR_AND_WIND, StorageMode.NET_METERING, id="sec3d"),
    pytest.param(25_000.0, 0.0, EnergySources.SOLAR_AND_WIND, StorageMode.NET_METERING, id="fig06-brown"),
    pytest.param(25_000.0, 0.5, EnergySources.SOLAR_ONLY, StorageMode.NET_METERING, id="fig06-solar"),
    pytest.param(25_000.0, 0.5, EnergySources.WIND_ONLY, StorageMode.NET_METERING, id="fig06-wind"),
    pytest.param(50_000.0, 0.5, EnergySources.SOLAR_AND_WIND, StorageMode.BATTERIES, id="table2-batteries"),
    pytest.param(50_000.0, 0.3, EnergySources.SOLAR_AND_WIND, StorageMode.NONE, id="table2-none"),
]


def _network_problem(all_profiles, params, capacity, green, sources, storage):
    return SitingProblem(
        profiles=all_profiles,
        params=params.with_updates(
            total_capacity_kw=capacity, min_green_fraction=green
        ),
        sources=sources,
        storage=storage,
    )


class TestScreenAdmissibility:
    @pytest.mark.parametrize("capacity,green,sources,storage", SCENARIOS)
    def test_bound_below_exact_cost(
        self, all_profiles, params, solver_options, capacity, green, sources, storage
    ):
        problem = _network_problem(
            all_profiles, params, capacity, green, sources, storage
        )
        pricing, share_kw = _pricing_problem(problem)
        screen = screen_lower_bounds(pricing)
        exact = _exact_rows(pricing, share_kw, solver_options)
        assert screen.names == [profile.name for profile in pricing.profiles]
        for name, bound, certified in zip(
            screen.names, screen.lower_bounds, screen.certified_infeasible
        ):
            cost, feasible = exact[name]
            if certified:
                # Certificates are sound: the LP really is infeasible.
                assert not feasible, name
            elif feasible:
                # Admissibility: the bound never exceeds the LP optimum.
                assert bound <= cost, (name, bound, cost)

    def test_order_sorts_certified_last(self, all_profiles, params):
        problem = _network_problem(
            all_profiles,
            params,
            50_000.0,
            0.3,
            EnergySources.SOLAR_AND_WIND,
            StorageMode.NONE,
        )
        pricing, _ = _pricing_problem(problem)
        screen = screen_lower_bounds(pricing)
        ordered = screen.lower_bounds[screen.order]
        finite = ordered[np.isfinite(ordered)]
        assert np.all(np.diff(finite) >= 0)
        assert np.all(np.isinf(ordered[len(finite):]))


class TestBatchPricing:
    @pytest.mark.parametrize("capacity,green,sources,storage", SCENARIOS)
    def test_batch_matches_fresh_solves(
        self, all_profiles, params, solver_options, capacity, green, sources, storage
    ):
        problem = _network_problem(
            all_profiles, params, capacity, green, sources, storage
        )
        pricing, share_kw = _pricing_problem(problem)
        _assert_rows_match_fresh_solves(pricing, share_kw, solver_options)

    def test_chunk_with_an_infeasible_site(self, all_profiles, params, solver_options):
        # Without storage and with the brown draw capped at 5 % of the
        # nearest plant, a site near a small plant cannot cover its dark
        # epochs; the sites priced after it must still price exactly.
        problem = _network_problem(
            all_profiles,
            params.with_updates(brown_plant_cap_fraction=0.05),
            50_000.0,
            0.3,
            EnergySources.SOLAR_AND_WIND,
            StorageMode.NONE,
        )
        pricing, share_kw = _pricing_problem(problem)
        rows = _assert_rows_match_fresh_solves(pricing, share_kw, solver_options)
        feasible = [row[2] for row in rows]
        assert any(feasible[feasible.index(False):])

    def test_empty_chunk(self, two_site_problem, solver_options):
        assert price_batch(two_site_problem, [], solver_options) == []


def _assert_rows_match_fresh_solves(pricing, share_kw, options):
    """``price_batch`` on one chunk of every candidate equals fresh solves."""
    sitings = [
        (profile.name, single_site_size_class(share_kw, profile, pricing.params))
        for profile in pricing.profiles
    ]
    rows = price_batch(pricing, sitings, options)
    exact = _exact_rows(pricing, share_kw, options)
    assert [row[0] for row in rows] == [name for name, _ in sitings]
    for name, cost, feasible in rows:
        fresh_cost, fresh_feasible = exact[name]
        assert feasible == fresh_feasible, name
        if feasible:
            assert cost == pytest.approx(fresh_cost, rel=1e-9), name
    return rows


def _zero_bounds(problem, size_classes=None):
    """A screen that prunes nothing: every bound 0, no certificates."""
    count = len(problem.profiles)
    return ScreenResult(
        names=[profile.name for profile in problem.profiles],
        lower_bounds=np.zeros(count),
        certified_infeasible=np.zeros(count, dtype=bool),
    )


@contextlib.contextmanager
def _filter_screen(screen):
    """Turn the filter's screen off by patching its binding."""
    with pytest.MonkeyPatch.context() as patch:
        if not screen:
            patch.setattr(heuristic, "screen_lower_bounds", _zero_bounds)
        yield


class TestFilterShortlistInvariance:
    """The shortlist is identical with the screen on or off."""

    @pytest.fixture(scope="class")
    def reference_shortlist(self, all_profiles, params):
        problem = _network_problem(
            all_profiles,
            params,
            50_000.0,
            0.5,
            EnergySources.SOLAR_AND_WIND,
            StorageMode.NET_METERING,
        )
        settings = SearchSettings(keep_locations=8, num_chains=1, seed=3)
        with _filter_screen(screen=False):
            return problem, HeuristicSolver(problem, settings).filter_locations()

    @pytest.mark.parametrize("screen", [True, False], ids=["screen", "noscreen"])
    def test_stage_invariance(self, reference_shortlist, screen):
        problem, expected = reference_shortlist
        settings = SearchSettings(keep_locations=8, num_chains=1, seed=3)
        solver = HeuristicSolver(problem, settings)
        with _filter_screen(screen):
            assert solver.filter_locations() == expected
        stats = solver._filter_stats
        assert stats["filter_candidates"] == len(problem.profiles)
        assert stats["filter_priced"] <= stats["filter_candidates"]
        if not screen:
            assert stats["filter_priced"] == stats["filter_candidates"]


@pytest.fixture(scope="module")
def wide_problem(epoch_grid, params):
    """A 90-candidate Sec. III-D problem: more candidates than the 64 a
    round-based filter priced before pruning anything."""
    profiles = ProfileBuilder(build_world_catalog(num_locations=90, seed=7)).build_all(
        epoch_grid
    )
    return _network_problem(
        profiles,
        params,
        50_000.0,
        0.5,
        EnergySources.SOLAR_AND_WIND,
        StorageMode.NET_METERING,
    )


@contextlib.contextmanager
def _priced_rows():
    """Record every ``(location, monthly_cost, feasible)`` row the pricers return."""
    rows = []
    price = screening.price_per_site

    def spy(*args, **kwargs):
        result = price(*args, **kwargs)
        rows.extend(result)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(screening, "price_per_site", spy)
        yield rows


class TestLazyFilter:
    """The filter prices exactly the candidates that can still make the shortlist."""

    SETTINGS = SearchSettings(keep_locations=4, num_chains=1, seed=3)

    def test_prices_exactly_the_lazy_set(self, wide_problem):
        keep = max(self.SETTINGS.keep_locations, wide_problem.min_datacenters)
        assert len(wide_problem.profiles) > max(4 * keep, 64)
        # Oracle: every candidate's exact cost, priced with the screen off.
        with _filter_screen(screen=False), _priced_rows() as oracle_rows:
            HeuristicSolver(wide_problem, self.SETTINGS).filter_locations()
        oracle = {name: (cost, feasible) for name, cost, feasible in oracle_rows}
        assert len(oracle) == len(wide_problem.profiles)

        # Walk the screen order and apply the two pruning thresholds.
        pricing, share_kw = _pricing_problem(wide_problem)
        size_classes = {
            profile.name: single_site_size_class(share_kw, profile, pricing.params)
            for profile in pricing.profiles
        }
        screen = screen_lower_bounds(pricing, size_classes)
        bands = {
            profile.name: int((profile.location.point.longitude + 180.0) // 45.0)
            for profile in pricing.profiles
        }
        expected, costs, band_best = set(), [], {}
        for index in screen.order:
            if screen.certified_infeasible[index]:
                continue
            name, bound = screen.names[index], screen.lower_bounds[index]
            cut = sorted(costs)[keep - 1] if len(costs) >= keep else np.inf
            if bound > cut and bound > band_best.get(bands[name], np.inf):
                continue
            expected.add(name)
            cost, feasible = oracle[name]
            if feasible:
                costs.append(cost)
                band_best[bands[name]] = min(cost, band_best.get(bands[name], np.inf))

        solver = HeuristicSolver(wide_problem, self.SETTINGS)
        with _priced_rows() as rows:
            solver.filter_locations()
        priced = [name for name, _, _ in rows]
        assert len(priced) == len(set(priced))
        assert set(priced) == expected
        assert solver._filter_stats["filter_priced"] == len(expected)
        assert len(expected) < len(wide_problem.profiles)

    def test_one_handle_prices_the_whole_filter(self, wide_problem, monkeypatch):
        solver = HeuristicSolver(wide_problem, self.SETTINGS)
        handles = []
        init = MutableHighsModel.__init__

        def recording_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            handles.append(model)

        monkeypatch.setattr(MutableHighsModel, "__init__", recording_init)
        solver.filter_locations()
        assert solver._filter_stats["filter_priced"] > 1
        assert len(handles) == 1


class TestCostDistributionTwoStage:
    def test_batch_matches_legacy_sweep(self, all_profiles, params, solver_options):
        analyzer = SingleSiteAnalyzer(params=params, solver_options=solver_options)
        legacy = [
            analyzer.cost_at(profile, min_green_fraction=0.5) for profile in all_profiles
        ]
        batched = analyzer.cost_distribution(all_profiles, min_green_fraction=0.5)
        assert [cost.name for cost in batched] == [cost.name for cost in legacy]
        assert [cost.feasible for cost in batched] == [
            cost.feasible for cost in legacy
        ]
        for slim, full in zip(batched, legacy):
            if full.feasible:
                assert slim.monthly_cost == pytest.approx(
                    full.monthly_cost, rel=1e-7
                )
            assert slim.result is None  # chunked sweeps are slim
