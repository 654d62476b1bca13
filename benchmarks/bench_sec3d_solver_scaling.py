"""Section III-D — heuristic-solver execution time vs candidate-set size.

The paper reports ~20 minutes for 50-100 candidate locations and an
exponential blow-up towards the full 1373-location set, which is why the
filtering step exists.  This benchmark measures our heuristic end-to-end for
growing candidate sets — including the paper's full 1373-location scale in
``EXTENDED_COUNTS`` — and also ablates the epoch-grid resolution (a design
choice called out in DESIGN.md).

Since PR 3 the benchmark configuration runs the search through the adaptive
epoch-grid scheme (``coarse_epoch_factor``): the filter and annealing chains
price every LP on a 4x coarser grid, and the winning siting is re-solved on
selectively refined grids until the objective converges — the final cost is
still reported against (and converges to) the fine 3-hour grid.
"""

import time

import pytest

from conftest import print_header
from repro.core import EnergySources, HeuristicSolver, SearchSettings, SitingProblem, StorageMode
from repro.core.parameters import FrameworkParameters
from repro.energy import EpochGrid, ProfileBuilder
from repro.weather import build_world_catalog

CANDIDATE_COUNTS = (12, 30, 60)

#: The extended scaling curve toward the paper's full candidate set; run once
#: per harness invocation (no best-of rounds — the big points are stable).
EXTENDED_COUNTS = (240, 600, 1373)

#: Catalogue-scale points beyond the paper's 1373 locations, drawn from the
#: dense deterministic grid catalogue (``repro.geo.synthetic``).  The
#: two-stage filter is what makes these tractable: the vectorized screen
#: prices only the provable shortlist contenders exactly.
SYNTHETIC_COUNTS = (5000, 20000)

#: Coarsening factor of the adaptive epoch-grid scheme used by the benchmark
#: configuration (the fine grid stays the 3-hour one the costs are quoted on).
COARSE_EPOCH_FACTOR = 4


def run_heuristic(
    num_candidates: int,
    hours_per_epoch: int = 3,
    coarse_epoch_factor: int = COARSE_EPOCH_FACTOR,
    synthetic_grid: bool = False,
) -> dict:
    if synthetic_grid:
        from repro.geo.synthetic import build_grid_catalog

        catalog = build_grid_catalog(num_candidates, seed=2014)
    else:
        catalog = build_world_catalog(num_locations=num_candidates, seed=2014)
    builder = ProfileBuilder(catalog)
    grid = EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=hours_per_epoch)
    profiles = builder.build_all(grid)
    problem = SitingProblem(
        profiles=profiles,
        params=FrameworkParameters(total_capacity_kw=50_000.0, min_green_fraction=0.5),
        sources=EnergySources.SOLAR_AND_WIND,
        storage=StorageMode.NET_METERING,
    )
    settings = SearchSettings(
        keep_locations=10,
        max_iterations=15,
        patience=8,
        num_chains=1,
        seed=1,
        coarse_epoch_factor=coarse_epoch_factor,
    )
    started = time.perf_counter()
    solution = HeuristicSolver(problem, settings).solve()
    elapsed = time.perf_counter() - started
    requests = solution.evaluations + solution.cache_hits
    return {
        "candidates": num_candidates,
        "elapsed_s": elapsed,
        "evaluations": solution.evaluations,
        "cache_hits": solution.cache_hits,
        "cache_hit_rate": solution.cache_hits / requests if requests else 0.0,
        "cross_chain_hits": solution.stats.get("memo_cross_chain_hits", 0.0),
        "filter_seconds": solution.stats.get("filter_seconds", float("nan")),
        "search_seconds": solution.stats.get("search_seconds", float("nan")),
        "refine_rounds": solution.stats.get("refine_rounds", 0.0),
        "filter_priced": solution.stats.get("filter_priced", float("nan")),
        "filter_screen_rate": solution.stats.get("filter_screen_rate", float("nan")),
        "cost_musd": solution.monthly_cost / 1e6,
        "feasible": solution.feasible,
    }


@pytest.mark.parametrize("num_candidates", CANDIDATE_COUNTS)
def test_sec3d_heuristic_scaling(benchmark, num_candidates):
    result = benchmark.pedantic(run_heuristic, args=(num_candidates,), rounds=1, iterations=1)

    print_header(f"Section III-D: heuristic solver over {num_candidates} candidate locations")
    print(f"wall-clock: {result['elapsed_s']:.2f} s "
          f"(filter {result['filter_seconds']:.2f} s, search {result['search_seconds']:.2f} s), "
          f"LP evaluations: {result['evaluations']}, cache hits: {result['cache_hits']}, "
          f"best cost: ${result['cost_musd']:.1f}M/month")
    print(
        "paper scale: tens of minutes for 50-100 locations on 2011 hardware, growing "
        "exponentially without filtering; the shape to match is 'filtering keeps it tractable'"
    )
    assert result["feasible"]


@pytest.mark.parametrize("num_candidates", EXTENDED_COUNTS)
@pytest.mark.slow
def test_sec3d_heuristic_scaling_extended(benchmark, num_candidates):
    """The scaling curve extended toward the paper's 1373 candidates."""
    result = benchmark.pedantic(run_heuristic, args=(num_candidates,), rounds=1, iterations=1)

    print_header(f"Section III-D extended: {num_candidates} candidate locations")
    print(f"wall-clock: {result['elapsed_s']:.2f} s "
          f"(filter {result['filter_seconds']:.2f} s, search {result['search_seconds']:.2f} s), "
          f"LP evaluations: {result['evaluations']}, best cost: ${result['cost_musd']:.1f}M/month")
    print(f"filter: {result['filter_priced']:.0f} of {num_candidates} candidates priced exactly "
          f"(screen survival {100 * result['filter_screen_rate']:.1f} %)")
    assert result["feasible"]


@pytest.mark.parametrize("num_candidates", SYNTHETIC_COUNTS)
@pytest.mark.slow
def test_sec3d_catalogue_scale(benchmark, num_candidates):
    """Beyond the paper: 5k/20k-candidate catalogues through the screen.

    The point of the two-stage filter — the exact-pricing count should stay
    near-flat while the catalogue grows, leaving a near-linear (vectorized
    screen dominated) filter-time curve.
    """
    result = benchmark.pedantic(
        run_heuristic,
        args=(num_candidates,),
        kwargs={"synthetic_grid": True},
        rounds=1,
        iterations=1,
    )

    print_header(f"Catalogue scale: {num_candidates} synthetic grid candidates")
    print(f"wall-clock: {result['elapsed_s']:.2f} s "
          f"(filter {result['filter_seconds']:.2f} s, search {result['search_seconds']:.2f} s), "
          f"LP evaluations: {result['evaluations']}, best cost: ${result['cost_musd']:.1f}M/month")
    print(f"filter: {result['filter_priced']:.0f} of {num_candidates} candidates priced exactly "
          f"(screen survival {100 * result['filter_screen_rate']:.1f} %)")
    assert result["feasible"]
    # The screen must keep exact pricing to a small fraction of the catalogue.
    assert result["filter_priced"] <= 0.25 * num_candidates


def test_sec3d_epoch_resolution_ablation(benchmark):
    """Ablation: 3-hour vs 1-hour epochs on the same 30-location instance.

    Both arms run the *plain* fine-grid search (``coarse_epoch_factor=1``) so
    the comparison stays a pure grid-resolution ablation, independent of the
    adaptive scheme the benchmark configuration uses.
    """
    coarse = benchmark.pedantic(
        run_heuristic, args=(30, 3, 1), rounds=1, iterations=1
    )
    fine = run_heuristic(30, 1, 1)

    print_header("Ablation: epoch-grid resolution (30 candidate locations)")
    print(f"3-hour epochs: {coarse['elapsed_s']:.1f} s, cost ${coarse['cost_musd']:.1f}M/month")
    print(f"1-hour epochs: {fine['elapsed_s']:.1f} s, cost ${fine['cost_musd']:.1f}M/month")
    print("finer epochs cost more solver time for a small change in the optimised cost")

    assert coarse["feasible"] and fine["feasible"]
    # The optimised costs should agree within a reasonable band; the fine grid is slower.
    assert abs(fine["cost_musd"] - coarse["cost_musd"]) / coarse["cost_musd"] < 0.25
