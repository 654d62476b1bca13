"""Thread-count invariance of the search's one fan-out: filter pricing.

A heuristic search runs in its caller's process; only the filter prices its
chunks on a thread pool sized by ``available_cpu_count()``.  The chunk split
depends only on the sweep size, so shortlists and per-site costs are bit for
bit those of a single-threaded run, however many CPUs the process sees.
"""

import threading
import time

import pytest

from repro.core import heuristic as heuristic_module
from repro.core import (
    EnergySources,
    HeuristicSolver,
    SearchSettings,
    SingleSiteAnalyzer,
    SitingProblem,
    StorageMode,
)
from repro.core.single_site import priced_in_chunks, pricing_chunk_count, single_site_row_estimate
from repro.lpsolver import SolverOptions


@pytest.fixture(scope="module")
def search_problem(all_profiles, params):
    return SitingProblem(
        profiles=all_profiles,
        params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=0.5),
        sources=EnergySources.SOLAR_AND_WIND,
        storage=StorageMode.NET_METERING,
    )


class TestFilterThreads:
    def test_filter_ranking_identical_across_cpu_counts(self, search_problem, monkeypatch):
        def filtered(cpus):
            monkeypatch.setattr(heuristic_module, "available_cpu_count", lambda: cpus)
            settings = SearchSettings(keep_locations=8, seed=11)
            return HeuristicSolver(search_problem, settings).filter_locations()

        assert filtered(1) == filtered(4)


class TestPricingThreads:
    def test_per_site_costs_independent_of_workers(self, all_profiles):
        # The sweep splits chunks by sweep size, never by the worker count,
        # so every chunk stacks the same LPs and its per-site costs match.
        # The stacked optimum's last bits can depend on which LPs share a chunk,
        # so a worker-count split would move them.
        analyzer = SingleSiteAnalyzer()
        problem, sitings = analyzer._pricing_problem(
            list(all_profiles),
            25_000.0,
            0.5,
            EnergySources.SOLAR_AND_WIND,
            StorageMode.NET_METERING,
        )
        reference = [
            (c.name, c.monthly_cost, c.feasible)
            for c in analyzer.cost_distribution(all_profiles, min_green_fraction=0.5)
        ]
        assert priced_in_chunks(problem, sitings, SolverOptions()) == reference
        assert priced_in_chunks(problem, sitings, SolverOptions(), workers=3) == reference


@pytest.fixture(scope="module")
def pricing_problem(all_profiles):
    return SingleSiteAnalyzer()._pricing_problem(
        list(all_profiles),
        25_000.0,
        0.5,
        EnergySources.SOLAR_AND_WIND,
        StorageMode.NET_METERING,
    )


class RecordingPricer:
    """A stand-in pricer: one row per siting, recording where each chunk ran."""

    def __init__(self, sitings):
        self.sitings = list(sitings)
        self.lock = threading.Lock()
        self.threads = []
        self.compilers = []
        self.chunks = []

    def __call__(self, problem, chunk, options, compiler):
        # Earlier chunks sleep longer, so later ones finish first and a pool
        # that appended rows in completion order would scramble them.
        time.sleep(0.001 * (len(self.sitings) - self.sitings.index(chunk[0])))
        with self.lock:
            self.threads.append(threading.current_thread())
            self.compilers.append(compiler)
            self.chunks.append(list(chunk))
        return [(location, float(len(location)), True) for location, _ in chunk]


class TestPricingFanOut:
    def test_sweep_is_split_into_several_chunks(self, pricing_problem):
        problem, sitings = pricing_problem
        pricer = RecordingPricer(sitings)
        priced_in_chunks(problem, sitings, SolverOptions(), price=pricer)
        expected = pricing_chunk_count(len(sitings), single_site_row_estimate(problem))
        assert expected > 1
        assert len(pricer.chunks) == expected
        assert sorted(sum(pricer.chunks, [])) == sorted(sitings)

    def test_one_worker_prices_in_the_caller(self, pricing_problem):
        problem, sitings = pricing_problem
        pricer = RecordingPricer(sitings)
        priced_in_chunks(problem, sitings, SolverOptions(), workers=1, price=pricer)
        assert set(pricer.threads) == {threading.current_thread()}

    @pytest.mark.parametrize("workers", [2, 4])
    def test_threads_return_rows_in_siting_order(self, pricing_problem, workers):
        problem, sitings = pricing_problem
        pricer = RecordingPricer(sitings)
        rows = priced_in_chunks(problem, sitings, SolverOptions(), workers=workers, price=pricer)
        assert [name for name, _, _ in rows] == [location for location, _ in sitings]
        assert threading.current_thread() not in pricer.threads
        # Every chunk shares the one compiler, whichever thread prices it.
        assert len({id(compiler) for compiler in pricer.compilers}) == 1
