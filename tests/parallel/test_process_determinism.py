"""Process-executor determinism: bit-identical to serial for any worker count.

The guarantee under test is the one the ``executor`` knob documents: the
executor kind ("thread" / "process" / "serial") and the worker count never
change results — costs, sitings, histories and pricing scores are bit for bit
those of the serial path for a fixed seed.  Only the ``parallel_chains``
trajectory switch changes outcomes.
"""

import pytest

from repro.core import (
    EnergySources,
    HeuristicSolver,
    SearchSettings,
    SingleSiteAnalyzer,
    SitingProblem,
    StorageMode,
)
from repro.parallel.work import cache_stats, reset_worker_caches


@pytest.fixture(scope="module")
def search_problem(all_profiles, params):
    return SitingProblem(
        profiles=all_profiles,
        params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=0.5),
        sources=EnergySources.SOLAR_AND_WIND,
        storage=StorageMode.NET_METERING,
    )


def solve(problem, executor, workers, parallel=True, num_chains=3):
    settings = SearchSettings(
        keep_locations=6,
        max_iterations=8,
        patience=5,
        num_chains=num_chains,
        seed=11,
        max_datacenters=4,
        parallel_chains=parallel,
        max_workers=workers,
        executor=executor,
    )
    return HeuristicSolver(problem, settings).solve()


def comparable(solution):
    return (
        solution.monthly_cost,
        solution.history,
        solution.filtered_locations,
        sorted(dc.name for dc in solution.plan.datacenters),
        sorted((dc.name, dc.size_class) for dc in solution.plan.datacenters),
    )


class TestProcessChains:
    def test_bit_identical_to_serial(self, search_problem):
        serial = solve(search_problem, "serial", 1)
        process = solve(search_problem, "process", 2)
        thread = solve(search_problem, "thread", 4)
        assert comparable(process) == comparable(serial)
        assert comparable(thread) == comparable(serial)
        # The memo diagnostics match too: the parent replays the chains'
        # request logs against shared-memo accounting, so records built from
        # evaluations/cache_hits never depend on the executor kind.
        assert process.evaluations == serial.evaluations == thread.evaluations
        assert process.cache_hits == serial.cache_hits == thread.cache_hits
        assert (
            process.stats["memo_cross_chain_hits"]
            == serial.stats["memo_cross_chain_hits"]
            == thread.stats["memo_cross_chain_hits"]
        )

    def test_in_process_chains_release_their_rebuild(self, search_problem):
        # Serial and thread chains run in the parent; once solve() returns,
        # the parent's per-process memo holds no chain problem/compiler.
        reset_worker_caches()
        solve(search_problem, "serial", 1)
        solve(search_problem, "thread", 2)
        assert cache_stats()["memo_entries"] == 0

    def test_independent_of_worker_count(self, search_problem):
        two = solve(search_problem, "process", 2)
        four = solve(search_problem, "process", 4)
        assert comparable(two) == comparable(four)
        assert two.evaluations == four.evaluations
        assert two.cache_hits == four.cache_hits

    def test_sequential_trajectory_with_process_filter(self, search_problem):
        # Without parallel_chains the chains stay sequential (a different,
        # equally deterministic trajectory); "process" then parallelises only
        # the filter pricing, which must not move a single bit.
        reference = comparable(solve(search_problem, "serial", 1, parallel=None))
        assert comparable(solve(search_problem, "process", 4, parallel=None)) == reference


class TestProcessFilter:
    def test_filter_ranking_identical_across_executors(self, search_problem):
        def filtered(executor):
            settings = SearchSettings(keep_locations=8, seed=11, executor=executor, max_workers=4)
            return HeuristicSolver(search_problem, settings).filter_locations()

        assert filtered("process") == filtered("serial") == filtered("thread")


class TestProcessCostDistribution:
    def test_costs_identical_and_slim(self, all_profiles):
        analyzer = SingleSiteAnalyzer()
        thread = analyzer.cost_distribution(all_profiles, workers=3, executor="thread")
        process = analyzer.cost_distribution(all_profiles, workers=3, executor="process")
        assert [c.monthly_cost for c in process] == [c.monthly_cost for c in thread]
        assert [c.feasible for c in process] == [c.feasible for c in thread]
        assert [c.name for c in process] == [c.name for c in thread]
        # Process-priced costs are slim: the LP result lives and dies in the
        # worker, only the numbers cross back.
        assert all(cost.result is None for cost in process)
        assert all(cost.plan is None for cost in process)

    def test_single_location_on_process_factory(self, all_profiles):
        # One location is one chunk, priced in the caller: the in-process
        # call (with its lock-holding compiler) never reaches a process pool.
        analyzer = SingleSiteAnalyzer()

        def costs(executor):
            return [
                (c.name, c.monthly_cost, c.feasible)
                for c in analyzer.cost_distribution(
                    all_profiles[:1], workers=2, executor=executor
                )
            ]

        assert costs("process") == costs("serial")

    def test_per_site_costs_independent_of_workers(self, all_profiles):
        # The sweep splits chunks by sweep size, never by the worker count,
        # so every chunk stacks the same LPs and its per-site costs match.
        # The stacked optimum's last bits can depend on which LPs share a chunk,
        # so a worker-count split would move them.
        analyzer = SingleSiteAnalyzer()

        def costs(workers, executor="thread"):
            return [
                (c.name, c.monthly_cost, c.feasible)
                for c in analyzer.cost_distribution(
                    all_profiles,
                    min_green_fraction=0.5,
                    workers=workers,
                    executor=executor,
                )
            ]

        reference = costs(1)
        assert costs(3) == reference
        assert costs(3, executor="process") == reference
