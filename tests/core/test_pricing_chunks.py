"""Chunked pricing: the one pricing path of the filter and the Fig. 6 sweep.

:func:`~repro.core.single_site.priced_in_chunks` splits a sweep into
:func:`~repro.core.single_site.pricing_chunk_count` contiguous chunks, which
depends only on the sweep size, and prices them in turn in the caller with
one shared compiler.
"""

import threading

import pytest

from repro.core import EnergySources, SingleSiteAnalyzer, StorageMode
from repro.core.provisioning import ProvisioningCompiler
from repro.core.single_site import priced_in_chunks, pricing_chunk_count, single_site_row_estimate
from repro.lpsolver import SolverOptions


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
    """A stand-in pricer: one row per siting, recording each chunk's call."""

    def __init__(self):
        self.threads = []
        self.compilers = []
        self.chunks = []

    def __call__(self, problem, chunk, options, compiler):
        self.threads.append(threading.current_thread())
        self.compilers.append(compiler)
        self.chunks.append(list(chunk))
        return [(location, float(len(location)), True) for location, _ in chunk]


class TestPricedInChunks:
    def test_chunked_costs_match_cost_distribution(self, all_profiles, pricing_problem):
        problem, sitings = pricing_problem
        reference = [
            (c.name, c.monthly_cost, c.feasible)
            for c in SingleSiteAnalyzer().cost_distribution(all_profiles, min_green_fraction=0.5)
        ]
        rows = priced_in_chunks(problem, sitings, SolverOptions(), ProvisioningCompiler(problem))
        assert rows == reference

    def test_sweep_is_split_into_several_chunks(self, pricing_problem):
        problem, sitings = pricing_problem
        pricer = RecordingPricer()
        priced_in_chunks(
            problem, sitings, SolverOptions(), ProvisioningCompiler(problem), price=pricer
        )
        expected = pricing_chunk_count(len(sitings), single_site_row_estimate(problem))
        assert expected > 1
        assert len(pricer.chunks) == expected
        assert sorted(sum(pricer.chunks, [])) == sorted(sitings)

    def test_chunks_are_priced_in_the_caller_in_order(self, pricing_problem):
        problem, sitings = pricing_problem
        pricer = RecordingPricer()
        rows = priced_in_chunks(
            problem, sitings, SolverOptions(), ProvisioningCompiler(problem), price=pricer
        )
        assert set(pricer.threads) == {threading.current_thread()}
        assert sum(pricer.chunks, []) == list(sitings)
        assert [name for name, _, _ in rows] == [location for location, _ in sitings]

    def test_every_chunk_shares_the_given_compiler(self, pricing_problem):
        problem, sitings = pricing_problem
        compiler = ProvisioningCompiler(problem)
        pricer = RecordingPricer()
        priced_in_chunks(problem, sitings, SolverOptions(), compiler=compiler, price=pricer)
        assert {id(shared) for shared in pricer.compilers} == {id(compiler)}
