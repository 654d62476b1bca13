"""The Section IV/V paper claims over catalogue seeds 1-8 (slow).

Tier-1 checks the claims of ``test_paper_claims.py`` on one catalogue, seed
7.  This module collects the same test classes again with the catalogue
fixtures overridden by a module-scoped one parametrized over seeds 1-8, so a
claim that holds on one synthetic catalogue only shows up here.  Run with
``PYTHONPATH=src python -m pytest -m slow tests/integration/test_paper_claims_seeds.py``.
"""

import pytest

from repro.core import EnergySources, PlacementTool, StorageMode
from repro.weather import build_world_catalog

# The claim classes and their plan fixtures, collected again in this module so
# they resolve the seed-parametrized catalogue below.
from test_paper_claims import (
    TestSectionIVClaims,  # noqa: F401
    TestSectionVClaims,  # noqa: F401
    brown_solution,  # noqa: F401
    green50_solution,  # noqa: F401
    green100_net_metering,  # noqa: F401
    green100_no_storage,  # noqa: F401
    settings,  # noqa: F401
)

pytestmark = pytest.mark.slow

CATALOG_SEEDS = tuple(range(1, 9))


@pytest.fixture(scope="module", params=CATALOG_SEEDS, ids=lambda seed: f"seed{seed}")
def small_catalog(request):
    return build_world_catalog(num_locations=24, seed=request.param)


@pytest.fixture(scope="module")
def small_tool(small_catalog, epoch_grid):
    return PlacementTool(catalog=small_catalog, epoch_grid=epoch_grid)


@pytest.fixture(scope="module")
def case_study_plan(small_tool, fast_settings):
    solution = small_tool.plan_network(
        total_capacity_kw=50_000.0,
        min_green_fraction=0.5,
        sources=EnergySources.SOLAR_AND_WIND,
        storage=StorageMode.NET_METERING,
        settings=fast_settings,
    )
    assert solution.plan is not None, "the case-study scenario must be feasible"
    return solution.plan
