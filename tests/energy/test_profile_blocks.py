"""Block profile builds equal one-location builds, bit for bit.

``ProfileBuilder.build_all`` builds the locations it has not cached yet in
blocks of ``BLOCK_LOCATIONS``, each block as one (locations x hours) array
pass.  A 300-location catalogue spans blocks of 128, 128 and 44 locations.
On the three grids of the golden digest, every profile — its series and its
five scalars, compared as raw float64 bytes — must equal the one a
one-location ``build`` gives, whatever block the location lands in: in a
whole-catalogue build, in a build over a shuffled subset with duplicate
names, and in a build whose cache is already partly filled.
"""

import random
import struct

import numpy as np
import pytest
from test_profile_digest import REFINED

from repro.energy import EpochGrid, ProfileBuilder
from repro.energy.profiles import BLOCK_LOCATIONS
from repro.weather import build_world_catalog

GRIDS = {
    "fine": EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=3),
    "coarse": EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=12),
    "refined": REFINED,
}
SCALARS = (
    "land_price_per_m2",
    "energy_price_per_kwh",
    "distance_power_km",
    "distance_network_km",
    "near_plant_capacity_kw",
)


def _bits(profile) -> bytes:
    series = (profile.solar_alpha, profile.wind_beta, profile.pue)
    return b"".join(
        [profile.name.encode()]
        + [np.ascontiguousarray(values, dtype="<f8").tobytes() for values in series]
        + [struct.pack("<5d", *(getattr(profile, name) for name in SCALARS))]
    )


@pytest.fixture(scope="module")
def catalog():
    catalog = build_world_catalog(num_locations=300)
    assert BLOCK_LOCATIONS == 128 and len(catalog) == 2 * BLOCK_LOCATIONS + 44
    return catalog


@pytest.fixture(scope="module", params=sorted(GRIDS))
def grid(request):
    return GRIDS[request.param]


@pytest.fixture(scope="module")
def one_by_one(catalog, grid):
    """Each location's profile from a one-location ``build``, as bytes."""
    builder = ProfileBuilder(catalog)
    return {location.name: _bits(builder.build(location, grid)) for location in catalog}


def test_whole_catalogue_equals_one_location_builds(catalog, grid, one_by_one):
    profiles = ProfileBuilder(catalog).build_all(grid)
    assert [profile.name for profile in profiles] == catalog.names
    for profile in profiles:
        assert _bits(profile) == one_by_one[profile.name], profile.name


def test_shuffled_subset_with_duplicates(catalog, grid, one_by_one):
    rng = random.Random(5)
    names = rng.sample(catalog.names, 200)
    names += rng.choices(names, k=60)
    rng.shuffle(names)
    profiles = ProfileBuilder(catalog).build_all(grid, names)
    assert [profile.name for profile in profiles] == names
    first = {}
    for profile in profiles:
        assert _bits(profile) == one_by_one[profile.name], profile.name
        assert first.setdefault(profile.name, profile) is profile


def test_partly_cached_builder(catalog, grid, one_by_one):
    builder = ProfileBuilder(catalog)
    cached = [builder.build(location, grid) for location in catalog.locations[5::7]]
    cached += builder.build_all(grid, catalog.names[130:150])
    profiles = builder.build_all(grid)
    by_name = {profile.name: profile for profile in profiles}
    for profile in cached:
        assert by_name[profile.name] is profile
    for profile in profiles:
        assert _bits(profile) == one_by_one[profile.name], profile.name
