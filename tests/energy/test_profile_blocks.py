"""Block profile builds equal one-location builds, bit for bit.

``ProfileBuilder.build_all`` builds the locations it has not cached yet in
blocks of ``BLOCK_LOCATIONS``, each block as one (locations x hours) array
pass.  A 300-location catalogue spans blocks of 128, 128 and 44 locations.
On the three grids of the golden digest, every profile — its series and its
five scalars, compared as raw float64 bytes — must equal the one a
one-location ``build`` gives, whatever block the location lands in: in a
whole-catalogue build, in a build over a shuffled subset with duplicate
names, and in a build whose cache is already partly filled.

The blocks of one build run on a thread pool sized by the CPUs available.
A build with one CPU runs them inline; builds on two and four threads must
equal it byte for byte, and threads building on one shared builder at once
must all get the same profile objects.
"""

import random
import struct
import sys
import threading

import numpy as np
import pytest
from test_profile_digest import REFINED

from repro.energy import EpochGrid, ProfileBuilder
from repro.energy.profiles import BLOCK_LOCATIONS
from repro.parallel import executors
from repro.parallel.executors import ExecutorFactory
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


def _build_on(catalog, grid, monkeypatch, cpus):
    """``build_all`` with ``cpus`` CPUs available, and the threads its blocks ran on."""
    monkeypatch.setattr(executors, "available_cpu_count", lambda: cpus)
    threads = set()
    build_block = ProfileBuilder._build_block

    def recorded(builder, locations, epochs):
        threads.add(threading.get_ident())
        return build_block(builder, locations, epochs)

    monkeypatch.setattr(ProfileBuilder, "_build_block", recorded)
    return ProfileBuilder(catalog).build_all(grid), threads


@pytest.fixture(scope="module")
def serial_build(catalog, grid):
    """The whole catalogue built with one CPU available: inline, block after block."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        profiles, threads = _build_on(catalog, grid, monkeypatch, 1)
    assert threads == {threading.get_ident()}
    return [_bits(profile) for profile in profiles]


@pytest.mark.parametrize("cpus", [2, 4])
def test_threaded_build_equals_serial_build(
    catalog, grid, one_by_one, serial_build, monkeypatch, cpus
):
    assert serial_build == [one_by_one[name] for name in catalog.names]
    profiles, threads = _build_on(catalog, grid, monkeypatch, cpus)
    assert threading.get_ident() not in threads and len(threads) > 1
    assert [_bits(profile) for profile in profiles] == serial_build


def test_concurrent_builds_share_one_builder(catalog, grid, serial_build, monkeypatch):
    # Four builds of two block threads each, more threads than cores, with
    # frequent thread switches: every build must return the first profile
    # stored for each location.
    monkeypatch.setattr(executors, "available_cpu_count", lambda: 2)
    builder = ProfileBuilder(catalog)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ExecutorFactory(kind="thread", max_workers=4).create(4) as pool:
            futures = [pool.submit(builder.build_all, grid) for _ in range(4)]
            builds = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    first = builds[0]
    for build in builds[1:]:
        assert len(build) == len(first) and all(a is b for a, b in zip(first, build))
    assert [_bits(profile) for profile in first] == serial_build
