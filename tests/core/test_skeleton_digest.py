"""Golden digest of the provisioning compiler's per-site skeletons.

One SHA-256 over every ``(location, size class)`` skeleton of a 40-location
catalogue, for every scenario switch the compiler reads, on four grids: the
``sec3d`` fine grid (4 days x 3 h), its 4x coarser search grid (4 days x
12 h), a single-epoch grid (where ``_sum_duplicates`` sums the cyclic
blocks' duplicate coordinates) and one non-uniform :class:`RefinedEpochGrid`.
The switches are every storage mode, green enforcement and energy source,
at a green share of 0 and 0.5 (0.5 needs a renewable source).

Each compiler requests its skeletons in a seeded shuffled order, so the
first location of each class differs from one configuration to the next.
Every skeleton contributes its name, class, raw array bytes (with dtype and
shape) and ``fixed_cost``.  The digest also covers the row forms of a few
1-3-site sitings, with and without the availability spread, and the
compilers' skeleton counters, summed in one ``repro.obs`` tally.  Any bit
that moves anywhere in the skeleton assembly, the row-form stitching or
the cache accounting changes the digest.  The same variants pin the pricing chunks' row estimate to the
compiled one-site LP.
"""

import functools
import hashlib
import random
import struct

import numpy as np
import pytest

from repro import obs
from repro.core import EnergySources, FrameworkParameters, SitingProblem, StorageMode
from repro.core.problem import GreenEnforcement
from repro.core.provisioning import ProvisioningCompiler
from repro.core.single_site import single_site_row_estimate
from repro.energy import EpochGrid, ProfileBuilder, RefinedEpochGrid
from repro.weather import build_world_catalog

GOLDEN_SHA256 = "3b8cb0fb48b856f65c21e8176fb98ff887b504ef64e036e355621c990ed66c0a"

#: Summed (builds, derives, hits) over the 168 compilers: one build per
#: compiler and class, the other 39 locations of each class derived, and the
#: row forms' 12 site lookups per compiler served from the cache.
GOLDEN_COUNTERS = (336, 13104, 2016)

GRIDS = (
    EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=3),
    EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=12),
    EpochGrid(representative_days=(100,), hours_per_epoch=24),
    RefinedEpochGrid(
        representative_days=(15, 105, 196, 288),
        day_patterns=((12, 3, 3, 1, 1, 1, 3), (6, 6, 6, 6), (1,) * 12 + (12,), (24,)),
    ),
)

SKELETON_ARRAYS = (
    "lower",
    "upper",
    "objective_cols",
    "objective_vals",
    "tri_rows",
    "tri_cols",
    "tri_vals",
    "rhs",
    "le_mask",
    "ge_mask",
    "green_rows",
    "green_cols",
    "green_vals",
)

ROW_FORM_ARRAYS = (
    "cost",
    "a_indptr",
    "a_indices",
    "a_data",
    "row_lower",
    "row_upper",
    "lower",
    "upper",
    "integrality",
)


def _variants():
    for storage in StorageMode:
        for enforcement in GreenEnforcement:
            for sources in EnergySources:
                for green in (0.0, 0.5):
                    if green > 0 and sources is EnergySources.NONE:
                        continue
                    yield storage, enforcement, sources, green


def _update_array(digest, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


@functools.lru_cache(maxsize=None)
def _grid_profiles(grid_index: int) -> tuple:
    catalog = build_world_catalog(num_locations=40)
    return tuple(ProfileBuilder(catalog).build_all(GRIDS[grid_index]))


def _problem(profiles, storage, enforcement, sources, green) -> SitingProblem:
    return SitingProblem(
        profiles=list(profiles),
        params=FrameworkParameters().with_updates(
            total_capacity_kw=50_000.0, min_green_fraction=green
        ),
        sources=sources,
        storage=storage,
        green_enforcement=enforcement,
    )


def _skeleton_digest():
    digest = hashlib.sha256()
    order = random.Random(2014)
    with obs.counting() as stats:
        for grid_index in range(len(GRIDS)):
            profiles = _grid_profiles(grid_index)
            names = [profile.name for profile in profiles]
            for variant in _variants():
                compiler = ProvisioningCompiler(_problem(profiles, *variant))
                pairs = [(name, size) for name in names for size in ("small", "large")]
                order.shuffle(pairs)
                skeletons = {pair: compiler.site_skeleton(*pair) for pair in pairs}
                for (name, size), skeleton in sorted(skeletons.items()):
                    digest.update(f"{name}|{size}|{skeleton.num_epochs}".encode())
                    for field in SKELETON_ARRAYS:
                        _update_array(digest, getattr(skeleton, field))
                    digest.update(struct.pack("<d", skeleton.fixed_cost))
                picks = order.sample(names, 6)
                sitings = (
                    {picks[0]: "large"},
                    {picks[1]: "small", picks[2]: "large"},
                    {picks[3]: "large", picks[4]: "small", picks[5]: "large"},
                )
                for siting in sitings:
                    for spread in (False, True):
                        row_form, layouts = compiler.compile_row_form(siting, spread)
                        digest.update(str(row_form.shape).encode())
                        for field in ROW_FORM_ARRAYS:
                            _update_array(digest, getattr(row_form, field))
                        digest.update(struct.pack("<d", row_form.objective_constant))
                        digest.update(str([layout.base for layout in layouts]).encode())
    counters = np.array(
        [stats["skeleton_builds"], stats["skeleton_derives"], stats["skeleton_hits"]],
        dtype=np.int64,
    )
    digest.update(counters.astype("<i8").tobytes())
    return digest.hexdigest(), tuple(int(count) for count in counters)


def test_skeletons_match_golden_digest():
    sha256, counters = _skeleton_digest()
    assert counters == GOLDEN_COUNTERS
    assert sha256 == GOLDEN_SHA256


@pytest.mark.parametrize("grid_index", range(len(GRIDS)))
def test_row_estimate_matches_the_compiled_one_site_lp(grid_index):
    """``single_site_row_estimate`` restates the compiler's row blocks.

    It sizes the pricing chunks, which fix the pricing costs bit for bit, so
    it must count the rows of the small-class one-site LP exactly; the
    large-class LP has one row fewer (no small-datacenter guard).
    """
    profiles = _grid_profiles(grid_index)
    name = profiles[0].name
    for variant in _variants():
        problem = _problem(profiles, *variant)
        compiler = ProvisioningCompiler(problem)
        small, _ = compiler.compile_row_form({name: "small"}, enforce_spread=False)
        large, _ = compiler.compile_row_form({name: "large"}, enforce_spread=False)
        estimate = single_site_row_estimate(problem)
        assert (estimate, estimate - 1) == (small.num_rows, large.num_rows), variant


if __name__ == "__main__":  # pragma: no cover - prints the digest to record
    print(_skeleton_digest())
