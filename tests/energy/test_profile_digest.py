"""Golden digest of the catalogue profile build.

One SHA-256 over every profile of a 120-location catalogue on three grids:
the ``sec3d`` fine grid (4 days x 3 h), its 4x coarser search grid
(4 days x 12 h) and one non-uniform :class:`RefinedEpochGrid`.  Each profile
contributes its name, the raw float64 bytes of its alpha/beta/PUE series and
its five scalars (land price, energy price, power and network distances,
nearest plant capacity).  Any bit that moves anywhere in weather synthesis,
the plant models, the UTC shift, epoch aggregation, anchor calibration or the
nearest-infrastructure search changes the digest.
"""

import hashlib
import struct

import numpy as np

from repro.energy import EpochGrid, ProfileBuilder, RefinedEpochGrid
from repro.weather import build_world_catalog

GOLDEN_SHA256 = "5063010118a7d52c82f01a2b52b5c91d1f2f8bee717f5b0f8a479b530f6f0e02"

REFINED = RefinedEpochGrid(
    representative_days=(15, 105, 196, 288),
    day_patterns=(
        (12, 3, 3, 1, 1, 1, 3),
        (6, 6, 6, 6),
        (1,) * 12 + (12,),
        (24,),
    ),
)


def _profile_digest() -> str:
    catalog = build_world_catalog(num_locations=120)
    grids = (
        EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=3),
        EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=12),
        REFINED,
    )
    digest = hashlib.sha256()
    for grid in grids:
        for profile in ProfileBuilder(catalog).build_all(grid):
            digest.update(profile.name.encode())
            for series in (profile.solar_alpha, profile.wind_beta, profile.pue):
                digest.update(np.ascontiguousarray(series, dtype="<f8").tobytes())
            digest.update(
                struct.pack(
                    "<5d",
                    profile.land_price_per_m2,
                    profile.energy_price_per_kwh,
                    profile.distance_power_km,
                    profile.distance_network_km,
                    profile.near_plant_capacity_kw,
                )
            )
    return digest.hexdigest()


def test_profile_build_matches_golden_digest():
    assert _profile_digest() == GOLDEN_SHA256
