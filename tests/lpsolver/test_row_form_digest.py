"""Golden digest of the row forms the MILP, stochastic and scheduler builders emit.

The Fig. 1 MILP (:func:`repro.core.build_full_milp`), the ensemble LP
(:func:`repro.robust.stochastic._build_ensemble_row_form`) and the
GreenNebula window LP (:meth:`GreenNebulaScheduler.build_model`) each
assemble COO triplets and convert them to CSC once.  One SHA-256 covers
every array of their row forms on the tier-1 fixtures, over the scenario
switches each builder reads, so a change of the conversion that moves any
byte of ``a_indptr``, ``a_indices`` or ``a_data`` (or their dtypes) shows.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.core import EnergySources, GreenEnforcement, SitingProblem, StorageMode, build_full_milp
from repro.core.provisioning import ProvisioningCompiler
from repro.greennebula import GreenDatacenter
from repro.greennebula.scheduler import GreenNebulaScheduler
from repro.robust.ensemble import EnsembleConfig, perturbed_problem
from repro.robust.stochastic import _build_ensemble_row_form

GOLDEN_SHA256 = "a5769dc6f0a9d1e5ba1a8d876f420d17a1487b90df6ecd146e8504e61846eeda"

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

MILP_SITES = ("Kiev, Ukraine", "Grissom, IN, USA", "Burke Lakefront, OH, USA")
SCHEDULER_SITES = ("Mexico City, Mexico", "Andersen, Guam", "Harare, Zimbabwe")


def _update(digest, row_form) -> None:
    digest.update(struct.pack("<qq", *row_form.shape))
    for name in ROW_FORM_ARRAYS:
        array = np.ascontiguousarray(getattr(row_form, name))
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    digest.update(struct.pack("<?d", row_form.maximise, row_form.objective_constant))


def _milp_row_forms(anchor_profiles, params):
    profiles = [anchor_profiles[name] for name in MILP_SITES]
    variants = [
        (0.0, EnergySources.NONE, StorageMode.NONE, GreenEnforcement.ANNUAL),
        (0.5, EnergySources.SOLAR_AND_WIND, StorageMode.NONE, GreenEnforcement.ANNUAL),
        (0.5, EnergySources.SOLAR_AND_WIND, StorageMode.NET_METERING, GreenEnforcement.ANNUAL),
        (0.5, EnergySources.SOLAR_ONLY, StorageMode.BATTERIES, GreenEnforcement.ANNUAL),
        (0.3, EnergySources.WIND_ONLY, StorageMode.NONE, GreenEnforcement.PER_EPOCH),
    ]
    for green, sources, storage, enforcement in variants:
        problem = SitingProblem(
            profiles=profiles,
            params=params.with_updates(total_capacity_kw=15_000.0, min_green_fraction=green),
            sources=sources,
            storage=storage,
            green_enforcement=enforcement,
        )
        yield build_full_milp(problem).row_form


def _ensemble_row_forms(two_site_problem):
    siting = {profile.name: "large" for profile in two_site_problem.profiles}
    nominal = ProvisioningCompiler(two_site_problem)
    config = EnsembleConfig(draws=3, seed=11)
    draws = [
        ProvisioningCompiler(perturbed_problem(two_site_problem, config, draw))
        for draw in range(config.draws)
    ]
    sizing = {name: (30_000.0, 10_000.0, 5_000.0, 0.0) for name in siting}
    calls = [
        ([nominal], {}),
        (draws, {}),
        (draws, {"weights": [0.5, 0.3, 0.2]}),
        (draws, {"unserved_energy_budget": [None, 5.0, 7.0]}),
        (draws, {"sizing_bounds": sizing}),
        ([nominal] * 3, {"blocked_sites": [None, 0, 1], "normalize_weights": False}),
    ]
    for compilers, kwargs in calls:
        yield _build_ensemble_row_form(compilers, siting, **kwargs)[0]


def _scheduler_row_forms(anchor_profiles):
    fleet_kw = 9 * 0.03
    dcs = []
    for name in SCHEDULER_SITES:
        dc = GreenDatacenter(
            name=name,
            profile=anchor_profiles[name],
            it_capacity_kw=fleet_kw * 1.5,
            solar_kw=fleet_kw * 7.0,
            wind_kw=0.0,
        )
        dc.provision_hosts(4)
        dcs.append(dc)
    for horizon, hour, total_load in ((6, 30.0, 0.27), (12, 12.0, 0.2), (1, 4000.0, 0.1)):
        scheduler = GreenNebulaScheduler(dcs, horizon_hours=horizon)
        current = {dc.name: 0.05 * (index + 1) for index, dc in enumerate(dcs)}
        forecasts = scheduler.predictor.predict_all(dcs, hour)
        yield scheduler.build_model(hour, total_load, current, forecasts)[0]


@pytest.fixture(scope="module")
def row_forms(anchor_profiles, params, two_site_problem):
    return (
        list(_milp_row_forms(anchor_profiles, params))
        + list(_ensemble_row_forms(two_site_problem))
        + list(_scheduler_row_forms(anchor_profiles))
    )


def test_row_forms_match_the_golden_digest(row_forms):
    digest = hashlib.sha256()
    for row_form in row_forms:
        _update(digest, row_form)
    assert digest.hexdigest() == GOLDEN_SHA256

