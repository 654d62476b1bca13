"""Tests for ScenarioSpec serialization, hashing and sweep expansion."""

from dataclasses import fields

import pytest

from repro.core import EnergySources, GreenEnforcement, StorageMode
from repro.core.heuristic import SearchSettings
from repro.scenarios import ParameterSweep, ScenarioSpec, build_sweep, get_scenario, scenario_names
from repro.scenarios.spec import EMULATION_DEFAULTS, EMULATION_TYPES


class TestScenarioSpecValidation:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.workflow == "plan"
        assert spec.sources_enum is EnergySources.SOLAR_AND_WIND
        assert spec.storage_enum is StorageMode.NET_METERING
        assert spec.green_enforcement_enum is GreenEnforcement.ANNUAL

    def test_unknown_workflow_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(workflow="simulate")

    def test_unknown_enum_values_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(sources="coal")
        with pytest.raises(ValueError):
            ScenarioSpec(storage="flywheel")
        with pytest.raises(ValueError):
            ScenarioSpec(green_enforcement="monthly")

    def test_unknown_emulation_knob_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(workflow="emulate", emulation={"warp_factor": 9})

    @pytest.mark.parametrize("knob", ["incremental", "carry_block_status"])
    def test_retired_dispatch_knobs_rejected(self, knob):
        # The dispatcher always slides its window warm and carries the
        # expiring step's basis; the knobs that switched that off are gone.
        with pytest.raises(ValueError, match="unknown operate knobs"):
            ScenarioSpec(workflow="operate", operate={knob: False})

    @pytest.mark.parametrize(
        "knob", ["parallel_chains", "executor", "max_workers", "bogus_knob"]
    )
    def test_unknown_and_retired_search_knobs_rejected(self, knob):
        # A search always runs in its caller's process; the knobs that fanned
        # it out are gone and fail at construction like any unknown knob.
        with pytest.raises(ValueError, match="unknown search knobs"):
            ScenarioSpec(search={knob: 1})
        with pytest.raises(ValueError, match="unknown search knobs"):
            ScenarioSpec().with_updates(**{f"search.{knob}": 1})

    def test_wrong_typed_values_rejected(self):
        with pytest.raises(ValueError, match="catalog_seed must be int"):
            ScenarioSpec(catalog_seed="abc")
        with pytest.raises(ValueError, match="num_locations must be int, not bool"):
            ScenarioSpec(num_locations=True)
        with pytest.raises(ValueError, match="emulation.num_vms must be int"):
            ScenarioSpec(workflow="emulate", emulation={"num_vms": "x"})
        with pytest.raises(ValueError, match="unknown param_overrides knobs"):
            ScenarioSpec(param_overrides={"bogus": 1.0})

    def test_ints_are_accepted_for_floats_without_coercion(self):
        spec = ScenarioSpec(total_capacity_kw=50_000, search={"cooling": 1})
        assert type(spec.total_capacity_kw) is int and type(spec.search["cooling"]) is int
        assert spec.to_dict()["total_capacity_kw"] == 50_000

    def test_emulation_types_cover_every_knob(self):
        assert sorted(EMULATION_TYPES) == sorted(EMULATION_DEFAULTS)

    def test_out_of_range_search_values_rejected(self):
        with pytest.raises(ValueError, match="at least one location"):
            ScenarioSpec(search={"keep_locations": 0})
        with pytest.raises(ValueError, match="cooling"):
            ScenarioSpec(search={"cooling": 1.5})

    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("keep_locations", 0, "at least one location"),
            ("max_iterations", 0, "at least one iteration"),
            ("num_chains", 0, "one chain"),
            ("cooling", 0.0, "cooling"),
            ("coarse_epoch_factor", 0, "coarse_epoch_factor"),
            ("refine_tolerance", -0.1, "refine_tolerance"),
            ("refine_max_rounds", 0, "at least one round"),
            ("move_weights", {"teleport": 1.0}, "unknown neighbour moves"),
        ],
    )
    def test_every_search_range_check_runs_on_update(self, knob, value, message):
        # A sweep axis or serve request applies the bad value through
        # with_updates; it must fail there, before any solve starts.
        with pytest.raises(ValueError, match=message):
            ScenarioSpec().with_updates(**{f"search.{knob}": value})

    def test_every_search_settings_field_is_a_known_knob(self):
        defaults = SearchSettings()
        search = {f.name: getattr(defaults, f.name) for f in fields(SearchSettings)}
        assert ScenarioSpec(search=search).build_search_settings() == defaults

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(total_capacity_kw=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(min_green_fraction=1.5)
        with pytest.raises(ValueError):
            ScenarioSpec(num_locations=0)
        with pytest.raises(ValueError, match="day per season"):
            ScenarioSpec(days_per_season=0)
        for hours in (0, -3, 5):
            with pytest.raises(ValueError, match="divisor of 24"):
                ScenarioSpec(hours_per_epoch=hours)

    @pytest.mark.parametrize(
        "block, knobs, message",
        [
            ("operate", {"steps": 0}, "at least one step"),
            ("ensemble", {"draws": 0}, "at least one draw"),
            ("contingency", {"survivability_epsilon": 2.0}, "survivability_epsilon"),
            ("faults", {"site_outages": [{"site": "Kiev"}]}, "start_step"),
        ],
    )
    def test_bad_knob_blocks_rejected_at_construction(self, block, knobs, message):
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(workflow="operate", **{block: knobs})


class TestRoundTrip:
    def make_spec(self):
        return ScenarioSpec(
            name="round-trip",
            description="a fully loaded spec",
            workflow="plan",
            num_locations=42,
            catalog_seed=7,
            candidate_names=("Kiev, Ukraine", "Harare, Zimbabwe"),
            days_per_season=2,
            hours_per_epoch=6,
            total_capacity_kw=30_000.0,
            min_green_fraction=0.75,
            sources="wind",
            storage="batteries",
            green_enforcement="per_epoch",
            migration_factor=0.5,
            net_meter_credit=0.25,
            min_availability=0.999,
            param_overrides={"price_battery_per_kwh": 150.0},
            search={"seed": 3, "max_iterations": 9},
            emulation={"num_vms": 4, "sites": ("Harare, Zimbabwe",)},
        )

    def test_dict_round_trip(self):
        spec = self.make_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_preserves_hash(self):
        spec = self.make_spec()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(KeyError):
            ScenarioSpec.from_dict({"min_green_fractoin": 0.5})

    def test_tuples_survive_list_form(self):
        spec = self.make_spec()
        payload = spec.to_dict()
        assert isinstance(payload["candidate_names"], list)
        assert isinstance(payload["emulation"]["sites"], list)
        restored = ScenarioSpec.from_dict(payload)
        assert restored.candidate_names == spec.candidate_names
        assert restored.emulation["sites"] == spec.emulation["sites"]


class TestContentHash:
    def test_hash_is_stable_across_instances(self):
        assert ScenarioSpec().content_hash() == ScenarioSpec().content_hash()

    def test_hash_ignores_identity_fields(self):
        assert (
            ScenarioSpec(name="a", description="x").content_hash()
            == ScenarioSpec(name="b", description="y").content_hash()
        )

    def test_hash_changes_with_semantics(self):
        base = ScenarioSpec()
        assert base.content_hash() != base.with_updates(min_green_fraction=0.75).content_hash()
        assert base.content_hash() != base.with_updates(search={"seed": 5}).content_hash()
        assert base.content_hash() != base.with_updates(num_locations=91).content_hash()

    def test_zero_green_specs_collapse_across_sources(self):
        # A 0 %-green scenario prices the same brown network whatever sources
        # are allowed: all its variants share a canonical form and a hash.
        hashes = {
            ScenarioSpec(min_green_fraction=0.0, sources=value).content_hash()
            for value in ("solar", "wind", "solar+wind", "brown")
        }
        assert len(hashes) == 1

    def test_problem_signature_ignores_search(self):
        base = ScenarioSpec()
        assert (
            base.problem_signature()
            == base.with_updates(search={"seed": 99}).problem_signature()
        )
        assert base.problem_signature() != base.with_updates(storage="none").problem_signature()


class TestWithUpdates:
    def test_flat_update(self):
        spec = ScenarioSpec().with_updates(storage="none", min_green_fraction=1.0)
        assert spec.storage_enum is StorageMode.NONE
        assert spec.min_green_fraction == 1.0

    def test_dotted_update_merges_dict_fields(self):
        spec = ScenarioSpec(search={"seed": 1, "num_chains": 2})
        updated = spec.with_updates(**{"search.seed": 5, "emulation.num_vms": 3})
        assert updated.search == {"seed": 1, "num_chains": 2} | {"seed": 5}
        assert updated.emulation == {"num_vms": 3}
        # the original is untouched
        assert spec.search["seed"] == 1

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            ScenarioSpec().with_updates(capacity=1.0)
        with pytest.raises(KeyError):
            ScenarioSpec().with_updates(**{"storage.mode": "none"})

    def test_build_search_settings(self):
        spec = ScenarioSpec(search={"max_iterations": 7, "seed": 11})
        settings = spec.build_search_settings()
        assert isinstance(settings, SearchSettings)
        assert settings.max_iterations == 7 and settings.seed == 11


class TestContingencyBlock:
    def test_empty_block_is_hash_invisible(self):
        assert ScenarioSpec(contingency={}).content_hash() == ScenarioSpec().content_hash()
        assert ScenarioSpec(contingency={}).contingency_config() is None

    def test_non_empty_block_changes_the_hash(self):
        base = ScenarioSpec()
        hardened = ScenarioSpec(contingency={"survivability_epsilon": 0.05})
        assert hardened.content_hash() != base.content_hash()

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(contingency={"epsilon": 0.05})

    def test_config_round_trips_knobs(self):
        spec = ScenarioSpec(
            contingency={
                "survivability_epsilon": 0.02,
                "outage_start_step": 4,
                "outage_duration_steps": 6,
            }
        )
        config = spec.contingency_config()
        assert config is not None
        assert config.survivability_epsilon == 0.02
        assert config.outage_start_step == 4
        assert config.outage_duration_steps == 6
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec

    def test_dotted_override_reaches_contingency(self):
        spec = ScenarioSpec(contingency={"survivability_epsilon": 0.05})
        updated = spec.with_updates(**{"contingency.survivability_epsilon": 0.1})
        assert updated.contingency_config().survivability_epsilon == 0.1
        assert spec.contingency["survivability_epsilon"] == 0.05

    def test_problem_signature_ignores_contingency(self):
        base = ScenarioSpec()
        hardened = ScenarioSpec(contingency={"survivability_epsilon": 0.05})
        assert base.problem_signature() == hardened.problem_signature()

    def test_survivability_scenarios_registered(self):
        names = scenario_names()
        assert "contingency-fig06" in names
        assert "failover-smoke" in names
        smoke = build_sweep("failover-smoke").base
        assert smoke.workflow == "operate"
        assert smoke.contingency_config() is not None
        assert not smoke.fault_spec().is_empty


class TestParameterSweep:
    def test_no_axes_is_single_point(self):
        sweep = ParameterSweep(base=ScenarioSpec())
        points = sweep.points()
        assert len(points) == 1 and points[0].overrides == {}

    def test_cartesian_order(self):
        sweep = ParameterSweep(
            base=ScenarioSpec(),
            axes={"storage": ("none", "batteries"), "min_green_fraction": (0.5, 1.0)},
        )
        combos = [(p.overrides["storage"], p.overrides["min_green_fraction"]) for p in sweep.points()]
        assert combos == [("none", 0.5), ("none", 1.0), ("batteries", 0.5), ("batteries", 1.0)]

    def test_zip_mode(self):
        sweep = ParameterSweep(
            base=ScenarioSpec(),
            axes={"min_green_fraction": (0.0, 0.5), "sources": ("brown", "wind")},
            mode="zip",
        )
        points = sweep.points()
        assert len(points) == 2
        assert points[0].spec.sources == "brown" and points[1].spec.sources == "wind"

    def test_zip_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            ParameterSweep(
                base=ScenarioSpec(),
                axes={"min_green_fraction": (0.0,), "sources": ("brown", "wind")},
                mode="zip",
            )

    def test_dotted_axes_reach_search(self):
        sweep = ParameterSweep(base=ScenarioSpec(), axes={"search.seed": (1, 2)})
        seeds = [p.spec.search["seed"] for p in sweep.points()]
        assert seeds == [1, 2]


class TestRegistry:
    def test_paper_scenarios_registered(self):
        names = scenario_names()
        for expected in ("fig06", "fig08", "fig13", "table2", "table3", "fig15", "smoke"):
            assert expected in names

    def test_every_scenario_builds(self):
        for name in scenario_names():
            sweep = build_sweep(name)
            points = sweep.points()
            assert points, name
            for point in points:
                assert point.spec.workflow in ("plan", "single_site", "emulate", "operate")

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("fig99")

    def test_fig11_shares_fig08_points(self):
        # Figs. 11/12 are capacity views of the Figs. 8/10 sweeps: identical
        # content hashes mean the runner serves them from the same artifacts.
        fig08 = {p.spec.content_hash() for p in build_sweep("fig08").points()}
        fig11 = {p.spec.content_hash() for p in build_sweep("fig11").points()}
        assert fig08 == fig11
