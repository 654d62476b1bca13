"""Replay harness: policies, regret, determinism, record shape."""

import json

import numpy as np
import pytest

from repro.operator import (
    OperateConfig,
    ReplayHarness,
    SiteAsset,
    TrafficModel,
    regret,
)


def _setup(steps=24, horizon=8, **config_kwargs):
    config = OperateConfig(steps=steps, horizon_hours=horizon, **config_kwargs)
    needed = steps + config.horizon_steps + config.reforecast_every
    hours = np.arange(needed, dtype=float)

    def site(name, phase, cap):
        production = np.clip(np.sin(2 * np.pi * (hours + phase) / 24.0), 0, None)
        return SiteAsset(
            name=name,
            capacity_kw=cap,
            battery_kwh=0.3 * cap,
            energy_price_per_kwh=0.1,
            pue=np.full(needed, 1.25),
            production_kw=production * cap * 1.8,
        )

    sites = [site("alpha", 0.0, 600.0), site("beta", 10.0, 600.0), site("gamma", 18.0, 600.0)]
    trace = TrafficModel(seed=3).synthesize(needed, total_capacity_kw=1000.0)
    return ReplayHarness(sites, trace, config, total_capacity_kw=1000.0)


class TestReplay:
    def test_deterministic_across_runs(self):
        first = _setup(forecast_error=0.2, energy_forecast="noisy-oracle").run("forecast")
        second = _setup(forecast_error=0.2, energy_forecast="noisy-oracle").run("forecast")
        assert first.cost_usd == second.cost_usd
        assert first.brown_kwh == second.brown_kwh
        assert first.stats == second.stats

    def test_zero_error_noisy_oracle_matches_oracle(self):
        harness = _setup(
            forecast_error=0.0,
            energy_forecast="noisy-oracle",
            load_forecast="noisy-oracle",
        )
        forecast = harness.run("forecast")
        oracle = harness.run("oracle")
        assert forecast.cost_usd == pytest.approx(oracle.cost_usd, rel=1e-9)
        assert regret(forecast, oracle)["cost_usd"] == pytest.approx(0.0, abs=1e-6)

    def test_incremental_dispatch_counters(self):
        outcome = _setup(steps=20).run("forecast")
        assert outcome.stats["cold_loads"] == 1
        assert outcome.stats["slides"] == 19
        assert outcome.stats["lp_solves"] == 20

    def test_energy_conservation_bounds(self):
        outcome = _setup(steps=24).run("oracle")
        assert outcome.brown_kwh >= 0.0
        assert outcome.green_kwh >= 0.0
        assert 0.0 <= outcome.green_fraction <= 1.0

    def test_reforecast_cadence_changes_behaviour(self):
        hourly = _setup(forecast_error=0.3, energy_forecast="noisy-oracle",
                        load_forecast="noisy-oracle").run("forecast")
        stale = _setup(forecast_error=0.3, energy_forecast="noisy-oracle",
                       load_forecast="noisy-oracle", reforecast_every=6).run("forecast")
        # Same trace, same noise streams — only the cadence differs, and the
        # oracle is unaffected by it.
        assert hourly.cost_usd != stale.cost_usd

    def test_record_is_json_ready(self):
        outcome = _setup(steps=12).run("forecast")
        record = outcome.to_record()
        parsed = json.loads(json.dumps(record))
        assert parsed["policy"] == "forecast"
        assert parsed["lp_solves"] == 12
        assert set(parsed["site_brown_kwh"]) == {"alpha", "beta", "gamma"}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            _setup(steps=4).run("psychic")

    def test_trace_must_cover_replay(self):
        config = OperateConfig(steps=100, horizon_hours=8)
        trace = TrafficModel(seed=1).synthesize(20, total_capacity_kw=1000.0)
        hours = np.arange(20, dtype=float)
        site = SiteAsset(
            name="a", capacity_kw=1000.0, battery_kwh=0.0,
            energy_price_per_kwh=0.1, pue=np.full(20, 1.2),
            production_kw=np.zeros(20),
        )
        with pytest.raises(ValueError):
            ReplayHarness([site], trace, config, total_capacity_kw=1000.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OperateConfig(steps=0)
        with pytest.raises(ValueError):
            OperateConfig(reforecast_every=0)
        with pytest.raises(ValueError):
            OperateConfig(forecast_error=-0.1)
        with pytest.raises(ValueError):
            OperateConfig(horizon_hours=1)
