"""Online operations subsystem: rolling-horizon, forecast-driven dispatch.

The siting study answers *where to build*; this package answers *how to run
it*: a traffic layer synthesizing request-level demand from regional user
populations (:mod:`repro.operator.traffic`), pluggable energy/load
forecasters with deterministic noise (:mod:`repro.operator.forecast`), a
dispatch core that re-solves a sliding-window LP from one compiled window
template on one persistent, warm-started HiGHS model
(:mod:`repro.operator.dispatch`), a replay
harness comparing oracle and forecast-driven policies over the same trace
(:mod:`repro.operator.replay`), and a pure-numpy greedy dispatcher that
keeps replays alive — flagged degraded — when the LP solver is entirely
down (:mod:`repro.operator.failover`).

Scenario integration: the ``operate`` workflow of
:class:`~repro.scenarios.spec.ScenarioSpec` provisions a plan with the
heuristic solver and hands it to :func:`~repro.operator.replay.operate_plan`;
``repro operate --scenario operate-fig06`` runs it from the CLI.
"""

from repro.operator.dispatch import (
    DispatchConfig,
    DispatchDecision,
    DispatchError,
    RollingDispatcher,
    SiteAsset,
)
from repro.operator.failover import GreedyFallbackDispatcher
from repro.operator.faults import (
    DemandSurge,
    FaultSpec,
    ForecastBlackout,
    SiteOutage,
    SolverOutage,
    WanDegradation,
)
from repro.operator.forecast import (
    FORECASTER_KINDS,
    Forecaster,
    NoisyOracleForecaster,
    OracleForecaster,
    PersistenceForecaster,
    RollingForecast,
    SeasonalNaiveForecaster,
    deterministic_noise,
    make_forecaster,
)
from repro.operator.replay import (
    POLICIES,
    OperateConfig,
    ReplayHarness,
    ReplayResult,
    fragility,
    operate_plan,
    regret,
    sites_from_plan,
    survivability_study,
)
from repro.operator.traffic import (
    Region,
    TrafficEvent,
    TrafficModel,
    TrafficTrace,
    default_regions,
)

__all__ = [
    "DemandSurge",
    "DispatchConfig",
    "DispatchDecision",
    "DispatchError",
    "FORECASTER_KINDS",
    "FaultSpec",
    "Forecaster",
    "ForecastBlackout",
    "GreedyFallbackDispatcher",
    "NoisyOracleForecaster",
    "OperateConfig",
    "OracleForecaster",
    "POLICIES",
    "PersistenceForecaster",
    "Region",
    "ReplayHarness",
    "ReplayResult",
    "RollingDispatcher",
    "RollingForecast",
    "SeasonalNaiveForecaster",
    "SiteAsset",
    "SiteOutage",
    "SolverOutage",
    "TrafficEvent",
    "TrafficModel",
    "TrafficTrace",
    "WanDegradation",
    "default_regions",
    "deterministic_noise",
    "fragility",
    "make_forecaster",
    "operate_plan",
    "regret",
    "sites_from_plan",
    "survivability_study",
]
