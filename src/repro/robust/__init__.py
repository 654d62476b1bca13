"""Robustness layer: plan against ensembles instead of one synthetic year.

Every paper figure optimizes against exactly one weather/demand trace.  This
package quantifies (and optionally hardens against) that fragility:

* :mod:`repro.robust.ensemble` draws weather-year and demand ensembles from
  the same counter-based deterministic noise streams the operator's
  forecasters use, so a ``(seed, draw)`` pair names one off-nominal year
  reproducibly across executors and processes.
* :mod:`repro.robust.stochastic` builds the scenario-based stochastic LP —
  sizing columns shared across draws, epoch blocks replicated per draw, an
  SLA-priced unserved-demand recourse per draw — plus the cheaper
  sample-average-approximation (SAA) evaluation path, and reports expected
  cost, CVaR@α and the regret of the deterministic plan under off-nominal
  years.
* :mod:`repro.robust.contingency` applies the N-1 criterion: one shared
  sizing whose unserved energy stays within a ``survivability_epsilon``
  budget under every single-site outage, with a warm-started case-by-case
  evaluation of fixed sizings and a criticality-ranked contingency report.

Scenario integration: a non-empty ``ensemble`` block on a
:class:`~repro.scenarios.spec.ScenarioSpec` makes the experiment runner
attach an ensemble report to every plan/operate record; a non-empty
``contingency`` block attaches the N-1 report (and, on operate runs, a
replay-level survivability study); ``repro stress`` runs both from the CLI.
"""

from repro.robust.contingency import (
    ContingencyConfig,
    ContingencySolution,
    contingency_report,
    evaluate_contingencies,
    plan_with_sizing,
    solve_contingency_lp,
)
from repro.robust.ensemble import (
    EnsembleConfig,
    cvar,
    demand_factor,
    perturbed_problem,
    weather_factors,
)
from repro.robust.stochastic import (
    StochasticSolution,
    ensemble_report,
    solve_ensemble_lp,
)

__all__ = [
    "ContingencyConfig",
    "ContingencySolution",
    "EnsembleConfig",
    "StochasticSolution",
    "contingency_report",
    "cvar",
    "demand_factor",
    "ensemble_report",
    "evaluate_contingencies",
    "perturbed_problem",
    "plan_with_sizing",
    "solve_contingency_lp",
    "solve_ensemble_lp",
    "weather_factors",
]
