"""The paper's primary contribution: siting and provisioning green datacenters.

``repro.core`` implements the cost-driven placement framework of Sections II
and III of the paper:

* :class:`FrameworkParameters` — every parameter of Table I with the paper's
  default instantiation,
* :class:`CostModel` / :class:`FinancingModel` — CAPEX/OPEX accounting with
  per-component financing and amortisation,
* availability modelling for networks of Tier I-IV datacenters,
* :class:`SitingProblem` and the Fig. 1 optimisation, available both as a
  full MILP (:mod:`repro.core.formulation`) and as the fixed-siting LP used by
  the heuristic (:mod:`repro.core.provisioning`),
* :class:`HeuristicSolver` — location filtering plus the simulated-annealing
  search over sitings described in Section II-C, and
* :class:`PlacementTool` — the high-level tool of Section III that produces a
  :class:`NetworkPlan` from a catalogue, a capacity target and a desired green
  percentage.
"""

from repro.core.availability import Tier, datacenters_needed, network_availability
from repro.core.costs import CostModel, FinancingModel
from repro.core.parameters import FrameworkParameters
from repro.core.problem import EnergySources, GreenEnforcement, SitingProblem, StorageMode
from repro.core.provisioning import (
    ProvisioningCompiler,
    ProvisioningResult,
    solve_provisioning,
)
from repro.core.adaptive_grid import AdaptiveGridRefiner, coarsen_problem
from repro.core.formulation import FullMilp, build_full_milp, solve_full_milp
from repro.core.heuristic import HeuristicSolver, SearchSettings
from repro.core.single_site import SingleSiteAnalyzer, SingleSiteCost
from repro.core.solution import DatacenterPlan, NetworkPlan
from repro.core.tool import PlacementTool

__all__ = [
    "AdaptiveGridRefiner",
    "CostModel",
    "DatacenterPlan",
    "EnergySources",
    "FinancingModel",
    "FrameworkParameters",
    "FullMilp",
    "GreenEnforcement",
    "HeuristicSolver",
    "NetworkPlan",
    "PlacementTool",
    "ProvisioningCompiler",
    "ProvisioningResult",
    "SearchSettings",
    "SingleSiteAnalyzer",
    "SingleSiteCost",
    "SitingProblem",
    "StorageMode",
    "Tier",
    "build_full_milp",
    "coarsen_problem",
    "datacenters_needed",
    "network_availability",
    "solve_full_milp",
    "solve_provisioning",
]
