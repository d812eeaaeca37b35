"""Aggregative-game demand-side management simulator: equilibrium seeking via
a central proximal-point iteration, synchronous consensus, and asynchronous
gossip, with billing fairness and peak-shaving analysis tools."""

from .algorithms import (
    RunTrace,
    Scenario,
    SolveResult,
    fixed_point_residual,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
)
from .feasible import ConsumerSpec, is_feasible, project, sample_feasible
from .model import (
    Certificate,
    PriceCurve,
    aggregate,
    grid_cost,
    monotonicity_certificate,
    par,
    uniqueness_certificate,
)
from .network import (
    CommGraph,
    GossipEvent,
    build_weights,
    generate_topology,
    gossip_stream,
    load_edge_list,
)
from .oracle import (
    ConvergenceError,
    FairnessReport,
    best_response,
    fairness_comparison,
    nash_best_response_iteration,
    social_welfare_optimum,
)
from .scenario import ScenarioFormatError, generate, load_scenario, save_scenario

__version__ = "0.1.0"
