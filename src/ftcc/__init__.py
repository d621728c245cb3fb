"""Distributed estimation and control of a jointly observable/controllable
LTI system over a strongly connected digraph, with finite-time exact average
consensus between estimation steps and token-passing gain design."""

from .consensus import (
    AverageResult,
    diameter_upper_bound,
    elect_leader,
    exact_average_fixed_rounds,
    finite_time_average,
    m_bar,
)
from .gains import (
    PlacementTargets,
    TokenResult,
    place_for_agent,
    place_single,
    run_token_protocol,
)
from .graph import Digraph, is_strongly_connected, out_weight_matrix
from .linalg import EigenPair, eigen_left, is_schur_stable, numerical_rank
from .plant import LtiSystem, joint_rank_checks, local_indices
from .runtime import ClosedLoopTrace, InitializationResult, initialize, run_closed_loop
from .scenario import ScenarioConfig, load_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "AverageResult",
    "ClosedLoopTrace",
    "Digraph",
    "EigenPair",
    "InitializationResult",
    "LtiSystem",
    "PlacementTargets",
    "ScenarioConfig",
    "TokenResult",
    "diameter_upper_bound",
    "eigen_left",
    "elect_leader",
    "exact_average_fixed_rounds",
    "finite_time_average",
    "initialize",
    "is_schur_stable",
    "is_strongly_connected",
    "joint_rank_checks",
    "load_scenario",
    "local_indices",
    "m_bar",
    "numerical_rank",
    "out_weight_matrix",
    "place_for_agent",
    "place_single",
    "run_closed_loop",
    "run_token_protocol",
    "save_scenario",
]
