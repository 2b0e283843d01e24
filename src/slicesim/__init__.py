"""Online network-slice placement: simulator, heuristic, and learners.

The package models a three-tier substrate (edge, core, and central data
centers), generates non-stationary slice-request traffic, places request
chains VNF by VNF under cpu/ram/bandwidth constraints, and trains
actor-critic agents (optionally heuristic-assisted) on the resulting
accept/reject episodes.
"""

from .agent import Agent, AgentConfig, VARIANTS, uses_heuristic, uses_load
from .errors import (AccountingError, CapacityError, CheckpointError,
                     ConfigurationError, InvariantError, ScenarioError,
                     SliceSimError)
from .heuristic import HeuristicAdvice, heu_place_full, heu_select
from .metrics import (AcceptanceRecord, gar, gar_series, phase_reaching,
                      phase_table, plot_data, write_phase_csv,
                      write_plot_json, write_records_csv)
from .placement import (PlacementEpisodeState, PlacementOutcome, apply_action,
                        episode_reward, fail_step, rollback, route,
                        route_all, run_steps)
from .scenario import (TOOL_VERSION, RunManifest, Scenario, load_scenario,
                       parse_scenario)
from .simulation import AgentPolicy, HeuristicPolicy, Simulation
from .substrate import (PROFILES, NodeKind, ResourceDelta, SubstrateLink,
                        SubstrateNetwork, SubstrateNode, TopologyCounts,
                        build_reference_topology)
from .traffic import (Departure, DynamicArrival, EventStream, LoadModel,
                      SliceClass, SliceRequest, StaticArrival, arrival_rate,
                      class_rng, export_events, generate_events, load_events,
                      request_from_class, sample_arrivals)

__version__ = TOOL_VERSION

__all__ = [
    "Agent", "AgentConfig", "VARIANTS",
    "uses_heuristic", "uses_load",
    "AccountingError", "CapacityError", "CheckpointError",
    "ConfigurationError", "InvariantError", "ScenarioError", "SliceSimError",
    "HeuristicAdvice", "heu_place_full", "heu_select",
    "AcceptanceRecord", "gar", "gar_series", "phase_reaching",
    "phase_table", "plot_data",
    "write_phase_csv", "write_plot_json", "write_records_csv",
    "PlacementEpisodeState", "PlacementOutcome", "apply_action",
    "episode_reward", "fail_step", "rollback", "route", "route_all",
    "run_steps",
    "RunManifest", "Scenario", "load_scenario", "parse_scenario",
    "AgentPolicy", "HeuristicPolicy", "Simulation",
    "PROFILES", "NodeKind", "ResourceDelta", "SubstrateLink",
    "SubstrateNetwork", "SubstrateNode", "TopologyCounts",
    "build_reference_topology",
    "Departure", "DynamicArrival", "EventStream", "LoadModel", "SliceClass",
    "SliceRequest", "StaticArrival", "arrival_rate", "class_rng",
    "export_events", "generate_events", "load_events",
    "request_from_class", "sample_arrivals",
    "__version__",
]
