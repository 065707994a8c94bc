"""Threshold equilibria for observable queues with state-dependent service rates."""

from .model import (
    EconomicParams,
    InstanceError,
    JoinStrategy,
    ServiceRatePolicy,
    load_instance,
    parse_instance,
    strategy_from_x,
)
from .delay import DelayTable, solve_delay_table
from .equilibrium import (
    CandidateDiagnostic,
    EquilibriumReport,
    find_equilibria,
    sweep_mixed,
)
from .sim import CouplingOutcome, SimConfig, SojournEstimate, run_coupling, simulate_sojourn

__all__ = [
    "EconomicParams",
    "InstanceError",
    "JoinStrategy",
    "ServiceRatePolicy",
    "load_instance",
    "parse_instance",
    "strategy_from_x",
    "DelayTable",
    "solve_delay_table",
    "CandidateDiagnostic",
    "EquilibriumReport",
    "find_equilibria",
    "sweep_mixed",
    "CouplingOutcome",
    "SimConfig",
    "SojournEstimate",
    "run_coupling",
    "simulate_sojourn",
]
