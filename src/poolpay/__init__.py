"""Pooled settlement and stable payoff allocation for renewable producers.

A pool of producers commits the sum of its members' day-ahead contracts,
settles the joint deviation in real time, and splits the proceeds with a
marginal-price rule that no member or coalition can beat by leaving. The
package bundles the market primitives, the allocation mechanism and its
five-property audit suite, the equivalent exchange-market view with its
competitive-equilibrium solver, news-vendor contract sizing, and an hourly
simulation driver with a CLI.
"""
from .allocation import (
    ConfigurationError,
    CoreResult,
    PamConfig,
    PayoffAllocation,
    PropertyReport,
    allocate,
    check_budget_balance,
    check_core_membership,
    check_fairness,
    check_individual_rationality,
    check_no_exploitation,
    contract_mismatch_counterexample,
    run_property_checks,
)
from .contracts import (
    GenerationDistribution,
    critical_quantile,
    error_spread,
    expected_separate_payoff,
    optimal_contract,
    optimal_contracts,
)
from .equilibrium import (
    CompetitiveEquilibrium,
    ProductionFunction,
    Redistribution,
    ResponseInterval,
    best_response_set,
    optimal_redistribution,
    solve_competitive_equilibrium,
    verify_game_equivalence,
)
from .market import (
    DEFAULT_TOLERANCE,
    PriceTriple,
    ScenarioSnapshot,
    SurplusPartition,
    aggregator_payoff,
    approx_equal,
    coalition_value,
    excess_profit,
    partition_surplus_shortfall,
    separate_payoff,
    separate_payoffs,
    settle,
)
from .simulator import (
    GenerationSeries,
    SimulationConfig,
    SimulationReport,
    TimeseriesFormatError,
    emit_report,
    load_prices,
    load_timeseries,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "CoreResult",
    "PamConfig",
    "PayoffAllocation",
    "PropertyReport",
    "allocate",
    "check_budget_balance",
    "check_core_membership",
    "check_fairness",
    "check_individual_rationality",
    "check_no_exploitation",
    "contract_mismatch_counterexample",
    "run_property_checks",
    "GenerationDistribution",
    "critical_quantile",
    "error_spread",
    "expected_separate_payoff",
    "optimal_contract",
    "optimal_contracts",
    "CompetitiveEquilibrium",
    "ProductionFunction",
    "Redistribution",
    "ResponseInterval",
    "best_response_set",
    "optimal_redistribution",
    "solve_competitive_equilibrium",
    "verify_game_equivalence",
    "DEFAULT_TOLERANCE",
    "PriceTriple",
    "ScenarioSnapshot",
    "SurplusPartition",
    "aggregator_payoff",
    "approx_equal",
    "coalition_value",
    "excess_profit",
    "partition_surplus_shortfall",
    "separate_payoff",
    "separate_payoffs",
    "settle",
    "GenerationSeries",
    "SimulationConfig",
    "SimulationReport",
    "TimeseriesFormatError",
    "emit_report",
    "load_prices",
    "load_timeseries",
    "run_simulation",
    "__version__",
]
