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
    CoreResult,
    PayoffAllocation,
    PropertyReport,
    allocate,
    contract_mismatch_counterexample,
    marginal_price,
    run_property_checks,
)
from .contracts import (
    critical_quantile,
    error_spread,
    optimal_contracts,
)
from .equilibrium import (
    CompetitiveEquilibrium,
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
    aggregator_payoff,
    approx_equal,
    coalition_value,
    excess_profit,
    separate_payoff,
    separate_payoffs,
    settle,
)
from .simulator import (
    GenerationSeries,
    SimulationReport,
    TimeseriesFormatError,
    emit_report,
    load_prices,
    load_timeseries,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "CoreResult",
    "PayoffAllocation",
    "PropertyReport",
    "allocate",
    "contract_mismatch_counterexample",
    "marginal_price",
    "run_property_checks",
    "critical_quantile",
    "error_spread",
    "optimal_contracts",
    "CompetitiveEquilibrium",
    "ResponseInterval",
    "best_response_set",
    "optimal_redistribution",
    "solve_competitive_equilibrium",
    "verify_game_equivalence",
    "DEFAULT_TOLERANCE",
    "PriceTriple",
    "ScenarioSnapshot",
    "aggregator_payoff",
    "approx_equal",
    "coalition_value",
    "excess_profit",
    "separate_payoff",
    "separate_payoffs",
    "settle",
    "GenerationSeries",
    "SimulationReport",
    "TimeseriesFormatError",
    "emit_report",
    "load_prices",
    "load_timeseries",
    "run_simulation",
    "__version__",
]
