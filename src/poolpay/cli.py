"""Command-line front end.

Subcommands: simulate (hourly run over a CSV series), allocate (one-shot
split of a single snapshot), check-core (audit an external payoff vector),
equilibrium (clearing price, reallocation, and payoffs for one snapshot),
contract (news-vendor contract for one producer).

Exit codes: 0 success, 1 input error, 2 property violation detected,
3 internal error.
"""
from __future__ import annotations

import argparse
import math
import sys
import traceback

from .allocation import PamConfig, allocate, run_property_checks
from .contracts import GenerationDistribution, critical_quantile, optimal_contract
from .equilibrium import solve_competitive_equilibrium
from .market import PriceTriple, approx_equal
from .simulator import (
    SimulationConfig,
    TimeseriesFormatError,
    emit_report,
    load_contract_schedule,
    load_payoffs,
    load_prices,
    load_snapshot,
    load_timeseries,
    run_simulation,
    trace_file_names,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_INTERNAL = 3


def _parse_pstar(text: str):
    names = {"midpoint": "midpoint", "buy": "rt_buy", "sell": "rt_sell"}
    if text in names:
        return names[text]
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not 'midpoint', 'buy', 'sell', or a number"
        ) from None


def _parse_range(text: str) -> tuple[int, int]:
    try:
        start, stop = text.split(":")
        return int(start), int(stop)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a half-open hour range like 0:744"
        ) from None


def _cli_prices(args) -> PriceTriple | None:
    given = [v is not None for v in (args.pf, args.prb, args.prs)]
    if not any(given):
        return None
    if not all(given):
        raise TimeseriesFormatError("--pf, --prb, and --prs must be given together")
    return PriceTriple(day_ahead=args.pf, rt_buy=args.prb, rt_sell=args.prs)


def _add_price_flags(parser, required=False):
    parser.add_argument("--pf", type=float, default=None, required=required,
                        help="day-ahead price (currency/MWh)")
    parser.add_argument("--prb", type=float, default=None, required=required,
                        help="real-time buying price")
    parser.add_argument("--prs", type=float, default=None, required=required,
                        help="real-time selling price (may be negative)")


def _cmd_simulate(args) -> int:
    data = load_timeseries(args.data)
    trace_file_names(data.producer_ids)  # a file-name clash fails before the run, not after
    if args.prices is not None:
        price_source = load_prices(args.prices)
    else:
        constant = _cli_prices(args)
        if constant is None:
            raise TimeseriesFormatError("either --prices or --pf/--prb/--prs is required")
        price_source = constant
    config = SimulationConfig(
        price_source=price_source,
        train_range=args.train,
        sim_range=args.sim,
        pam=PamConfig(balance_price_rule=args.pstar),
        contract_schedule=(
            None if args.contracts is None
            else load_contract_schedule(args.contracts, data)
        ),
        check_core=args.check_core,
    )
    report = run_simulation(config, data)
    files = emit_report(report, args.out)
    print(f"simulated {report.n_hours} hours x {len(report.producer_ids)} producers")
    print(f"total pooled payoff   : {report.grand_total_pooled:.6f}")
    print(f"total separate payoff : {report.grand_total_separate:.6f}")
    print(f"total pooling gain    : {report.total_excess_profit:.6f}")
    violations = sum(report.violation_counts.values())
    for name, count in report.violation_counts.items():
        print(f"violations[{name}]: {count}")
    for path in files:
        print(f"wrote {path}")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_allocate(args) -> int:
    snapshot = load_snapshot(args.snapshot, _cli_prices(args))
    alloc = allocate(snapshot, PamConfig(balance_price_rule=args.pstar))
    print("producer_id,payoff")
    for producer, payoff in zip(snapshot.producer_ids, alloc.payoffs):
        print(f"{producer},{float(payoff)!r}")
    print(f"# aggregator_total={float(alloc.aggregator_total)!r}")
    print(f"# marginal_price_used={float(alloc.marginal_price_used)!r}")
    return EXIT_OK


def _cmd_check_core(args) -> int:
    snapshot = load_snapshot(args.snapshot, _cli_prices(args))
    alloc = load_payoffs(args.payoffs, snapshot)
    report = run_property_checks(alloc, snapshot)
    print(f"budget_balance        : {report.budget_balance} (residual {report.budget_residual!r})")
    print(f"individual_rationality: {report.individual_rationality} "
          f"(worst margin {report.ir_worst_margin!r})")
    print(f"fairness              : {report.fairness}")
    print(f"no_exploitation       : {report.no_exploitation}")
    print(f"in_core               : {report.in_core} "
          f"(worst violation {report.core_worst_violation!r}, "
          f"coalition {report.core_worst_coalition})")
    return EXIT_OK if report.all_pass else EXIT_VIOLATION


def _cmd_equilibrium(args) -> int:
    snapshot = load_snapshot(args.snapshot, _cli_prices(args))
    config = PamConfig(balance_price_rule=args.pstar)
    ce = solve_competitive_equilibrium(snapshot, config)
    pam = allocate(snapshot, config)
    print(f"clearing_price: {float(ce.price)!r}")
    print("producer_id,holding_mwh,payoff")
    for k, producer in enumerate(snapshot.producer_ids):
        print(f"{producer},{float(ce.redistribution.quantities[k])!r},{float(ce.payoffs[k])!r}")
    matches = all(
        approx_equal(a, b) for a, b in zip(ce.payoffs, pam.payoffs)
    )
    print(f"# matches_marginal_price_allocation={matches}")
    return EXIT_OK if matches else EXIT_VIOLATION


def _cmd_contract(args) -> int:
    prices = PriceTriple(day_ahead=args.pf, rt_buy=args.prb, rt_sell=args.prs)
    if not math.isfinite(args.mean):
        raise ValueError(f"--mean must be finite, got {args.mean}")
    if not args.std >= 0.0:
        raise ValueError(f"--std must be >= 0, got {args.std}")
    if not args.cap >= 0.0:
        raise ValueError(f"--cap must be >= 0, got {args.cap}")
    dist = GenerationDistribution(mean=args.mean, std_dev=args.std, upper_bound=args.cap)
    contract = optimal_contract(dist, prices)
    print(f"critical_quantile: {critical_quantile(prices)!r}")
    print(f"optimal_contract_mwh: {contract!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolpay",
        description="Pooled settlement, payoff allocation, and audits for "
                    "renewable producers in a two-settlement market.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="hourly simulation over a CSV series")
    sim.add_argument("--data", required=True, help="generation CSV (hour,producer_id,forecast_mwh,actual_mwh)")
    sim.add_argument("--prices", default=None, help="per-hour price CSV (hour,p_f,p_rb,p_rs)")
    _add_price_flags(sim)
    sim.add_argument("--train", type=_parse_range, required=True,
                     help="training hours as half-open positions, e.g. 0:744")
    sim.add_argument("--sim", type=_parse_range, required=True,
                     help="simulated hours as half-open positions, e.g. 744:1416")
    sim.add_argument("--pstar", type=_parse_pstar, default="midpoint",
                     help="balanced-pool marginal price: midpoint|buy|sell|<value>")
    sim.add_argument("--check-core", action="store_true",
                     help="audit core membership every hour")
    sim.add_argument("--contracts", default=None,
                     help="optional contract CSV (hour,producer_id,contract_mwh) "
                          "instead of news-vendor sizing")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    alloc = sub.add_parser("allocate", help="split one snapshot's pool payoff")
    alloc.add_argument("--snapshot", required=True,
                       help="CSV producer_id,contract_mwh,actual_mwh[,p_f,p_rb,p_rs]")
    _add_price_flags(alloc)
    alloc.add_argument("--pstar", type=_parse_pstar, default="midpoint")
    alloc.set_defaults(func=_cmd_allocate)

    core = sub.add_parser("check-core", help="audit an external payoff vector")
    core.add_argument("--snapshot", required=True)
    core.add_argument("--payoffs", required=True, help="CSV producer_id,payoff")
    _add_price_flags(core)
    core.set_defaults(func=_cmd_check_core)

    eq = sub.add_parser("equilibrium", help="clearing price and payoffs for one snapshot")
    eq.add_argument("--snapshot", required=True)
    _add_price_flags(eq)
    eq.add_argument("--pstar", type=_parse_pstar, default="midpoint")
    eq.set_defaults(func=_cmd_equilibrium)

    contract = sub.add_parser("contract", help="news-vendor contract for one producer")
    contract.add_argument("--mean", type=float, required=True)
    contract.add_argument("--std", type=float, required=True)
    contract.add_argument("--cap", type=float, default=float("inf"),
                          help="capacity upper bound (required when the critical quantile is 1)")
    _add_price_flags(contract, required=True)
    contract.set_defaults(func=_cmd_contract)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; map onto our input-error code
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (TimeseriesFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
