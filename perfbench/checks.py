"""Output checks for the settlement benchmark.

Nothing here imports poolpay: every expected value is recomputed from the
benchmark's own inputs with its own formulas, so a defect in the library
cannot hide behind a shared helper. Equality follows the library's
documented rule, |a - b| <= 1e-9 * max(1, |a|, |b|).
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

from scipy.stats import truncnorm

TOL = 1e-9

HOURLY_COLUMNS = (
    "hour",
    "producer_id",
    "contract_mwh",
    "actual_mwh",
    "payoff_pooled",
    "payoff_separate",
    "aggregator_payoff",
    "excess_profit",
    "all_properties_pass",
)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def at_least(a: float, b: float) -> bool:
    return a >= b - TOL * max(1.0, abs(a), abs(b))


def settle(prices, contract: float, actual: float) -> float:
    """Two-settlement payoff of one seller: forward revenue, shortfall bought
    back at the buying price, surplus sold at the selling price."""
    day_ahead, rt_buy, rt_sell = prices
    return (
        day_ahead * contract
        - rt_buy * max(contract - actual, 0.0)
        + rt_sell * max(actual - contract, 0.0)
    )


def check_settlement(prices, contracts, actuals, pooled, separate, aggregator, excess) -> list[str]:
    """Problems with one settled hour or snapshot; empty when it is correct.

    Checks that the pooled payoffs sum to the pool's own settlement, that
    every producer gets at least its stand-alone settlement, and that the
    reported excess profit is the pooled minus the separate total.
    """
    problems = []
    mine = [settle(prices, c, x) for c, x in zip(contracts, actuals)]
    pool = settle(prices, math.fsum(contracts), math.fsum(actuals))
    pooled_total = math.fsum(pooled)
    if not close(pooled_total, pool):
        problems.append(f"pooled payoffs sum to {pooled_total!r}, pool settles {pool!r}")
    if not close(aggregator, pool):
        problems.append(f"aggregator payoff {aggregator!r} != pool settlement {pool!r}")
    for i, (p, s, m) in enumerate(zip(pooled, separate, mine)):
        if not close(s, m):
            problems.append(f"producer {i}: separate payoff {s!r} != {m!r}")
        if not at_least(p, m):
            problems.append(f"producer {i}: pooled payoff {p!r} below separate {m!r}")
    if not close(excess, pooled_total - math.fsum(mine)):
        problems.append(f"excess profit {excess!r} != pooled minus separate total")
    return problems


def newsvendor_contract(forecast: float, train_errors, prices) -> float:
    """Expected-payoff-maximising contract: the critical quantile of a normal
    centred on the forecast, truncated at zero, with the sample standard
    deviation of the training errors as its spread."""
    day_ahead, rt_buy, rt_sell = prices
    q = min(1.0, max(0.0, (day_ahead - rt_sell) / (rt_buy - rt_sell)))
    errors = list(train_errors)
    mean = math.fsum(errors) / len(errors)
    std = math.sqrt(math.fsum((e - mean) ** 2 for e in errors) / (len(errors) - 1))
    value = truncnorm.ppf(q, -forecast / std, math.inf, loc=forecast, scale=std)
    return max(0.0, float(value))


def _read_csv(path: Path, required) -> tuple[dict, list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = {name: i for i, name in enumerate(rows[0])}
    missing = [name for name in required if name not in column]
    if missing:
        raise ValueError(f"{path.name}: missing columns {missing}")
    return column, rows[1:]


def check_report(out_dir: Path, expected) -> tuple[dict, list[str]]:
    """Check hourly.csv and summary.csv of one simulate run.

    ``expected`` describes the inputs (see ``workloads.SimInputs``). Returns
    ``(problems by hour label, whole-run problems)``. A whole-run problem,
    such as a summary that disagrees with the hourly rows, fails every hour.
    """
    by_hour: dict[str, list[str]] = {}
    run_problems: list[str] = []
    column, rows = _read_csv(out_dir / "hourly.csv", HOURLY_COLUMNS)
    col = [column[name] for name in HOURLY_COLUMNS]
    grouped: dict[str, list[list[str]]] = {}
    for row in rows:
        grouped.setdefault(row[col[0]], []).append(row)

    labels = expected.hour_labels
    if list(grouped) != labels:
        run_problems.append(f"hourly.csv covers hours {list(grouped)[:5]}..., expected {labels[:5]}...")
    sample = expected.contract_sample
    per_producer_pooled = [[] for _ in expected.ids]
    per_producer_separate = [[] for _ in expected.ids]
    for h, label in enumerate(labels):
        hour_rows = grouped.get(label, [])
        problems = by_hour.setdefault(label, [])
        if [r[col[1]] for r in hour_rows] != expected.ids:
            problems.append("producer rows differ from the input producers")
            continue
        contracts = [float(r[col[2]]) for r in hour_rows]
        actuals = [float(r[col[3]]) for r in hour_rows]
        pooled = [float(r[col[4]]) for r in hour_rows]
        separate = [float(r[col[5]]) for r in hour_rows]
        aggregators = {r[col[6]] for r in hour_rows}
        excesses = {r[col[7]] for r in hour_rows}
        if len(aggregators) != 1 or len(excesses) != 1:
            problems.append("aggregator payoff or excess profit differs between rows of one hour")
            continue
        if actuals != expected.sim_actuals(h):
            problems.append("actual_mwh differs from the input series")
        scheduled = expected.scheduled_contracts(h)
        if scheduled is not None and contracts != scheduled:
            problems.append("contract_mwh differs from the contract schedule")
        if any(r[col[8]] != "True" for r in hour_rows):
            problems.append("the library's own audit flagged a property violation")
        prices = expected.sim_prices(h)
        problems += check_settlement(
            prices, contracts, actuals, pooled, separate,
            float(aggregators.pop()), float(excesses.pop()),
        )
        for p in sample.get(h, ()):
            want = newsvendor_contract(
                expected.sim_forecast(h, p), expected.train_errors(p), prices
            )
            if not close(contracts[p], want):
                problems.append(f"producer {p}: contract {contracts[p]!r} != news-vendor {want!r}")
        for p in range(len(expected.ids)):
            per_producer_pooled[p].append(pooled[p])
            per_producer_separate[p].append(separate[p])

    column, rows = _read_csv(
        out_dir / "summary.csv", ("producer_id", "total_payoff_pooled", "total_payoff_separate")
    )
    totals = {
        r[column["producer_id"]]: (
            float(r[column["total_payoff_pooled"]]),
            float(r[column["total_payoff_separate"]]),
        )
        for r in rows
    }
    if set(totals) != set(expected.ids) | {"TOTAL"}:
        run_problems.append("summary.csv rows differ from the input producers plus TOTAL")
    else:
        for p, producer in enumerate(expected.ids):
            if not (
                close(totals[producer][0], math.fsum(per_producer_pooled[p]))
                and close(totals[producer][1], math.fsum(per_producer_separate[p]))
            ):
                run_problems.append(f"summary.csv totals of {producer} differ from hourly.csv")
        grand_pooled = math.fsum(v for values in per_producer_pooled for v in values)
        grand_separate = math.fsum(v for values in per_producer_separate for v in values)
        if not (close(totals["TOTAL"][0], grand_pooled) and close(totals["TOTAL"][1], grand_separate)):
            run_problems.append("summary.csv TOTAL differs from the re-summed hourly rows")
    return {label: p for label, p in by_hour.items() if p}, run_problems


def check_snapshot(inputs, result) -> list[str]:
    """Problems with one one-shot snapshot; empty when it is correct.

    ``result`` is (allocate payoffs, aggregator total, CE payoffs, separate
    payoffs, excess profit, audit passed, in core).
    """
    prices, contracts, actuals = inputs
    pooled, aggregator, ce_payoffs, separate, excess, all_pass, in_core = result
    problems = check_settlement(prices, contracts, actuals, pooled, separate, aggregator, excess)
    if len(ce_payoffs) != len(pooled) or not all(map(close, ce_payoffs, pooled)):
        problems.append("competitive-equilibrium payoffs differ from the allocation")
    if not all_pass or in_core is not True:
        problems.append("the library's own audit flagged a property violation")
    return problems
