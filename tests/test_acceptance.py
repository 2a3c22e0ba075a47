"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""
import csv
import math
import time

import numpy as np
import pytest

from poolpay import (
    DEFAULT_TOLERANCE,
    PriceTriple,
    ScenarioSnapshot,
    aggregator_payoff,
    allocate,
    best_response_set,
    coalition_value,
    contract_mismatch_counterexample,
    load_timeseries,
    optimal_contracts,
    optimal_redistribution,
    run_property_checks,
    run_simulation,
    separate_payoff,
    separate_payoffs,
    solve_competitive_equilibrium,
)
from poolpay.cli import EXIT_OK, main
from poolpay.simulator import GenerationSeries

from oracles import mc_payoff_curve, truncated_normal

RELATIVE_TOL = 1e-9
SEED = 20260810


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{status}] {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def draw_snapshot(rng, n=None):
    n = int(rng.integers(1, 11)) if n is None else n
    contracts = rng.uniform(0.0, 200.0, n)
    realizations = rng.uniform(0.0, 200.0, n)
    rt_sell = float(rng.uniform(-10.0, 10.0))
    prices = PriceTriple(
        day_ahead=float(rng.uniform(0.0, 25.0)),
        rt_buy=rt_sell + float(rng.uniform(0.0, 25.0)),
        rt_sell=rt_sell,
    )
    return ScenarioSnapshot.from_arrays(contracts, realizations, prices)


@pytest.fixture(scope="module")
def snapshot_batch():
    rng = np.random.default_rng(SEED)
    return [draw_snapshot(rng) for _ in range(10_000)]


def test_criterion_1_five_property_suite(snapshot_batch):
    """All five properties hold on 10,000 random snapshots, with exhaustive
    core enumeration, inside the runtime budget."""
    assert DEFAULT_TOLERANCE == RELATIVE_TOL
    t0 = time.perf_counter()
    failures = 0
    for s in snapshot_batch:
        result = run_property_checks(allocate(s), s)
        if not (
            result.budget.ok
            and result.ir.ok
            and result.fairness
            and result.no_exploitation
            and result.in_core
        ):
            failures += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "five-property suite on 10,000 snapshots",
        failures == 0 and elapsed < 30.0,
        f"failures={failures}, {elapsed:.1f}s",
    )


def test_criterion_2_pooling_gain_identity(snapshot_batch):
    """Pool-minus-separate gap equals spread * min(surplus, shortfall), and
    is never negative, on the same 10,000 snapshots."""
    worst_mismatch = 0.0
    most_negative = 0.0
    for s in snapshot_batch:
        gap = aggregator_payoff(s) - float(separate_payoffs(s).sum())
        dev = s.realizations - s.contracts
        surplus, shortfall = float(dev[dev >= 0.0].sum()), float(-dev[dev < 0.0].sum())
        closed_form = s.prices.spread * min(surplus, shortfall)
        scale = max(1.0, abs(gap), abs(closed_form))
        worst_mismatch = max(worst_mismatch, abs(gap - closed_form) / scale)
        most_negative = min(most_negative, closed_form)
    ok = worst_mismatch <= RELATIVE_TOL and most_negative >= 0.0
    report(
        2,
        "pooling-gain identity on 10,000 snapshots",
        ok,
        f"worst relative mismatch {worst_mismatch:.2e}",
    )


def test_criterion_3_mismatched_commitment_impossibility():
    """For pool commitments 10% off the member sum, the constructed
    realization makes pooling strictly worse than separate settlement, by
    exactly the closed-form gap."""
    rng = np.random.default_rng(SEED + 3)
    worst_mismatch = 0.0
    all_negative = True
    for k in range(1_000):
        n = int(rng.integers(1, 11))
        contracts = rng.uniform(0.0, 200.0, n)
        total = float(contracts.sum())
        rt_sell = float(rng.uniform(-10.0, 10.0))
        spread = float(rng.uniform(1.0, 25.0))
        # day-ahead strictly inside the band so both directions are provable
        day_ahead = rt_sell + float(rng.uniform(0.05, 0.95)) * spread
        prices = PriceTriple(day_ahead, rt_sell + spread, rt_sell)
        direction = 1.0 if k % 2 == 0 else -1.0
        aggregate = total * (1.0 + 0.1 * direction)
        snapshot = contract_mismatch_counterexample(contracts, aggregate, prices)
        pool = separate_payoff(aggregate, snapshot.total_realization, prices)
        gap = pool - float(separate_payoffs(snapshot).sum())
        reference_price = prices.rt_buy if direction > 0 else prices.rt_sell
        expected = (prices.day_ahead - reference_price) * (aggregate - total)
        scale = max(1.0, abs(gap), abs(expected))
        worst_mismatch = max(worst_mismatch, abs(gap - expected) / scale)
        all_negative = all_negative and gap < 0.0
    ok = worst_mismatch <= RELATIVE_TOL and all_negative
    report(
        3,
        "mismatched-commitment counterexamples on 1,000 draws",
        ok,
        f"worst relative mismatch {worst_mismatch:.2e}",
    )


def test_criterion_4_equilibrium_reproduces_the_allocation():
    """Competitive payoffs equal the marginal-price allocation component for
    component across all three balance cases; the market clears and every
    holding is a best response."""
    rng = np.random.default_rng(SEED + 4)
    payoff_ok = clearing_ok = response_ok = True
    for k in range(10_000):
        s = draw_snapshot(rng)
        if k % 3 == 0:  # force exact total balance by rescaling realizations
            total = s.total_realization
            scaled = (
                s.contracts.copy()
                if total == 0.0
                else s.realizations * (s.total_contract / total)
            )
            s = ScenarioSnapshot.from_arrays(s.contracts, scaled, s.prices)
        ce = solve_competitive_equilibrium(s)
        pam = allocate(s)
        payoff_ok = payoff_ok and all(
            math.isclose(float(a), float(b), rel_tol=RELATIVE_TOL, abs_tol=RELATIVE_TOL)
            for a, b in zip(ce.payoffs, pam.payoffs)
        )
        clearing_ok = clearing_ok and bool(np.all(ce.holdings >= 0.0)) and math.isclose(
            float(ce.holdings.sum()), s.total_realization, rel_tol=RELATIVE_TOL, abs_tol=RELATIVE_TOL
        )
        for i in range(s.n):
            response = best_response_set(float(s.contracts[i]), s.prices, ce.price)
            if not response.contains(float(ce.holdings[i])):
                response_ok = False
    ok = payoff_ok and clearing_ok and response_ok
    report(
        4,
        "equilibrium payoffs match the allocation on 10,000 snapshots",
        ok,
        f"payoffs={payoff_ok}, clearing={clearing_ok}, best-response={response_ok}",
    )


def _settle_curve(contract, holdings, prices):
    return (
        prices.day_ahead * contract
        - prices.rt_buy * np.maximum(contract - holdings, 0.0)
        + prices.rt_sell * np.maximum(holdings - contract, 0.0)
    )


def test_criterion_5_redistribution_equals_joint_settlement():
    """The greedy reallocation earns the joint settlement value for every
    coalition; on two-member coalitions a dense grid search agrees."""
    rng = np.random.default_rng(SEED + 5)
    equivalence_ok = True
    grid_ok = True
    points = 10_000
    for _ in range(1_000):
        s = draw_snapshot(rng, n=int(rng.integers(1, 9)))
        for bitmask in range(1, 2**s.n):
            members = tuple(i for i in range(s.n) if bitmask >> i & 1)
            _, value = optimal_redistribution(s, members)
            if not math.isclose(
                value, coalition_value(s, members), rel_tol=RELATIVE_TOL, abs_tol=RELATIVE_TOL
            ):
                equivalence_ok = False
        for i in range(s.n):
            for j in range(i + 1, s.n):
                total = float(s.realizations[i] + s.realizations[j])
                z_i = np.linspace(0.0, total, points + 1)
                curve = _settle_curve(float(s.contracts[i]), z_i, s.prices) + _settle_curve(
                    float(s.contracts[j]), total - z_i, s.prices
                )
                grid_best = float(curve.max())
                _, value = optimal_redistribution(s, (i, j))
                step = total / points if total > 0.0 else 0.0
                resolution = step * (abs(s.prices.rt_buy) + abs(s.prices.rt_sell))
                low_ok = value >= grid_best - RELATIVE_TOL * max(1.0, abs(grid_best))
                high_ok = value <= grid_best + resolution + RELATIVE_TOL * max(1.0, abs(grid_best))
                if not (low_ok and high_ok):
                    grid_ok = False
    ok = equivalence_ok and grid_ok
    report(
        5,
        "redistribution value equals joint settlement on 1,000 snapshots",
        ok,
        f"all-coalitions={equivalence_ok}, 2-member grid={grid_ok}",
    )


def test_criterion_6_newsvendor_contract_is_optimal():
    """The closed-form contract beats a 200-point grid under each pair's own
    million-sample Monte Carlo estimate, and hits the known symmetric case."""
    rng = np.random.default_rng(SEED + 6)
    beaten = 0
    for _ in range(100):
        mean = float(rng.uniform(40.0, 160.0))
        std = float(rng.uniform(5.0, 40.0))
        rt_sell = float(rng.uniform(-10.0, 10.0))
        spread = float(rng.uniform(1.0, 25.0))
        day_ahead = rt_sell + float(rng.uniform(-0.1, 0.95)) * spread
        prices = PriceTriple(day_ahead, rt_sell + spread, rt_sell)
        star = optimal_contracts([[mean]], [std], [prices])[0, 0]
        sample = truncated_normal(mean, std).rvs(size=1_000_000, random_state=rng)
        grid = np.linspace(0.0, mean + 4.0 * std, 200)
        grid_mean, grid_se = mc_payoff_curve(sample, grid, prices)
        star_mean, star_se = mc_payoff_curve(sample, [star], prices)
        band = 3.0 * (grid_se + star_se[0])
        if not np.all(star_mean[0] >= grid_mean - band):
            beaten += 1
    fixed = optimal_contracts([[100.0]], [20.0], [PriceTriple(10.0, 15.0, 5.0)])[0, 0]
    fixed_ok = abs(fixed - 100.0) <= 0.01
    report(
        6,
        "news-vendor optimality on 100 random pairs",
        beaten == 0 and fixed_ok,
        f"grid wins={beaten}, symmetric case={fixed:.4f}",
    )


def synthetic_series(n_producers=10, n_hours=1416, seed=SEED + 7):
    """Synthetic stand-in for a metered wind fleet: diurnal base profiles
    with heteroscedastic forecast errors, truncated at zero."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(20.0, 120.0, n_producers)
    amplitude = rng.uniform(0.2, 0.6, n_producers) * base
    error_scale = rng.uniform(0.08, 0.25, n_producers) * base
    hours = np.arange(n_hours)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_producers)
    forecasts = np.maximum(
        0.0,
        base[None, :]
        + amplitude[None, :] * np.sin(2.0 * np.pi * hours[:, None] / 24.0 + phase[None, :])
        + rng.normal(0.0, 0.05 * base[None, :], (n_hours, n_producers)),
    )
    actuals = np.maximum(
        0.0, forecasts + rng.normal(0.0, error_scale[None, :], (n_hours, n_producers))
    )
    ids = tuple(f"wpp{i + 1:02d}" for i in range(n_producers))
    return GenerationSeries(ids, tuple(int(h) for h in hours), forecasts, actuals)


def test_criterion_7_monthlong_run_orders_mechanisms():
    """A 10-producer, 672-hour synthetic run shows pooled > separate with the
    gap equal to the summed hourly pooling gains and no property violations.

    The published absolute totals are not reproducible here: they depend on
    a metered generation series and a price series that are not shipped, so
    this run uses synthetic data and checks ordering and identities instead.
    """
    data = synthetic_series()
    prices = (PriceTriple(10.0, 15.0, 5.0),) * data.n_hours
    report_out = run_simulation(data, prices, (0, 744), (744, 1416))
    violations = sum(report_out.violation_counts.values())
    gap = report_out.grand_total_pooled - report_out.grand_total_separate
    gap_matches = math.isclose(
        gap, report_out.total_excess_profit, rel_tol=RELATIVE_TOL, abs_tol=RELATIVE_TOL
    )
    per_producer_ok = bool(
        np.all(report_out.totals_pooled >= report_out.totals_separate - 1e-6)
    )
    ok = (
        report_out.n_hours == 672
        and violations == 0
        and gap > 0.0
        and gap_matches
        and per_producer_ok
    )
    report(
        7,
        "synthetic month-long run, pooled beats separate",
        ok,
        f"gap={gap:.2f}, violations={violations}",
    )


def test_criterion_8_cli_determinism_and_round_trip(tmp_path):
    """Identical CLI invocations produce byte-identical files, and reloading
    the emitted CSV reproduces every payoff."""
    data = synthetic_series(n_producers=5, n_hours=120, seed=SEED + 8)
    gen_path = tmp_path / "gen.csv"
    with gen_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["hour", "producer_id", "forecast_mwh", "actual_mwh"])
        for hi, hour in enumerate(data.hours):
            for pi, producer in enumerate(data.producer_ids):
                writer.writerow(
                    [hour, producer, repr(float(data.forecasts[hi, pi])),
                     repr(float(data.actuals[hi, pi]))]
                )

    def invoke(out_dir):
        return main(
            ["simulate", "--data", str(gen_path),
             "--pf", "10", "--prb", "15", "--prs", "5",
             "--train", "0:48", "--sim", "48:120",
             "--check-core", "--out", str(out_dir)]
        )

    code1 = invoke(tmp_path / "run1")
    code2 = invoke(tmp_path / "run2")
    identical = all(
        (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
        for name in ["hourly.csv", "summary.csv"]
        + [f"trace_{p}.csv" for p in data.producer_ids]
    )

    loaded = load_timeseries(gen_path)
    prices = (PriceTriple(10.0, 15.0, 5.0),) * loaded.n_hours
    reference = run_simulation(loaded, prices, (0, 48), (48, 120))
    with (tmp_path / "run1" / "hourly.csv").open(newline="") as fh:
        rows = {(r["hour"], r["producer_id"]): r for r in csv.DictReader(fh)}
    round_trip_ok = True
    for hi, hour in enumerate(reference.hours):
        for pi, producer in enumerate(reference.producer_ids):
            row = rows[(str(hour), producer)]
            if not math.isclose(
                float(row["payoff_pooled"]), float(reference.payoffs_pooled[hi, pi]),
                rel_tol=RELATIVE_TOL, abs_tol=RELATIVE_TOL,
            ):
                round_trip_ok = False
            if not math.isclose(
                float(row["payoff_separate"]), float(reference.payoffs_separate[hi, pi]),
                rel_tol=RELATIVE_TOL, abs_tol=RELATIVE_TOL,
            ):
                round_trip_ok = False
    ok = code1 == EXIT_OK and code2 == EXIT_OK and identical and round_trip_ok
    report(
        8,
        "CLI determinism and CSV round-trip",
        ok,
        f"exit codes ({code1}, {code2}), byte-identical={identical}, round-trip={round_trip_ok}",
    )
