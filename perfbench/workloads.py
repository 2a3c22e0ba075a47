"""Seeded inputs and timed calls for the four settlement workloads.

Inputs depend only on the workload name, the seed and the shape table, so
the same seed always gives byte-identical input files. Every timed call goes
through poolpay's public entry points, looked up when called, so the traced
run's wrappers see them.
"""
from __future__ import annotations

import csv
import hashlib
import os
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("month_newsvendor", "core_audit", "wide_pool", "snapshot_stream")
SIMULATE_WORKLOADS = WORKLOADS[:3]

# Why these shapes: month_newsvendor is the acceptance-criterion-7 pipeline
# (contract sizing dominates); core_audit has 18 producers so the exhaustive
# core audit takes the chunked path (n > 16); wide_pool has 500 producers so
# ingest, the O(n^2) fairness audit, record assembly and emit see a large
# working set; snapshot_stream is the one-shot library path, dominated by
# per-call overhead, with n <= 12 so the core audit takes the cached masks.
SHAPES = {
    "month_newsvendor": {"producers": 10, "train": 744, "hours": 48},
    "core_audit": {"producers": 18, "train": 2, "hours": 16},
    "wide_pool": {"producers": 500, "train": 2, "hours": 16},
    "snapshot_stream": {"batch": 3300, "n_min": 2, "n_max": 12},
}
# The smoke test's shapes: every code path above, at a size that runs in
# well under a second.
TINY_SHAPES = {
    "month_newsvendor": {"producers": 3, "train": 24, "hours": 3},
    "core_audit": {"producers": 17, "train": 2, "hours": 2},
    "wide_pool": {"producers": 40, "train": 2, "hours": 3},
    "snapshot_stream": {"batch": 44, "n_min": 2, "n_max": 12},
}
SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}
CONSTANT_PRICES = (10.0, 15.0, 5.0)
CONTRACT_SAMPLE = 16


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_csv(path: Path, header, rows) -> int:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


def _random_prices(rng, count):
    """Admissible (day_ahead, rt_buy, rt_sell) rows; rt_sell is often negative."""
    day_ahead = rng.uniform(5.0, 50.0, count)
    rt_buy = day_ahead + rng.uniform(0.0, 30.0, count)
    rt_sell = day_ahead - rng.uniform(0.0, 45.0, count)
    return np.round(np.column_stack([day_ahead, rt_buy, rt_sell]), 2)


@dataclass
class SimInputs:
    """Inputs of one simulate workload, and what its outputs must hold."""

    ids: list[str]
    forecast: np.ndarray  # (train + hours, producers)
    actual: np.ndarray
    train: int
    prices: np.ndarray  # (train + hours, 3): day_ahead, rt_buy, rt_sell
    schedule: np.ndarray | None  # (hours, producers); None means news-vendor sizing
    contract_sample: dict  # simulated hour position -> producer positions to re-derive
    argv: list[str]
    gen_rows: int

    @property
    def hours(self) -> int:
        return self.forecast.shape[0] - self.train

    @property
    def cells(self) -> int:
        return self.hours * len(self.ids)

    @property
    def hour_labels(self) -> list[str]:
        return [str(self.train + h) for h in range(self.hours)]

    def sim_actuals(self, h: int) -> list[float]:
        return self.actual[self.train + h].tolist()

    def sim_forecast(self, h: int, p: int) -> float:
        return float(self.forecast[self.train + h, p])

    def sim_prices(self, h: int) -> tuple:
        return tuple(self.prices[self.train + h].tolist())

    def scheduled_contracts(self, h: int):
        return None if self.schedule is None else self.schedule[h].tolist()

    def train_errors(self, p: int) -> list[float]:
        return (self.actual[: self.train, p] - self.forecast[: self.train, p]).tolist()


def make_simulation(name: str, seed: int, work_dir: Path, tiny: bool = False) -> SimInputs:
    """Generate and write the input CSVs of a simulate workload."""
    shape = (TINY_SHAPES if tiny else SHAPES)[name]
    producers, train, hours = shape["producers"], shape["train"], shape["hours"]
    total = train + hours
    rng = np.random.default_rng([seed, SALT[name]])
    ids = [f"p{i:03d}" for i in range(producers)]
    level = rng.uniform(20.0, 120.0, producers)
    spread = rng.uniform(3.0, 25.0, producers)
    phase = rng.uniform(0.0, 2.0 * np.pi, producers)
    t = np.arange(total)[:, None]
    forecast = np.round(level * (0.55 + 0.45 * np.sin(2.0 * np.pi * t / 24.0 + phase)), 3)
    actual = np.round(
        np.maximum(0.0, forecast + spread * rng.standard_normal((total, producers))), 3
    )

    work_dir.mkdir(parents=True, exist_ok=True)
    gen_path = work_dir / "gen.csv"
    gen_rows = _write_csv(
        gen_path,
        ["hour", "producer_id", "forecast_mwh", "actual_mwh"],
        [
            [h, producer, repr(f), repr(a)]
            for h, (f_row, a_row) in enumerate(zip(forecast.tolist(), actual.tolist()))
            for producer, f, a in zip(ids, f_row, a_row)
        ],
    )
    argv = ["simulate", "--data", str(gen_path), "--train", f"0:{train}", "--sim", f"{train}:{total}"]
    schedule = None
    contract_sample: dict = {}
    if name == "month_newsvendor":
        prices = np.tile(CONSTANT_PRICES, (total, 1))
        argv += ["--pf", repr(CONSTANT_PRICES[0]), "--prb", repr(CONSTANT_PRICES[1]),
                 "--prs", repr(CONSTANT_PRICES[2])]
        picks = rng.choice(hours * producers, size=min(CONTRACT_SAMPLE, hours * producers), replace=False)
        for cell in sorted(picks.tolist()):
            contract_sample.setdefault(cell // producers, []).append(cell % producers)
    else:
        prices = _random_prices(rng, total)
        schedule = np.round(
            np.maximum(0.0, forecast[train:] + 0.3 * spread * rng.standard_normal((hours, producers))), 3
        )
        prices_path = work_dir / "prices.csv"
        contracts_path = work_dir / "contracts.csv"
        _write_csv(prices_path, ["hour", "p_f", "p_rb", "p_rs"],
                   [[h, *map(repr, row)] for h, row in enumerate(prices.tolist())])
        _write_csv(
            contracts_path,
            ["hour", "producer_id", "contract_mwh"],
            [
                [train + h, producer, repr(c)]
                for h, row in enumerate(schedule.tolist())
                for producer, c in zip(ids, row)
            ],
        )
        argv += ["--prices", str(prices_path), "--contracts", str(contracts_path)]
    if name == "core_audit":
        argv.append("--check-core")
    return SimInputs(ids, forecast, actual, train, prices, schedule, contract_sample, argv, gen_rows)


def output_digest(out_dir: Path) -> tuple[str, int, int]:
    """SHA-256 over every output file's name and bytes, plus total bytes and file count."""
    digest = hashlib.sha256()
    size = 0
    paths = sorted(p for p in out_dir.iterdir() if p.is_file())
    for path in paths:
        data = path.read_bytes()
        size += len(data)
        digest.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return digest.hexdigest(), size, len(paths)


def mark_stale(out_dir: Path) -> None:
    """Set every file in ``out_dir`` to modification time 0, so that a file
    the next call fails to rewrite shows up as stale."""
    if out_dir.is_dir():
        for path in out_dir.iterdir():
            os.utime(path, ns=(0, 0))


def stale_files(out_dir: Path) -> list[str]:
    return sorted(p.name for p in out_dir.iterdir() if p.stat().st_mtime_ns == 0)


def run_simulate(inputs: SimInputs, out_dir: Path) -> dict:
    """One timed ``poolpay simulate`` call, then the checks of its outputs.

    ``out_dir`` may hold the files of an earlier call into the same
    directory; the call overwrites them, and any it leaves behind fail it.
    """
    import poolpay.cli

    mark_stale(out_dir)
    argv = inputs.argv + ["--out", str(out_dir)]
    start = time.perf_counter()
    code = poolpay.cli.main(argv)
    elapsed = time.perf_counter() - start
    result = {"elapsed": elapsed, "cells": inputs.cells, "rss_mb": peak_rss_mb(),
              "failed": inputs.hours, "problems": []}
    # Exit code 2 means the run finished and its audit found violations; the
    # checks below then fail the violating hours. Any other failure aborts.
    if code not in (0, 2):
        del result["elapsed"]  # an aborted call's time is not a settlement rate
        result["problems"].append(f"poolpay simulate exited with code {code}")
        return result
    try:
        by_hour, run_problems = checks.check_report(out_dir, inputs)
        run_problems += [f"{name} was not rewritten" for name in stale_files(out_dir)]
        result["sha256"], result["bytes"], result["files"] = output_digest(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        result["problems"].append(f"reading the outputs failed: {exc!r}")
        return result
    if code == 2 and not by_hour:
        run_problems.append("poolpay simulate exited with code 2 but no hour is flagged")
    result["failed"] = inputs.hours if run_problems else len(by_hour)
    result["problems"] = run_problems + [f"hour {h}: {p[0]}" for h, p in by_hour.items()]
    return result


def make_stream_batch(seed: int, index: int, tiny: bool = False) -> list:
    """Snapshot inputs of batch ``index``: (ids, contracts, actuals, prices) each.

    Every pool size from n_min to n_max occurs equally often, in random
    order, so batches differ in their data but not in their mix of sizes
    (the core audit's cost doubles with each producer). About one producer
    in ten delivers its contract exactly, so the no-exploitation and
    equal-deviation fairness branches have work to do.
    """
    shape = (TINY_SHAPES if tiny else SHAPES)["snapshot_stream"]
    rng = np.random.default_rng([seed, SALT["snapshot_stream"], index])
    sizes = rng.permutation(np.resize(np.arange(shape["n_min"], shape["n_max"] + 1), shape["batch"]))
    count = int(sizes.sum())
    contracts = np.round(rng.uniform(0.0, 100.0, count), 3)
    actuals = np.round(np.maximum(0.0, contracts + rng.normal(0.0, 20.0, count)), 3)
    exact = rng.random(count) < 0.1
    actuals[exact] = contracts[exact]
    prices = _random_prices(rng, shape["batch"]).tolist()
    ids = {n: tuple(f"p{i}" for i in range(n)) for n in range(shape["n_min"], shape["n_max"] + 1)}
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [
        (ids[int(n)], contracts[lo:hi], actuals[lo:hi], tuple(p))
        for n, lo, hi, p in zip(sizes.tolist(), bounds[:-1], bounds[1:], prices)
    ]


def run_stream(batch: list) -> dict:
    """Timed one-shot settle-and-audit of every snapshot, then the checks."""
    from poolpay import allocation, equilibrium, market

    latencies = []
    outputs = []
    perf = time.perf_counter
    start = perf()
    for ids, contracts, actuals, prices in batch:
        t0 = perf()
        snapshot = market.ScenarioSnapshot(ids, contracts, actuals, market.PriceTriple(*prices))
        alloc = allocation.allocate(snapshot)
        ce = equilibrium.solve_competitive_equilibrium(snapshot)
        separate = market.separate_payoffs(snapshot)
        excess = market.excess_profit(snapshot)
        audit = allocation.run_property_checks(alloc, snapshot)
        latencies.append(perf() - t0)
        outputs.append((alloc, ce, separate, excess, audit))
    elapsed = perf() - start
    result = {"elapsed": elapsed, "cells": sum(len(ids) for ids, *_ in batch),
              "rss_mb": peak_rss_mb(), "latencies": latencies, "failed": 0, "problems": []}
    for k, ((_, contracts, actuals, prices), (alloc, ce, separate, excess, audit)) in enumerate(
        zip(batch, outputs)
    ):
        problems = checks.check_snapshot(
            (prices, contracts.tolist(), actuals.tolist()),
            (alloc.payoffs.tolist(), float(alloc.aggregator_total), ce.payoffs.tolist(),
             separate.tolist(), float(excess), audit.all_pass, audit.in_core),
        )
        if problems:
            result["failed"] += 1
            result["problems"].append(f"snapshot {k}: {problems[0]}")
    return result
