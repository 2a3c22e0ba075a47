"""Hourly two-settlement simulation: ingest series, size contracts, settle,
allocate, audit, and write plot-ready CSV reports.

Hours are independent work units: the only cross-hour state is the error
spread estimated once from the training window. Given identical inputs the
whole pipeline, including the emitted files, is byte-for-byte reproducible.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Mapping

import numpy as np

from .allocation import (
    EXHAUSTIVE_LIMIT,
    PamConfig,
    PayoffAllocation,
    PropertyReport,
    allocate,
    run_property_checks,
)
from .contracts import GenerationDistribution, error_spread, optimal_contract
from .market import (
    PriceTriple,
    ScenarioSnapshot,
    aggregator_payoff,
    excess_profit,
    separate_payoffs,
)


class TimeseriesFormatError(ValueError):
    """Input file rejected; the message carries the file and line number."""


GENERATION_HEADER = ["hour", "producer_id", "forecast_mwh", "actual_mwh"]
PRICE_HEADER = ["hour", "p_f", "p_rb", "p_rs"]
CONTRACT_HEADER = ["hour", "producer_id", "contract_mwh"]
SNAPSHOT_HEADER = ["producer_id", "contract_mwh", "actual_mwh"]
SNAPSHOT_HEADER_PRICED = SNAPSHOT_HEADER + ["p_f", "p_rb", "p_rs"]
PAYOFF_HEADER = ["producer_id", "payoff"]


def _parse_hour(text: str, where: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise TimeseriesFormatError(
            f"{where}: hour {text!r} is neither an integer index nor ISO-8601"
        ) from None


def _parse_float(text: str, column: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise TimeseriesFormatError(f"{where}: {column} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise TimeseriesFormatError(f"{where}: {column} must be finite")
    return value


def _read_rows(path, *headers: list[str]):
    """Yield (line_number, row) for each data row, after checking the header.

    The header must equal one of ``headers``; every data row must then have
    as many fields as the header it matched. Blank lines are skipped.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TimeseriesFormatError(f"{path}:1: empty file") from None
        if [h.strip() for h in header] not in headers:
            expected = " or ".join(repr(",".join(h)) for h in headers)
            raise TimeseriesFormatError(
                f"{path}:1: expected header {expected}, got {','.join(header)!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise TimeseriesFormatError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            yield line_no, row


def _parse_prices(fields, where: str) -> PriceTriple:
    """An admissible (p_f, p_rb, p_rs) triple from three CSV fields."""
    p_f, p_rb, p_rs = (_parse_float(v, name, where) for v, name in zip(fields, PRICE_HEADER[1:]))
    try:
        return PriceTriple(day_ahead=p_f, rt_buy=p_rb, rt_sell=p_rs)
    except ValueError as exc:
        raise TimeseriesFormatError(f"{where}: {exc}") from None


def _parse_producer(text: str, seen, where: str) -> str:
    producer = text.strip()
    if not producer:
        raise TimeseriesFormatError(f"{where}: empty producer_id")
    if producer in seen:
        raise TimeseriesFormatError(f"{where}: duplicate producer {producer!r}")
    return producer


@dataclass(frozen=True)
class GenerationSeries:
    """Dense per-producer hourly (forecast, actual) series.

    Hours and producer ids are sorted; every producer has a value for every
    hour (the loader refuses ragged data rather than interpolating).
    """

    producer_ids: tuple[str, ...]
    hours: tuple
    forecasts: np.ndarray  # (n_hours, n_producers)
    actuals: np.ndarray

    @property
    def n_hours(self) -> int:
        return len(self.hours)

    @property
    def n_producers(self) -> int:
        return len(self.producer_ids)


def load_timeseries(path) -> GenerationSeries:
    """Load the generation CSV (hour, producer_id, forecast_mwh, actual_mwh).

    Missing (hour, producer) combinations, duplicates, negative energy, and
    malformed rows are all errors; nothing is imputed.
    """
    path = Path(path)
    cells: dict[tuple, tuple[float, float]] = {}
    hour_type = None
    for line_no, row in _read_rows(path, GENERATION_HEADER):
        where = f"{path}:{line_no}"
        hour = _parse_hour(row[0], where)
        if hour_type is None:
            hour_type = type(hour)
        elif type(hour) is not hour_type:
            raise TimeseriesFormatError(
                f"{where}: hour type {type(hour).__name__} mixes with "
                f"{hour_type.__name__} used earlier in the file"
            )
        producer = _parse_producer(row[1], (), where)
        forecast = _parse_float(row[2], "forecast_mwh", where)
        actual = _parse_float(row[3], "actual_mwh", where)
        if forecast < 0.0 or actual < 0.0:
            raise TimeseriesFormatError(f"{where}: negative generation")
        key = (hour, producer)
        if key in cells:
            raise TimeseriesFormatError(f"{where}: duplicate (hour, producer) key {key!r}")
        cells[key] = (forecast, actual)
    if not cells:
        raise TimeseriesFormatError(f"{path}: no data rows")

    hours = tuple(sorted({h for h, _ in cells}))
    producers = tuple(sorted({p for _, p in cells}))
    forecasts = np.empty((len(hours), len(producers)))
    actuals = np.empty_like(forecasts)
    for hi, hour in enumerate(hours):
        for pi, producer in enumerate(producers):
            try:
                forecasts[hi, pi], actuals[hi, pi] = cells[(hour, producer)]
            except KeyError:
                raise TimeseriesFormatError(
                    f"{path}: missing hour {hour!r} for producer {producer!r}; "
                    "the series must be dense"
                ) from None
    return GenerationSeries(producers, hours, forecasts, actuals)


def load_prices(path) -> dict:
    """Load the per-hour price CSV (hour, p_f, p_rb, p_rs)."""
    path = Path(path)
    prices: dict = {}
    for line_no, row in _read_rows(path, PRICE_HEADER):
        where = f"{path}:{line_no}"
        hour = _parse_hour(row[0], where)
        if hour in prices:
            raise TimeseriesFormatError(f"{where}: duplicate hour {hour!r}")
        prices[hour] = _parse_prices(row[1:], where)
    if not prices:
        raise TimeseriesFormatError(f"{path}: no data rows")
    return prices


def load_contract_schedule(path) -> dict:
    """Load a per-hour contract CSV (hour, producer_id, contract_mwh)."""
    path = Path(path)
    schedule: dict = {}
    for line_no, row in _read_rows(path, CONTRACT_HEADER):
        where = f"{path}:{line_no}"
        hour = _parse_hour(row[0], where)
        producer = row[1].strip()
        contract = _parse_float(row[2], "contract_mwh", where)
        if contract < 0.0:
            raise TimeseriesFormatError(f"{where}: negative contract")
        key = (hour, producer)
        if key in schedule:
            raise TimeseriesFormatError(f"{where}: duplicate (hour, producer) key {key!r}")
        schedule[key] = contract
    return schedule


def load_snapshot(path, prices: PriceTriple | None = None) -> ScenarioSnapshot:
    """Load a one-hour snapshot CSV (producer_id, contract_mwh, actual_mwh).

    Prices come from ``prices`` or from optional p_f, p_rb, p_rs columns,
    which must then hold one admissible triple on every row (equal to
    ``prices`` when both are given). Energies must be finite and >= 0, and
    producer ids nonempty and unique.
    """
    path = Path(path)
    cells: dict[str, tuple[float, float]] = {}
    for line_no, row in _read_rows(path, SNAPSHOT_HEADER, SNAPSHOT_HEADER_PRICED):
        where = f"{path}:{line_no}"
        producer = _parse_producer(row[0], cells, where)
        contract = _parse_float(row[1], "contract_mwh", where)
        actual = _parse_float(row[2], "actual_mwh", where)
        if contract < 0.0 or actual < 0.0:
            raise TimeseriesFormatError(f"{where}: negative energy")
        cells[producer] = (contract, actual)
        if len(row) == len(SNAPSHOT_HEADER_PRICED):
            row_prices = _parse_prices(row[3:], where)
            if prices is None:
                prices = row_prices
            elif row_prices != prices:
                raise TimeseriesFormatError(f"{where}: price columns differ between rows")
    if not cells:
        raise TimeseriesFormatError(f"{path}: no data rows")
    if prices is None:
        raise TimeseriesFormatError(f"{path}: no price columns; pass --pf/--prb/--prs")
    contracts, actuals = np.array(list(cells.values())).T
    return ScenarioSnapshot(tuple(cells), contracts, actuals, prices)


def load_payoffs(path, snapshot: ScenarioSnapshot) -> PayoffAllocation:
    """Load an external payoff vector (producer_id, payoff) for ``snapshot``.

    Every snapshot producer needs exactly one finite payoff, and every row
    must name a snapshot producer.
    """
    path = Path(path)
    known = set(snapshot.producer_ids)
    by_id: dict[str, float] = {}
    for line_no, row in _read_rows(path, PAYOFF_HEADER):
        where = f"{path}:{line_no}"
        producer = _parse_producer(row[0], by_id, where)
        if producer not in known:
            raise TimeseriesFormatError(f"{where}: producer {producer!r} is not in the snapshot")
        by_id[producer] = _parse_float(row[1], "payoff", where)
    missing = [p for p in snapshot.producer_ids if p not in by_id]
    if missing:
        raise TimeseriesFormatError(f"{path}: no payoff for producer {missing[0]!r}")
    payoffs = np.array([by_id[p] for p in snapshot.producer_ids])
    return PayoffAllocation(payoffs, aggregator_payoff(snapshot))


@dataclass(frozen=True)
class SimulationConfig:
    """Everything run_simulation needs besides the generation data.

    Ranges are half-open [start, stop) positions into the chronologically
    sorted hour axis; the training range must end before the simulation
    range begins. ``price_source`` is either one constant PriceTriple or a
    mapping from hour to PriceTriple (as produced by ``load_prices``).
    """

    price_source: PriceTriple | Mapping
    train_range: tuple[int, int]
    sim_range: tuple[int, int]
    pam: PamConfig = field(default_factory=PamConfig)
    contract_mode: str = "newsvendor"  # newsvendor | fixed | from_file
    fixed_contracts: Mapping[str, float] | None = None
    contract_schedule: Mapping | None = None  # (hour, producer_id) -> MWh
    exhaustive_core_check: bool = False
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.contract_mode not in ("newsvendor", "fixed", "from_file"):
            raise ValueError(f"unknown contract_mode {self.contract_mode!r}")
        if self.contract_mode == "fixed" and self.fixed_contracts is None:
            raise ValueError("contract_mode='fixed' needs fixed_contracts")
        if self.contract_mode == "from_file" and self.contract_schedule is None:
            raise ValueError("contract_mode='from_file' needs contract_schedule")


@dataclass(frozen=True)
class HourlyRecord:
    """One settled hour: quantities, both payoff vectors, and the audit flags."""

    hour: object
    producer_ids: tuple[str, ...]
    contracts: np.ndarray
    realizations: np.ndarray
    payoffs_pooled: np.ndarray
    payoffs_separate: np.ndarray
    aggregator_payoff: float
    excess_profit: float
    properties: PropertyReport


@dataclass(frozen=True)
class SimulationReport:
    producer_ids: tuple[str, ...]
    records: tuple[HourlyRecord, ...]
    totals_pooled: np.ndarray
    totals_separate: np.ndarray
    grand_total_pooled: float
    grand_total_separate: float
    total_excess_profit: float
    violation_counts: dict[str, int]

    @property
    def n_hours(self) -> int:
        return len(self.records)


def _check_ranges(config: SimulationConfig, n_hours: int) -> None:
    for name, (start, stop) in (("train_range", config.train_range), ("sim_range", config.sim_range)):
        if not (0 <= start < stop <= n_hours):
            raise ValueError(
                f"{name} [{start}, {stop}) invalid for {n_hours} available hours"
            )
    if config.train_range[1] > config.sim_range[0]:
        raise ValueError("training window must end before the simulation window starts")


def _prices_for_hour(config: SimulationConfig, hour) -> PriceTriple:
    if isinstance(config.price_source, PriceTriple):
        return config.price_source
    try:
        return config.price_source[hour]
    except KeyError:
        raise ValueError(f"no prices supplied for hour {hour!r}") from None


def _hourly_contracts(
    config: SimulationConfig,
    data: GenerationSeries,
    hour_index: int,
    spread: np.ndarray | None,
    prices: PriceTriple,
) -> np.ndarray:
    hour = data.hours[hour_index]
    if config.contract_mode == "fixed":
        try:
            return np.array([float(config.fixed_contracts[p]) for p in data.producer_ids])
        except KeyError as exc:
            raise ValueError(f"fixed_contracts missing producer {exc.args[0]!r}") from None
    if config.contract_mode == "from_file":
        contracts = np.empty(data.n_producers)
        for pi, producer in enumerate(data.producer_ids):
            try:
                contracts[pi] = config.contract_schedule[(hour, producer)]
            except KeyError:
                raise ValueError(
                    f"contract schedule missing hour {hour!r} for producer {producer!r}"
                ) from None
        return contracts
    contracts = np.empty(data.n_producers)
    for pi in range(data.n_producers):
        dist = GenerationDistribution(
            mean=float(data.forecasts[hour_index, pi]), std_dev=float(spread[pi])
        )
        contracts[pi] = optimal_contract(dist, prices)
    return contracts


def run_simulation(config: SimulationConfig, data: GenerationSeries) -> SimulationReport:
    """Settle every hour of the simulation window and audit each allocation.

    Per hour: size the contracts, assemble the snapshot, split the pool
    payoff with the marginal-price mechanism, evaluate the separate
    baseline, and run the property audit (core membership included when
    enabled; enumeration switches to sampling above the exhaustive limit).
    """
    _check_ranges(config, data.n_hours)
    spread = None
    if config.contract_mode == "newsvendor":
        t0, t1 = config.train_range
        spread = error_spread(data.forecasts[t0:t1], data.actuals[t0:t1])

    records: list[HourlyRecord] = []
    violation_counts = {
        "budget_balance": 0,
        "individual_rationality": 0,
        "fairness": 0,
        "no_exploitation": 0,
        "core": 0,
    }
    totals_pooled = np.zeros(data.n_producers)
    totals_separate = np.zeros(data.n_producers)
    total_excess = 0.0

    s0, s1 = config.sim_range
    for hi in range(s0, s1):
        hour = data.hours[hi]
        prices = _prices_for_hour(config, hour)
        contracts = _hourly_contracts(config, data, hi, spread, prices)
        snapshot = ScenarioSnapshot(
            data.producer_ids, contracts, data.actuals[hi], prices
        )
        alloc = allocate(snapshot, config.pam)
        separate = separate_payoffs(snapshot)
        report = run_property_checks(
            alloc,
            snapshot,
            check_core=config.exhaustive_core_check,
            core_method="exhaustive" if snapshot.n <= EXHAUSTIVE_LIMIT else "sampled",
            seed=config.rng_seed,
        )
        if not report.budget_balance:
            violation_counts["budget_balance"] += 1
        if not report.individual_rationality:
            violation_counts["individual_rationality"] += 1
        if not report.fairness:
            violation_counts["fairness"] += 1
        if not report.no_exploitation:
            violation_counts["no_exploitation"] += 1
        if report.in_core is False:
            violation_counts["core"] += 1
        records.append(
            HourlyRecord(
                hour=hour,
                producer_ids=data.producer_ids,
                contracts=contracts,
                realizations=np.array(data.actuals[hi]),
                payoffs_pooled=alloc.payoffs,
                payoffs_separate=separate,
                aggregator_payoff=alloc.aggregator_total,
                excess_profit=excess_profit(snapshot),
                properties=report,
            )
        )
        totals_pooled += alloc.payoffs
        totals_separate += separate
        total_excess += records[-1].excess_profit

    return SimulationReport(
        producer_ids=data.producer_ids,
        records=tuple(records),
        totals_pooled=totals_pooled,
        totals_separate=totals_separate,
        grand_total_pooled=float(totals_pooled.sum()),
        grand_total_separate=float(totals_separate.sum()),
        total_excess_profit=total_excess,
        violation_counts=violation_counts,
    )


def _format_hour(hour) -> str:
    return hour.isoformat() if isinstance(hour, datetime) else str(hour)


def _safe_filename(producer_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", producer_id)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(report: SimulationReport, out_dir) -> list[Path]:
    """Write hourly.csv, summary.csv, and one trace file per producer.

    Floats are written with their shortest exact representation, so a
    reload reproduces every payoff bit for bit and two runs with the same
    inputs produce byte-identical files. The ex-ante comparison column in
    summary.csv is a placeholder and stays empty; that mechanism is outside
    this package's scope.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    hourly_path = out_dir / "hourly.csv"
    hourly_rows = []
    for record in report.records:
        for pi, producer in enumerate(record.producer_ids):
            hourly_rows.append(
                [
                    _format_hour(record.hour),
                    producer,
                    repr(float(record.contracts[pi])),
                    repr(float(record.realizations[pi])),
                    repr(float(record.payoffs_pooled[pi])),
                    repr(float(record.payoffs_separate[pi])),
                    repr(float(record.aggregator_payoff)),
                    repr(float(record.excess_profit)),
                    str(record.properties.all_pass),
                ]
            )
    _write_csv(
        hourly_path,
        [
            "hour",
            "producer_id",
            "contract_mwh",
            "actual_mwh",
            "payoff_pooled",
            "payoff_separate",
            "aggregator_payoff",
            "excess_profit",
            "all_properties_pass",
        ],
        hourly_rows,
    )
    written.append(hourly_path)

    summary_path = out_dir / "summary.csv"
    summary_rows = [
        [
            producer,
            repr(float(report.totals_pooled[pi])),
            repr(float(report.totals_separate[pi])),
            "",
        ]
        for pi, producer in enumerate(report.producer_ids)
    ]
    if report.producer_ids:
        summary_rows.append(
            [
                "TOTAL",
                repr(report.grand_total_pooled),
                repr(report.grand_total_separate),
                "",
            ]
        )
    _write_csv(
        summary_path,
        ["producer_id", "total_payoff_pooled", "total_payoff_separate", "total_payoff_exante"],
        summary_rows,
    )
    written.append(summary_path)

    for pi, producer in enumerate(report.producer_ids):
        trace_path = out_dir / f"trace_{_safe_filename(producer)}.csv"
        trace_rows = [
            [
                _format_hour(record.hour),
                repr(float(record.payoffs_pooled[pi])),
                repr(float(record.payoffs_separate[pi])),
            ]
            for record in report.records
        ]
        _write_csv(trace_path, ["hour", "payoff_pooled", "payoff_separate"], trace_rows)
        written.append(trace_path)

    return written
