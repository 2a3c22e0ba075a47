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
    PamConfig,
    PayoffAllocation,
    PropertyReport,
    allocate,
    run_property_checks,
)
from .contracts import error_spread, optimal_contracts
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
HOURLY_HEADER = [
    "hour", "producer_id", "contract_mwh", "actual_mwh", "payoff_pooled", "payoff_separate",
    "aggregator_payoff", "excess_profit", "all_properties_pass",
]
SUMMARY_HEADER = [
    "producer_id", "total_payoff_pooled", "total_payoff_separate", "total_payoff_exante"
]
TRACE_HEADER = ["hour", "payoff_pooled", "payoff_separate"]


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


def _first_missing(block: np.ndarray, hours, producer_ids):
    """(hour, producer) of the first NaN cell of an (hours x producers)
    block in row-major order, or None when every cell holds a value."""
    missing = np.argwhere(np.isnan(block))
    return (hours[missing[0, 0]], producer_ids[missing[0, 1]]) if missing.size else None


def load_timeseries(path) -> GenerationSeries:
    """Load the generation CSV (hour, producer_id, forecast_mwh, actual_mwh).

    Missing (hour, producer) combinations, duplicates, negative energy, and
    malformed rows are all errors; nothing is imputed.
    """
    path = Path(path)
    hour_col, producer_col, forecast_col, actual_col = [], [], [], []
    seen: set[tuple] = set()
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
        if key in seen:
            raise TimeseriesFormatError(f"{where}: duplicate (hour, producer) key {key!r}")
        seen.add(key)
        hour_col.append(hour)
        producer_col.append(producer)
        forecast_col.append(forecast)
        actual_col.append(actual)
    if not seen:
        raise TimeseriesFormatError(f"{path}: no data rows")

    hours = tuple(sorted(set(hour_col)))
    producers = tuple(sorted(set(producer_col)))
    hour_index = {hour: i for i, hour in enumerate(hours)}
    producer_index = {producer: i for i, producer in enumerate(producers)}
    cells = [hour_index[h] for h in hour_col], [producer_index[p] for p in producer_col]
    forecasts = np.full((len(hours), len(producers)), np.nan)
    actuals = forecasts.copy()
    forecasts[cells] = forecast_col
    actuals[cells] = actual_col
    gap = _first_missing(forecasts, hours, producers)
    if gap is not None:
        raise TimeseriesFormatError(
            f"{path}: missing hour {gap[0]!r} for producer {gap[1]!r}; the series must be dense"
        )
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


def load_contract_schedule(path, series: GenerationSeries) -> np.ndarray:
    """Load a per-hour contract CSV (hour, producer_id, contract_mwh).

    Every row must name one of the hours and one of the producers of
    ``series``, the generation series the schedule is for. The result is an
    (hours x producers) block aligned with ``series``, NaN in each cell no row names.
    """
    path = Path(path)
    hour_index = {hour: i for i, hour in enumerate(series.hours)}
    producer_index = {producer: i for i, producer in enumerate(series.producer_ids)}
    schedule = np.full((series.n_hours, series.n_producers), np.nan)
    for line_no, row in _read_rows(path, CONTRACT_HEADER):
        where = f"{path}:{line_no}"
        hour = _parse_hour(row[0], where)
        if hour not in hour_index:
            raise TimeseriesFormatError(f"{where}: hour {hour!r} is not in the generation series")
        producer = _parse_producer(row[1], (), where)
        if producer not in producer_index:
            raise TimeseriesFormatError(
                f"{where}: producer {producer!r} is not in the generation series"
            )
        contract = _parse_float(row[2], "contract_mwh", where)
        if contract < 0.0:
            raise TimeseriesFormatError(f"{where}: negative contract")
        cell = hour_index[hour], producer_index[producer]
        if not math.isnan(schedule[cell]):
            key = (hour, producer)
            raise TimeseriesFormatError(f"{where}: duplicate (hour, producer) key {key!r}")
        schedule[cell] = contract
    return schedule


def load_snapshot(path, prices: PriceTriple | None = None) -> ScenarioSnapshot:
    """Load a one-hour snapshot CSV (producer_id, contract_mwh, actual_mwh).

    Prices come from ``prices`` or from optional p_f, p_rb, p_rs columns,
    which must then hold one admissible triple on every row (equal to
    ``prices`` when both are given). Energies must be finite and >= 0, and
    producer ids nonempty and unique.
    """
    path = Path(path)
    differ = "from --pf/--prb/--prs" if prices is not None else "between rows"
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
                raise TimeseriesFormatError(f"{where}: price columns differ {differ}")
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
    Contracts come from ``contract_schedule`` when it is given, an
    (hours x producers) block over the whole series as produced by
    ``load_contract_schedule``; otherwise from news-vendor sizing on the
    training window's error spread.
    """

    price_source: PriceTriple | Mapping
    train_range: tuple[int, int]
    sim_range: tuple[int, int]
    pam: PamConfig = field(default_factory=PamConfig)
    contract_schedule: np.ndarray | None = None
    check_core: bool = False


@dataclass(frozen=True)
class SimulationReport:
    """A settled simulation window, held as columns.

    The (hours x producers) blocks ``contracts``, ``realizations``,
    ``payoffs_pooled`` and ``payoffs_separate`` have one row per entry of
    ``hours`` and one column per entry of ``producer_ids``;
    ``aggregator_payoff``, ``excess_profit`` and ``properties`` have one
    entry per hour. Per-producer totals are summed hour by hour, in order,
    starting from zero.
    """

    producer_ids: tuple[str, ...]
    hours: tuple
    contracts: np.ndarray
    realizations: np.ndarray
    payoffs_pooled: np.ndarray
    payoffs_separate: np.ndarray
    aggregator_payoff: np.ndarray
    excess_profit: np.ndarray
    properties: tuple[PropertyReport, ...]
    totals_pooled: np.ndarray
    totals_separate: np.ndarray
    grand_total_pooled: float
    grand_total_separate: float
    total_excess_profit: float
    violation_counts: dict[str, int]

    @property
    def n_hours(self) -> int:
        return len(self.hours)


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


def _contract_block(
    config: SimulationConfig, data: GenerationSeries, prices: list[PriceTriple]
) -> np.ndarray:
    """(hours x producers) contracts for the simulation window.

    Sliced from ``config.contract_schedule`` when one is given; otherwise
    the news-vendor contracts for each hour's forecasts, the producers'
    training error spreads and that hour's prices.
    """
    s0, s1 = config.sim_range
    schedule = config.contract_schedule
    if schedule is not None:
        if np.shape(schedule) != data.forecasts.shape:
            raise ValueError(
                f"contract schedule must be (hours x producers) {data.forecasts.shape}"
            )
        block = np.array(schedule[s0:s1], dtype=float)
        gap = _first_missing(block, data.hours[s0:s1], data.producer_ids)
        if gap is not None:
            raise ValueError(f"contract schedule missing hour {gap[0]!r} for producer {gap[1]!r}")
        return block
    t0, t1 = config.train_range
    spread = error_spread(data.forecasts[t0:t1], data.actuals[t0:t1])
    return optimal_contracts(data.forecasts[s0:s1], spread, prices)


def run_simulation(config: SimulationConfig, data: GenerationSeries) -> SimulationReport:
    """Settle every hour of the simulation window and audit each allocation.

    The contract block is built first, for the whole window. Then, per
    hour: assemble the snapshot, split the pool payoff with the
    marginal-price mechanism, evaluate the separate baseline, and run the
    property audit (core membership included when enabled).
    """
    _check_ranges(config, data.n_hours)
    s0, s1 = config.sim_range
    hours = data.hours[s0:s1]
    prices = [_prices_for_hour(config, hour) for hour in hours]
    contracts = _contract_block(config, data, prices)
    realizations = data.actuals[s0:s1].copy()
    pooled = np.empty_like(contracts)
    separate = np.empty_like(contracts)
    aggregator = np.empty(len(hours))
    excess = np.empty(len(hours))
    properties: list[PropertyReport] = []
    totals_pooled = np.zeros(data.n_producers)
    totals_separate = np.zeros(data.n_producers)
    total_excess = 0.0

    for row, hour_prices in enumerate(prices):
        snapshot = ScenarioSnapshot(
            data.producer_ids, contracts[row], realizations[row], hour_prices
        )
        alloc = allocate(snapshot, config.pam)
        pooled[row] = alloc.payoffs
        separate[row] = separate_payoffs(snapshot)
        aggregator[row] = alloc.aggregator_total
        excess[row] = excess_profit(snapshot)
        properties.append(
            run_property_checks(alloc, snapshot, check_core=config.check_core)
        )
        # one row at a time from zero, never sum(axis=0): that sums a single
        # column pairwise and would change the totals' last bits
        totals_pooled += pooled[row]
        totals_separate += separate[row]
        total_excess += excess[row]

    return SimulationReport(
        producer_ids=data.producer_ids,
        hours=hours,
        contracts=contracts,
        realizations=realizations,
        payoffs_pooled=pooled,
        payoffs_separate=separate,
        aggregator_payoff=aggregator,
        excess_profit=excess,
        properties=tuple(properties),
        totals_pooled=totals_pooled,
        totals_separate=totals_separate,
        grand_total_pooled=float(totals_pooled.sum()),
        grand_total_separate=float(totals_separate.sum()),
        total_excess_profit=float(total_excess),
        violation_counts={
            "budget_balance": sum(not p.budget_balance for p in properties),
            "individual_rationality": sum(not p.individual_rationality for p in properties),
            "fairness": sum(not p.fairness for p in properties),
            "no_exploitation": sum(not p.no_exploitation for p in properties),
            "core": sum(p.in_core is False for p in properties),
        },
    )


def _format_hour(hour) -> str:
    return hour.isoformat() if isinstance(hour, datetime) else str(hour)


def _safe_filename(producer_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", producer_id)


def trace_file_names(producer_ids) -> list[str]:
    """Each producer's ``trace_<id>.csv`` name; two ids giving one name are an error."""
    names: dict[str, str] = {}
    for producer in producer_ids:
        name = f"trace_{_safe_filename(producer)}.csv"
        if name in names:
            raise ValueError(f"producers {names[name]!r} and {producer!r} would both write {name}")
        names[name] = producer
    return list(names)


def _repr_rows(block: np.ndarray) -> list[list[str]]:
    """Each row of a 2-D float block as shortest round-trip strings."""
    return [list(map(repr, row)) for row in block.tolist()]


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
    this package's scope. Two producers whose ids map to the same trace file
    name are an error, raised before any file is written.
    """
    trace_names = trace_file_names(report.producer_ids)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    labels = [_format_hour(hour) for hour in report.hours]
    pooled = _repr_rows(report.payoffs_pooled)
    separate = _repr_rows(report.payoffs_separate)

    hourly_path = out_dir / "hourly.csv"
    hourly_rows = [
        [label, producer, c, x, pp, ps, aggregator, excess, passed]
        for label, c_row, x_row, pp_row, ps_row, aggregator, excess, passed in zip(
            labels,
            _repr_rows(report.contracts),
            _repr_rows(report.realizations),
            pooled,
            separate,
            map(repr, report.aggregator_payoff.tolist()),
            map(repr, report.excess_profit.tolist()),
            (str(p.all_pass) for p in report.properties),
        )
        for producer, c, x, pp, ps in zip(report.producer_ids, c_row, x_row, pp_row, ps_row)
    ]
    _write_csv(hourly_path, HOURLY_HEADER, hourly_rows)
    written.append(hourly_path)

    summary_path = out_dir / "summary.csv"
    summary_rows = [
        [producer, repr(total_pooled), repr(total_separate), ""]
        for producer, total_pooled, total_separate in zip(
            report.producer_ids, report.totals_pooled.tolist(), report.totals_separate.tolist()
        )
    ]
    if report.producer_ids:
        grand_totals = [report.grand_total_pooled, report.grand_total_separate]
        summary_rows.append(["TOTAL", *map(repr, grand_totals), ""])
    _write_csv(summary_path, SUMMARY_HEADER, summary_rows)
    written.append(summary_path)

    for pi, name in enumerate(trace_names):
        trace_path = out_dir / name
        trace_rows = [
            [label, pp_row[pi], ps_row[pi]]
            for label, pp_row, ps_row in zip(labels, pooled, separate)
        ]
        _write_csv(trace_path, TRACE_HEADER, trace_rows)
        written.append(trace_path)

    return written
