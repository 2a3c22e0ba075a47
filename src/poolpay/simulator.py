"""Hourly two-settlement simulation: ingest series, size contracts, settle,
allocate, audit, and write plot-ready CSV reports.

Hours are independent work units: the only cross-hour state is the error
spread estimated once from the training window. Given identical inputs the
whole pipeline, including the emitted files, is byte-for-byte reproducible.
"""
from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .allocation import PayoffAllocation, _audit_window, _marginal_array, _pam
from .contracts import critical_quantile, error_spread, optimal_contracts
from .market import PriceTriple, ScenarioSnapshot, _pooling_gain, aggregator_payoff, settle


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
SUMMARY_HEADER = ["producer_id", "total_payoff_pooled", "total_payoff_separate"]
TRACE_HEADER = ["hour", "payoff_pooled", "payoff_separate"]


def _parse_hour(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise TimeseriesFormatError(
            f"hour {text!r} is neither an integer index nor ISO-8601"
        ) from None


def _format_hour(hour) -> str:
    """An hour as written in the outputs and in error messages."""
    return hour.isoformat() if isinstance(hour, datetime) else str(hour)


def _series_row(text: str, hour_rows: dict) -> tuple:
    """(hour, row) of an hour field that must name one of the series' hours."""
    hour = _parse_hour(text)
    if hour not in hour_rows:
        raise TimeseriesFormatError(f"hour {_format_hour(hour)} is not in the generation series")
    return hour, hour_rows[hour]


def _hour_kind(hour) -> str:
    """Integer hours, naive ISO hours and timezone-aware ISO hours do not
    order against each other, so a file must keep to one kind."""
    if isinstance(hour, int):
        return "integer"
    return "naive ISO" if hour.tzinfo is None else "timezone-aware ISO"


def _parse_float(text: str, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise TimeseriesFormatError(f"{column} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise TimeseriesFormatError(f"{column} must be finite")
    return value


CHUNK_ROWS = 1024
"""Rows the column path parses per pass: enough to amortise each column
operation, few enough that no whole-file list of rows is ever alive."""


class _Rejected(Exception):
    """The column path's screen found a row that breaks a rule; the per-row
    rules then read the file again, only to name that row."""


def _is_blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _unmarked(fh):
    """The lines of ``fh``, a text file opened as UTF-8, with a byte-order
    mark at its very start dropped, as the ``utf-8-sig`` codec drops it; a
    U+FEFF anywhere else is data. The codec itself is not used: it is not
    loaded at start-up, and its import would cost each run more than the
    file. An empty or mark-only file yields no line."""
    first = fh.readline()
    if first.startswith("\ufeff"):
        first = first[1:]
    return itertools.chain((first,), fh) if first else fh


def _data_rows(fh, path: Path, headers) -> tuple:
    """A csv.reader over ``fh`` positioned after its header, and the header's
    width. The header must equal one of ``headers``."""
    reader = csv.reader(_unmarked(fh))
    try:
        header = next(reader)
    except StopIteration:
        raise TimeseriesFormatError(f"{path}:1: empty file") from None
    if [h.strip() for h in header] not in headers:
        expected = " or ".join(repr(",".join(h)) for h in headers)
        raise TimeseriesFormatError(
            f"{path}:1: expected header {expected}, got {','.join(header)!r}"
        )
    return reader, len(header)


def _read_rows(path, *headers: list[str]):
    """Yield (line_number, row) for each data row, after checking the header.

    The header must equal one of ``headers``; every data row must then have
    as many fields as the header it matched. Blank lines are skipped. A row
    is numbered by the line it starts on, which a quoted field holding a
    line break pushes past the count of rows. The row parsers below raise
    without a location; each loader re-raises with ``path:line`` in front,
    so that string is built only for a bad row.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader, width = _data_rows(fh, path, headers)
            end = reader.line_num
            for row in reader:
                line_no, end = end + 1, reader.line_num
                if _is_blank(row):
                    continue
                if len(row) != width:
                    raise TimeseriesFormatError(
                        f"{path}:{line_no}: expected {width} fields, got {len(row)}"
                    )
                yield line_no, row
    except UnicodeDecodeError as exc:
        raise TimeseriesFormatError(_undecodable(path, exc)) from None


def _read_columns(path: Path, header: list[str]):
    """Yield the data rows of ``path`` as a tuple of columns, ``CHUNK_ROWS``
    rows at a time, after checking the header as ``_read_rows`` does.

    Blank lines are skipped. A row with another number of fields, or a byte
    that is not UTF-8, raises ``_Rejected``: the per-row rules then name the
    first bad row, which may come before it.
    """
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader, width = _data_rows(fh, path, (header,))
            while chunk := list(itertools.islice(reader, CHUNK_ROWS)):
                if set(map(len, chunk)) != {width}:
                    if not all(len(row) == width or _is_blank(row) for row in chunk):
                        raise _Rejected
                    chunk = [row for row in chunk if len(row) == width]
                if chunk:
                    yield tuple(zip(*chunk))
    except UnicodeDecodeError:
        raise _Rejected from None


def _codes(texts: tuple, codes: dict, parse) -> np.ndarray:
    """The code of each text of a column, from ``codes`` (text: code). Each
    text not yet in ``codes`` is parsed once, by ``parse``; a text it rejects
    (ValueError, or KeyError for a name it does not know) raises ``_Rejected``."""
    found = list(map(codes.get, texts))
    if None in found:
        for text in dict.fromkeys(texts):
            if text not in codes:
                try:
                    codes[text] = parse(text)
                except (ValueError, KeyError):
                    raise _Rejected from None
        found = list(map(codes.__getitem__, texts))
    return np.array(found, dtype=np.intp)


def _amounts(texts: tuple) -> np.ndarray:
    """A column of energies: each text through ``float``, as ``_parse_float``
    reads it, and every value finite and >= 0, or ``_Rejected``."""
    try:
        values = np.array(list(map(float, texts)))
    except ValueError:
        raise _Rejected from None
    if not (values.min() >= 0.0 and values.max() < math.inf):  # NaN fails both
        raise _Rejected
    return values


def _first_bad_row(path: Path, header: list[str], check) -> TimeseriesFormatError:
    """The error, with ``path:line``, of the first row of ``path`` that breaks
    one of the per-row rules ``check`` applies (each row in file order).

    Run only after the column path rejected the file, so some row breaks a
    rule; a file where none does is an internal error, never a pass.
    """
    for line_no, row in _read_rows(path, header):
        try:
            check(row)
        except TimeseriesFormatError as exc:
            return TimeseriesFormatError(f"{path}:{line_no}: {exc}")
    raise RuntimeError(f"{path}: the column screen rejected the file, but no row breaks a rule")


def _undecodable(path: Path, exc: UnicodeDecodeError) -> str:
    """``path:line`` and the first byte that is not UTF-8. The text reader
    decodes in chunks, so its line count need not be the bad byte's line;
    the file is read again as bytes, one line at a time, to find it."""
    with path.open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                return f"{path}:{line_no}: byte 0x{raw[bad.start]:02x} is not valid UTF-8"
    return f"{path}: {exc}"


def _parse_prices(fields) -> PriceTriple:
    """An admissible (p_f, p_rb, p_rs) triple from three CSV fields."""
    p_f, p_rb, p_rs = (_parse_float(v, name) for v, name in zip(fields, PRICE_HEADER[1:]))
    try:
        return PriceTriple(day_ahead=p_f, rt_buy=p_rb, rt_sell=p_rs)
    except ValueError as exc:
        raise TimeseriesFormatError(str(exc)) from None


def _parse_producer(text: str, seen) -> str:
    producer = text.strip()
    if not producer:
        raise TimeseriesFormatError("empty producer_id")
    if producer in seen:
        raise TimeseriesFormatError(f"duplicate producer {producer!r}")
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


def _first_cell(mask: np.ndarray, hours, producer_ids):
    """(hour, producer) of the first set cell of an (hours x producers)
    mask in row-major order, or None when no cell is set."""
    cells = np.argwhere(mask)
    return (hours[cells[0, 0]], producer_ids[cells[0, 1]]) if cells.size else None


def _generation_rules():
    """The per-row rules of a generation file, as a check that raises on the
    first rule a row breaks; the check remembers the rows it has passed."""
    seen: set[tuple] = set()
    first_kind = None

    def check(row):
        nonlocal first_kind
        hour = _parse_hour(row[0])
        kind = _hour_kind(hour)
        first_kind = first_kind or kind
        if kind != first_kind:
            raise TimeseriesFormatError(
                f"{kind} hour mixes with {first_kind} hours used earlier in the file"
            )
        producer = _parse_producer(row[1], ())
        forecast = _parse_float(row[2], "forecast_mwh")
        actual = _parse_float(row[3], "actual_mwh")
        if forecast < 0.0 or actual < 0.0:
            raise TimeseriesFormatError("negative generation")
        key = (hour, producer)
        if key in seen:
            raise TimeseriesFormatError(
                f"duplicate (hour, producer) key ({_format_hour(hour)}, {producer!r})"
            )
        seen.add(key)

    return check


def _in_sorted_order(codes: dict) -> tuple:
    """The values of ``codes`` (value: code) sorted, and the position of
    each code's value in that order, as an array indexed by code."""
    values = tuple(sorted(codes))
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[[codes[value] for value in values]] = np.arange(len(values))
    return values, ranks


def load_timeseries(path) -> GenerationSeries:
    """Load the generation CSV (hour, producer_id, forecast_mwh, actual_mwh).

    Missing (hour, producer) combinations, duplicates, negative energy, and
    malformed rows are all errors; nothing is imputed.

    The file is parsed a column at a time, ``CHUNK_ROWS`` rows per pass:
    each distinct hour and producer text once, and the numbers, their range
    and the (hour, producer) cells as arrays. When that screen rejects the
    file, ``_generation_rules`` read it again to name the first bad row.
    """
    path = Path(path)
    try:
        return _generation_columns(path)
    except _Rejected:
        pass
    raise _first_bad_row(path, GENERATION_HEADER, _generation_rules())


def _generation_columns(path: Path) -> GenerationSeries:
    hour_codes: dict = {}  # hour: code, in the order first read
    producer_codes: dict[str, int] = {}
    kinds: set[str] = set()

    def hour_code(text):
        hour = _parse_hour(text)
        kinds.add(_hour_kind(hour))
        return hour_codes.setdefault(hour, len(hour_codes))

    def producer_code(text):
        return producer_codes.setdefault(_parse_producer(text, ()), len(producer_codes))

    hour_texts: dict = {}  # text: code, so each distinct text is parsed once
    producer_texts: dict = {}
    hour_parts, producer_parts, forecast_parts, actual_parts = [], [], [], []
    for hour_col, producer_col, forecast_col, actual_col in _read_columns(path, GENERATION_HEADER):
        hour_parts.append(_codes(hour_col, hour_texts, hour_code))
        producer_parts.append(_codes(producer_col, producer_texts, producer_code))
        forecast_parts.append(_amounts(forecast_col))
        actual_parts.append(_amounts(actual_col))
        if len(kinds) > 1:
            raise _Rejected
    if not hour_parts:
        raise TimeseriesFormatError(f"{path}: no data rows")

    hours, hour_ranks = _in_sorted_order(hour_codes)
    producers, producer_ranks = _in_sorted_order(producer_codes)
    cells = hour_ranks[np.concatenate(hour_parts)]
    cells *= len(producers)
    cells += producer_ranks[np.concatenate(producer_parts)]
    blocks = []
    for parts in (forecast_parts, actual_parts):
        block = np.full((len(hours), len(producers)), np.nan)
        block.reshape(-1)[cells] = np.concatenate(parts)
        blocks.append(block)
    named = ~np.isnan(blocks[0])  # every value is finite, so NaN marks a cell no row names
    if np.count_nonzero(named) < len(cells):  # two rows named one cell
        raise _Rejected
    gap = _first_cell(~named, hours, producers)
    if gap is not None:
        raise TimeseriesFormatError(
            f"{path}: missing hour {_format_hour(gap[0])} for producer {gap[1]!r}; "
            "the series must be dense"
        )
    return GenerationSeries(producers, hours, *blocks)


def load_prices(path, series: GenerationSeries) -> tuple:
    """Load the per-hour price CSV (hour, p_f, p_rb, p_rs) for ``series``.

    Every row must name one of the hours of ``series``. The result holds one
    PriceTriple per hour of ``series``, in its order, and None for each hour
    no row names.
    """
    path = Path(path)
    hour_rows = {hour: i for i, hour in enumerate(series.hours)}
    prices: list = [None] * series.n_hours
    for line_no, row in _read_rows(path, PRICE_HEADER):
        try:
            hour, i = _series_row(row[0], hour_rows)
            if prices[i] is not None:
                raise TimeseriesFormatError(f"duplicate hour {_format_hour(hour)}")
            prices[i] = _parse_prices(row[1:])
        except TimeseriesFormatError as exc:
            raise TimeseriesFormatError(f"{path}:{line_no}: {exc}") from None
    if all(p is None for p in prices):
        raise TimeseriesFormatError(f"{path}: no data rows")
    return tuple(prices)


def _schedule_rules(hour_rows: dict, producer_index: dict):
    """The per-row rules of a contract schedule, as ``_generation_rules``
    gives those of a generation file. ``hour_rows`` and ``producer_index``
    map the hours and producers of the generation series to their rows and
    columns."""
    seen: set[tuple] = set()

    def check(row):
        hour, hour_row = _series_row(row[0], hour_rows)
        producer = _parse_producer(row[1], ())
        if producer not in producer_index:
            raise TimeseriesFormatError(f"producer {producer!r} is not in the generation series")
        contract = _parse_float(row[2], "contract_mwh")
        if contract < 0.0:
            raise TimeseriesFormatError("negative contract")
        cell = hour_row, producer_index[producer]
        if cell in seen:
            raise TimeseriesFormatError(
                f"duplicate (hour, producer) key ({_format_hour(hour)}, {producer!r})"
            )
        seen.add(cell)

    return check


def load_contract_schedule(path, series: GenerationSeries) -> np.ndarray:
    """Load a per-hour contract CSV (hour, producer_id, contract_mwh).

    Every row must name one of the hours and one of the producers of
    ``series``, the generation series the schedule is for. The result is an
    (hours x producers) block aligned with ``series``, NaN in each cell no row names.
    The file is parsed as ``load_timeseries`` parses its own.
    """
    path = Path(path)
    hour_rows = {hour: i for i, hour in enumerate(series.hours)}
    producer_index = {producer: i for i, producer in enumerate(series.producer_ids)}
    try:
        return _schedule_columns(path, hour_rows, producer_index)
    except _Rejected:
        pass
    raise _first_bad_row(path, CONTRACT_HEADER, _schedule_rules(hour_rows, producer_index))


def _schedule_columns(path: Path, hour_rows: dict, producer_index: dict) -> np.ndarray:
    n_producers = len(producer_index)
    schedule = np.full((len(hour_rows), n_producers), np.nan)
    cells_of = schedule.reshape(-1)  # a view: one flat index per (hour, producer) cell
    hour_texts: dict = {}
    producer_texts: dict = {}
    rows = 0
    for hour_col, producer_col, contract_col in _read_columns(path, CONTRACT_HEADER):
        cells = _codes(hour_col, hour_texts, lambda text: hour_rows[_parse_hour(text)])
        cells *= n_producers
        cells += _codes(
            producer_col, producer_texts, lambda text: producer_index[_parse_producer(text, ())]
        )
        cells_of[cells] = _amounts(contract_col)
        rows += len(cells)
    if np.count_nonzero(~np.isnan(schedule)) < rows:  # two rows named one cell
        raise _Rejected
    return schedule


def _check_money(scale: float, what: str) -> None:
    """Reject a one-shot input unless 16 times ``scale`` is finite: then no
    settlement or audit of it can overflow (README, "File formats")."""
    if not math.isfinite(16.0 * scale):
        raise TimeseriesFormatError(f"{what} could overflow a settlement")


def load_snapshot(path, prices: PriceTriple | None = None) -> ScenarioSnapshot:
    """Load a one-hour snapshot CSV (producer_id, contract_mwh, actual_mwh).

    Prices come from ``prices`` or from optional p_f, p_rb, p_rs columns,
    which must then hold one admissible triple on every row (equal to
    ``prices`` when both are given). Energies must be finite and >= 0, and
    producer ids nonempty and unique. The row where max(1, |price|) *
    max(1, energy total) leaves ``_check_money``'s range is an error.
    """
    path = Path(path)
    differ = "from --pf/--prb/--prs" if prices is not None else "between rows"
    cells: dict[str, tuple[float, float]] = {}
    total_c = total_x = 0.0
    for line_no, row in _read_rows(path, SNAPSHOT_HEADER, SNAPSHOT_HEADER_PRICED):
        try:
            producer = _parse_producer(row[0], cells)
            contract = _parse_float(row[1], "contract_mwh")
            actual = _parse_float(row[2], "actual_mwh")
            if contract < 0.0 or actual < 0.0:
                raise TimeseriesFormatError("negative energy")
            cells[producer] = (contract, actual)
            if len(row) == len(SNAPSHOT_HEADER_PRICED):
                row_prices = _parse_prices(row[3:])
                if prices is None:
                    prices = row_prices
                elif row_prices != prices:
                    raise TimeseriesFormatError(f"price columns differ {differ}")
            total_c, total_x = total_c + contract, total_x + actual
            if prices is not None:
                price = max(1.0, abs(prices.day_ahead), abs(prices.rt_buy), abs(prices.rt_sell))
                _check_money(price * max(1.0, total_c, total_x), "energy totals at these prices")
        except TimeseriesFormatError as exc:
            raise TimeseriesFormatError(f"{path}:{line_no}: {exc}") from None
    if not cells:
        raise TimeseriesFormatError(f"{path}: no data rows")
    if prices is None:
        raise TimeseriesFormatError(f"{path}: no price columns; pass --pf/--prb/--prs")
    contracts, actuals = np.array(list(cells.values())).T
    return ScenarioSnapshot(tuple(cells), contracts, actuals, prices)


def load_payoffs(path, snapshot: ScenarioSnapshot) -> PayoffAllocation:
    """Load an external payoff vector (producer_id, payoff) for ``snapshot``.

    Every snapshot producer needs exactly one finite payoff, and every row
    must name a snapshot producer. The row where the sum of |payoff| leaves
    ``_check_money``'s range is an error.
    """
    path = Path(path)
    known = set(snapshot.producer_ids)
    by_id: dict[str, float] = {}
    magnitude = 0.0
    for line_no, row in _read_rows(path, PAYOFF_HEADER):
        try:
            producer = _parse_producer(row[0], by_id)
            if producer not in known:
                raise TimeseriesFormatError(f"producer {producer!r} is not in the snapshot")
            by_id[producer] = _parse_float(row[1], "payoff")
            magnitude += abs(by_id[producer])
            _check_money(magnitude, "the sum of |payoff|")
        except TimeseriesFormatError as exc:
            raise TimeseriesFormatError(f"{path}:{line_no}: {exc}") from None
    missing = [p for p in snapshot.producer_ids if p not in by_id]
    if missing:
        raise TimeseriesFormatError(f"{path}: no payoff for producer {missing[0]!r}")
    payoffs = np.array([by_id[p] for p in snapshot.producer_ids])
    return PayoffAllocation(payoffs, aggregator_payoff(snapshot))


def _in_order(rows: np.ndarray) -> np.ndarray:
    """The sum of ``rows``, added one row at a time, in order, from zeros.
    Never ``sum(axis=0)``: that sums a lone producer's column pairwise, and
    a total started from the first row would keep its ``-0.0``. Read-only,
    since a report keeps it."""
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total += row
    total.setflags(write=False)
    return total


@dataclass(frozen=True)
class SimulationReport:
    """A settled and audited simulation window, held as columns.

    The (hours x producers) blocks ``contracts``, ``realizations``,
    ``payoffs_pooled`` and ``payoffs_separate`` have one row per entry of
    ``hours`` and one column per entry of ``producer_ids``. Every other
    field has one entry per hour: the pool's ``aggregator_payoff`` and
    ``excess_profit``, then the audit of that hour's pooled payoffs, each
    equal to the field of ``run_property_checks``'s ``PropertyReport`` it is
    named after: ``budget_ok`` and ``budget_residual``; ``ir_ok``,
    ``ir_worst_margin`` and ``ir_worst_index`` (-1 with no producers);
    ``fair``; ``no_exploitation``; and ``in_core``. ``core_coalition`` and
    ``core_worst`` are the ``CoreResult``'s ``worst_coalition`` and
    ``worst_violation``: None and the bound in the hours the three-point
    bound proves. The totals are added up on
    first access and kept, and ``violation_counts`` is derived on each
    access; totals add the hours in order, starting from zero.
    """

    producer_ids: tuple[str, ...]
    hours: tuple
    contracts: np.ndarray
    realizations: np.ndarray
    payoffs_pooled: np.ndarray
    payoffs_separate: np.ndarray
    aggregator_payoff: np.ndarray
    excess_profit: np.ndarray
    budget_ok: np.ndarray
    budget_residual: np.ndarray
    ir_ok: np.ndarray
    ir_worst_margin: np.ndarray
    ir_worst_index: np.ndarray
    fair: np.ndarray
    no_exploitation: np.ndarray
    in_core: np.ndarray
    core_worst: np.ndarray
    core_coalition: tuple

    @property
    def n_hours(self) -> int:
        return len(self.hours)

    @cached_property
    def totals_pooled(self) -> np.ndarray:
        return _in_order(self.payoffs_pooled)

    @cached_property
    def totals_separate(self) -> np.ndarray:
        return _in_order(self.payoffs_separate)

    @property
    def grand_total_pooled(self) -> float:
        return float(self.totals_pooled.sum())

    @property
    def grand_total_separate(self) -> float:
        return float(self.totals_separate.sum())

    @cached_property
    def total_excess_profit(self) -> float:
        return float(_in_order(self.excess_profit))

    @property
    def all_pass(self) -> np.ndarray:
        """Per hour, whether all five properties hold."""
        return self.budget_ok & self.ir_ok & self.fair & self.no_exploitation & self.in_core

    @property
    def violation_counts(self) -> dict[str, int]:
        columns = {
            "budget_balance": self.budget_ok,
            "individual_rationality": self.ir_ok,
            "fairness": self.fair,
            "no_exploitation": self.no_exploitation,
            "core": self.in_core,
        }
        return {name: len(ok) - int(np.count_nonzero(ok)) for name, ok in columns.items()}


def _check_ranges(train_range, sim_range, n_hours: int) -> None:
    for name, (start, stop) in (("train_range", train_range), ("sim_range", sim_range)):
        if not (0 <= start < stop <= n_hours):
            raise ValueError(
                f"{name} [{start}, {stop}) invalid for {n_hours} available hours"
            )
    if train_range[1] > sim_range[0]:
        raise ValueError("training window must end before the simulation window starts")


def _contract_block(
    data: GenerationSeries, prices, train_range, sim_range, schedule
) -> np.ndarray:
    """(hours x producers) contracts for the simulation window.

    Sliced from ``schedule`` when one is given; otherwise the news-vendor
    contracts for each hour's forecasts, the producers' training error
    spreads and that hour's prices (``prices`` covers the window only).
    """
    s0, s1 = sim_range
    if schedule is not None:
        if np.shape(schedule) != data.forecasts.shape:
            raise ValueError(
                f"contract schedule must be (hours x producers) {data.forecasts.shape}"
            )
        block = np.array(schedule[s0:s1], dtype=float)
        gap = _first_cell(np.isnan(block), data.hours[s0:s1], data.producer_ids)
        if gap is not None:
            raise ValueError(
                f"contract schedule missing hour {_format_hour(gap[0])} for producer {gap[1]!r}"
            )
        return block
    for hour, hour_prices in zip(data.hours[s0:s1], prices):
        if critical_quantile(hour_prices) >= 1.0:
            raise ValueError(
                f"hour {_format_hour(hour)} has p_f >= p_rb, so its news-vendor contract is "
                "unbounded; give the contracts as a schedule (--contracts)"
            )
    t0, t1 = train_range
    spread = error_spread(data.forecasts[t0:t1], data.actuals[t0:t1])
    return optimal_contracts(data.forecasts[s0:s1], spread, prices)


def run_simulation(
    data: GenerationSeries, prices, train_range, sim_range, *, contracts=None
) -> SimulationReport:
    """Settle every hour of the simulation window and audit each allocation.

    ``prices`` holds one PriceTriple per hour of ``data``, as ``load_prices``
    returns them; an hour outside the simulation window may have None.
    Ranges are half-open [start, stop) positions into the sorted hour axis,
    and the training range must end before the simulation range begins.
    Contracts come from ``contracts`` when it is given, an (hours x
    producers) block over the whole series as ``load_contract_schedule``
    returns it; otherwise from news-vendor sizing on the training window's
    error spread.

    Contracts and realizations must be finite and >= 0 in every cell of the
    window, and each hour's energy totals, priced, inside ``_check_money``'s
    range. The whole (hours x producers) block is settled at once, each
    hour's marginal price from its totals, and the payoffs and pooling gain
    equal the one-shot functions' bit for bit. The window is then audited
    at once (see ``SimulationReport``); each hour's verdicts equal
    ``run_property_checks``'s. A window whose payoffs or pooling gains add
    up past the float range is an error, found before any file is written.
    """
    _check_ranges(train_range, sim_range, data.n_hours)
    if len(prices) != data.n_hours:
        raise ValueError(
            f"prices must hold one entry per hour of the series ({data.n_hours}), "
            f"got {len(prices)}"
        )
    s0, s1 = sim_range
    hours, window = data.hours[s0:s1], prices[s0:s1]
    for hour, hour_prices in zip(hours, window):
        if hour_prices is None:
            raise ValueError(f"no prices supplied for hour {_format_hour(hour)}")
    contracts = _contract_block(data, window, train_range, sim_range, contracts)
    # C order: each row total then adds its cells as a one-hour vector would
    contracts = np.ascontiguousarray(contracts)
    realizations = data.actuals[s0:s1].copy()
    for name, block in (("contracts", contracts), ("realizations", realizations)):
        bad = _first_cell(~(np.isfinite(block) & (block >= 0.0)), hours, data.producer_ids)
        if bad is not None:
            raise ValueError(
                f"{name} of hour {_format_hour(bad[0])}, producer {bad[1]!r} must be finite, >= 0"
            )

    pf, rb, rs = np.array([(p.day_ahead, p.rt_buy, p.rt_sell) for p in window]).T[..., None]
    columns = SimpleNamespace(day_ahead=pf, rt_buy=rb, rt_sell=rs)  # (hours x 1) each
    with np.errstate(over="ignore"):  # an hour that overflows is rejected, not warned about
        total_c = contracts.sum(axis=1, keepdims=True)
        total_x = realizations.sum(axis=1, keepdims=True)
        price = np.maximum(1.0, np.abs(np.hstack([pf, rb, rs])).max(axis=1, keepdims=True))
        money = 16.0 * price * np.maximum(1.0, np.maximum(total_c, total_x))
    bad = _first_cell(~np.isfinite(money), hours, data.producer_ids)  # _check_money's rule
    if bad is not None:
        raise ValueError(f"energy totals of hour {_format_hour(bad[0])} at its prices could "
                         "overflow a settlement")
    pooled = _pam(contracts, realizations, pf, _marginal_array(total_c, total_x, rb, rs))
    separate = settle(contracts, realizations, columns)
    pool = settle(total_c, total_x, columns).ravel()
    report = SimulationReport(
        producer_ids=data.producer_ids,
        hours=hours,
        contracts=contracts,
        realizations=realizations,
        payoffs_pooled=pooled,
        payoffs_separate=separate,
        aggregator_payoff=pool,
        excess_profit=np.array(
            [_pooling_gain(dev, p.spread) for dev, p in zip(realizations - contracts, window)]
        ),
        **_audit_window(contracts, realizations, pooled, separate, pool, columns),
    )
    # The totals are added once here, under errstate, and kept, so a window
    # that overflows is rejected before emit_report or the CLI reads them,
    # and no numpy warning is printed.
    with np.errstate(over="ignore", invalid="ignore"):
        totals = report.grand_total_pooled, report.grand_total_separate, report.total_excess_profit
    if not all(map(math.isfinite, totals)):
        raise ValueError(f"window of hours {_format_hour(hours[0])} to "
                         f"{_format_hour(hours[-1])}: its payoffs add up past the float range")
    return report


_FILENAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-")


def _safe_filename(producer_id: str) -> str:
    """``producer_id`` with each character outside ASCII letters, digits,
    ``.``, ``_`` and ``-`` replaced by ``_``."""
    if _FILENAME_CHARS.issuperset(producer_id):
        return producer_id
    return "".join(c if c in _FILENAME_CHARS else "_" for c in producer_id)


def trace_file_names(producer_ids) -> list[str]:
    """Each producer's ``trace_<id>.csv`` name; two ids whose names differ only
    in letter case, one file on a case-insensitive filesystem, are an error."""
    names = [f"trace_{_safe_filename(producer)}.csv" for producer in producer_ids]
    first: dict[str, int] = {}  # casefolded name: position of the first id to claim it
    for i, name in enumerate(names):
        j = first.setdefault(name.casefold(), i)
        if j != i:
            pair = producer_ids[j], producer_ids[i]
            raise ValueError(f"producers {pair[0]!r} and {pair[1]!r} would both write {name}")
    return names


EMIT_CELLS = 1 << 16
"""Hours x producers cells ``emit_report`` turns into text per pass: enough
that a window of a few hundred producers is written in one pass, few enough
that no whole-window set of strings is ever alive."""

WRITE_CHARS = 1 << 16
"""Characters of ``hourly.csv`` gathered, in whole hours, before a write."""

_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)
_APPEND = os.O_WRONLY | os.O_APPEND | getattr(os, "O_BINARY", 0)


def csv_field(text: str) -> str:
    """``text`` as one field of a CSV file that poolpay writes: quoted, with
    its quotes doubled, when it holds a comma, a quote, LF or CR."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(rows) -> str:
    """Rows of ready fields as CSV text, each line ending in LF. Every row
    has at least two fields, so an empty text means no rows."""
    text = "\n".join(map(",".join, rows))
    return text + "\n" if text else text


def _write_all(fd: int, text: str) -> None:
    data = memoryview(text.encode("utf-8"))
    while data:
        data = data[os.write(fd, data):]


def _write_file(path: Path, text: str, flags: int) -> None:
    fd = os.open(path, flags, 0o666)
    try:
        _write_all(fd, text)
    finally:
        os.close(fd)


def emit_report(report: SimulationReport, out_dir) -> list[Path]:
    """Write hourly.csv, summary.csv, and one trace file per producer.

    Floats are written with their shortest exact representation, so a
    reload reproduces every payoff bit for bit and two runs with the same
    inputs produce byte-identical files. Ids and hour labels follow
    ``csv_field``. Two producers whose ids map to the same trace file name
    are an error, raised before any file is written.

    Each file is truncated on open. The window is turned into text
    ``EMIT_CELLS`` cells at a time: the first pass creates each trace file
    with its header, and later passes append to it.
    """
    trace_names = trace_file_names(report.producer_ids)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    hourly_path, summary_path = out_dir / "hourly.csv", out_dir / "summary.csv"
    trace_paths = [out_dir / name for name in trace_names]

    ids = list(map(csv_field, report.producer_ids))
    labels = [csv_field(_format_hour(hour)) for hour in report.hours]
    tails = [
        f"{aggregator!r},{excess!r},{passed}"
        for aggregator, excess, passed in zip(
            report.aggregator_payoff.tolist(), report.excess_profit.tolist(),
            report.all_pass.tolist(),
        )
    ]
    step = max(1, EMIT_CELLS // max(1, len(ids)))
    fd = os.open(hourly_path, _CREATE, 0o666)
    try:
        pending, size = [_csv_text([HOURLY_HEADER])], 0
        for start in range(0, max(1, len(labels)), step):
            window = slice(start, start + step)
            # each pooled and separate payoff is repr-ed once, for both files;
            # every block is turned into Python floats an hour at a time
            pooled = [list(map(repr, row.tolist())) for row in report.payoffs_pooled[window]]
            separate = [list(map(repr, row.tolist())) for row in report.payoffs_separate[window]]
            for label, c_row, x_row, pp_row, ps_row, tail in zip(
                labels[window], report.contracts[window], report.realizations[window],
                pooled, separate, tails[window],
            ):
                hour = _csv_text(zip(
                    itertools.repeat(label), ids, map(repr, c_row.tolist()),
                    map(repr, x_row.tolist()), pp_row, ps_row, itertools.repeat(tail),
                ))
                pending.append(hour)
                size += len(hour)
                if size >= WRITE_CHARS:
                    _write_all(fd, "".join(pending))
                    pending, size = [], 0
            head, flags = (_csv_text([TRACE_HEADER]), _CREATE) if start == 0 else ("", _APPEND)
            # with no hours, each trace file gets its header alone
            columns = zip(zip(*pooled), zip(*separate)) if pooled else itertools.repeat(((), ()))
            for path, (pp_column, ps_column) in zip(trace_paths, columns):
                text = head + _csv_text(zip(labels[window], pp_column, ps_column))
                _write_file(path, text, flags)
            del pooled, separate, columns  # before the next chunk's strings are made
        _write_all(fd, "".join(pending))
    finally:
        os.close(fd)

    pooled, separate = report.totals_pooled, report.totals_separate  # each added up once
    summary = [[producer, repr(p), repr(s)]
               for producer, p, s in zip(ids, pooled.tolist(), separate.tolist())]
    if ids:  # the grand totals, as SimulationReport's
        summary.append(["TOTAL", repr(float(pooled.sum())), repr(float(separate.sum()))])
    _write_file(summary_path, _csv_text([SUMMARY_HEADER, *summary]), _CREATE)
    return [hourly_path, summary_path, *trace_paths]
