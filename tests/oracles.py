"""Independent oracles used only by the test suite.

These deliberately avoid the library's own code paths: expected payoffs are
evaluated from raw samples via sorted prefix sums, or by direct quadrature
against the distribution's pdf, so the closed-form contract formula is
checked against something it cannot share a bug with; the core, fairness
and no-exploitation audits are checked against plain loops over every
coalition, pair or producer, and the exchange market's one greedy sweep
against a loop per pool side. The two simulate loaders are checked against
their row-by-row forms, which parse and check one row at a time through the
field parsers that define the file formats. The report writer is checked
against its earlier form, which wrote every file through ``csv.writer``
with the whole window's strings alive at once, and its trace file names
against the regular expression that first defined them.
"""
import csv
import math
import re
from pathlib import Path

import numpy as np
from scipy import integrate, stats

from poolpay.simulator import (
    CONTRACT_HEADER,
    GENERATION_HEADER,
    HOURLY_HEADER,
    SUMMARY_HEADER,
    TRACE_HEADER,
    GenerationSeries,
    SimulationReport,
    TimeseriesFormatError,
    _first_cell,
    _format_hour,
    _hour_kind,
    _parse_float,
    _parse_hour,
    _parse_producer,
    _series_row,
    _undecodable,
    trace_file_names,
)


def mc_payoff_curve(sample, contracts, prices):
    """Monte Carlo mean and standard error of the stand-alone payoff at each
    contract, over one fixed sample.

    Uses prefix sums over the sorted sample so a fine contract grid stays
    cheap: with k samples below contract c,
    sum (c - x)+ = k c - prefix_k and sum (x - c)+ = total - prefix_k - (M - k) c.
    """
    s = np.sort(np.asarray(sample, dtype=float))
    m = s.shape[0]
    prefix = np.concatenate([[0.0], np.cumsum(s)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(s * s)])
    total, total_sq = prefix[-1], prefix_sq[-1]

    c = np.asarray(contracts, dtype=float)
    k = np.searchsorted(s, c, side="left")
    below = prefix[k]
    below_sq = prefix_sq[k]

    e_short = (k * c - below) / m
    e_long = (total - below - (m - k) * c) / m
    e_short_sq = (k * c * c - 2.0 * c * below + below_sq) / m
    e_long_sq = ((total_sq - below_sq) - 2.0 * c * (total - below) + (m - k) * c * c) / m

    pf, pb, ps = prices.day_ahead, prices.rt_buy, prices.rt_sell
    mean = pf * c - pb * e_short + ps * e_long
    # (c-x)+ and (x-c)+ never overlap, so the cross moment vanishes
    second = (
        (pf * c) ** 2
        - 2.0 * pf * c * pb * e_short
        + 2.0 * pf * c * ps * e_long
        + pb * pb * e_short_sq
        + ps * ps * e_long_sq
    )
    variance = np.maximum(second - mean * mean, 0.0)
    return mean, np.sqrt(variance / m)


def truncated_normal(mean, std_dev, upper_bound=math.inf):
    """The generation model of one producer's hour as a frozen scipy
    distribution: a normal with ``std_dev > 0`` truncated to [0, upper_bound].
    Its ``.rvs(size=count, random_state=rng)`` draws the Monte Carlo samples."""
    a = (0.0 - mean) / std_dev
    b = (upper_bound - mean) / std_dev
    return stats.truncnorm(a, b, loc=mean, scale=std_dev)


def newsvendor_contract(mean, std_dev, q, upper_bound=math.inf):
    """One cell of the news-vendor rule, sized on its own: the cap at level
    1, nothing at level 0, the clipped mean at zero spread, else a frozen
    ``stats.truncnorm(a, b, loc, scale).ppf(q)``, floored with Python's
    ``max(0.0, .)`` (which maps NaN and -0.0 to 0.0). scipy's NaN for an
    interval that is empty in floats becomes the cap when the mean lies
    above it."""
    if q >= 1.0:
        return max(0.0, upper_bound)
    if q <= 0.0:
        return 0.0
    if std_dev == 0.0:
        return max(0.0, min(max(mean, 0.0), upper_bound))
    quantile = float(truncated_normal(mean, std_dev, upper_bound).ppf(q))
    if math.isnan(quantile) and mean > upper_bound:
        return upper_bound
    return max(0.0, quantile)


def quad_expected_payoff(mean, std_dev, upper_bound, contract, prices):
    """Expected stand-alone payoff by direct quadrature of the truncated pdf."""
    if std_dev == 0.0:
        point = min(max(mean, 0.0), upper_bound)
        return (
            prices.day_ahead * contract
            - prices.rt_buy * max(contract - point, 0.0)
            + prices.rt_sell * max(point - contract, 0.0)
        )
    frozen = truncated_normal(mean, std_dev, upper_bound)
    upper = upper_bound if math.isfinite(upper_bound) else np.inf
    short = 0.0
    if contract > 0.0:
        short = integrate.quad(lambda x: (contract - x) * frozen.pdf(x), 0.0, contract)[0]
    long_ = 0.0
    if upper > contract:
        long_ = integrate.quad(lambda x: (x - contract) * frozen.pdf(x), contract, upper)[0]
    return prices.day_ahead * contract - prices.rt_buy * short + prices.rt_sell * long_


def coalition_excess(contracts, realizations, payoffs, prices, members):
    """``v(T) - allocated(T)`` of the coalition ``members`` and its allowance
    ``1e-9 * max(1, |v(T)|, |allocated(T)|)``. The sums add the members with
    ``+=`` in index order from 0.0 (not ``sum()``, which adds floats with
    compensation on Python 3.12)."""
    c = x = paid = 0.0
    for i in sorted(members):
        c += float(contracts[i])
        x += float(realizations[i])
        paid += float(payoffs[i])
    shortfall = max(c - x, 0.0)
    value = (
        prices.day_ahead * c
        - prices.rt_buy * shortfall
        + prices.rt_sell * (shortfall - (c - x))
    )
    return value - paid, 1e-9 * max(1.0, abs(value), abs(paid))


def core_scan(contracts, realizations, payoffs, prices):
    """Exhaustive core audit as a Python loop over bitmasks 1 .. 2^n - 1,
    each coalition judged by ``coalition_excess``.

    Returns (no violation, worst ``v(T) - allocated(T)``, its coalition),
    the worst being the first, lowest-bitmask coalition to reach it. With a
    violation, the worst is taken over the coalitions beyond their own
    allowance only.
    """
    n = len(contracts)
    worst, witness = -math.inf, None
    bad, named = -math.inf, None
    for mask in range(1, 1 << n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        violation, allowance = coalition_excess(contracts, realizations, payoffs, prices, members)
        if violation > allowance and violation > bad:
            bad, named = violation, members
        if violation > worst:
            worst, witness = violation, members
    return (True, worst, witness) if named is None else (False, bad, named)


def lp_minimum(alpha, beta):
    """min over lam in [0, 1] of U(lam) = sum of max(0, lam * alpha_i + (1 -
    lam) * beta_i), by brute force: U is convex and piecewise linear, so its
    minimum lies at 0, at 1 or at a breakpoint beta_i / (beta_i - alpha_i)."""
    points = [0.0, 1.0] + [b / (b - a) for a, b in zip(alpha, beta) if a != b and 0.0 < b / (b - a) < 1.0]
    return min(sum(max(0.0, lam * a + (1.0 - lam) * b) for a, b in zip(alpha, beta)) for lam in points)


def _close(a, b):
    """The library's equality rule, written out: |a - b| <= 1e-9 * max(1, |a|, |b|)."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def fairness_scan(contracts, realizations, payoffs, prices):
    """Fairness as a loop over all n(n - 1) / 2 pairs: any two producers with
    equal deviations ``c - x`` must have equal margins ``p - day_ahead * c``."""
    contracts = np.asarray(contracts, dtype=float)
    dev = contracts - np.asarray(realizations, dtype=float)
    margin = np.asarray(payoffs, dtype=float) - prices.day_ahead * contracts
    n = len(dev)
    for i in range(n):
        for j in range(i + 1, n):
            if _close(dev[i], dev[j]) and not _close(margin[i], margin[j]):
                return False
    return True


def no_exploitation_scan(contracts, realizations, payoffs, prices):
    """No-exploitation as a loop over producers: one that delivers its
    contract gets exactly its forward revenue ``day_ahead * c``."""
    for c, x, p in zip(contracts, realizations, payoffs):
        if _close(x, c) and not _close(p, prices.day_ahead * c):
            return False
    return True


def greedy_reallocation(c, x):
    """The exchange market's greedy holdings with one loop per pool side: a
    short pool pins its surplus members to their contracts and tops up its
    deficit members in index order; a long or balanced pool pins its deficit
    members and drains its surplus members in index order. Each loop stops
    once the pinned side's total deviation is spent."""
    z = x.astype(float).copy()
    surplus = x >= c
    total_dev = float(x.sum() - c.sum())
    if total_dev < 0.0:
        pool = float((x[surplus] - c[surplus]).sum())
        z[surplus] = c[surplus]
        for i in np.nonzero(~surplus)[0]:
            if pool <= 0.0:
                break
            take = min(pool, float(c[i] - x[i]))
            z[i] = x[i] + take
            pool -= take
    else:
        need = float((c[~surplus] - x[~surplus]).sum())
        z[~surplus] = c[~surplus]
        for i in np.nonzero(surplus)[0]:
            if need <= 0.0:
                break
            give = min(need, float(x[i] - c[i]))
            z[i] = x[i] - give
            need -= give
    return z


def _read_rows(path, *headers):
    """Yield (line_number, row) for each data row, after checking the header;
    a row is numbered by the line it starts on."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
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
            end = reader.line_num
            for row in reader:
                line_no, end = end + 1, reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise TimeseriesFormatError(
                        f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                    )
                yield line_no, row
    except UnicodeDecodeError as exc:
        raise TimeseriesFormatError(_undecodable(path, exc)) from None


def load_timeseries(path):
    """The generation loader one row at a time: every rule checked on each
    row in file order, the result gathered in lists of Python objects."""
    path = Path(path)
    hour_col, producer_col, forecast_col, actual_col = [], [], [], []
    seen = set()
    first_kind = None
    for line_no, row in _read_rows(path, GENERATION_HEADER):
        try:
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
            hour_col.append(hour)
            producer_col.append(producer)
            forecast_col.append(forecast)
            actual_col.append(actual)
        except TimeseriesFormatError as exc:
            raise TimeseriesFormatError(f"{path}:{line_no}: {exc}") from None
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
    gap = _first_cell(np.isnan(forecasts), hours, producers)
    if gap is not None:
        raise TimeseriesFormatError(
            f"{path}: missing hour {_format_hour(gap[0])} for producer {gap[1]!r}; "
            "the series must be dense"
        )
    return GenerationSeries(producers, hours, forecasts, actuals)


def load_contract_schedule(path, series):
    """The contract schedule loader one row at a time, as ``load_timeseries``."""
    path = Path(path)
    hour_rows = {hour: i for i, hour in enumerate(series.hours)}
    producer_index = {producer: i for i, producer in enumerate(series.producer_ids)}
    schedule = np.full((series.n_hours, series.n_producers), np.nan)
    for line_no, row in _read_rows(path, CONTRACT_HEADER):
        try:
            hour, hour_row = _series_row(row[0], hour_rows)
            producer = _parse_producer(row[1], ())
            if producer not in producer_index:
                raise TimeseriesFormatError(
                    f"producer {producer!r} is not in the generation series"
                )
            contract = _parse_float(row[2], "contract_mwh")
            if contract < 0.0:
                raise TimeseriesFormatError("negative contract")
            cell = hour_row, producer_index[producer]
            if not math.isnan(schedule[cell]):
                raise TimeseriesFormatError(
                    f"duplicate (hour, producer) key ({_format_hour(hour)}, {producer!r})"
                )
            schedule[cell] = contract
        except TimeseriesFormatError as exc:
            raise TimeseriesFormatError(f"{path}:{line_no}: {exc}") from None
    return schedule


def safe_filename(producer_id: str) -> str:
    """A producer id as its trace file name holds it: every character but
    ASCII letters, digits, ``.``, ``_`` and ``-`` replaced by ``_``."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", producer_id)


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
    inputs produce byte-identical files. Two producers whose ids map to the
    same trace file name are an error, raised before any file is written.
    """
    trace_names = trace_file_names(report.producer_ids)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    labels = [_format_hour(hour) for hour in report.hours]
    pooled = _repr_rows(report.payoffs_pooled.T)  # one list per producer
    separate = _repr_rows(report.payoffs_separate.T)

    hourly_path = out_dir / "hourly.csv"
    hourly_rows = (
        [label, producer, c, x, pp, ps, aggregator, excess, passed]
        for label, c_row, x_row, pp_row, ps_row, aggregator, excess, passed in zip(
            labels,
            _repr_rows(report.contracts),
            _repr_rows(report.realizations),
            zip(*pooled),
            zip(*separate),
            map(repr, report.aggregator_payoff.tolist()),
            map(repr, report.excess_profit.tolist()),
            map(str, report.all_pass.tolist()),
        )
        for producer, c, x, pp, ps in zip(report.producer_ids, c_row, x_row, pp_row, ps_row)
    )
    _write_csv(hourly_path, HOURLY_HEADER, hourly_rows)
    written.append(hourly_path)

    summary_path = out_dir / "summary.csv"
    summary_rows = [
        [producer, repr(total_pooled), repr(total_separate)]
        for producer, total_pooled, total_separate in zip(
            report.producer_ids, report.totals_pooled.tolist(), report.totals_separate.tolist()
        )
    ]
    if report.producer_ids:
        grand_totals = [report.grand_total_pooled, report.grand_total_separate]
        summary_rows.append(["TOTAL", *map(repr, grand_totals)])
    _write_csv(summary_path, SUMMARY_HEADER, summary_rows)
    written.append(summary_path)

    for name, pp_column, ps_column in zip(trace_names, pooled, separate):
        trace_path = out_dir / name
        _write_csv(trace_path, TRACE_HEADER, zip(labels, pp_column, ps_column))
        written.append(trace_path)

    return written
