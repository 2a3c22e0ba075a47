import csv
import dataclasses
import functools
import io
import math
import operator
import re
import tracemalloc
import types
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolpay import (
    GenerationSeries,
    PayoffAllocation,
    PriceTriple,
    ScenarioSnapshot,
    TimeseriesFormatError,
    aggregator_payoff,
    allocate,
    emit_report,
    excess_profit,
    load_prices,
    load_timeseries,
    marginal_price,
    run_property_checks,
    run_simulation,
    separate_payoffs,
)
from poolpay import allocation, simulator
from poolpay.simulator import (
    CONTRACT_HEADER,
    GENERATION_HEADER,
    load_contract_schedule,
    load_payoffs,
    load_snapshot,
    trace_file_names,
)

import oracles
from conftest import price_triples
from oracles import newsvendor_contract

P = PriceTriple(day_ahead=10.0, rt_buy=15.0, rt_sell=5.0)


def write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def generation_file(tmp_path, rows, name="gen.csv"):
    return write_csv(tmp_path / name, ["hour", "producer_id", "forecast_mwh", "actual_mwh"], rows)


def price_file(tmp_path, rows):
    return write_csv(tmp_path / "prices.csv", ["hour", "p_f", "p_rb", "p_rs"], rows)


def every_hour(data, prices=P):
    """One price triple for every hour of ``data``."""
    return (prices,) * data.n_hours


class TestLoadTimeseries:
    def test_single_producer_three_hours(self, tmp_path):
        path = generation_file(
            tmp_path, [[0, "w1", 10.0, 12.0], [1, "w1", 11.0, 9.0], [2, "w1", 12.0, 12.0]]
        )
        data = load_timeseries(path)
        assert data.producer_ids == ("w1",)
        assert data.hours == (0, 1, 2)
        np.testing.assert_allclose(data.forecasts[:, 0], [10.0, 11.0, 12.0])
        np.testing.assert_allclose(data.actuals[:, 0], [12.0, 9.0, 12.0])

    def test_rows_in_any_order(self, tmp_path):
        path = generation_file(
            tmp_path,
            [[1, "b", 2.0, 2.0], [0, "a", 1.0, 1.0], [0, "b", 2.0, 2.0], [1, "a", 1.0, 1.0]],
        )
        data = load_timeseries(path)
        assert data.producer_ids == ("a", "b")
        assert data.hours == (0, 1)
        np.testing.assert_array_equal(data.forecasts, [[1.0, 2.0], [1.0, 2.0]])

    def test_iso_timestamps(self, tmp_path):
        path = generation_file(
            tmp_path,
            [["2004-02-01T00:00:00", "w1", 10.0, 12.0], ["2004-02-01T01:00:00", "w1", 11.0, 9.0]],
        )
        data = load_timeseries(path)
        assert data.hours[0].year == 2004

    def test_duplicate_key_names_line(self, tmp_path):
        path = generation_file(tmp_path, [[0, "w1", 10.0, 12.0], [0, "w1", 11.0, 9.0]])
        with pytest.raises(TimeseriesFormatError, match=r":3: duplicate"):
            load_timeseries(path)

    def test_negative_generation_rejected(self, tmp_path):
        path = generation_file(tmp_path, [[0, "w1", 10.0, -5.0]])
        with pytest.raises(TimeseriesFormatError, match=r":2: negative"):
            load_timeseries(path)

    def test_malformed_number_names_line(self, tmp_path):
        path = generation_file(tmp_path, [[0, "w1", "ten", 5.0]])
        with pytest.raises(TimeseriesFormatError, match=r":2: .*not a number"):
            load_timeseries(path)

    def test_missing_hour_rejected(self, tmp_path):
        path = generation_file(
            tmp_path, [[0, "a", 1.0, 1.0], [0, "b", 2.0, 2.0], [1, "a", 1.0, 1.0]]
        )
        message = f"{path}: missing hour 1 for producer 'b'; the series must be dense"
        with pytest.raises(TimeseriesFormatError, match=re.escape(message)):
            load_timeseries(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["hour", "producer", "fc", "ac"], [[0, "a", 1, 1]])
        with pytest.raises(TimeseriesFormatError, match="header"):
            load_timeseries(path)

    def test_mixed_hour_types_rejected(self, tmp_path):
        path = generation_file(
            tmp_path, [[0, "a", 1.0, 1.0], ["2004-02-01T00:00:00", "a", 1.0, 1.0]]
        )
        with pytest.raises(TimeseriesFormatError, match="mixes"):
            load_timeseries(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TimeseriesFormatError, match="empty"):
            load_timeseries(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # a spreadsheet saves UTF-8 CSV with a byte-order mark in front
        bom = "\ufeff".encode()
        gen = tmp_path / "gen.csv"
        gen.write_bytes(bom + b"hour,producer_id,forecast_mwh,actual_mwh\n0,w1,10,12\n1,w1,11,9\n")
        data = load_timeseries(gen)
        assert data.producer_ids == ("w1",)
        np.testing.assert_array_equal(data.actuals[:, 0], [12.0, 9.0])
        snap = tmp_path / "snap.csv"
        snap.write_bytes(bom + b"producer_id,contract_mwh,actual_mwh,p_f,p_rb,p_rs\na,100,80,10,15,5\n")
        snapshot = load_snapshot(snap)
        assert snapshot.producer_ids == ("a",)
        assert snapshot.prices == P
        prices = tmp_path / "prices.csv"
        prices.write_bytes(bom + b"hour,p_f,p_rb,p_rs\n1,10,15,5\n0,10,15,5\n")
        assert load_prices(prices, data) == (P, P)
        schedule = tmp_path / "contracts.csv"
        schedule.write_bytes(bom + b"hour,producer_id,contract_mwh\n0,w1,10\n1,w1,11\n")
        assert load_contract_schedule(schedule, data).tolist() == [[10.0], [11.0]]
        payoffs = tmp_path / "payoffs.csv"
        payoffs.write_bytes(bom + b"producer_id,payoff\na,700\n")
        assert load_payoffs(payoffs, snapshot).payoffs.tolist() == [700.0]
        # a bad byte after the mark is still named by its line
        gen.write_bytes(bom + b"hour,producer_id,forecast_mwh,actual_mwh\n0,w1,10,12\n1,\xffw1,11,9\n")
        with pytest.raises(TimeseriesFormatError, match=r"gen.csv:3: byte 0xff is not valid UTF-8"):
            load_timeseries(gen)


# Each loader's header and two data rows. The second row's first field is
# where a U+FEFF after line 1 is put: it stays data.
_MARKED = {
    "generation": ("hour,producer_id,forecast_mwh,actual_mwh", "0,w1,10,12", "1,w1,11,9"),
    "prices": ("hour,p_f,p_rb,p_rs", "0,10,15,5", "1,10,15,5"),
    "schedule": ("hour,producer_id,contract_mwh", "0,w1,10", "1,w1,11"),
    "snapshot": ("producer_id,contract_mwh,actual_mwh,p_f,p_rb,p_rs",
                 "a,100,80,10,15,5", "w1,50,60,10,15,5"),
    "payoffs": ("producer_id,payoff", "a,700", "w1,650"),
}


def _load_marked(tmp_path, kind: str, text: str):
    """Load ``text``, written as UTF-8, with the loader of ``kind``; the
    result as plain values. Prices, schedule and payoffs are read for the
    clean generation and snapshot files of ``_MARKED``."""
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(text.encode())
    if kind == "snapshot":
        snapshot = load_snapshot(path)
        return snapshot.producer_ids, snapshot.contracts.tolist(), snapshot.prices
    if kind == "payoffs":
        snapshot = tmp_path / "clean_snapshot.csv"
        snapshot.write_text("\n".join(_MARKED["snapshot"]) + "\n")
        return load_payoffs(path, load_snapshot(snapshot)).payoffs.tolist()
    if kind == "generation":
        data = load_timeseries(path)
        return data.producer_ids, data.hours, data.actuals.tolist()
    gen = tmp_path / "clean_gen.csv"
    gen.write_text("\n".join(_MARKED["generation"]) + "\n")
    data = load_timeseries(gen)
    if kind == "prices":
        return load_prices(path, data)
    return load_contract_schedule(path, data).tolist()


@pytest.mark.parametrize("kind", list(_MARKED))
class TestByteOrderMark:
    """A byte-order mark is dropped only at the very start of a file, as the
    ``utf-8-sig`` codec drops it (``tests/oracles.py`` reads with that codec)."""

    def test_mark_only_file_is_empty(self, tmp_path, kind):
        with pytest.raises(TimeseriesFormatError, match=rf"{kind}\.csv:1: empty file$"):
            _load_marked(tmp_path, kind, "\ufeff")

    def test_mark_before_a_quoted_header_field(self, tmp_path, kind):
        header, *rows = _MARKED[kind]
        first, rest = header.split(",", 1)
        plain = _load_marked(tmp_path, kind, "\n".join(_MARKED[kind]) + "\n")
        quoted = "\ufeff" + "\n".join([f'"{first}",{rest}', *rows]) + "\n"
        assert _load_marked(tmp_path, kind, quoted) == plain

    def test_second_mark_is_part_of_the_header(self, tmp_path, kind):
        header, *rows = _MARKED[kind]
        text = "\ufeff\ufeff" + "\n".join(_MARKED[kind]) + "\n"
        with pytest.raises(TimeseriesFormatError, match=rf"{kind}\.csv:1: expected header"):
            _load_marked(tmp_path, kind, text)

    def test_mark_after_line_1_is_data(self, tmp_path, kind):
        header, first, second = _MARKED[kind]
        text = "\n".join([header, first, "\ufeff" + second]) + "\n"
        if kind == "snapshot":  # an id may hold any character but a blank edge
            assert _load_marked(tmp_path, kind, text)[0] == ("a", "\ufeffw1")
            return
        if kind == "payoffs":
            message = "producer %r is not in the snapshot" % "\ufeffw1"
        else:
            message = "hour %r is neither an integer index nor ISO-8601" % "\ufeff1"
        with pytest.raises(TimeseriesFormatError, match=rf"{kind}\.csv:3: {re.escape(message)}$"):
            _load_marked(tmp_path, kind, text)


class TestLoadPrices:
    def test_valid(self, tmp_path):
        data = two_producer_data(tmp_path)
        path = price_file(tmp_path, [[1, 11.0, 14.0, -2.0], [0, 10.0, 15.0, 5.0]])
        prices = load_prices(path, data)
        # aligned with the series' hours, None where no row names the hour
        assert prices == (PriceTriple(10.0, 15.0, 5.0), PriceTriple(11.0, 14.0, -2.0), None)

    def test_arbitrage_hour_rejected_with_line(self, tmp_path):
        data = two_producer_data(tmp_path)
        path = price_file(tmp_path, [[0, 10.0, 15.0, 5.0], [1, 10.0, 5.0, 15.0]])
        with pytest.raises(TimeseriesFormatError, match=r":3: .*no-arbitrage"):
            load_prices(path, data)

    @pytest.mark.parametrize(
        "hour, message",
        [("3", "hour 3 is not"), ("2004-02-01T00:00:00", "hour 2004-02-01T00:00:00 is not"),
         ("2", "duplicate hour 2")],
        ids=["past-the-series", "another-hour-kind", "duplicate"],
    )
    def test_row_must_name_a_new_hour_of_the_series(self, tmp_path, hour, message):
        data = two_producer_data(tmp_path)
        path = price_file(tmp_path, [[h, 10.0, 15.0, 5.0] for h in range(3)] + [[hour, 1, 2, 0]])
        with pytest.raises(TimeseriesFormatError, match=re.escape(f"{path}:5: {message}")):
            load_prices(path, data)


def _load_outcome(load, *args):
    """What a loader gives for a file: its error message, or its result as
    bytes (hours compared by repr, so a time zone counts too)."""
    try:
        result = load(*args)
    except TimeseriesFormatError as exc:
        return str(exc)
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    blocks = result.forecasts, result.actuals
    return repr(result.hours), result.producer_ids, [(b.shape, b.tobytes()) for b in blocks]


@pytest.mark.parametrize(
    "loader, text, message",
    [
        ("generation", 'hour,producer_id,forecast_mwh,actual_mwh\n0,"w\n1",1,1\n0,w2,1,1\n'
         '1,"w\n1",1,1\n1,w2,x,1\n', "7: forecast_mwh 'x' is not a number"),
        ("prices", 'hour,p_f,p_rb,p_rs\n"0\n",10,15,5\n1,10,15,x\n', "4: p_rs 'x' is not a number"),
        ("schedule", 'hour,producer_id,contract_mwh\n0,"w\n1",1\n\n1,w2,-1\n',
         "5: negative contract"),
        ("snapshot", 'producer_id,contract_mwh,actual_mwh\n"w\n\n1",1,1\nw2,x,1\n',
         "5: contract_mwh 'x' is not a number"),
        ("payoffs", 'producer_id,payoff\n"w\n1",1\nw2,x\n', "4: payoff 'x' is not a number"),
    ],
    ids=["generation", "prices", "schedule", "snapshot", "payoffs"],
)
def test_line_names_where_a_record_starts(tmp_path, loader, text, message):
    # a quoted field may hold line breaks; the bad record is named by the
    # physical line it starts on, not by its count of records
    gen = tmp_path / "gen.csv"
    gen.write_text('hour,producer_id,forecast_mwh,actual_mwh\n0,"w\n1",1,1\n0,w2,1,1\n'
                   '1,"w\n1",1,1\n1,w2,1,1\n', newline="")
    series = load_timeseries(gen)
    snapshot = ScenarioSnapshot(series.producer_ids, np.ones(2), np.ones(2), P)
    path = tmp_path / f"{loader}.csv"
    path.write_text(text, newline="")
    load = {
        "generation": load_timeseries,
        "prices": lambda p: load_prices(p, series),
        "schedule": lambda p: load_contract_schedule(p, series),
        "snapshot": lambda p: load_snapshot(p, P),
        "payoffs": lambda p: simulator.load_payoffs(p, snapshot),
    }[loader]
    with pytest.raises(TimeseriesFormatError) as caught:
        load(path)
    assert str(caught.value) == f"{path}:{message}"


_PAD = st.sampled_from(["", " ", "  "])
_ID_TEXT = st.text(alphabet='ab,"\n ', min_size=1, max_size=4).map(str.strip).filter(bool)
_NUMBER = st.one_of(
    st.floats(0.0, 1e6).map(repr),
    st.sampled_from(["0", "-0.0", "-0", "1e3", "1_0", "7", "0.1"]),
)
_FAULTS = ["not-a-number", "inf", "negative", "empty-producer", "bad-hour", "field-count",
           "duplicate", "mixed-kind", "gap", "unknown-hour", "unknown-producer"]
# faults that break the row they are put in whatever the rest of the file holds
_ROW_FAULTS = {"not-a-number", "inf", "negative", "empty-producer", "bad-hour", "field-count",
               "unknown-hour", "unknown-producer"}


def _hour_text(draw, kind, hour):
    if kind == "integer":
        text = draw(st.sampled_from([str(hour), f"{hour:03d}", f"+{hour}"]))
    else:
        moment = datetime(2004, 2, 1) + timedelta(hours=hour)
        if kind == "aware":  # one instant, written at either of two offsets
            offset = draw(st.sampled_from([0, 1]))
            moment = (moment + timedelta(hours=offset)).replace(
                tzinfo=timezone(timedelta(hours=offset))
            )
        text = moment.isoformat()
    return draw(_PAD) + text + draw(_PAD)


def _csv_bytes(draw, header, records):
    """``records`` as CSV, with blank lines between some and maybe a BOM."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        if draw(st.integers(0, 9)) == 0:
            out.write(draw(st.sampled_from(["\n", "   \n"])))
        writer.writerow(record)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + out.getvalue()).encode()


@st.composite
def loader_files(draw):
    """A generation file and a contract schedule for it, as bytes, with at
    most one fault put into one row of one of them. Hours are integers,
    naive or timezone-aware ISO; every field may be padded with spaces; ids
    may hold commas, quotes and line breaks; rows come in any order."""
    kind = draw(st.sampled_from(["integer", "naive", "aware"]))
    hours = sorted(draw(st.sets(st.integers(0, 400), min_size=1, max_size=5)))
    ids = draw(st.lists(_ID_TEXT, min_size=1, max_size=4, unique=True))

    def record(hour, producer, width):
        fields = [_hour_text(draw, kind, hour), draw(_PAD) + producer + draw(_PAD)]
        return fields + [draw(_PAD) + draw(_NUMBER) + draw(_PAD) for _ in range(width - 2)]

    cells = [(h, p) for h in hours for p in ids]
    in_order = draw(st.permutations(cells))
    generation = [record(h, p, 4) for h, p in in_order]
    scheduled = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    schedule = [record(h, p, 3) for h, p in scheduled]

    fault = draw(st.sampled_from(["none"] + _FAULTS))
    on_schedule = fault.startswith("unknown") or draw(st.booleans())
    target = schedule if on_schedule else generation
    if not target:
        fault = "none"
    else:
        i = draw(st.integers(0, len(target) - 1))
        row = target[i]
        if fault == "not-a-number":
            row[draw(st.integers(2, len(row) - 1))] = " 1.0.0"
        elif fault == "inf":
            row[draw(st.integers(2, len(row) - 1))] = draw(st.sampled_from(["inf", "-inf", "nan"]))
        elif fault == "negative":
            row[draw(st.integers(2, len(row) - 1))] = "-0.5"
        elif fault == "empty-producer":
            row[1] = "  "
        elif fault == "bad-hour":
            row[0] = "noon"
        elif fault == "field-count":
            target[i] = row[:-1] if draw(st.booleans()) else row + ["1"]
        elif fault == "duplicate":
            copy = record(*(scheduled if on_schedule else in_order)[i], len(row))
            target.insert(draw(st.integers(0, len(target))), copy)
        elif fault == "mixed-kind":
            other = draw(st.sampled_from([k for k in ("integer", "naive", "aware") if k != kind]))
            row[0] = _hour_text(draw, other, hours[0])
        elif fault == "gap":
            del target[i]
        elif fault == "unknown-hour":
            row[0] = _hour_text(draw, kind, 1000)
        elif fault == "unknown-producer":
            row[1] = "zz"
    chunk_rows = draw(st.sampled_from([1, 2, 3, 7, simulator.CHUNK_ROWS]))
    return (_csv_bytes(draw, GENERATION_HEADER, generation),
            _csv_bytes(draw, CONTRACT_HEADER, schedule), fault, on_schedule, chunk_rows)


@settings(max_examples=300, deadline=None)
@given(loader_files())
def test_column_loaders_match_the_row_by_row_oracle(tmp_path_factory, files):
    gen_bytes, schedule_bytes, fault, on_schedule, chunk_rows = files
    tmp_path = tmp_path_factory.mktemp("files")
    gen, schedule = tmp_path / "gen.csv", tmp_path / "contracts.csv"
    gen.write_bytes(gen_bytes)
    schedule.write_bytes(schedule_bytes)
    with mock.patch.object(simulator, "CHUNK_ROWS", chunk_rows):
        loaded = _load_outcome(load_timeseries, gen)
        assert loaded == _load_outcome(oracles.load_timeseries, gen)
        if isinstance(loaded, str):
            assert fault != "none"
            return
        assert on_schedule or fault not in _ROW_FAULTS
        series = load_timeseries(gen)
        scheduled = _load_outcome(load_contract_schedule, schedule, series)
        assert scheduled == _load_outcome(oracles.load_contract_schedule, schedule, series)
    if fault == "none":
        assert not isinstance(scheduled, str)
    elif on_schedule and fault in _ROW_FAULTS | {"duplicate", "mixed-kind"}:
        assert isinstance(scheduled, str)


@pytest.mark.parametrize("fault_row", [None, 5, 1100], ids=["valid", "first-chunk", "second-chunk"])
def test_column_loaders_match_the_oracle_across_chunks(tmp_path, fault_row):
    # 1,200 rows, more than one chunk at the module's own chunk size
    rows = [[h, f"p{p}", 0.5 * h + p, 1.0] for h in range(400) for p in range(3)]
    contracts = [[h, f"p{p}", h + 0.25] for h in range(1, 400) for p in range(3)]
    assert len(contracts) > simulator.CHUNK_ROWS
    if fault_row is not None:
        rows[fault_row][2] = "x"
        contracts[fault_row][0] = "9999"
    gen = generation_file(tmp_path, rows)
    schedule = write_csv(tmp_path / "contracts.csv", CONTRACT_HEADER, contracts)
    assert _load_outcome(load_timeseries, gen) == _load_outcome(oracles.load_timeseries, gen)
    series = load_timeseries(generation_file(tmp_path, [[h, f"p{p}", 1, 1] for h in range(400)
                                                        for p in range(3)], name="ok.csv"))
    assert (_load_outcome(load_contract_schedule, schedule, series)
            == _load_outcome(oracles.load_contract_schedule, schedule, series))


def test_screen_rejection_without_a_bad_row_is_an_internal_error(tmp_path, monkeypatch):
    # a file the column screen rejects must hold a row that breaks a rule;
    # when the rules find none, the loader fails loudly rather than passing
    path = generation_file(tmp_path, [[0, "w1", 1.0, 1.0]])

    def reject(texts):
        raise simulator._Rejected

    monkeypatch.setattr(simulator, "_amounts", reject)
    with pytest.raises(RuntimeError, match="no row breaks a rule"):
        load_timeseries(path)


def test_loader_memory_is_bounded_per_row(tmp_path):
    """``load_timeseries`` peaks below 160 B a row under tracemalloc on a
    series of 100 producers x 500 hours (50,000 rows, whose result holds
    0.8 MB). The row-by-row loader it replaced peaked at about 311 B a row
    (65 MiB on 219,000 rows, whose result holds 3.3 MiB); the chunked
    column path measures about 71 B a row."""
    rng = np.random.default_rng(7)
    values = np.round(rng.uniform(0.0, 100.0, (500, 100, 2)), 3).tolist()
    rows = [[h, f"p{p:03d}", f, a] for h, row in enumerate(values) for p, (f, a) in enumerate(row)]
    path = generation_file(tmp_path, rows)
    del rows, values
    load_timeseries(path)  # first-call allocations of the modules it uses
    tracemalloc.start()
    try:
        data = load_timeseries(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.forecasts.shape == (500, 100)
    assert peak < 160 * 500 * 100


def scheduled(data, contracts_by_hour):
    """A NaN-filled (hours x producers) schedule for ``data`` with the given
    hours' rows of contracts filled in."""
    schedule = np.full((data.n_hours, data.n_producers), np.nan)
    for hour, contracts in contracts_by_hour.items():
        schedule[data.hours.index(hour)] = contracts
    return schedule


def two_producer_data(tmp_path):
    rows = []
    # two training hours, then the settlement hour with offsetting deviations
    for hour, (a_fc, a_ac, b_fc, b_ac) in enumerate(
        [(100, 95, 50, 55), (100, 105, 50, 45), (100, 80, 50, 70)]
    ):
        rows.append([hour, "a", a_fc, a_ac])
        rows.append([hour, "b", b_fc, b_ac])
    return load_timeseries(generation_file(tmp_path, rows))


class TestRunSimulation:
    def test_single_producer_exact_delivery(self, tmp_path):
        data = load_timeseries(
            generation_file(tmp_path, [[0, "w1", 100.0, 100.0], [1, "w1", 100.0, 100.0]])
        )
        report = run_simulation(
            data, every_hour(data), (0, 1), (1, 2), contracts=scheduled(data, {1: [100.0]})
        )
        assert report.payoffs_pooled[0, 0] == 1000.0
        assert report.payoffs_separate[0, 0] == 1000.0
        assert report.all_pass.tolist() == [True]
        assert sum(report.violation_counts.values()) == 0

    def test_offsetting_deviations_capture_the_spread(self, tmp_path):
        data = two_producer_data(tmp_path)
        report = run_simulation(
            data, every_hour(data), (0, 2), (2, 3), contracts=scheduled(data, {2: [100.0, 50.0]})
        )
        assert report.excess_profit[0] == pytest.approx(200.0)
        gap = report.payoffs_pooled[0].sum() - report.payoffs_separate[0].sum()
        assert gap == pytest.approx(200.0)
        assert report.grand_total_pooled - report.grand_total_separate == pytest.approx(200.0)

    def test_newsvendor_contracts_match_fit_distribution(self, tmp_path):
        data = two_producer_data(tmp_path)
        report = run_simulation(data, every_hour(data), (0, 2), (2, 3))
        for pi, producer in enumerate(data.producer_ids):
            spread = np.std(data.actuals[0:2, pi] - data.forecasts[0:2, pi], ddof=1)
            # q = 0.5 at these prices: the contract is the truncated median
            median = newsvendor_contract(float(data.forecasts[2, pi]), float(spread), 0.5)
            assert report.contracts[0, pi] == pytest.approx(median)

    def test_contract_schedule_mode(self, tmp_path):
        data = two_producer_data(tmp_path)
        schedule_path = write_csv(
            tmp_path / "contracts.csv",
            ["hour", "producer_id", "contract_mwh"],
            [[2, "a", 90.0], [2, "b", 60.0]],
        )
        report = run_simulation(
            data, every_hour(data), (0, 2), (2, 3),
            contracts=load_contract_schedule(schedule_path, data),
        )
        np.testing.assert_allclose(report.contracts, [[90.0, 60.0]])

    def test_schedule_loads_as_a_block_aligned_with_the_series(self, tmp_path):
        data = two_producer_data(tmp_path)
        schedule_path = write_csv(
            tmp_path / "contracts.csv",
            ["hour", "producer_id", "contract_mwh"],
            [[2, "b", 60.0], [0, "a", 5.0], [2, "a", 90.0]],
        )
        schedule = load_contract_schedule(schedule_path, data)
        np.testing.assert_array_equal(
            schedule, [[5.0, np.nan], [np.nan, np.nan], [90.0, 60.0]]
        )

    def test_schedule_missing_cell_names_its_hour_and_producer(self, tmp_path):
        data = two_producer_data(tmp_path)
        schedule = scheduled(data, {1: [1.0, 1.0], 2: [100.0, 50.0]})
        schedule[2, 1] = np.nan  # the one gap inside the window, hours 1-2
        with pytest.raises(ValueError, match="missing hour 2 for producer 'b'"):
            run_simulation(data, every_hour(data), (0, 1), (1, 3), contracts=schedule)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 1), (6,)])
    def test_schedule_of_another_shape_rejected(self, tmp_path, shape):
        data = two_producer_data(tmp_path)
        with pytest.raises(ValueError, match=r"\(hours x producers\) \(3, 2\)"):
            run_simulation(data, every_hour(data), (0, 2), (2, 3), contracts=np.ones(shape))

    def test_per_hour_prices(self, tmp_path):
        data = two_producer_data(tmp_path)
        prices = (None, None, PriceTriple(20.0, 30.0, 10.0))
        report = run_simulation(
            data, prices, (0, 2), (2, 3), contracts=scheduled(data, {2: [100.0, 50.0]})
        )
        # same offsets, doubled spread
        assert report.excess_profit[0] == pytest.approx(400.0)

    def test_missing_price_hour_aborts_with_reference(self, tmp_path):
        data = two_producer_data(tmp_path)
        with pytest.raises(ValueError, match="no prices supplied for hour 2"):
            run_simulation(
                data, (P, None, None), (0, 2), (2, 3),
                contracts=scheduled(data, {2: [100.0, 50.0]}),
            )

    @pytest.mark.parametrize("length", [0, 2, 4])
    def test_prices_of_another_length_rejected(self, tmp_path, length):
        # a short tuple would leave hours unsettled, a long one is misaligned
        data = two_producer_data(tmp_path)
        with pytest.raises(ValueError, match=rf"one entry per hour of the series \(3\), got {length}"):
            run_simulation(data, (P,) * length, (0, 2), (2, 3))

    def test_overlapping_windows_rejected(self, tmp_path):
        data = two_producer_data(tmp_path)
        with pytest.raises(ValueError, match="before"):
            run_simulation(data, every_hour(data), (0, 2), (1, 3))

    def test_range_outside_data_rejected(self, tmp_path):
        data = two_producer_data(tmp_path)
        with pytest.raises(ValueError, match="sim_range"):
            run_simulation(data, every_hour(data), (0, 2), (2, 9))

    def test_short_training_window_rejected_for_newsvendor(self, tmp_path):
        data = two_producer_data(tmp_path)
        with pytest.raises(ValueError, match="training"):
            run_simulation(data, every_hour(data), (0, 1), (2, 3))

    def test_hours_are_independent(self, tmp_path):
        rows = []
        rng = np.random.default_rng(40)
        for hour in range(8):
            for producer in ("a", "b", "c"):
                fc = rng.uniform(20, 80)
                rows.append([hour, producer, fc, max(0.0, fc + rng.normal(0, 10))])
        data = load_timeseries(generation_file(tmp_path, rows))

        def run(sim_range):
            return run_simulation(data, every_hour(data), (0, 3), sim_range)

        whole = run((3, 8))
        first, second = run((3, 5)), run((5, 8))
        assert whole.hours == first.hours + second.hours
        for name in ("payoffs_pooled", "contracts"):
            np.testing.assert_array_equal(
                getattr(whole, name),
                np.concatenate([getattr(first, name), getattr(second, name)]),
            )


@pytest.mark.parametrize(
    "block, value",
    [("contracts", -1.0), ("contracts", np.inf), ("realizations", -1.0), ("realizations", np.nan)],
    ids=["negative-contract", "inf-contract", "negative-actual", "nan-actual"],
)
def test_window_rejects_invalid_energy(tmp_path, block, value):
    data = two_producer_data(tmp_path)
    schedule = scheduled(data, {1: [1.0, 1.0], 2: [100.0, 50.0]})
    actuals = data.actuals.copy()
    (schedule if block == "contracts" else actuals)[2, 1] = value
    data = GenerationSeries(data.producer_ids, data.hours, data.forecasts, actuals)
    with pytest.raises(ValueError, match=block):
        run_simulation(data, every_hour(data), (0, 1), (1, 3), contracts=schedule)


_WHOLE = st.integers(0, 4).map(float)
_ENERGY = st.one_of(_WHOLE, st.floats(0.0, 300.0).map(lambda v: round(v, 6)))
_PRICES = st.one_of(
    price_triples(),
    # a zero spread, and a negative rt_sell
    st.tuples(st.floats(-10.0, 40.0), st.floats(-20.0, 20.0)).map(
        lambda t: PriceTriple(day_ahead=t[0], rt_buy=t[1], rt_sell=t[1])
    ),
    st.sampled_from([PriceTriple(-3.0, 6.0, -8.0), PriceTriple(10.0, 15.0, 5.0)]),
)


@st.composite
def windows(draw):
    """A generation series with one training hour and 1-8 settled hours of
    1-12 producers, its contract schedule and one price triple per hour.
    Cells are idle, exact deliveries or free; a balanced hour delivers its
    contracts in another order. Either block may be Fortran-ordered."""
    n = draw(st.integers(1, 12))
    n_hours = draw(st.integers(1, 8)) + 1
    contracts = np.empty((n_hours, n))
    actuals = np.empty((n_hours, n))
    for h in range(n_hours):
        for p in range(n):
            kind = draw(st.sampled_from(["idle", "exact", "free", "free"]))
            c = 0.0 if kind == "idle" else draw(_ENERGY)
            contracts[h, p] = c
            actuals[h, p] = c if kind in ("idle", "exact") else draw(_ENERGY)
        if draw(st.booleans()):
            actuals[h] = draw(st.permutations(contracts[h].tolist()))
    if draw(st.booleans()):
        contracts = np.asfortranarray(contracts)
    if draw(st.booleans()):
        actuals = np.asfortranarray(actuals)
    prices = tuple(draw(_PRICES) for _ in range(n_hours))
    ids = tuple(f"p{i:02d}" for i in range(n))
    data = GenerationSeries(ids, tuple(range(n_hours)), actuals, actuals)
    return data, prices, contracts


def _same_bytes(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(windows())
def test_window_matches_one_shot_path_bit_for_bit(window):
    data, prices, contracts = window
    report = run_simulation(data, prices, (0, 1), (1, data.n_hours), contracts=contracts)
    for row in range(report.n_hours):
        hour = row + 1
        snapshot = ScenarioSnapshot(
            data.producer_ids, contracts[hour], data.actuals[hour], prices[hour]
        )
        alloc = allocate(snapshot)
        assert _same_bytes(report.contracts[row], snapshot.contracts)
        assert _same_bytes(report.realizations[row], snapshot.realizations)
        assert _same_bytes(report.payoffs_pooled[row], alloc.payoffs)
        assert _same_bytes(report.payoffs_separate[row], separate_payoffs(snapshot))
        assert _same_bytes(report.aggregator_payoff[row], aggregator_payoff(snapshot))
        assert _same_bytes(report.aggregator_payoff[row], alloc.aggregator_total)
        assert _same_bytes(report.excess_profit[row], excess_profit(snapshot))
        audit = run_property_checks(alloc, snapshot)
        assert report.budget_ok[row] == audit.budget.ok
        assert _same_bytes(report.budget_residual[row], audit.budget.residual)
        assert report.ir_ok[row] == audit.ir.ok
        assert _same_bytes(report.ir_worst_margin[row], audit.ir.worst_margin)
        assert report.ir_worst_index[row] == audit.ir.worst_index
        assert report.fair[row] == audit.fairness
        assert report.no_exploitation[row] == audit.no_exploitation
        assert report.in_core[row] == audit.in_core
        assert report.all_pass[row] == audit.all_pass
        assert _same_bytes(report.core_worst[row], audit.core.worst_violation)
        assert report.core_coalition[row] == audit.core.worst_coalition


@st.composite
def tied_windows(draw):
    """(contracts, realizations, payoffs, day-ahead prices) of 1-4 hours of
    2-10 producers. Deviations lie on a coarse grid, some a few ulps off it,
    so many hours hold runs of equal deviations. Each hour's margins over
    forward revenue mostly follow the deviation, as a fair split's do, and
    are moved by a few ulps or by about the tolerance, so the block screen
    flags most hours and ``_fair`` decides either way."""
    n, hours = draw(st.integers(2, 10)), draw(st.integers(1, 4))
    day_ahead = np.array([[draw(st.sampled_from([0.0, 10.0]))] for _ in range(hours)])
    grid, bases = [-1.0, -0.5, 0.0, 0.5, 1.0], st.sampled_from([0.0, 1.0, 250.0])
    contracts, realizations, payoffs = (np.empty((hours, n)) for _ in range(3))
    for h in range(hours):
        base_of = {dev: draw(bases) for dev in grid}
        for p in range(n):
            c = draw(st.sampled_from([10.0, 20.0, 1e6]))
            dev = draw(st.sampled_from(grid))
            contracts[h, p] = c
            realizations[h, p] = _ulps(c - dev, draw(st.integers(-2, 2)))
            base = draw(bases) if draw(st.integers(0, 7)) == 0 else base_of[dev]
            payoff = float(day_ahead[h, 0] * c) + base
            if draw(st.integers(0, 3)):
                payoffs[h, p] = _ulps(payoff, draw(st.integers(-3, 3)))
            else:
                shift = draw(st.sampled_from([0.5, 1.0, 2.0])) * 1e-9 * max(1.0, abs(payoff))
                payoffs[h, p] = payoff + draw(st.sampled_from([-1.0, 1.0])) * shift
    return contracts, realizations, payoffs, day_ahead


@settings(max_examples=300, deadline=None)
@given(tied_windows())
def test_window_fairness_equals_the_whole_row(window):
    """The window hands ``_fair`` only the producers in runs of equal sorted
    deviations; its verdict must be ``_fair``'s on the hour's whole row."""
    contracts, realizations, payoffs, day_ahead = window
    rt = np.full_like(day_ahead, 15.0), np.full_like(day_ahead, 5.0)
    prices = types.SimpleNamespace(day_ahead=day_ahead, rt_buy=rt[0], rt_sell=rt[1])
    audit = allocation._audit_window(
        contracts, realizations, payoffs, payoffs, payoffs.sum(axis=1), prices
    )
    for h, fair in enumerate(audit["fair"].tolist()):
        c = contracts[h]
        whole_row = allocation._fair(c - realizations[h], payoffs[h] - day_ahead[h] * c)
        assert fair == whole_row
        triple = PriceTriple(float(day_ahead[h, 0]), 15.0, 5.0)
        assert fair == oracles.fairness_scan(c, realizations[h], payoffs[h], triple)


def _ulps(value, count):
    """``value`` moved ``count`` ulps up, or down for a negative count."""
    for _ in range(abs(count)):
        value = np.nextafter(value, math.copysign(math.inf, count))
    return float(value)


def test_window_marginal_price_on_the_balance_band_edge():
    """An hour whose total deviation is exactly ``DEFAULT_TOLERANCE * max(1,
    total contract)`` counts as balanced and is settled at the band
    midpoint; one 3 ulps further out is settled at rt_sell (long) or rt_buy
    (short). Contracts of 1e9 and 2e9 make the band 3.0, which the totals
    hit exactly; zero contracts give the band its floor, 1e-9."""
    big, small = 3e9, 1e-9
    totals = [  # (total contract, total realization, balanced, price)
        (big, big + 3.0, True, 10.0), (big, _ulps(big + 3.0, 3), False, 5.0),
        (big, big - 3.0, True, 10.0), (big, _ulps(big - 3.0, -3), False, 15.0),
        (0.0, small, True, 10.0), (0.0, _ulps(small, 3), False, 5.0),
    ]
    contracts = np.array([[0.0, 0.0]] + [[c / 3.0, 2.0 * c / 3.0] for c, *_ in totals])
    actuals = contracts.copy()
    actuals[1:, 0] = [x - contracts[row + 1, 1] for row, (_, x, *_) in enumerate(totals)]
    data = GenerationSeries(("a", "b"), tuple(range(len(actuals))), actuals, actuals)
    report = run_simulation(data, every_hour(data), (0, 1), (1, len(actuals)),
                            contracts=contracts)
    for row, (total_c, total_x, balanced, price) in enumerate(totals):
        c, x = contracts[row + 1], actuals[row + 1]
        snapshot = ScenarioSnapshot(data.producer_ids, c, x, P)
        assert (snapshot.total_contract, snapshot.total_realization) == (total_c, total_x)
        assert marginal_price(snapshot) == (price, balanced)
        assert _same_bytes(report.payoffs_pooled[row], P.day_ahead * c + price * (x - c))
        assert _same_bytes(report.payoffs_pooled[row], allocate(snapshot).payoffs)


def test_audit_judges_the_settlement_the_report_holds(monkeypatch):
    """Each hour's audit judges the ``payoff_separate`` and
    ``aggregator_payoff`` the report holds, not a settlement of its own:
    with either shifted by 1.0, every hour fails budget balance or
    individual rationality."""
    contracts = np.array(
        [[0.0, 0.0, 0.0], [100.0, 50.0, 50.0], [100.0, 50.0, 50.0], [80.0, 20.0, 40.0],
         [10.0, 60.0, 30.0]]
    )
    actuals = np.array(
        [[0.0, 0.0, 0.0], [80.0, 60.0, 40.0], [110.0, 60.0, 50.0], [70.0, 30.0, 20.0],
         [20.0, 50.0, 40.0]]
    )
    data = GenerationSeries(("a", "b", "c"), tuple(range(5)), actuals, actuals)
    run = functools.partial(
        run_simulation, data, every_hour(data), (0, 1), (1, 5), contracts=contracts
    )
    honest = run()
    assert honest.all_pass.all()
    settle = simulator.settle

    def shift(pool_column):
        def shifted(contract, realization, prices):
            value = settle(contract, realization, prices)
            # the pool column is (hours x 1), the stand-alone block (hours x 3)
            return value + 1.0 if (value.shape[1] == 1) is pool_column else value

        monkeypatch.setattr("poolpay.simulator.settle", shifted)
        return run()

    report = shift(pool_column=True)
    assert _same_bytes(report.aggregator_payoff, honest.aggregator_payoff + 1.0)
    assert _same_bytes(report.payoffs_separate, honest.payoffs_separate)
    assert not report.budget_ok.any()
    assert report.ir_ok.all()

    report = shift(pool_column=False)
    assert _same_bytes(report.payoffs_separate, honest.payoffs_separate + 1.0)
    assert _same_bytes(report.aggregator_payoff, honest.aggregator_payoff)
    assert not report.ir_ok.any()
    assert report.budget_ok.all()


def test_window_audits_the_core_in_every_hour(monkeypatch):
    """``run_simulation`` has no core switch: every hour's report holds a
    core verdict, and a split that a coalition blocks fails it. Every
    producer delivers its contract exactly; moving 1.0 of payoff from
    producer a to producer b leaves a short of what it earns alone."""
    contracts = np.array([[0.0, 0.0, 0.0], [100.0, 50.0, 50.0], [80.0, 20.0, 40.0]] * 2)
    data = GenerationSeries(("a", "b", "c"), tuple(range(6)), contracts, contracts)
    run = functools.partial(
        run_simulation, data, every_hour(data), (0, 1), (1, 6), contracts=contracts
    )
    honest = run()
    # the bound proves every honest hour, so no coalition is enumerated
    assert honest.in_core.all()
    assert honest.core_coalition == (None,) * 5
    assert (honest.core_worst == 0.0).all()
    pam = simulator._pam

    def moved(*args):
        payoffs = pam(*args)
        payoffs[:, 0] -= 1.0
        payoffs[:, 1] += 1.0
        return payoffs

    monkeypatch.setattr("poolpay.simulator._pam", moved)
    report = run()
    assert not report.in_core.any()
    assert report.core_coalition == ((0,),) * 5
    assert report.violation_counts["core"] == report.n_hours == 5


_VERDICTS = ("budget_ok", "ir_ok", "fair", "no_exploitation", "in_core")


@pytest.mark.parametrize("limit", [None, 2], ids=["enumerated", "limit-2"])
def test_window_audit_falls_back_to_the_one_pool_kernels(monkeypatch, limit):
    """The block screens hand an hour to ``_fair`` only on a deviation tie,
    and to ``_core`` only where the bound is open; every verdict, and the
    violation counts, still equal the one-shot audit's. Three producers
    contract 10 each at prices 10 / 15 / 5; 1.0 of payoff moves between
    them in every hour but the first:

    - a balanced hour with a tie: a and b both deliver 12, b is paid 2.0
      more than a, so fairness fails; the bound is open, the core holds;
    - c delivers its contract exactly and is paid a bonus of 1.0;
    - a blocked split: a pays c 1.0, and {a, b}, long in total, earns more
      on its own than it is paid, though every producer gets more than it
      earns alone.

    With ``EXHAUSTIVE_LIMIT`` at 2 the open hours are searched instead."""
    if limit is not None:
        monkeypatch.setattr(allocation, "EXHAUSTIVE_LIMIT", limit)
    actuals = np.array(
        [[10.0, 10.0, 10.0], [8.0, 14.0, 9.0], [12.0, 12.0, 6.0], [8.0, 14.0, 10.0],
         [8.0, 14.0, 11.0]]
    )
    contracts = np.full_like(actuals, 10.0)
    data = GenerationSeries(("a", "b", "c"), tuple(range(5)), actuals, actuals)
    moved = np.array([[0.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
    pam = simulator._pam
    monkeypatch.setattr("poolpay.simulator._pam", lambda *args: pam(*args) + moved)
    calls = {"_fair": 0, "_core": 0}
    for name in calls:
        def counted(*args, name=name, kernel=getattr(allocation, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(allocation, name, counted)

    report = run_simulation(data, every_hour(data), (0, 1), (1, 5), contracts=contracts)
    assert calls == {"_fair": 1, "_core": 3}
    assert report.core_coalition[0] is None
    assert report.core_coalition[3] == (0, 1)
    one_shot = []
    for row in range(report.n_hours):
        snapshot = ScenarioSnapshot(data.producer_ids, contracts[row + 1], actuals[row + 1], P)
        alloc = PayoffAllocation(report.payoffs_pooled[row], aggregator_payoff(snapshot))
        audit = run_property_checks(alloc, snapshot)
        one_shot.append((audit.budget.ok, audit.ir.ok, audit.fairness, audit.no_exploitation,
                         audit.in_core))
        assert [getattr(report, name)[row] for name in _VERDICTS] == list(one_shot[-1])
    # the counts are in _VERDICTS order: each is the hours one-shot audits fail
    failed = (len(one_shot) - np.sum(one_shot, axis=0)).tolist()
    assert list(report.violation_counts.values()) == failed
    assert report.violation_counts == {
        "budget_balance": 0, "individual_rationality": 0, "fairness": 1, "no_exploitation": 1,
        "core": 2,
    }
    assert report.all_pass.tolist() == [True, False, False, False]


def test_window_proves_an_hour_only_within_half_the_allowance(monkeypatch):
    """The edge split of ``test_allocation.py``: a long pool with 1e-9 of
    payoff moved from producer 3 to producer 2. Its bound, 1e-9 less
    2.8e-11, is within the full allowance but above half of it, so the hour
    is left open, and the enumeration finds the violation of coalition
    (1, 3) that the one-shot audit finds."""
    prices = PriceTriple(4.0, 1.0, -1.0)
    contracts = np.array([[0.0] * 4, [0.243, 0.257, 0.073, 0.258]])
    actuals = np.array([[0.0] * 4, [1.526, 1.396, 0.257, 0.752]])
    data = GenerationSeries(("a", "b", "c", "d"), (0, 1), actuals, actuals)
    pam = simulator._pam
    monkeypatch.setattr(
        "poolpay.simulator._pam", lambda *args: pam(*args) + np.array([0.0, 0.0, 1e-9, -1e-9])
    )
    report = run_simulation(data, (prices,) * 2, (0, 1), (1, 2), contracts=contracts)
    snapshot = ScenarioSnapshot(data.producer_ids, contracts[1], actuals[1], prices)
    core = run_property_checks(
        PayoffAllocation(report.payoffs_pooled[0], aggregator_payoff(snapshot)), snapshot
    ).core
    assert (core.in_core, core.worst_coalition) == (False, (1, 3))
    assert (report.in_core[0], report.core_coalition[0]) == (False, (1, 3))
    assert _same_bytes(report.core_worst[0], core.worst_violation)


def test_balanced_large_pools_are_in_the_core_on_both_paths():
    """200 seeded balanced 12-producer pools at 1e5 MWh scale: contracts
    U(0, 1e5), realizations a permutation of them, prices 0 / 17 / 17 and
    the mechanism's split. The float sums of an enumeration cancel to about
    0 and round past the 1e-9 allowance on 73 of them; the three-point
    bound proves every one, and the one-shot audit and the window decide
    the core the same way, bound first."""
    rng = np.random.default_rng(0)
    prices = PriceTriple(0.0, 17.0, 17.0)
    contracts = np.zeros((201, 12))
    actuals = np.zeros((201, 12))
    for hour in range(1, 201):
        contracts[hour] = rng.uniform(0.0, 1e5, 12)
        actuals[hour] = rng.permutation(contracts[hour])
    ids = tuple(f"p{i}" for i in range(12))
    for hour in range(1, 201):
        snapshot = ScenarioSnapshot(ids, contracts[hour], actuals[hour], prices)
        assert run_property_checks(allocate(snapshot), snapshot).in_core, hour
    data = GenerationSeries(ids, tuple(range(201)), actuals, actuals)
    report = run_simulation(data, (prices,) * 201, (0, 1), (1, 201), contracts=contracts)
    assert report.in_core.all()
    assert report.core_coalition == (None,) * 200


class TestEmitReport:
    def _report(self, tmp_path):
        data = two_producer_data(tmp_path)
        return run_simulation(data, every_hour(data), (0, 2), (2, 3))

    def test_files_written(self, tmp_path):
        report = self._report(tmp_path)
        files = emit_report(report, tmp_path / "out")
        names = sorted(p.name for p in files)
        assert names == ["hourly.csv", "summary.csv", "trace_a.csv", "trace_b.csv"]

    def test_byte_identical_across_runs(self, tmp_path):
        report = self._report(tmp_path)
        files1 = emit_report(report, tmp_path / "out1")
        files2 = emit_report(report, tmp_path / "out2")
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_round_trip_is_exact(self, tmp_path):
        report = self._report(tmp_path)
        emit_report(report, tmp_path / "out")
        with (tmp_path / "out" / "hourly.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_key = {(r["hour"], r["producer_id"]): r for r in rows}
        for hi, hour in enumerate(report.hours):
            for pi, producer in enumerate(report.producer_ids):
                row = by_key[(str(hour), producer)]
                assert float(row["payoff_pooled"]) == report.payoffs_pooled[hi, pi]
                assert float(row["payoff_separate"]) == report.payoffs_separate[hi, pi]

    def test_summary_matches_hourly_resummation(self, tmp_path):
        """Independent spreadsheet-style re-summation of hourly.csv must
        reproduce summary.csv exactly: each producer's total adds its hours
        one at a time, in order, starting from zero.

        ``sum()`` is no reference: from Python 3.12 on it compensates float
        sums. With one producer, a pairwise column sum such as
        ``sum(axis=0)`` gives other bits on this seed; the idle producer is
        paid -0.0 every hour at these negative prices, so a total started
        from the first hour would read -0.0, not 0.0.
        """
        prices = PriceTriple(day_ahead=-3.0, rt_buy=-1.0, rt_sell=-8.0)
        for producers in (("a",), ("a", "idle")):
            rows_src = []
            rng = np.random.default_rng(43)
            for hour in range(26):
                fc = rng.uniform(20, 80)
                rows_src.append([hour, "a", fc, max(0.0, fc + rng.normal(0, 15))])
                if "idle" in producers:
                    rows_src.append([hour, "idle", 0.0, 0.0])
            name = f"g{len(producers)}.csv"
            data = load_timeseries(generation_file(tmp_path, rows_src, name=name))
            out_dir = tmp_path / f"out{len(producers)}"
            emit_report(run_simulation(data, every_hour(data, prices), (0, 2), (2, 26)), out_dir)

            with (out_dir / "hourly.csv").open(newline="") as fh:
                hourly = list(csv.DictReader(fh))
            with (out_dir / "summary.csv").open(newline="") as fh:
                summary = {r["producer_id"]: r for r in csv.DictReader(fh)}

            assert len(hourly) == 24 * len(producers)
            for producer in producers:
                for column in ("payoff_pooled", "payoff_separate"):
                    hours = [float(r[column]) for r in hourly if r["producer_id"] == producer]
                    total = functools.reduce(operator.add, hours, 0.0)
                    # compared as text, so the sign of a zero counts too
                    assert summary[producer][f"total_{column}"] == repr(total)
            grand = sum(float(r["payoff_pooled"]) for r in hourly)
            assert grand == pytest.approx(
                float(summary["TOTAL"]["total_payoff_pooled"]), rel=1e-12
            )

    def test_exante_column_is_placeholder(self, tmp_path):
        # the placeholder column is gone: summary.csv holds the two totals
        report = self._report(tmp_path)
        emit_report(report, tmp_path / "out")
        with (tmp_path / "out" / "summary.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["producer_id", "total_payoff_pooled", "total_payoff_separate"]
        assert [row[0] for row in rows[1:]] == ["a", "b", "TOTAL"]
        assert all(len(row) == 3 for row in rows)

    def test_trace_columns(self, tmp_path):
        report = self._report(tmp_path)
        emit_report(report, tmp_path / "out")
        with (tmp_path / "out" / "trace_a.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert set(rows[0]) == {"hour", "payoff_pooled", "payoff_separate"}

    def test_empty_report_writes_header_only_files(self, tmp_path):
        from poolpay import SimulationReport

        empty = SimulationReport(
            producer_ids=(),
            hours=(),
            contracts=np.zeros((0, 0)),
            realizations=np.zeros((0, 0)),
            payoffs_pooled=np.zeros((0, 0)),
            payoffs_separate=np.zeros((0, 0)),
            aggregator_payoff=np.zeros(0),
            excess_profit=np.zeros(0),
            **{name: np.zeros(0, dtype=bool) for name in _VERDICTS},
            budget_residual=np.zeros(0),
            ir_worst_margin=np.zeros(0),
            ir_worst_index=np.zeros(0, dtype=int),
            core_worst=np.zeros(0),
            core_coalition=(),
        )
        files = emit_report(empty, tmp_path / "out")
        assert sorted(p.name for p in files) == ["hourly.csv", "summary.csv"]
        for path in files:
            assert len(path.read_text().strip().splitlines()) == 1  # header only
        # producers but no hours: one header-only trace file per producer
        no_hours = dataclasses.replace(
            empty,
            producer_ids=("a", "b"),
            **{
                name: np.zeros((0, 2))
                for name in ("contracts", "realizations", "payoffs_pooled", "payoffs_separate")
            },
        )
        files = emit_report(no_hours, tmp_path / "out2")
        assert sorted(p.name for p in files) == [
            "hourly.csv", "summary.csv", "trace_a.csv", "trace_b.csv"
        ]
        for path in files:  # summary.csv holds a, b and TOTAL
            lines = path.read_text().splitlines()
            assert len(lines) == (4 if path.name == "summary.csv" else 1)


_EMIT_ID = st.text(alphabet='ab,"\n é中😀_.{', max_size=4)
_PAYOFF = st.one_of(st.floats(-1e300, 1e300),  # no sum of them overflows
                    st.sampled_from([0.0, -0.0, 5e-324, 0.1]))


def _emit_report(ids, hours, blocks, tails):
    """A SimulationReport holding only what ``emit_report`` writes."""
    n_hours, n = len(hours), len(ids)
    aggregator, excess, passed = tails
    verdicts = {name: np.ones(n_hours, dtype=bool) for name in _VERDICTS}
    verdicts["budget_ok"] = np.array(passed, dtype=bool).reshape(n_hours)
    contracts, realizations, pooled, separate = (
        np.array(block, dtype=float).reshape(n_hours, n) for block in blocks
    )
    return simulator.SimulationReport(
        producer_ids=tuple(ids),
        hours=tuple(hours),
        contracts=contracts,
        realizations=realizations,
        payoffs_pooled=pooled,
        payoffs_separate=separate,
        aggregator_payoff=np.array(aggregator, dtype=float).reshape(n_hours),
        excess_profit=np.array(excess, dtype=float).reshape(n_hours),
        budget_residual=np.zeros(n_hours),
        ir_worst_margin=np.zeros(n_hours),
        ir_worst_index=np.zeros(n_hours, dtype=int),
        core_worst=np.zeros(n_hours),
        core_coalition=(None,) * n_hours,
        **verdicts,
    )


@st.composite
def emit_cases(draw):
    """A report of 0-4 producers and 0-6 hours and the chunk sizes to write it
    with. Ids hold commas, quotes, LF, spaces at either end and non-ASCII
    text; each holds its position before a ``#``, so their trace names
    differ. Hours are integers, naive or timezone-aware ISO."""
    n = draw(st.integers(0, 4))
    ids = [f"{i}#{draw(_EMIT_ID)}" for i in range(n)]
    ids = [draw(_PAD) + producer + draw(_PAD) for producer in ids]
    kind = draw(st.sampled_from(["integer", "naive", "aware"]))
    steps = sorted(draw(st.sets(st.integers(0, 10_000), max_size=6)))
    if kind == "integer":
        hours = steps
    else:
        offset = timedelta(hours=draw(st.integers(-12, 14)), minutes=draw(st.sampled_from([0, 30])))
        start = datetime(2004, 2, 1, tzinfo=timezone(offset) if kind == "aware" else None)
        hours = [start + timedelta(hours=h, microseconds=draw(st.sampled_from([0, 1])))
                 for h in steps]
    cells = len(hours) * n
    blocks = [draw(st.lists(_PAYOFF, min_size=cells, max_size=cells)) for _ in range(4)]
    tails = (
        draw(st.lists(_PAYOFF, min_size=len(hours), max_size=len(hours))),
        draw(st.lists(_PAYOFF, min_size=len(hours), max_size=len(hours))),
        draw(st.lists(st.booleans(), min_size=len(hours), max_size=len(hours))),
    )
    emit_cells = draw(st.sampled_from([1, 2, 3, simulator.EMIT_CELLS]))
    write_chars = draw(st.sampled_from([1, 100, simulator.WRITE_CHARS]))
    return _emit_report(ids, hours, blocks, tails), emit_cells, write_chars


def _files(out_dir):
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


@settings(max_examples=200, deadline=None)
@given(emit_cases())
def test_emit_matches_the_csv_writer_oracle(tmp_path_factory, case):
    """Every file's bytes and the returned paths equal those of the earlier
    writer, ``oracles.emit_report``, at any chunk size."""
    report, emit_cells, write_chars = case
    tmp_path = tmp_path_factory.mktemp("emit")
    expected = oracles.emit_report(report, tmp_path / "oracle")
    with mock.patch.multiple(simulator, EMIT_CELLS=emit_cells, WRITE_CHARS=write_chars):
        written = emit_report(report, tmp_path / "out")
    assert [path.relative_to(tmp_path / "out") for path in written] == [
        path.relative_to(tmp_path / "oracle") for path in expected
    ]
    assert _files(tmp_path / "out") == _files(tmp_path / "oracle")


def test_carriage_return_ids_read_back_intact(tmp_path):
    """An id holding CR is quoted like one holding LF: ``csv`` reads every
    ``hourly.csv`` row back as 9 fields and every ``summary.csv`` row as 3,
    with the ids as they were."""
    ids = ("a\rb", "c\r", "d\r\ne")
    report = _emit_report(
        ids, [0, 1], [[1.0] * 6] * 4, ([2.0, 3.0], [0.5, 0.25], [True, False])
    )
    emit_report(report, tmp_path)
    with (tmp_path / "hourly.csv").open(newline="", encoding="utf-8") as fh:
        hourly = list(csv.reader(fh))
    with (tmp_path / "summary.csv").open(newline="", encoding="utf-8") as fh:
        summary = list(csv.reader(fh))
    assert {len(row) for row in hourly} == {9}
    assert {len(row) for row in summary} == {3}
    assert [row[1] for row in hourly[1:]] == list(ids) * 2
    assert [row[0] for row in summary[1:]] == [*ids, "TOTAL"]
    assert (tmp_path / "hourly.csv").read_bytes().count(b'"a\rb"') == 2


def test_used_directory_ends_as_a_fresh_one(tmp_path):
    """Five hours and then two into one directory, in chunks of one hour, so
    that trace files are appended to: every file equals a fresh emit."""
    ids = ("a", "b,c", "d")
    rng = np.random.default_rng(5)

    def report(n_hours):
        blocks = rng.normal(0.0, 100.0, (4, n_hours * len(ids))).tolist()
        tails = (rng.normal(size=n_hours).tolist(), rng.normal(size=n_hours).tolist(),
                 [True] * n_hours)
        return _emit_report(ids, list(range(n_hours)), blocks, tails)

    long, short = report(5), report(2)
    with mock.patch.object(simulator, "EMIT_CELLS", len(ids)):
        emit_report(long, tmp_path / "used")
        again = emit_report(short, tmp_path / "used")
    fresh = emit_report(short, tmp_path / "fresh")
    assert [path.name for path in again] == [path.name for path in fresh]
    assert _files(tmp_path / "used") == _files(tmp_path / "fresh")
    assert (tmp_path / "used" / "trace_a.csv").read_text().count("\n") == 3


def test_emit_memory_is_set_by_the_chunk(tmp_path):
    """``emit_report`` peaks below 300 B per cell of one ``EMIT_CELLS``
    chunk under tracemalloc, on a window of 100 producers x 2,000 hours,
    three chunks and more. It measures about 141 B. The ``csv.writer``
    form, with every string of the window alive at once, peaks at 895 B per
    chunk cell here (293 B per cell of the whole window)."""
    n, n_hours = 100, 2000
    assert n * n_hours > 3 * simulator.EMIT_CELLS
    rng = np.random.default_rng(11)
    blocks = [np.round(rng.uniform(-1e3, 1e3, n * n_hours), 3) for _ in range(4)]
    tails = rng.normal(size=n_hours), rng.normal(size=n_hours), [True] * n_hours
    report = _emit_report([f"p{i:03d}" for i in range(n)], range(n_hours), blocks, tails)
    del blocks
    emit_report(report, tmp_path)  # first-call allocations of the modules it uses
    tracemalloc.start()
    try:
        emit_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * simulator.EMIT_CELLS


@given(st.text())
def test_safe_filename_keeps_the_regex_rule(text):
    assert simulator._safe_filename(text) == oracles.safe_filename(text)


def test_safe_filename_keeps_the_regex_rule_on_every_code_point():
    text = "".join(map(chr, range(0x110000)))
    assert simulator._safe_filename(text) == oracles.safe_filename(text)


def test_trace_file_names_must_differ_in_more_than_letter_case():
    assert trace_file_names(("a", "b.1")) == ["trace_a.csv", "trace_b.1.csv"]
    # a case-insensitive filesystem would open one file for both
    with pytest.raises(ValueError, match=r"'W1' and 'w1' would both write trace_w1\.csv"):
        trace_file_names(("W1", "w1"))
