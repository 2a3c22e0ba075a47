import csv
import functools
import operator
import re

import numpy as np
import pytest

from poolpay import (
    PamConfig,
    PriceTriple,
    SimulationConfig,
    TimeseriesFormatError,
    emit_report,
    load_prices,
    load_timeseries,
    run_simulation,
)
from poolpay.simulator import load_contract_schedule

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


class TestLoadPrices:
    def test_valid(self, tmp_path):
        path = write_csv(
            tmp_path / "prices.csv",
            ["hour", "p_f", "p_rb", "p_rs"],
            [[0, 10.0, 15.0, 5.0], [1, 11.0, 14.0, -2.0]],
        )
        prices = load_prices(path)
        assert prices[0] == PriceTriple(10.0, 15.0, 5.0)
        assert prices[1].rt_sell == -2.0

    def test_arbitrage_hour_rejected_with_line(self, tmp_path):
        path = write_csv(
            tmp_path / "prices.csv",
            ["hour", "p_f", "p_rb", "p_rs"],
            [[0, 10.0, 15.0, 5.0], [1, 10.0, 5.0, 15.0]],
        )
        with pytest.raises(TimeseriesFormatError, match=r":3: .*no-arbitrage"):
            load_prices(path)


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
        config = SimulationConfig(
            price_source=P,
            train_range=(0, 1),
            sim_range=(1, 2),
            contract_schedule=scheduled(data, {1: [100.0]}),
            check_core=True,
        )
        report = run_simulation(config, data)
        assert report.payoffs_pooled[0, 0] == 1000.0
        assert report.payoffs_separate[0, 0] == 1000.0
        assert report.properties[0].all_pass
        assert sum(report.violation_counts.values()) == 0

    def test_offsetting_deviations_capture_the_spread(self, tmp_path):
        data = two_producer_data(tmp_path)
        config = SimulationConfig(
            price_source=P,
            train_range=(0, 2),
            sim_range=(2, 3),
            contract_schedule=scheduled(data, {2: [100.0, 50.0]}),
            check_core=True,
        )
        report = run_simulation(config, data)
        assert report.excess_profit[0] == pytest.approx(200.0)
        gap = report.payoffs_pooled[0].sum() - report.payoffs_separate[0].sum()
        assert gap == pytest.approx(200.0)
        assert report.grand_total_pooled - report.grand_total_separate == pytest.approx(200.0)

    def test_newsvendor_contracts_match_fit_distribution(self, tmp_path):
        data = two_producer_data(tmp_path)
        config = SimulationConfig(
            price_source=P, train_range=(0, 2), sim_range=(2, 3)
        )
        report = run_simulation(config, data)
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
        config = SimulationConfig(
            price_source=P,
            train_range=(0, 2),
            sim_range=(2, 3),
            contract_schedule=load_contract_schedule(schedule_path, data),
        )
        report = run_simulation(config, data)
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
        config = SimulationConfig(
            price_source=P, train_range=(0, 1), sim_range=(1, 3), contract_schedule=schedule
        )
        with pytest.raises(ValueError, match="missing hour 2 for producer 'b'"):
            run_simulation(config, data)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 1), (6,)])
    def test_schedule_of_another_shape_rejected(self, tmp_path, shape):
        data = two_producer_data(tmp_path)
        config = SimulationConfig(
            price_source=P, train_range=(0, 2), sim_range=(2, 3),
            contract_schedule=np.ones(shape),
        )
        with pytest.raises(ValueError, match=r"\(hours x producers\) \(3, 2\)"):
            run_simulation(config, data)

    def test_per_hour_prices(self, tmp_path):
        data = two_producer_data(tmp_path)
        price_map = {2: PriceTriple(20.0, 30.0, 10.0)}
        config = SimulationConfig(
            price_source=price_map,
            train_range=(0, 2),
            sim_range=(2, 3),
            contract_schedule=scheduled(data, {2: [100.0, 50.0]}),
        )
        report = run_simulation(config, data)
        # same offsets, doubled spread
        assert report.excess_profit[0] == pytest.approx(400.0)

    def test_missing_price_hour_aborts_with_reference(self, tmp_path):
        data = two_producer_data(tmp_path)
        config = SimulationConfig(
            price_source={0: P},
            train_range=(0, 2),
            sim_range=(2, 3),
            contract_schedule=scheduled(data, {2: [100.0, 50.0]}),
        )
        with pytest.raises(ValueError, match="hour 2"):
            run_simulation(config, data)

    def test_overlapping_windows_rejected(self, tmp_path):
        data = two_producer_data(tmp_path)
        config = SimulationConfig(price_source=P, train_range=(0, 2), sim_range=(1, 3))
        with pytest.raises(ValueError, match="before"):
            run_simulation(config, data)

    def test_range_outside_data_rejected(self, tmp_path):
        data = two_producer_data(tmp_path)
        config = SimulationConfig(price_source=P, train_range=(0, 2), sim_range=(2, 9))
        with pytest.raises(ValueError, match="sim_range"):
            run_simulation(config, data)

    def test_short_training_window_rejected_for_newsvendor(self, tmp_path):
        data = two_producer_data(tmp_path)
        config = SimulationConfig(price_source=P, train_range=(0, 1), sim_range=(2, 3))
        with pytest.raises(ValueError, match="training"):
            run_simulation(config, data)

    def test_hours_are_independent(self, tmp_path):
        rows = []
        rng = np.random.default_rng(40)
        for hour in range(8):
            for producer in ("a", "b", "c"):
                fc = rng.uniform(20, 80)
                rows.append([hour, producer, fc, max(0.0, fc + rng.normal(0, 10))])
        data = load_timeseries(generation_file(tmp_path, rows))

        def run(sim_range):
            config = SimulationConfig(price_source=P, train_range=(0, 3), sim_range=sim_range)
            return run_simulation(config, data)

        whole = run((3, 8))
        first, second = run((3, 5)), run((5, 8))
        assert whole.hours == first.hours + second.hours
        for name in ("payoffs_pooled", "contracts"):
            np.testing.assert_array_equal(
                getattr(whole, name),
                np.concatenate([getattr(first, name), getattr(second, name)]),
            )


class TestEmitReport:
    def _report(self, tmp_path):
        data = two_producer_data(tmp_path)
        config = SimulationConfig(
            price_source=P, train_range=(0, 2), sim_range=(2, 3), check_core=True
        )
        return run_simulation(config, data)

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
            config = SimulationConfig(price_source=prices, train_range=(0, 2), sim_range=(2, 26))
            out_dir = tmp_path / f"out{len(producers)}"
            emit_report(run_simulation(config, data), out_dir)

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
        report = self._report(tmp_path)
        emit_report(report, tmp_path / "out")
        with (tmp_path / "out" / "summary.csv").open(newline="") as fh:
            for row in csv.DictReader(fh):
                assert row["total_payoff_exante"] == ""

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
            properties=(),
            totals_pooled=np.zeros(0),
            totals_separate=np.zeros(0),
            grand_total_pooled=0.0,
            grand_total_separate=0.0,
            total_excess_profit=0.0,
            violation_counts={},
        )
        files = emit_report(empty, tmp_path / "out")
        assert sorted(p.name for p in files) == ["hourly.csv", "summary.csv"]
        for path in files:
            assert len(path.read_text().strip().splitlines()) == 1  # header only
