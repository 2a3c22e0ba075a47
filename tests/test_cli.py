import csv

import numpy as np
import pytest

from poolpay.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VIOLATION, main


def write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


@pytest.fixture
def snapshot_file(tmp_path):
    return write_csv(
        tmp_path / "snap.csv",
        ["producer_id", "contract_mwh", "actual_mwh"],
        [["a", 100.0, 80.0], ["b", 50.0, 60.0], ["c", 50.0, 40.0]],
    )


@pytest.fixture
def priced_snapshot_file(tmp_path):
    return write_csv(
        tmp_path / "snap_priced.csv",
        ["producer_id", "contract_mwh", "actual_mwh", "p_f", "p_rb", "p_rs"],
        [["a", 100.0, 80.0, 10.0, 15.0, 5.0], ["b", 50.0, 70.0, 10.0, 15.0, 5.0]],
    )


@pytest.fixture
def generation_file(tmp_path):
    rows = []
    rng = np.random.default_rng(50)
    for hour in range(10):
        for producer in ("w1", "w2"):
            fc = rng.uniform(30, 90)
            rows.append([hour, producer, fc, max(0.0, fc + rng.normal(0, 12))])
    return write_csv(
        tmp_path / "gen.csv", ["hour", "producer_id", "forecast_mwh", "actual_mwh"], rows
    )


class TestContractCommand:
    def test_symmetric_prices(self, capsys):
        code = main(["contract", "--mean", "100", "--std", "20",
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "critical_quantile: 0.5" in out
        value = float(out.split("optimal_contract_mwh: ")[1])
        assert value == pytest.approx(100.0, abs=0.01)

    def test_quantile_one_without_cap_is_input_error(self, capsys):
        code = main(["contract", "--mean", "100", "--std", "20",
                     "--pf", "20", "--prb", "15", "--prs", "5"])
        assert code == EXIT_INPUT_ERROR
        assert "cap" in capsys.readouterr().err

    # the --cap cases keep their ids; --std and --mean are checked the same way
    @pytest.mark.parametrize("flag, value, rule", [
        pytest.param("--cap", "-5", ">= 0", id="-5"),
        pytest.param("--cap", "nan", ">= 0", id="nan"),
        pytest.param("--std", "-1", ">= 0", id="std=-1"),
        pytest.param("--std", "nan", ">= 0", id="std=nan"),
        pytest.param("--mean", "nan", "finite", id="mean=nan"),
        pytest.param("--mean", "inf", "finite", id="mean=inf"),
    ])
    def test_bad_cap_is_input_error_naming_the_flag(self, flag, value, rule, capsys):
        flags = {"--mean": "100", "--std": "20", flag: value}
        code = main(["contract", *(token for pair in flags.items() for token in pair),
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        assert code == EXIT_INPUT_ERROR
        assert f"{flag} must be {rule}, got {float(value)}" in capsys.readouterr().err


class TestAllocateCommand:
    def test_flags_for_prices(self, snapshot_file, capsys):
        code = main(["allocate", "--snapshot", str(snapshot_file),
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "a,700.0" in out
        assert "b,650.0" in out
        assert "c,350.0" in out
        assert "marginal_price_used=15" in out

    def test_prices_from_columns(self, priced_snapshot_file, capsys):
        code = main(["allocate", "--snapshot", str(priced_snapshot_file)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "aggregator_total=1500.0" in out

    def test_missing_prices_is_input_error(self, snapshot_file, capsys):
        code = main(["allocate", "--snapshot", str(snapshot_file)])
        assert code == EXIT_INPUT_ERROR

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(["allocate", "--snapshot", str(tmp_path / "nope.csv"),
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        assert code == EXIT_INPUT_ERROR

    def test_out_of_band_pstar_on_short_pool_is_input_error(self, snapshot_file, capsys):
        code = main(["allocate", "--snapshot", str(snapshot_file), "--pstar", "100",
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        assert code == EXIT_INPUT_ERROR
        assert "band" in capsys.readouterr().err


class TestCheckCoreCommand:
    def test_good_allocation_passes(self, snapshot_file, tmp_path, capsys):
        payoffs = write_csv(
            tmp_path / "payoffs.csv",
            ["producer_id", "payoff"],
            [["a", 700.0], ["b", 650.0], ["c", 350.0]],
        )
        code = main(["check-core", "--snapshot", str(snapshot_file),
                     "--payoffs", str(payoffs),
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "in_core               : True" in out

    def test_blocked_allocation_exits_2(self, snapshot_file, tmp_path, capsys):
        equal_split = write_csv(
            tmp_path / "payoffs.csv",
            ["producer_id", "payoff"],
            [["a", 1700 / 3], ["b", 1700 / 3], ["c", 1700 / 3]],
        )
        code = main(["check-core", "--snapshot", str(snapshot_file),
                     "--payoffs", str(equal_split),
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        assert code == EXIT_VIOLATION
        assert "False" in capsys.readouterr().out

    def test_pool_above_exhaustive_limit_is_sampled(self, tmp_path, capsys):
        ids = [f"p{i:02d}" for i in range(21)]
        snapshot = write_csv(tmp_path / "snap.csv", ["producer_id", "contract_mwh", "actual_mwh"],
                             [[p, 10.0, 10.0] for p in ids])
        payoffs = write_csv(tmp_path / "payoffs.csv", ["producer_id", "payoff"],
                            [[p, 100.0] for p in ids])
        code = main(["check-core", "--snapshot", str(snapshot), "--payoffs", str(payoffs),
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        assert code == EXIT_OK
        assert "in_core               : True" in capsys.readouterr().out

    def test_payoff_row_for_unknown_producer_rejected(self, snapshot_file, tmp_path, capsys):
        payoffs = write_csv(
            tmp_path / "payoffs.csv",
            ["producer_id", "payoff"],
            [["a", 700.0], ["b", 650.0], ["c", 350.0], ["zz", 1e9]],
        )
        code = main(["check-core", "--snapshot", str(snapshot_file),
                     "--payoffs", str(payoffs),
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"{payoffs}:5:" in err
        assert "'zz'" in err


GOOD_SNAPSHOT = [["a", "100.0", "80.0"], ["b", "50.0", "60.0"], ["c", "50.0", "40.0"]]
GOOD_PAYOFFS = [["a", "700.0"], ["b", "650.0"], ["c", "350.0"]]
ROW_PRICES = ["10.0", "15.0", "5.0"]


@pytest.mark.parametrize(
    "target, bad_row",
    [
        ("payoffs", ["b"]),
        ("payoffs", ["b", "abc"]),
        ("payoffs", ["b", "nan"]),
        ("payoffs", ["a", "650.0"]),
        ("snapshot", ["b", "50.0"]),
        ("snapshot", ["b", "abc", "60.0"]),
        ("snapshot", ["b", "50.0", "nan"]),
        ("snapshot", ["b", "50.0", "inf"]),
        ("snapshot", ["b", "-50.0", "60.0"]),
        ("snapshot", ["a", "50.0", "60.0"]),
        ("priced", ["b", "50.0", "60.0", "10.0", "5.0", "15.0"]),
        ("priced", ["b", "50.0", "60.0", "10.0", "15.0", "nan"]),
        ("priced", ["b", "50.0", "60.0", "10.0", "15.0"]),
    ],
    ids=[
        "payoffs-short-row",
        "payoffs-not-a-number",
        "payoffs-non-finite",
        "payoffs-duplicate-producer",
        "snapshot-short-row",
        "snapshot-not-a-number",
        "snapshot-nan",
        "snapshot-inf",
        "snapshot-negative-energy",
        "snapshot-duplicate-producer",
        "priced-snapshot-inadmissible-prices",
        "priced-snapshot-non-finite-price",
        "priced-snapshot-short-row",
    ],
)
def test_bad_input_row_names_file_and_line(tmp_path, capsys, target, bad_row):
    priced = target == "priced"
    snapshot_rows = [row + ROW_PRICES if priced else row for row in GOOD_SNAPSHOT]
    payoff_rows = list(GOOD_PAYOFFS)
    (payoff_rows if target == "payoffs" else snapshot_rows)[1] = bad_row
    snapshot = write_csv(
        tmp_path / "snap.csv",
        ["producer_id", "contract_mwh", "actual_mwh"] + (["p_f", "p_rb", "p_rs"] if priced else []),
        snapshot_rows,
    )
    payoffs = write_csv(tmp_path / "payoffs.csv", ["producer_id", "payoff"], payoff_rows)
    price_flags = [] if priced else ["--pf", "10", "--prb", "15", "--prs", "5"]
    code = main(["check-core", "--snapshot", str(snapshot), "--payoffs", str(payoffs),
                 *price_flags])
    bad_file = payoffs if target == "payoffs" else snapshot
    assert code == EXIT_INPUT_ERROR
    assert f"{bad_file}:3:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, rows, message",
    [
        (["--pf", "10", "--prb", "16", "--prs", "5"], [["a", "100.0", "80.0", *ROW_PRICES]],
         "differ from --pf/--prb/--prs"),
        ([], [["a", "100.0", "80.0", *ROW_PRICES], ["b", "50.0", "60.0", "10.0", "16.0", "5.0"]],
         "differ between rows"),
    ],
    ids=["differs-from-flags", "differs-between-rows"],
)
def test_price_column_mismatch_names_its_source(tmp_path, capsys, flags, rows, message):
    snapshot = write_csv(
        tmp_path / "snap.csv",
        ["producer_id", "contract_mwh", "actual_mwh", "p_f", "p_rb", "p_rs"],
        rows,
    )
    code = main(["allocate", "--snapshot", str(snapshot), *flags])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert f"{snapshot}:{len(rows) + 1}:" in err
    assert message in err


class TestEquilibriumCommand:
    def test_matches_allocation(self, snapshot_file, capsys):
        code = main(["equilibrium", "--snapshot", str(snapshot_file),
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "clearing_price: 15" in out
        assert "matches_marginal_price_allocation=True" in out


class TestSimulateCommand:
    def test_end_to_end(self, generation_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["simulate", "--data", str(generation_file),
                     "--pf", "10", "--prb", "15", "--prs", "5",
                     "--train", "0:4", "--sim", "4:10",
                     "--check-core", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert (out_dir / "hourly.csv").exists()
        assert (out_dir / "summary.csv").exists()
        assert "violations[core]: 0" in out

    def test_byte_identical_reruns(self, generation_file, tmp_path):
        args = lambda out: ["simulate", "--data", str(generation_file),
                            "--pf", "10", "--prb", "15", "--prs", "5",
                            "--train", "0:4", "--sim", "4:10", "--out", str(out)]
        assert main(args(tmp_path / "out1")) == EXIT_OK
        assert main(args(tmp_path / "out2")) == EXIT_OK
        for name in ("hourly.csv", "summary.csv", "trace_w1.csv", "trace_w2.csv"):
            assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()

    def test_out_of_band_pstar_fails_before_any_output(self, generation_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["simulate", "--data", str(generation_file),
                     "--pf", "10", "--prb", "15", "--prs", "5", "--pstar", "100",
                     "--train", "0:4", "--sim", "4:10", "--out", str(out_dir)])
        assert code == EXIT_INPUT_ERROR
        assert "band" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "bad_row",
        [["2", "zz", "1e9"], ["2", "", "1.0"], ["99", "w1", "1e9"]],
        ids=["unknown-producer", "empty-producer", "unknown-hour"],
    )
    def test_contract_row_outside_the_series_is_input_error(
        self, generation_file, tmp_path, capsys, bad_row
    ):
        rows = [[h, p, 50.0] for h in range(4, 10) for p in ("w1", "w2")]
        contracts = write_csv(tmp_path / "contracts.csv", ["hour", "producer_id", "contract_mwh"],
                              rows + [bad_row])
        code = main(["simulate", "--data", str(generation_file),
                     "--pf", "10", "--prb", "15", "--prs", "5", "--contracts", str(contracts),
                     "--train", "0:4", "--sim", "4:10", "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR
        assert f"contracts.csv:{len(rows) + 2}:" in capsys.readouterr().err

    def test_trace_name_collision_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # "w 1" and "w_1" both map to trace_w_1.csv; the clash is known once
        # the series is loaded, so the window is never settled
        def run_simulation(config, data):
            raise AssertionError("settled a window whose report cannot be written")

        monkeypatch.setattr("poolpay.cli.run_simulation", run_simulation)
        gen = write_csv(tmp_path / "gen.csv", ["hour", "producer_id", "forecast_mwh", "actual_mwh"],
                        [[h, p, 50.0, 40.0 + h] for h in range(4) for p in ("w 1", "w_1")])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = main(["simulate", "--data", str(gen), "--pf", "10", "--prb", "15", "--prs", "5",
                     "--train", "0:2", "--sim", "2:4", "--out", str(out_dir)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "'w 1'" in err and "'w_1'" in err and "trace_w_1.csv" in err
        assert list(out_dir.iterdir()) == []

    def test_bad_price_file_is_input_error(self, generation_file, tmp_path, capsys):
        prices = write_csv(tmp_path / "prices.csv", ["hour", "p_f", "p_rb", "p_rs"],
                           [[h, 10.0, 5.0, 15.0] for h in range(10)])
        code = main(["simulate", "--data", str(generation_file),
                     "--prices", str(prices),
                     "--train", "0:4", "--sim", "4:10", "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR
        assert "no-arbitrage" in capsys.readouterr().err

    def test_missing_price_flags_is_input_error(self, generation_file, tmp_path):
        code = main(["simulate", "--data", str(generation_file),
                     "--train", "0:4", "--sim", "4:10", "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR

    def test_bad_range_syntax_is_input_error(self, generation_file, tmp_path):
        code = main(["simulate", "--data", str(generation_file),
                     "--pf", "10", "--prb", "15", "--prs", "5",
                     "--train", "whenever", "--sim", "4:10", "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR
