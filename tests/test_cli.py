import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poolpay
from poolpay.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VIOLATION, main

from conftest import inside_core


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

    def test_quantile_one_without_cap_names_the_flag(self, capsys):
        code = main(["contract", "--mean", "100", "--std", "20",
                     "--pf", "15", "--prb", "15", "--prs", "5"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "--cap is required" in err
        assert "upper_bound" not in err

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


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports this poolpay."""
    path = [str(Path(poolpay.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_import_leaves_scipy_stats_out():
    """``import poolpay.cli`` must not pay for ``scipy.stats``: contract
    sizing needs ``scipy.special`` alone."""
    run = fresh_python("-c", "import sys, poolpay, poolpay.cli; "
                             "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("mean, std_dev, printed", [
    ("50", "1e-320", "50.0"), ("1e308", "1e-300", "1e+308"),
])
def test_contract_with_overflowing_z_score_runs_quietly(mean, std_dev, printed):
    run = fresh_python("-m", "poolpay.cli", "contract", "--mean", mean, "--std", std_dev,
                       "--pf", "10", "--prb", "15", "--prs", "5")
    assert (run.returncode, run.stderr) == (EXIT_OK, "")
    assert run.stdout.endswith(f"optimal_contract_mwh: {printed}\n")


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
        # the balanced-pool price is fixed at the band midpoint: --pstar is no flag
        code = main(["allocate", "--snapshot", str(snapshot_file), "--pstar", "100",
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        assert code == EXIT_INPUT_ERROR
        assert "unrecognized arguments: --pstar 100" in capsys.readouterr().err


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

    def test_pool_above_exhaustive_limit_is_certified(self, tmp_path, capsys):
        # a balanced pool of 21: p00's surplus offsets p01's shortfall, the
        # rest deliver exactly. Each coalition with p00 and without p01 is
        # 10 MWh long and falls 50 short of its share under the mechanism's
        # split, so moving 3e-5 from p00 to p01 stays in the core. The three
        # points of the bound leave it open; the LP minimum proves it
        ids = [f"p{i:02d}" for i in range(21)]
        actual = {"p00": 30.0, "p01": 10.0}
        snapshot = write_csv(tmp_path / "snap.csv", ["producer_id", "contract_mwh", "actual_mwh"],
                             [[p, 20.0, actual.get(p, 20.0)] for p in ids])
        mechanism = {"p00": 300.0, "p01": 100.0}
        moved = {"p00": 300.0 - 3e-5, "p01": 100.0 + 3e-5}
        flags = ["--pf", "10", "--prb", "15", "--prs", "5"]
        for payoff in (moved, mechanism):
            payoffs = write_csv(tmp_path / "payoffs.csv", ["producer_id", "payoff"],
                                [[p, payoff.get(p, 200.0)] for p in ids])
            code = main(["check-core", "--snapshot", str(snapshot), "--payoffs", str(payoffs),
                         *flags])
            out = capsys.readouterr().out
            assert code == EXIT_OK
            # both splits are proven with a bound of exactly 0.0
            assert "in_core               : True (worst violation 0.0, coalition None)\n" in out

    def test_open_pool_is_reported_not_proven(self, tmp_path, capsys):
        # in the core with room to spare, but the bound does not prove it
        # and the search around the LP optimum finds no violation: in_core
        # stays True, exit 0
        s, alloc = inside_core(21, np.random.default_rng(0))
        snapshot = write_csv(tmp_path / "snap.csv", ["producer_id", "contract_mwh", "actual_mwh"],
                             zip(s.producer_ids, s.contracts.tolist(), s.realizations.tolist()))
        payoffs = write_csv(tmp_path / "payoffs.csv", ["producer_id", "payoff"],
                            zip(s.producer_ids, alloc.payoffs.tolist()))
        code = main(["check-core", "--snapshot", str(snapshot), "--payoffs", str(payoffs),
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        line = capsys.readouterr().out.splitlines()[-1]
        assert code == EXIT_OK
        assert line.startswith("in_core               : True (worst violation ")
        assert line.endswith("), not proven)")

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


@pytest.mark.parametrize("command", ["check-core", "allocate", "equilibrium"])
@pytest.mark.parametrize(
    "rows, prices, line",
    [
        ([["p2", "50", "60"], ["p1", "1e308", "80"], ["p3", "50", "40"]], ["10", "15", "5"], 3),
        ([["p1", "5e305", "0"], ["p2", "5e305", "0"]], ["10", "15", "5"], 3),
        ([["p1", "0", "5e305"], ["p2", "0", "5e305"]], ["10", "15", "5"], 3),
        ([["p1", "100", "80"]], ["1e307", "1e307", "-1e307"], 2),
        ([["p1", "0", "0"]], ["10", "1e308", "-1e308"], 2),
        ([["p1", "1e308", "0"]], ["0", "0", "0"], 2),
    ],
    ids=["contract-1e308", "contract-total", "actual-total", "prices-times-energy",
         "price-spread", "zero-prices"],
)
def test_snapshot_that_could_overflow_names_the_row(tmp_path, capsys, recwarn, command, rows,
                                                     prices, line):
    # the row where the energy totals, priced, leave the domain is named
    # before anything is settled, with no numpy warning
    snapshot = write_csv(tmp_path / "snap.csv", ["producer_id", "contract_mwh", "actual_mwh"], rows)
    payoffs = write_csv(tmp_path / "payoffs.csv", ["producer_id", "payoff"],
                        [[row[0], "0"] for row in rows])
    extra = ["--payoffs", str(payoffs)] if command == "check-core" else []
    flags = [f"--{name}={price}" for name, price in zip(("pf", "prb", "prs"), prices)]
    code = main([command, "--snapshot", str(snapshot), *extra, *flags])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert err == f"error: {snapshot}:{line}: energy totals at these prices could overflow a settlement\n"
    assert not recwarn.list


def test_payoffs_that_could_overflow_name_the_row(snapshot_file, tmp_path, capsys, recwarn):
    payoffs = write_csv(tmp_path / "payoffs.csv", ["producer_id", "payoff"],
                        [["a", "1e307"], ["b", "-1e307"], ["c", "0"]])
    code = main(["check-core", "--snapshot", str(snapshot_file), "--payoffs", str(payoffs),
                 "--pf", "10", "--prb", "15", "--prs", "5"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert err == f"error: {payoffs}:3: the sum of |payoff| could overflow a settlement\n"
    assert not recwarn.list


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

    def test_pstar_is_an_unknown_flag(self, snapshot_file, capsys):
        code = main(["equilibrium", "--snapshot", str(snapshot_file), "--pstar", "midpoint",
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        assert code == EXIT_INPUT_ERROR
        assert "unrecognized arguments: --pstar midpoint" in capsys.readouterr().err


_QUOTED_IDS = ["p,1", 'q"2', "r\n3", "s\r4", "t"]


def test_one_shot_outputs_quote_ids_and_read_back(tmp_path, capsys):
    """``allocate`` and ``equilibrium`` print each id as one CSV field, so
    ``allocate``'s rows, without its comment lines, are a payoffs file that
    ``check-core`` accepts."""
    snapshot = tmp_path / "snap.csv"
    with snapshot.open("w", newline="", encoding="utf-8") as fh:
        # every field quoted: before Python 3.13 csv.writer leaves a CR unquoted
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["producer_id", "contract_mwh", "actual_mwh"])
        writer.writerows([producer, 50.0, 40.0 + 5 * i] for i, producer in enumerate(_QUOTED_IDS))
    prices = ["--pf", "10", "--prb", "15", "--prs", "5"]
    assert main(["allocate", "--snapshot", str(snapshot), *prices]) == EXIT_OK
    out = capsys.readouterr().out
    payoffs = tmp_path / "pam.csv"
    payoffs.write_text("".join(line for line in out.splitlines(keepends=True)
                               if not line.startswith("#")), newline="")
    with payoffs.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == _QUOTED_IDS
    assert main(["check-core", "--snapshot", str(snapshot), "--payoffs", str(payoffs),
                 *prices]) == EXIT_OK
    capsys.readouterr()
    assert main(["equilibrium", "--snapshot", str(snapshot), *prices]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines(keepends=True)
    rows = list(csv.reader(line for line in lines[1:] if not line.startswith("#")))
    assert {len(row) for row in rows} == {3}
    assert [row[0] for row in rows[1:]] == _QUOTED_IDS


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

    def test_byte_identical_reruns(self, generation_file, tmp_path, capsys):
        # --check-core is accepted and has no effect: every hour's core is audited
        args = lambda out, *flags: ["simulate", "--data", str(generation_file),
                                    "--pf", "10", "--prb", "15", "--prs", "5",
                                    "--train", "0:4", "--sim", "4:10", *flags, "--out", str(out)]
        stdout = []
        for out, flags in (("out1", []), ("out2", ["--check-core"])):
            assert main(args(tmp_path / out, *flags)) == EXIT_OK
            stdout.append(capsys.readouterr().out.replace(str(tmp_path / out), "<out>"))
        assert stdout[0] == stdout[1]
        for name in ("hourly.csv", "summary.csv", "trace_w1.csv", "trace_w2.csv"):
            assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()

    def test_one_producer_pool_gains_zero_not_minus_zero(self, tmp_path):
        # one producer is never short against a pool partner, so the
        # pooling gain is exactly 0.0 on every hour
        gen = write_csv(tmp_path / "gen.csv", ["hour", "producer_id", "forecast_mwh", "actual_mwh"],
                        [[0, "w1", 50, 48], [1, "w1", 50, 53], [2, "w1", 50, 47]])
        contracts = write_csv(tmp_path / "contracts.csv", ["hour", "producer_id", "contract_mwh"],
                              [[1, "w1", 50], [2, "w1", 45]])
        out_dir = tmp_path / "out"
        assert main(["simulate", "--data", str(gen), "--pf", "10", "--prb", "15", "--prs", "5",
                     "--contracts", str(contracts), "--train", "0:1", "--sim", "1:3",
                     "--out", str(out_dir)]) == EXIT_OK
        with (out_dir / "hourly.csv").open(newline="") as fh:
            assert [row["excess_profit"] for row in csv.DictReader(fh)] == ["0.0", "0.0"]

    def test_out_of_band_pstar_fails_before_any_output(self, generation_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["simulate", "--data", str(generation_file),
                     "--pf", "10", "--prb", "15", "--prs", "5", "--pstar", "100",
                     "--train", "0:4", "--sim", "4:10", "--out", str(out_dir)])
        assert code == EXIT_INPUT_ERROR
        assert "unrecognized arguments: --pstar 100" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [["--pf", "999"], ["--pf", "10", "--prb", "15", "--prs", "5"]],
                             ids=["pf", "all-three"])
    def test_price_file_with_price_flags_fails_before_any_output(
        self, generation_file, tmp_path, capsys, flags
    ):
        prices = write_csv(tmp_path / "prices.csv", ["hour", "p_f", "p_rb", "p_rs"],
                           [[h, 10.0, 15.0, 5.0] for h in range(10)])
        out_dir = tmp_path / "out"
        code = main(["simulate", "--data", str(generation_file), "--prices", str(prices),
                     *flags, "--train", "0:4", "--sim", "4:10", "--out", str(out_dir)])
        assert code == EXIT_INPUT_ERROR
        assert "--prices cannot be combined with --pf/--prb/--prs" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "ids, name",
        [(("w 1", "w_1"), "trace_w_1.csv"), (("W1", "w1"), "trace_w1.csv")],
        ids=["same-name", "letter-case"],
    )
    def test_trace_name_collision_writes_nothing(self, tmp_path, capsys, monkeypatch, ids, name):
        # "w 1" and "w_1" both map to trace_w_1.csv, and a case-insensitive
        # filesystem opens one file for trace_W1.csv and trace_w1.csv; the
        # clash is known once the series is loaded, so the window is never
        # settled
        def run_simulation(*args, **kwargs):
            raise AssertionError("settled a window whose report cannot be written")

        monkeypatch.setattr("poolpay.cli.run_simulation", run_simulation)
        gen = write_csv(tmp_path / "gen.csv", ["hour", "producer_id", "forecast_mwh", "actual_mwh"],
                        [[h, p, 50.0, 40.0 + h] for h in range(4) for p in ids])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = main(["simulate", "--data", str(gen), "--pf", "10", "--prb", "15", "--prs", "5",
                     "--train", "0:2", "--sim", "2:4", "--out", str(out_dir)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert all(f"{p!r}" in err for p in ids) and name in err
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

    def test_mixed_naive_and_aware_hours_name_the_row(self, tmp_path, capsys):
        gen = write_csv(tmp_path / "gen.csv", ["hour", "producer_id", "forecast_mwh", "actual_mwh"],
                        [["2004-02-01T00:00:00", "w1", 50.0, 40.0],
                         ["2004-02-01T01:00:00", "w1", 50.0, 40.0],
                         ["2004-02-01T02:00:00+00:00", "w1", 50.0, 40.0],
                         ["2004-02-01T03:00:00", "w1", 50.0, 40.0]])
        code = main(["simulate", "--data", str(gen), "--pf", "10", "--prb", "15", "--prs", "5",
                     "--train", "0:2", "--sim", "2:4", "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR
        assert f"{gen}:4: timezone-aware ISO hour mixes with naive ISO hours" in (
            capsys.readouterr().err
        )

    def test_undecodable_byte_names_file_and_line(self, generation_file, tmp_path, capsys):
        # far enough down that the text decoder has read several chunks
        lines = generation_file.read_bytes().splitlines(keepends=True)
        lines = lines[:1] + [b"%d,w%d,50.0,40.0\n" % (h, p) for h in range(20, 3020) for p in (1, 2)]
        lines[4321] = lines[4321].replace(b"w", b"\xffw")
        gen = tmp_path / "gen_bad.csv"
        gen.write_bytes(b"".join(lines))
        code = main(["simulate", "--data", str(gen), "--pf", "10", "--prb", "15", "--prs", "5",
                     "--train", "0:4", "--sim", "4:10", "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR
        assert f"{gen}:4322: byte 0xff is not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("hour_2", [["1e308", "45"], ["5e305", "5e305"]],
                             ids=["contract-1e308", "contract-total"])
    def test_window_that_could_overflow_names_the_hour(self, tmp_path, capsys, recwarn, hour_2):
        # the one-shot domain rule, per hour of the window: hour 2's contract
        # total at 15 / MWh leaves the float range once multiplied by 16, so
        # the run stops before settling, with no numpy warning
        rows = [[h, p, 50, 48 + h + k] for h in range(3) for k, p in enumerate(("w1", "w2"))]
        gen = write_csv(tmp_path / "gen.csv", ["hour", "producer_id", "forecast_mwh", "actual_mwh"],
                        rows)
        contracts = write_csv(tmp_path / "contracts.csv", ["hour", "producer_id", "contract_mwh"],
                              [[1, "w1", 50], [1, "w2", 50], [2, "w1", hour_2[0]],
                               [2, "w2", hour_2[1]]])
        out_dir = tmp_path / "out"
        code = main(["simulate", "--data", str(gen), "--pf", "10", "--prb", "15", "--prs", "5",
                     "--contracts", str(contracts), "--train", "0:1", "--sim", "1:3",
                     "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert err == "error: energy totals of hour 2 at its prices could overflow a settlement\n"
        assert not recwarn.list
        assert not out_dir.exists()

    @pytest.mark.parametrize("hours, code", [(399, EXIT_INPUT_ERROR), (99, 0)])
    def test_window_whose_totals_overflow_is_rejected(self, tmp_path, capsys, recwarn, hours,
                                                      code):
        # every hour is inside the one-shot domain: w1 is 1e305 MWh short and
        # w2 1e305 MWh long. Over 399 hours w2's pooled payoff, 1e306 an hour,
        # and both separate totals add up past the float range; the run stops
        # before any file is written, with no numpy warning. 99 hours add up
        # to 9.9e307 and are written
        gen = write_csv(tmp_path / "gen.csv", ["hour", "producer_id", "forecast_mwh", "actual_mwh"],
                        [[h, p, 1e305, x] for h in range(hours + 1)
                         for p, x in (("w1", 0.0), ("w2", 1e305))])
        contracts = write_csv(tmp_path / "contracts.csv", ["hour", "producer_id", "contract_mwh"],
                              [[h, p, c] for h in range(1, hours + 1)
                               for p, c in (("w1", 1e305), ("w2", 0.0))])
        out_dir = tmp_path / "out"
        assert main(["simulate", "--data", str(gen), "--pf", "10", "--prb", "15", "--prs", "5",
                     "--contracts", str(contracts), "--train", "0:1", "--sim", f"1:{hours + 1}",
                     "--out", str(out_dir)]) == code
        err = capsys.readouterr().err
        assert not recwarn.list
        if code:
            assert err == (f"error: window of hours 1 to {hours}: its payoffs add up past the "
                           "float range\n")
            assert not out_dir.exists()
        else:
            assert err == ""
            assert (out_dir / "summary.csv").read_text().splitlines()[-1] == (
                "TOTAL,9.900000000000005e+307,0.0"
            )

    def test_quantile_one_sizing_names_the_hour(self, generation_file, tmp_path, capsys):
        prices = write_csv(tmp_path / "prices.csv", ["hour", "p_f", "p_rb", "p_rs"],
                           [[h, 20.0 if h in (6, 8) else 10.0, 15.0, 5.0] for h in range(10)])
        out_dir = tmp_path / "out"
        code = main(["simulate", "--data", str(generation_file), "--prices", str(prices),
                     "--train", "0:4", "--sim", "4:10", "--out", str(out_dir)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "hour 6 has p_f >= p_rb" in err and "--contracts" in err
        assert "upper_bound" not in err
        assert not out_dir.exists()


def iso_hour(h):
    return f"2004-02-01T{h:02d}:00:00"


ISO_GENERATION = [[iso_hour(h), p, 50.0, 40.0 + h + k]
                  for h in range(4) for k, p in enumerate(("w1", "w2"))]
ISO_PRICES = [[iso_hour(h), 10.0, 15.0, 5.0] for h in range(4)]
ISO_CONTRACTS = [[iso_hour(h), p, 45.0] for h in (2, 3) for p in ("w1", "w2")]


@pytest.mark.parametrize(
    "generation, prices, contracts, message",
    [
        (ISO_GENERATION[:-1], ISO_PRICES, ISO_CONTRACTS,
         "missing hour 2004-02-01T03:00:00 for producer 'w2'"),
        (ISO_GENERATION + ISO_GENERATION[2:3], ISO_PRICES, ISO_CONTRACTS,
         "duplicate (hour, producer) key (2004-02-01T01:00:00, 'w1')"),
        (ISO_GENERATION, ISO_PRICES, ISO_CONTRACTS + [[iso_hour(9), "w1", 1.0]],
         "hour 2004-02-01T09:00:00 is not in the generation series"),
        (ISO_GENERATION, ISO_PRICES, ISO_CONTRACTS + ISO_CONTRACTS[:1],
         "duplicate (hour, producer) key (2004-02-01T02:00:00, 'w1')"),
        (ISO_GENERATION, ISO_PRICES, ISO_CONTRACTS[:-1],
         "contract schedule missing hour 2004-02-01T03:00:00 for producer 'w2'"),
        (ISO_GENERATION, ISO_PRICES[:3] + [[iso_hour(3), 20.0, 15.0, 5.0]], None,
         "hour 2004-02-01T03:00:00 has p_f >= p_rb"),
        (ISO_GENERATION, ISO_PRICES[:-1], ISO_CONTRACTS,
         "no prices supplied for hour 2004-02-01T03:00:00"),
        (ISO_GENERATION, ISO_PRICES + ISO_PRICES[1:2], ISO_CONTRACTS,
         "duplicate hour 2004-02-01T01:00:00"),
        # a timezone-aware hour in a naive series is not one of its hours
        (ISO_GENERATION, ISO_PRICES[:2] + [[iso_hour(2) + "+00:00", 10.0, 15.0, 5.0]]
         + ISO_PRICES[3:], ISO_CONTRACTS,
         "prices.csv:4: hour 2004-02-01T02:00:00+00:00 is not in the generation series"),
    ],
    ids=["generation-gap", "generation-duplicate", "schedule-unknown-hour", "schedule-duplicate",
         "schedule-gap", "unbounded-contract", "missing-price", "price-duplicate",
         "price-hour-of-another-kind"],
)
def test_iso_hours_are_named_as_written(tmp_path, capsys, generation, prices, contracts, message):
    gen = write_csv(tmp_path / "gen.csv", ["hour", "producer_id", "forecast_mwh", "actual_mwh"],
                    generation)
    price_path = write_csv(tmp_path / "prices.csv", ["hour", "p_f", "p_rb", "p_rs"], prices)
    argv = ["simulate", "--data", str(gen), "--prices", str(price_path),
            "--train", "0:2", "--sim", "2:4", "--out", str(tmp_path / "out")]
    if contracts is not None:
        contract_path = write_csv(tmp_path / "contracts.csv",
                                  ["hour", "producer_id", "contract_mwh"], contracts)
        argv += ["--contracts", str(contract_path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert message in err and "datetime" not in err
