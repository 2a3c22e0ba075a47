"""Golden outputs: the exact bytes the CLI writes on small fixed inputs.

Refactors must leave these digests alone. A deliberate output change updates
them and says why in CHANGES.md. The simulate run uses scheduled contracts,
so scipy's truncnorm never enters the numbers.
"""
import csv
import hashlib

from poolpay.cli import main

PRODUCERS = ("a", "b", "c")

# Hour 0 trains, hours 1-6 settle. Hour 1 has a zero contract with zero
# output (c), hour 2 an exact delivery (b), hour 3 a negative day-ahead
# price and hour 4 a zero real-time spread.
ACTUALS = [
    (50.0, 30.0, 20.0),
    (42.5, 31.7, 0.0),
    (55.1, 28.3, 12.9),
    (47.0, 33.3, 19.6),
    (39.4, 35.0, 22.2),
    (60.0, 0.0, 18.8),
    (44.4, 29.9, 25.05),
]
CONTRACTS = {
    1: (45.0, 30.0, 0.0),
    2: (50.0, 28.3, 15.0),
    3: (48.0, 30.0, 20.0),
    4: (40.0, 36.5, 20.0),
    5: (55.0, 5.0, 20.0),
    6: (45.0, 30.0, 25.0),
}
PRICES = [
    (10.0, 15.0, 5.0),
    (12.5, 18.0, 4.0),
    (9.0, 14.5, -2.5),
    (-3.0, 6.0, -8.0),
    (11.0, 11.0, 11.0),
    (20.0, 16.0, 3.0),
    (10.0, 15.0, 5.0),
]

# A short pool with a zero cell (c) and an exact delivery (d), and a
# balanced pool that takes the in-band price.
SHORT_SNAPSHOT = [
    ("a", 100.0, 80.0),
    ("b", 50.0, 60.25),
    ("c", 0.0, 0.0),
    ("d", 30.0, 30.0),
    ("e", 12.5, 20.1),
]
SHORT_PRICES = (10.0, 15.5, -2.0)
BALANCED_SNAPSHOT = [("x", 10.0, 15.0), ("y", 20.0, 15.0)]
# Pays out less than the pool earns and gives the exact deliverer d a bonus,
# so every property of the audit fails.
SKEWED_PAYOFFS = [("a", 640.0), ("b", 659.0), ("c", 0.0), ("d", 310.0), ("e", 230.0)]

EXPECTED = {
    "simulate.stdout": "ef3dadbd6ef0fa9769d5b7612f20a02c2db08e7600450d1f2becb2ca06e604bf",
    "hourly.csv": "8919ae78373d2c2452be635cf87dc0f7810e88cf77cc7ce546a7adf49ba7c4e2",
    "summary.csv": "44c02aad6b2b7f9f1e7d17bb6a2997ae92b9749f76db88adbd80f4d373ab6100",
    "trace_a.csv": "c2cd64888e98088a6d08d764d7e927c3f6665c453fa70a5b91064ff62aa124a1",
    "trace_b.csv": "3046de7a4bfe8182ba4be5777d14a5ff310cb6c53c283dd3f502403ce5fd0edd",
    "trace_c.csv": "e850a189b58645e4c79c9b8191f737d49a29e1ff3509402355b1a13076f84431",
    "allocate-short": "d661798606216c5e333e1249f012081aa20aad09c61d905b85b7047e7fd07745",
    "allocate-balanced": "6ed6d21ad2705c5949bf3521dea6b319f76e6e127d943012d01919ef71f69d7f",
    "equilibrium-short": "64a24ddf803e8135de0a79a4e52473411c15b2d4be097efed95e1a92373ec9ce",
    "equilibrium-balanced": "8750c8ae0708786b13ceb6ead8fcb5430091e389768925f14882390ed26d52c5",
    "check-core": "98570f4ee89ff16f419a79c9b366bdccd01d4a7e6d6ba02757104e64d81222fb",
}


def write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def golden_outputs(tmp_path, capsys) -> dict:
    """Run every pinned command on the fixtures; map each name to (code, bytes)."""
    gen = write_csv(
        tmp_path / "gen.csv",
        ["hour", "producer_id", "forecast_mwh", "actual_mwh"],
        [[h, p, 40.0, row[k]] for h, row in enumerate(ACTUALS) for k, p in enumerate(PRODUCERS)],
    )
    prices = write_csv(
        tmp_path / "prices.csv", ["hour", "p_f", "p_rb", "p_rs"],
        [[h, *p] for h, p in enumerate(PRICES)],
    )
    contracts = write_csv(
        tmp_path / "contracts.csv", ["hour", "producer_id", "contract_mwh"],
        [[h, p, row[k]] for h, row in CONTRACTS.items() for k, p in enumerate(PRODUCERS)],
    )
    out_dir = tmp_path / "out"
    code, stdout = run(capsys, [
        "simulate", "--data", str(gen), "--prices", str(prices), "--contracts", str(contracts),
        "--train", "0:1", "--sim", "1:7", "--check-core", "--out", str(out_dir),
    ])
    outputs = {"simulate.stdout": (code, stdout.replace(str(out_dir), "<out>").encode())}
    for name in ("hourly.csv", "summary.csv", "trace_a.csv", "trace_b.csv", "trace_c.csv"):
        outputs[name] = (code, (out_dir / name).read_bytes())

    short = write_csv(
        tmp_path / "short.csv",
        ["producer_id", "contract_mwh", "actual_mwh", "p_f", "p_rb", "p_rs"],
        [[*row, *SHORT_PRICES] for row in SHORT_SNAPSHOT],
    )
    balanced = write_csv(
        tmp_path / "balanced.csv", ["producer_id", "contract_mwh", "actual_mwh"], BALANCED_SNAPSHOT
    )
    flags = {"short": [], "balanced": ["--pf", "10", "--prb", "15", "--prs", "5"]}
    for name, path in (("short", short), ("balanced", balanced)):
        for command in ("allocate", "equilibrium"):
            code, stdout = run(capsys, [command, "--snapshot", str(path), *flags[name]])
            outputs[f"{command}-{name}"] = (code, stdout.encode())

    payoffs = write_csv(tmp_path / "payoffs.csv", ["producer_id", "payoff"], SKEWED_PAYOFFS)
    code, stdout = run(capsys, [
        "check-core", "--snapshot", str(short), "--payoffs", str(payoffs),
    ])
    outputs["check-core"] = (code, stdout.encode())
    return outputs


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    outputs = golden_outputs(tmp_path, capsys)
    assert {name: code for name, (code, _) in outputs.items()} == {
        **{name: 0 for name in EXPECTED},
        "check-core": 2,
    }
    mismatched = {
        name: data.decode()
        for name, (_, data) in outputs.items()
        if digest(data) != EXPECTED[name]
    }
    assert not mismatched, mismatched
