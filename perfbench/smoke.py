"""Smoke test of the settlement benchmark.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It runs every workload in BENCHMARK.json at tiny size, untraced and traced,
and checks that each run exits 0 with a correct result whose metrics are
exactly the ones BENCHMARK.json names, each with its unit. It checks that
the input generator gives identical inputs for one seed and different
inputs for another, and that the benchmark refuses to run, without printing
a result, from a directory that holds no poolpay sources. Exits 1 on the
first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(script: Path, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int, expected: dict) -> None:
    proc = run_benchmark(BENCH_DIR / "run.py", ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"{where}: not a clean run: {result['correct']=}, {result['attempted']=}, {result['failed']=}")
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != expected:
        sys.exit(f"{where}: metrics and units differ from BENCHMARK.json: {units}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            sys.exit(f"{where}: {name} is not a number: {value!r}")
        if trace == 0 and not value > 0:
            sys.exit(f"{where}: end-to-end metric {name} is {value!r}")
    print(f"ok  {where}: {result['attempted']} operations, {len(units)} metrics")


def check_generator(workloads) -> None:
    scratch = Path(tempfile.mkdtemp(prefix="_smoke-", dir=BENCH_DIR))
    try:
        for name in workloads.SIMULATE_WORKLOADS:
            digests = []
            for label, seed in (("a", 7), ("b", 7), ("c", 8)):
                workloads.make_simulation(name, seed, scratch / f"{name}-{label}", tiny=True)
                digests.append(workloads.output_digest(scratch / f"{name}-{label}")[0])
            if digests[0] != digests[1] or digests[0] == digests[2]:
                sys.exit(f"{name}: generator is not deterministic per seed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def stream_key(seed, index):
        return [
            (ids, contracts.tolist(), actuals.tolist(), prices)
            for ids, contracts, actuals, prices in workloads.make_stream_batch(seed, index, tiny=True)
        ]

    if stream_key(7, 0) != stream_key(7, 0) or stream_key(7, 0) in (stream_key(8, 0), stream_key(7, 1)):
        sys.exit("snapshot_stream: generator is not deterministic per seed and batch")
    print("ok  generator is deterministic for a seed and differs between seeds")


def check_refuses_without_sources(workload: str) -> None:
    bare = Path(tempfile.mkdtemp(prefix="_smoke-", dir=BENCH_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("_smoke-*", "_work-*", "__pycache__"))
        proc = run_benchmark(bare / BENCH_DIR.name / "run.py", bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        sys.exit("the benchmark ran without poolpay sources")
    print(f"ok  refuses to run without poolpay sources (exit code {proc.returncode})")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        sys.exit(f"BENCHMARK.json workloads {names} differ from {workloads.WORKLOADS}")
    for workload in names:
        for trace in (0, 1):
            check_result(workload, trace, expected[trace])
    check_generator(workloads)
    check_refuses_without_sources(names[0])
    print("smoke test passed")


if __name__ == "__main__":
    main()
