"""Settlement benchmark for poolpay.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: month_newsvendor, core_audit, wide_pool, snapshot_stream (see
README.md in this directory). The inputs are generated from the seed before
anything is timed. Each timed call runs in its own process, forked from a
parent that has already imported poolpay, one at a time; calls repeat until
``--seconds`` have passed. The benchmark checks every output with its own
code (checks.py) and prints a readable report followed, on the last line,
by one JSON object: {"correct", "attempted", "failed", "metrics"}.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
each untraced call is followed by a traced one on the same input and the
metrics are the per-layer ones (spans.py).
"""
from __future__ import annotations

import os

# Pinned before numpy is imported, and inherited by every workload process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END = {"settlements_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_UNITS = ("count", "B")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_poolpay():
    if not (SRC / "poolpay" / "__init__.py").is_file():
        _fail(f"no poolpay package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import poolpay.cli  # noqa: F401  (the parent imports once; workload processes fork from it)

    if SRC.resolve() not in Path(poolpay.__file__).resolve().parents:
        _fail(f"imported poolpay from {poolpay.__file__}, not from {SRC}")
    return poolpay


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing poolpay.cli, ``repeats`` times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import poolpay.cli"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_in_child(task) -> dict | None:
    """Run ``task()`` in a forked process and return its JSON-able result.

    The child's standard output goes to /dev/null (the CLI prints one line
    per file it writes); its standard error stays visible. Returns None if
    the child raised or died.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            signal.alarm(CHILD_TIMEOUT_S)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            payload = json.dumps(task()).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0 and data):
        return None
    return json.loads(data)


def traced(task):
    """``task`` run with every layer wrapped; adds the spans to its result."""

    def run():
        tracer = spans.Tracer()
        tracer.install()
        result = task()
        result["spans"] = tracer.snapshot()
        return result

    return run


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: tiny inputs and one set-up import")
    args = parser.parse_args(argv)

    poolpay = _import_poolpay()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    env = environment()
    setup_times = [] if args.trace else measure_setup(1 if args.tiny else SETUP_REPEATS)
    work_dir = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR))
    try:
        report = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    untraced = [r for r in report["untraced"] if r is not None and "elapsed" in r]
    if not untraced:
        _fail("no timed call completed; see the errors above")

    attempted = report["attempted"]
    failed = report["failed"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"poolpay {getattr(poolpay, '__version__', '?')}",
        f"  timed calls: {len(report['untraced'])} untraced"
        + (f", {len(report['traced'])} traced" if args.trace else "")
        + f"; operations attempted {attempted}, failed {failed}",
    ]
    rates = [r["cells"] / r["elapsed"] for r in untraced]
    untraced_elapsed = [r["elapsed"] for r in untraced]
    summary = {
        "settlements_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        "error_rate": failed / attempted,
    }
    units = {**END_TO_END, "error_rate": "ratio"}
    if setup_times:
        summary["setup_s"] = statistics.median(setup_times)
    latencies = sorted(x for r in untraced for x in r.get("latencies", ()))
    if latencies:
        summary["request_p50_ms"] = 1e3 * statistics.median(latencies)
        units["request_p50_ms"] = units["request_p99_ms"] = "ms"
        beyond_p99 = len(latencies) - math.ceil(0.99 * len(latencies))
        if beyond_p99 >= 10:
            summary["request_p99_ms"] = 1e3 * percentile(latencies, 0.99)
        lines.append(f"  request latency samples: {len(latencies)} ({beyond_p99} beyond p99)")

    if args.trace:
        traced_runs = [r for r in report["traced"] if r is not None and "elapsed" in r]
        if not traced_runs:
            _fail("no traced call completed; see the errors above")
        per_call = [
            spans.layer_metrics(r["spans"], r["elapsed"], report["gen_rows"],
                                r.get("bytes", 0), r.get("files", 0))
            for r in traced_runs
        ]
        # Counts come from the first traced call, whose input depends only on
        # the seed, so they repeat exactly; times are medians over the calls.
        metrics = {
            name: per_call[0][name] if spans.METRICS[name] in COUNT_UNITS
            else statistics.median(m[name] for m in per_call)
            for name in per_call[0]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(r["elapsed"] for r in traced_runs) - statistics.median(untraced_elapsed)
        )
        result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in spans.METRICS.items()}
        timed = metrics["timed_call.s"]
        lines.append("  per-layer (median per traced call; share of the traced call):")
        for name, unit in spans.METRICS.items():
            share = f"  {100 * metrics[name] / timed:5.1f} %" if unit == "s" and timed > 0 else ""
            lines.append(f"    {name:<52} {metrics[name]:>14.6g} {unit:<6}{share}")
        absent = sorted({a for r in traced_runs for a in r["spans"]["absent"]})
        if absent:
            lines.append(f"  absent layers (reported as zero): {', '.join(absent)}")
    else:
        result_metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END.items()}
    lines.append("  end-to-end (median over untraced calls):")
    for name, value in summary.items():
        lines.append(f"    {name:<20} {value:>14.6g} {units[name]}")
    problems = [p for r in report["warmup"] + report["untraced"] + report["traced"] if r
                for p in r.get("problems", ())]
    for problem in problems[:10]:
        lines.append(f"  problem: {problem}")
    print("\n".join(lines))

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_s_samples": setup_times,
        "timed_call_s_samples": untraced_elapsed,
        "settlements_per_s_samples": rates,
        "output_sha256": sorted({r["sha256"] for r in untraced if "sha256" in r}),
        "summary": summary,
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


def measure(args, work_dir: Path) -> dict:
    """Repeat timed calls, each in a fresh process, until ``args.seconds`` pass."""
    if args.workload in workloads.SIMULATE_WORKLOADS:
        inputs = workloads.make_simulation(args.workload, args.seed, work_dir / "in", args.tiny)
        gen_rows = inputs.gen_rows

        def make_task(index, mode):
            # Every call of a mode writes into the same directory, as a user
            # re-running into one --out does. Creating the files afresh on
            # each call made file-system time swing by a factor of ten.
            out_dir = work_dir / f"out-{mode}"
            return (lambda: workloads.run_simulate(inputs, out_dir)), inputs.hours
    else:
        gen_rows = 0

        def make_task(index, mode):
            batch = workloads.make_stream_batch(args.seed, index, args.tiny)
            return (lambda: workloads.run_stream(batch)), len(batch)

    modes = ("untraced", "traced") if args.trace else ("untraced",)
    report = {"warmup": [], "untraced": [], "traced": [], "attempted": 0, "failed": 0,
              "gen_rows": gen_rows}

    def call(index, mode):
        task, ops = make_task(index, mode)
        result = run_in_child(traced(task) if mode == "traced" else task)
        report["attempted"] += ops
        report["failed"] += ops if result is None else result["failed"]
        return result

    start = time.perf_counter()
    # The warm-up round creates the output files and fills the page cache.
    # Its outputs are checked like any other, but its time is not reported.
    report["warmup"] = [call(0, mode) for mode in modes]
    index = 1
    while True:
        for mode in modes:
            report[mode].append(call(index, mode))
        index += 1
        if time.perf_counter() - start >= args.seconds:
            return report


if __name__ == "__main__":
    sys.exit(main())
