"""Per-layer spans for the traced benchmark run, installed from outside poolpay.

Every public function named in ``LAYERS`` is replaced, in every poolpay
module that binds it, by a wrapper that times each call and charges the
time to its caller, so a layer's self time is its own time minus the time
of the wrapped calls it made. A class in the table has its ``__init__``
wrapped instead. A name that the code under test no longer has is reported
as absent with zero calls; the traced run never fails because of it.

Scalar helpers called once per producer pair or coalition, such as
``market.approx_equal``, are left out on purpose: a span around them would
cost more than the work it measures.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = (
    ("cli", "main"),
    ("simulator", "load_timeseries"),
    ("simulator", "load_prices"),
    ("simulator", "load_contract_schedule"),
    ("simulator", "run_simulation"),
    ("simulator", "emit_report"),
    ("contracts", "optimal_contract"),
    ("allocation", "allocate"),
    ("allocation", "run_property_checks"),
    ("allocation", "check_budget_balance"),
    ("allocation", "check_individual_rationality"),
    ("allocation", "check_fairness"),
    ("allocation", "check_no_exploitation"),
    ("allocation", "check_core_membership"),
    ("market", "ScenarioSnapshot"),
    ("market", "separate_payoffs"),
    ("market", "aggregator_payoff"),
    ("market", "excess_profit"),
    ("equilibrium", "solve_competitive_equilibrium"),
)

#: Per-layer metrics of the traced run and their units; BENCHMARK.json
#: lists the same names.
METRICS = {
    "timed_call.s": "s",
    "trace.overhead_s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "simulator.load_timeseries.s": "s",
    "simulator.load_timeseries.rows": "count",
    "simulator.load_timeseries.rows_per_s": "1/s",
    "simulator.load_prices.s": "s",
    "simulator.load_contract_schedule.s": "s",
    "simulator.run_simulation.s": "s",
    "simulator.run_simulation.self_s": "s",
    "simulator.emit_report.s": "s",
    "simulator.emit_report.bytes": "B",
    "simulator.emit_report.files": "count",
    "contracts.optimal_contract.calls": "count",
    "contracts.optimal_contract.s": "s",
    "contracts.optimal_contract.us_per_call": "us",
    "allocation.allocate.calls": "count",
    "allocation.allocate.s": "s",
    "allocation.run_property_checks.s": "s",
    "allocation.run_property_checks.self_s": "s",
    "allocation.check_fairness.s": "s",
    "allocation.check_fairness.pairs": "count",
    "allocation.check_core_membership.s": "s",
    "allocation.check_core_membership.coalitions": "count",
    "allocation.check_core_membership.coalitions_per_s": "1/s",
    "market.ScenarioSnapshot.s": "s",
    "market.separate_payoffs.s": "s",
    "market.excess_profit.s": "s",
    "equilibrium.solve_competitive_equilibrium.calls": "count",
    "equilibrium.solve_competitive_equilibrium.s": "s",
    "equilibrium.solve_competitive_equilibrium.us_per_call": "us",
}


def _snapshot_arg(args, kwargs):
    return kwargs["snapshot"] if "snapshot" in kwargs else args[1]


def _count_pairs(args, kwargs, result):
    n = len(_snapshot_arg(args, kwargs).producer_ids)
    return n * (n - 1) // 2


def _count_coalitions(args, kwargs, result):
    return int(result.coalitions_checked)


#: Work counted at a layer boundary: (module, name) -> (counter, function).
COUNTERS = {
    ("allocation", "check_fairness"): ("pairs", _count_pairs),
    ("allocation", "check_core_membership"): ("coalitions", _count_coalitions),
}


class Tracer:
    """Aggregated spans (calls, total seconds, self seconds) per layer."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._child_time: list[float] = []

    def _wrap(self, key: str, fn, counter):
        calls, total, self_time, child_time = self.calls, self.total, self.self_time, self._child_time
        counts = self.counts
        calls[key], total[key], self_time[key] = 0, 0.0, 0.0
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                calls[key] += 1
                total[key] += elapsed
                self_time[key] += elapsed - children
            if counter is not None:
                name, count = counter
                try:
                    counts[f"{key}.{name}"] = counts.get(f"{key}.{name}", 0) + count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer in ``LAYERS`` that the imported poolpay still has."""
        for module_name, name in LAYERS:
            key = f"{module_name}.{name}"
            try:
                module = importlib.import_module(f"poolpay.{module_name}")
                original = getattr(module, name)
            except (ImportError, AttributeError):
                self.absent.append(key)
                continue
            counter = COUNTERS.get((module_name, name))
            if isinstance(original, type):
                original.__init__ = self._wrap(key, original.__init__, counter)
                continue
            wrapper = self._wrap(key, original, counter)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (loaded_name == "poolpay" or loaded_name.startswith("poolpay.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }


def layer_metrics(spans: dict, timed_s: float, rows: int, emitted_bytes: int, emitted_files: int) -> dict:
    """Per-layer metric values of one traced timed call.

    ``rows`` is the number of data rows in the generation file the call
    reads; ``emitted_*`` are the size and number of the files it wrote.
    """
    calls, total, self_time, counts = spans["calls"], spans["total"], spans["self"], spans["counts"]

    def s(key):
        return total.get(key, 0.0)

    def n(key):
        return calls.get(key, 0)

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    emitted = n("simulator.emit_report") > 0
    loads = n("simulator.load_timeseries")
    coalitions = counts.get("allocation.check_core_membership.coalitions", 0)
    values = {
        "timed_call.s": timed_s,
        "cli.main.s": s("cli.main"),
        "cli.self_s": self_time.get("cli.main", 0.0),
        "simulator.load_timeseries.s": s("simulator.load_timeseries"),
        "simulator.load_timeseries.rows": loads * rows,
        "simulator.load_timeseries.rows_per_s": rate(loads * rows, s("simulator.load_timeseries")),
        "simulator.load_prices.s": s("simulator.load_prices"),
        "simulator.load_contract_schedule.s": s("simulator.load_contract_schedule"),
        "simulator.run_simulation.s": s("simulator.run_simulation"),
        "simulator.run_simulation.self_s": self_time.get("simulator.run_simulation", 0.0),
        "simulator.emit_report.s": s("simulator.emit_report"),
        "simulator.emit_report.bytes": emitted_bytes if emitted else 0,
        "simulator.emit_report.files": emitted_files if emitted else 0,
        "contracts.optimal_contract.calls": n("contracts.optimal_contract"),
        "contracts.optimal_contract.s": s("contracts.optimal_contract"),
        "contracts.optimal_contract.us_per_call": 1e6 * rate(s("contracts.optimal_contract"), n("contracts.optimal_contract")),
        "allocation.allocate.calls": n("allocation.allocate"),
        "allocation.allocate.s": s("allocation.allocate"),
        "allocation.run_property_checks.s": s("allocation.run_property_checks"),
        "allocation.run_property_checks.self_s": self_time.get("allocation.run_property_checks", 0.0),
        "allocation.check_fairness.s": s("allocation.check_fairness"),
        "allocation.check_fairness.pairs": counts.get("allocation.check_fairness.pairs", 0),
        "allocation.check_core_membership.s": s("allocation.check_core_membership"),
        "allocation.check_core_membership.coalitions": coalitions,
        "allocation.check_core_membership.coalitions_per_s": rate(coalitions, s("allocation.check_core_membership")),
        "market.ScenarioSnapshot.s": s("market.ScenarioSnapshot"),
        "market.separate_payoffs.s": s("market.separate_payoffs"),
        "market.excess_profit.s": s("market.excess_profit"),
        "equilibrium.solve_competitive_equilibrium.calls": n("equilibrium.solve_competitive_equilibrium"),
        "equilibrium.solve_competitive_equilibrium.s": s("equilibrium.solve_competitive_equilibrium"),
        "equilibrium.solve_competitive_equilibrium.us_per_call": 1e6 * rate(
            s("equilibrium.solve_competitive_equilibrium"), n("equilibrium.solve_competitive_equilibrium")
        ),
    }
    return values
