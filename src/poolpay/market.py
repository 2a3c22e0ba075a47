"""Two-settlement market primitives: prices, hourly snapshots, payoffs.

A producer sells a forward quantity in the day-ahead market and settles its
realized deviation in real time: a shortfall is bought back at the real-time
buying price, a surplus is sold off at the real-time selling price. A
negative selling price models penalized excess power. The only price
ordering required anywhere is ``rt_sell <= rt_buy`` (no arbitrage).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

#: Relative tolerance for monetary comparisons across the library, fixed for
#: every audit. Each allowance is DEFAULT_TOLERANCE * max(1, scale), and the
#: scale depends on the comparison:
#:   approx_equal(a, b) (fairness, no-exploitation): the larger of |a| and |b|;
#:   budget balance: |pool settlement| alone, not the sum of the payoffs;
#:   individual rationality: one-sided, each producer's |stand-alone payoff|;
#:   core: one-sided, the larger of |v(T)| and |allocated(T)|;
#:   the balanced-pool band (``allocation.marginal_price``): the total contract.
DEFAULT_TOLERANCE = 1e-9


def approx_equal(a: float, b: float) -> bool:
    """Equality under the library-wide relative tolerance rule."""
    return math.isclose(a, b, rel_tol=DEFAULT_TOLERANCE, abs_tol=DEFAULT_TOLERANCE)


def _approx_equal_array(a, b) -> np.ndarray:
    """``approx_equal`` cell by cell, for arrays that broadcast together:
    ``|a - b| <= DEFAULT_TOLERANCE * max(1, |a|, |b|)``. Equal to it on finite
    inputs: ``math.isclose`` compares the gap with each of the three
    allowances, and a product with a positive constant rounds monotonically,
    so the largest allowance is the tolerance times the largest scale."""
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) <= DEFAULT_TOLERANCE * scale


@dataclass(frozen=True)
class PriceTriple:
    """Prices for one settlement hour, all in currency per MWh.

    ``day_ahead`` is unconstrained relative to the other two. ``rt_sell``
    may be negative (excess power penalized instead of rewarded) but can
    never exceed ``rt_buy``, otherwise buying in real time and immediately
    reselling would be an arbitrage.
    """

    day_ahead: float
    rt_buy: float
    rt_sell: float

    def __post_init__(self) -> None:
        for name in ("day_ahead", "rt_buy", "rt_sell"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.rt_sell > self.rt_buy:
            raise ValueError(
                f"rt_sell={self.rt_sell} exceeds rt_buy={self.rt_buy}; "
                "no-arbitrage requires rt_sell <= rt_buy"
            )

    @property
    def spread(self) -> float:
        """Real-time buy/sell spread, always >= 0."""
        return self.rt_buy - self.rt_sell


@dataclass(frozen=True)
class ScenarioSnapshot:
    """Per-producer contracts and realized generation for one hour.

    Arrays are validated, copied, and frozen on construction, so a snapshot
    can be shared freely across threads. ``total_contract`` and
    ``total_realization`` are the arrays' ``sum()``, taken once and kept.
    """

    producer_ids: tuple[str, ...]
    contracts: np.ndarray
    realizations: np.ndarray
    prices: PriceTriple

    def __post_init__(self) -> None:
        ids = tuple(str(p) for p in self.producer_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("producer_ids contains duplicates")
        contracts = np.array(self.contracts, dtype=float)
        realizations = np.array(self.realizations, dtype=float)
        for name, arr in (("contracts", contracts), ("realizations", realizations)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if arr.shape[0] != len(ids):
                raise ValueError(f"{name} length {arr.shape[0]} != {len(ids)} producers")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
            if (arr < 0.0).any():
                raise ValueError(f"{name} contains negative energy quantities")
        contracts.setflags(write=False)
        realizations.setflags(write=False)
        object.__setattr__(self, "producer_ids", ids)
        object.__setattr__(self, "contracts", contracts)
        object.__setattr__(self, "realizations", realizations)

    @classmethod
    def from_arrays(
        cls,
        contracts: Iterable[float],
        realizations: Iterable[float],
        prices: PriceTriple,
    ) -> "ScenarioSnapshot":
        """Build a snapshot whose producers are numbered p1 .. pn."""
        contracts = np.asarray(list(contracts), dtype=float)
        realizations = np.asarray(list(realizations), dtype=float)
        producer_ids = tuple(f"p{i + 1}" for i in range(contracts.shape[0]))
        return cls(producer_ids, contracts, realizations, prices)

    @property
    def n(self) -> int:
        return len(self.producer_ids)

    @cached_property
    def total_contract(self) -> float:
        return float(self.contracts.sum())

    @cached_property
    def total_realization(self) -> float:
        return float(self.realizations.sum())


def _coalition_indices(coalition, n: int) -> np.ndarray:
    """Normalize an iterable of indices, checking range."""
    members = tuple(sorted({int(i) for i in coalition}))
    idx = np.asarray(members, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"coalition indices {members} out of range for {n} producers")
    return idx


def settle(contract, realization, prices: PriceTriple):
    """Two-settlement payoff of a contract against a realization.

    Forward revenue at the day-ahead price, minus the buy-back cost of any
    shortfall, plus the sale value of any surplus. Written with operators
    that act alike on Python floats and numpy arrays, so one expression
    settles a single producer, a coalition, or a whole vector of either;
    ``(s + abs(s)) * 0.5`` is the shortfall ``max(s, 0)`` exactly. The
    three prices may be arrays too, such as per-hour columns against an
    (hours x producers) block.
    """
    s = contract - realization
    shortfall = (s + abs(s)) * 0.5
    return (
        prices.day_ahead * contract
        - prices.rt_buy * shortfall
        + prices.rt_sell * (shortfall - s)
    )


def separate_payoff(contract: float, realization: float, prices: PriceTriple) -> float:
    """Settlement payoff of a single producer participating on its own."""
    if not contract >= 0.0:
        raise ValueError(f"contract must be >= 0, got {contract}")
    if not realization >= 0.0:
        raise ValueError(f"realization must be >= 0, got {realization}")
    for name, value in (("contract", contract), ("realization", realization)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return float(settle(contract, realization, prices))


def separate_payoffs(snapshot: ScenarioSnapshot) -> np.ndarray:
    """Vector of stand-alone payoffs, one per producer."""
    return settle(snapshot.contracts, snapshot.realizations, snapshot.prices)


def coalition_value(snapshot: ScenarioSnapshot, coalition) -> float:
    """Market payoff a subset of producers earns by settling jointly.

    The subset's summed contract is settled against its summed realization
    at the same prices. Empty coalitions are worth 0; singletons reduce to
    ``separate_payoff``.
    """
    idx = _coalition_indices(coalition, snapshot.n)
    if idx.size == 0:
        return 0.0
    c_t = float(snapshot.contracts[idx].sum())
    x_t = float(snapshot.realizations[idx].sum())
    return settle(c_t, x_t, snapshot.prices)


def aggregator_payoff(snapshot: ScenarioSnapshot) -> float:
    """Market payoff of the pool: summed contracts settled against summed output.

    The pool commits exactly the sum of its members' contracts; committing
    anything else makes ex-post individual rationality unattainable (see
    ``allocation.contract_mismatch_counterexample``).
    """
    return settle(snapshot.total_contract, snapshot.total_realization, snapshot.prices)


def excess_profit(snapshot: ScenarioSnapshot) -> float:
    """Gain from pooling relative to everyone settling separately.

    Equals spread * min(total surplus, total shortfall): inside the pool,
    surplus energy offsets shortfalls one-for-one, and each offset MWh
    saves the buy/sell spread. Always >= 0, and identical to
    ``aggregator_payoff - sum(separate_payoffs)``. An exact delivery sits on
    the surplus side and adds zero to it. With no shortfall the gain is
    ``0.0``, never ``-0.0``: the shortfall is subtracted from ``0.0``, not
    negated.
    """
    return _pooling_gain(snapshot.realizations - snapshot.contracts, snapshot.prices.spread)


def _pooling_gain(dev: np.ndarray, spread: float) -> float:
    """``excess_profit`` of deviations ``dev = realization - contract``. Each
    side is summed compacted: the other side's cells as zeros would regroup it."""
    surplus = dev >= 0.0
    return spread * min(float(dev[surplus].sum()), 0.0 - float(dev[~surplus].sum()))
