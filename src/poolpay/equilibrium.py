"""The pool as an exchange market for realized power.

Members trade realized energy among themselves at a single price; the money
a member makes from the energy it ends up holding is its stand-alone
settlement function, which is concave and piecewise linear with slopes
rt_buy below the contract and rt_sell above it. Two facts make this view
useful. First, the best reallocation of a coalition's energy earns exactly
the coalition's joint settlement value, so the trading game and the
settlement game are the same game. Second, the market clears at rt_buy when
the pool is short and rt_sell when it is long, and the resulting competitive
payoffs reproduce the marginal-price allocation component for component,
which places that allocation in the core.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import EXHAUSTIVE_LIMIT, marginal_price
from .market import (
    DEFAULT_TOLERANCE,
    PriceTriple,
    ScenarioSnapshot,
    _coalition_indices,
    approx_equal,
    coalition_value,
    settle,
)


@dataclass(frozen=True)
class ResponseInterval:
    """Set of quantities maximizing ``f(z) - price * (z - endowment)``.

    The argmax of a piecewise-linear concave objective is an interval,
    possibly a single point, possibly unbounded above. When the price lies
    strictly below rt_sell the objective grows without bound and no
    maximizer exists; that case is the empty interval (inf, -inf) rather
    than an error, so callers can assert that such prices never clear a
    market.
    """

    lower: float
    upper: float

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper

    def contains(self, z: float) -> bool:
        if self.is_empty:
            return False
        if z < self.lower - DEFAULT_TOLERANCE * max(1.0, abs(self.lower)):
            return False
        if math.isinf(self.upper):
            return True
        return z <= self.upper + DEFAULT_TOLERANCE * max(1.0, abs(self.upper))


def best_response_set(contract: float, prices: PriceTriple, price: float) -> ResponseInterval:
    """Quantities a price-taking member would choose to hold at this price.

    The member's money from holding z is its stand-alone settlement
    ``separate_payoff(contract, z, prices)``: slope rt_buy up to the
    contract, rt_sell beyond it, so concave since rt_sell <= rt_buy.
    Inside the real-time band the choice pins to the contract; at the band
    edges one whole side of the kink is optimal; outside the band the
    member either dumps everything (argmax {0}) or would buy without limit
    (no argmax, the empty interval).
    """
    if not contract >= 0.0:
        raise ValueError(f"contract must be >= 0, got {contract}")
    for name, value in (("contract", contract), ("price", price)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    buy, sell, c = prices.rt_buy, prices.rt_sell, contract
    if approx_equal(buy, sell):
        if approx_equal(price, buy):
            return ResponseInterval(0.0, math.inf)
        if price > buy:
            return ResponseInterval(0.0, 0.0)
        return ResponseInterval(math.inf, -math.inf)
    if approx_equal(price, buy):
        return ResponseInterval(0.0, c)
    if approx_equal(price, sell):
        return ResponseInterval(c, math.inf)
    if price > buy:
        return ResponseInterval(0.0, 0.0)
    if price < sell:
        return ResponseInterval(math.inf, -math.inf)
    return ResponseInterval(c, c)


def _greedy_reallocation(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Move excess power onto members in deficit, in index order.

    The side that runs out first (the surplus side of a short pool, the
    deficit side of a long one) pins to its contracts exactly; the other
    side's members move toward theirs in index order until the pinned
    side's deviation is spent. Every member ends between its realization
    and its contract, where its production function runs at the relevant
    real-time slope.
    """
    dev = x - c
    pinned = dev >= 0.0 if float(x.sum() - c.sum()) < 0.0 else dev < 0.0
    z = x.astype(float)
    z[pinned] = c[pinned]
    budget = abs(float(dev[pinned].sum()))
    for i in np.flatnonzero(~pinned).tolist():
        if budget <= 0.0:
            break  # the rest keep their realizations, a -0.0 included
        step = min(budget, abs(float(dev[i])))
        z[i] = x[i] - math.copysign(step, dev[i])
        budget -= step
    return z


def optimal_redistribution(snapshot: ScenarioSnapshot, coalition) -> tuple[np.ndarray, float]:
    """Best reassignment of a coalition's power and the payoff it earns.

    The holdings are one entry per member, in increasing member index, and
    sum to the members' total realization.

    Built greedily: excess power flows to deficit members until one side is
    exhausted. The greedy total always equals the coalition's joint
    settlement value, so no search is needed.
    """
    idx = _coalition_indices(coalition, snapshot.n)
    if idx.size == 0:
        raise ValueError("redistribution needs a nonempty coalition")
    c = snapshot.contracts[idx]
    x = snapshot.realizations[idx]
    z = _greedy_reallocation(c, x)
    value = float(sum(settle(c, z, snapshot.prices).tolist()))
    return z, value


@dataclass(frozen=True)
class CompetitiveEquilibrium:
    """Clearing price, each member's post-trade holding, and the resulting
    payoffs; ``holdings`` and ``payoffs`` are (n,) arrays in member order."""

    price: float
    holdings: np.ndarray
    payoffs: np.ndarray


def solve_competitive_equilibrium(snapshot: ScenarioSnapshot) -> CompetitiveEquilibrium:
    """Clear the internal power market and read off the competitive payoffs.

    A price strictly inside the real-time band pins every member to its
    contract, so it can only clear when the pool is exactly balanced; a
    short pool forces the price to rt_buy and a long pool to rt_sell, where
    one side of each kink is flat and the greedy reallocation clears. Each
    member's payoff is what it makes from its final holdings minus the cost
    of the net power it bought, and it coincides with the marginal-price
    allocation; a balanced pool clears at the same band midpoint.
    """
    price, balanced = marginal_price(snapshot)
    c, x = snapshot.contracts, snapshot.realizations
    z = c.astype(float).copy() if balanced else _greedy_reallocation(c, x)
    payoffs = settle(c, z, snapshot.prices) - price * (z - x)
    return CompetitiveEquilibrium(price, z, payoffs)


def verify_game_equivalence(snapshot: ScenarioSnapshot) -> bool:
    """Does trading power internally earn exactly the joint settlement, for
    every nonempty coalition? Refuses pools above ``EXHAUSTIVE_LIMIT``."""
    n = snapshot.n
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{n} producers exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}")
    for bitmask in range(1, 2**n):
        members = tuple(i for i in range(n) if bitmask >> i & 1)
        _, value = optimal_redistribution(snapshot, members)
        if not approx_equal(value, coalition_value(snapshot, members)):
            return False
    return True
