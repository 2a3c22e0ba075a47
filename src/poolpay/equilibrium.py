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

from .allocation import EXHAUSTIVE_LIMIT, PamConfig
from .market import (
    DEFAULT_TOLERANCE,
    PriceTriple,
    ScenarioSnapshot,
    _coalition_indices,
    approx_equal,
    coalition_value,
    separate_payoff,
    settle,
)


@dataclass(frozen=True)
class ProductionFunction:
    """Money earned by one producer as a function of the energy it holds.

    Identical to the stand-alone settlement with the producer's contract
    fixed: slope rt_buy up to the contract (each MWh avoids a buy-back),
    slope rt_sell beyond it (each extra MWh is sold off). Concave since
    rt_sell <= rt_buy; nondecreasing only when rt_sell >= 0, and nothing
    here relies on monotonicity, so negative selling prices are accepted.
    """

    contract: float
    prices: PriceTriple

    def __post_init__(self) -> None:
        if self.contract < 0.0:
            raise ValueError(f"contract must be >= 0, got {self.contract}")

    def value(self, quantity: float) -> float:
        return separate_payoff(self.contract, quantity, self.prices)


@dataclass(frozen=True)
class ResponseInterval:
    """Set of quantities maximizing ``f(z) - price * (z - endowment)``.

    The argmax of a piecewise-linear concave objective is an interval,
    possibly a single point, possibly unbounded above. When the price lies
    strictly below rt_sell the objective grows without bound and no
    maximizer exists; that case is tagged rather than raised so callers can
    assert that such prices never clear a market.
    """

    lower: float
    upper: float
    unbounded_objective: bool = False

    @property
    def is_empty(self) -> bool:
        return self.unbounded_objective or self.lower > self.upper

    def contains(self, z: float) -> bool:
        if self.is_empty:
            return False
        if z < self.lower - DEFAULT_TOLERANCE * max(1.0, abs(self.lower)):
            return False
        if math.isinf(self.upper):
            return True
        return z <= self.upper + DEFAULT_TOLERANCE * max(1.0, abs(self.upper))


def best_response_set(f: ProductionFunction, price: float) -> ResponseInterval:
    """Quantities a price-taking member would choose to hold at this price.

    Inside the real-time band the choice pins to the contract; at the band
    edges one whole side of the kink is optimal; outside the band the
    member either dumps everything (argmax {0}) or would buy without limit
    (no argmax, tagged unbounded).
    """
    buy, sell, c = f.prices.rt_buy, f.prices.rt_sell, f.contract
    if approx_equal(buy, sell):
        if approx_equal(price, buy):
            return ResponseInterval(0.0, math.inf)
        if price > buy:
            return ResponseInterval(0.0, 0.0)
        return ResponseInterval(math.inf, -math.inf, unbounded_objective=True)
    if approx_equal(price, buy):
        return ResponseInterval(0.0, c)
    if approx_equal(price, sell):
        return ResponseInterval(c, math.inf)
    if price > buy:
        return ResponseInterval(0.0, 0.0)
    if price < sell:
        return ResponseInterval(math.inf, -math.inf, unbounded_objective=True)
    return ResponseInterval(c, c)


@dataclass(frozen=True)
class Redistribution:
    """A feasible reassignment of a coalition's realized power.

    ``quantities[k]`` is the energy held by ``members[k]`` after trading;
    the quantities sum to the members' total realization.
    """

    members: tuple[int, ...]
    quantities: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.quantities, dtype=float)
        if q.shape != (len(self.members),):
            raise ValueError("quantities must align with members")
        if np.any(q < 0.0):
            raise ValueError("redistributed quantities must be >= 0")
        q.setflags(write=False)
        object.__setattr__(self, "quantities", q)

    @property
    def total(self) -> float:
        return float(self.quantities.sum())


def _greedy_reallocation(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Move excess power onto members in deficit, in index order.

    Short side members get topped up toward their contracts, long side
    members get drained toward theirs; whichever side runs out first pins
    to its contracts exactly. The result holds every member inside the
    interval between its realization and its contract, which is where its
    production function runs at the relevant real-time slope.
    """
    z = x.astype(float).copy()
    surplus = x >= c
    total_dev = float(x.sum() - c.sum())
    if total_dev < 0.0:
        pool = float((x[surplus] - c[surplus]).sum())
        z[surplus] = c[surplus]
        for i in np.nonzero(~surplus)[0]:
            if pool <= 0.0:
                break
            take = min(pool, float(c[i] - x[i]))
            z[i] = x[i] + take
            pool -= take
    else:
        need = float((c[~surplus] - x[~surplus]).sum())
        z[~surplus] = c[~surplus]
        for i in np.nonzero(surplus)[0]:
            if need <= 0.0:
                break
            give = min(need, float(x[i] - c[i]))
            z[i] = x[i] - give
            need -= give
    return z


def optimal_redistribution(
    snapshot: ScenarioSnapshot, coalition
) -> tuple[Redistribution, float]:
    """Best reassignment of a coalition's power and the payoff it earns.

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
    return Redistribution(tuple(int(i) for i in idx), z), value


@dataclass(frozen=True)
class CompetitiveEquilibrium:
    """Clearing price, post-trade holdings, and the resulting payoffs."""

    price: float
    redistribution: Redistribution
    payoffs: np.ndarray


def solve_competitive_equilibrium(
    snapshot: ScenarioSnapshot, config: PamConfig | None = None
) -> CompetitiveEquilibrium:
    """Clear the internal power market and read off the competitive payoffs.

    A price strictly inside the real-time band pins every member to its
    contract, so it can only clear when the pool is exactly balanced; a
    short pool forces the price to rt_buy and a long pool to rt_sell, where
    one side of each kink is flat and the greedy reallocation clears. Each
    member's payoff is what it makes from its final holdings minus the cost
    of the net power it bought, and it coincides with the marginal-price
    allocation under the same config.
    """
    price, balanced = (config or PamConfig()).marginal_price(snapshot)
    c, x = snapshot.contracts, snapshot.realizations
    z = c.astype(float).copy() if balanced else _greedy_reallocation(c, x)
    payoffs = settle(c, z, snapshot.prices) - price * (z - x)
    redistribution = Redistribution(tuple(range(snapshot.n)), z)
    return CompetitiveEquilibrium(price, redistribution, payoffs)


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
