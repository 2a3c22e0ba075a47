"""Marginal-price payoff allocation for a producer pool, plus its audit suite.

The built-in mechanism settles every member at a single marginal imbalance
price: each producer receives its day-ahead revenue plus that price applied
to its own deviation. The marginal price is the real-time buying price when
the pool is short in total, the real-time selling price when it is long, and
a configurable in-band price when the pool exactly meets its commitment.
This split is budget balanced, individually rational, fair, exploitation
free, and lies in the core of the induced coalitional game, for every
realization of generation.

The ``check_*`` functions take arbitrary allocations, not just the built-in
one, so the suite doubles as an audit tool for external mechanisms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .market import (
    DEFAULT_TOLERANCE,
    PriceTriple,
    ScenarioSnapshot,
    aggregator_payoff,
    approx_equal,
    separate_payoffs,
    settle,
)


class ConfigurationError(ValueError):
    """Raised when an allocation configuration is internally inconsistent."""


@dataclass(frozen=True)
class PamConfig:
    """Settings for the marginal-price allocation.

    ``balance_price_rule`` picks the marginal price used when the pool's
    total deviation is zero: one of the strings "midpoint", "rt_buy",
    "rt_sell", or an explicit number. Any value inside the real-time price
    band works equally well there; the band constraint is enforced when the
    rule is resolved against an actual price triple.

    The pool counts as balanced when its total deviation lies within the
    relative band ``DEFAULT_TOLERANCE``. The exact-balance branch is
    payoff-discontinuous against the neighbouring branches unless the
    resolved price matches them, so the band is kept tiny.
    """

    balance_price_rule: str | float = "midpoint"

    def __post_init__(self) -> None:
        if isinstance(self.balance_price_rule, str):
            if self.balance_price_rule not in ("midpoint", "rt_buy", "rt_sell"):
                raise ConfigurationError(
                    f"unknown balance_price_rule {self.balance_price_rule!r}; "
                    "expected 'midpoint', 'rt_buy', 'rt_sell', or a number"
                )
        elif not math.isfinite(float(self.balance_price_rule)):
            raise ConfigurationError("explicit balance price must be finite")

    def resolve_balance_price(self, prices: PriceTriple) -> float:
        """The marginal price used in the exact-balance case."""
        rule = self.balance_price_rule
        if rule == "midpoint":
            return 0.5 * (prices.rt_buy + prices.rt_sell)
        if rule == "rt_buy":
            return prices.rt_buy
        if rule == "rt_sell":
            return prices.rt_sell
        value = float(rule)
        if not prices.rt_sell <= value <= prices.rt_buy:
            raise ConfigurationError(
                f"balance price {value} outside the admissible band "
                f"[{prices.rt_sell}, {prices.rt_buy}]"
            )
        return value

    def marginal_price(self, snapshot: ScenarioSnapshot) -> tuple[float, bool]:
        """The price applied to every member's deviation, and whether the pool
        counts as balanced.

        rt_buy when the pool is short in total, rt_sell when it is long, and
        the resolved balance price when the total deviation lies inside the
        ``DEFAULT_TOLERANCE`` band.
        """
        prices = snapshot.prices
        # resolved on every hour, so an out-of-band explicit price fails
        # whichever branch the pool lands in
        balance_price = self.resolve_balance_price(prices)
        total_dev = snapshot.total_realization - snapshot.total_contract
        if abs(total_dev) <= DEFAULT_TOLERANCE * max(1.0, snapshot.total_contract):
            return balance_price, True
        return (prices.rt_buy if total_dev < 0.0 else prices.rt_sell), False


@dataclass(frozen=True)
class PayoffAllocation:
    """Per-producer payoffs plus the pool total they are meant to split.

    ``marginal_price_used`` records the price applied to each member's
    deviation so that the choice is auditable after the fact; it is NaN for
    allocations not produced by the built-in mechanism.
    """

    payoffs: np.ndarray
    aggregator_total: float
    marginal_price_used: float = math.nan

    def __post_init__(self) -> None:
        payoffs = np.array(self.payoffs, dtype=float)
        if payoffs.ndim != 1:
            raise ValueError("payoffs must be one-dimensional")
        if not np.all(np.isfinite(payoffs)):
            raise ValueError("payoffs contains non-finite values")
        payoffs.setflags(write=False)
        object.__setattr__(self, "payoffs", payoffs)

    @property
    def n(self) -> int:
        return int(self.payoffs.shape[0])

    @property
    def total(self) -> float:
        return float(self.payoffs.sum())


@dataclass(frozen=True)
class BudgetBalanceResult:
    ok: bool
    residual: float  # sum(payoffs) - aggregator payoff, signed


@dataclass(frozen=True)
class IndividualRationalityResult:
    ok: bool
    worst_margin: float  # min over producers of payoff - stand-alone payoff
    worst_index: int | None


@dataclass(frozen=True)
class CoreResult:
    in_core: bool
    worst_violation: float  # max over coalitions of v(T) - allocated sum
    worst_coalition: tuple[int, ...] | None
    coalitions_checked: int
    exhaustive: bool


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the five-property audit for one allocation.

    ``in_core`` is None when the core check was skipped (``check_core=False``);
    a skipped check never counts as a violation.
    """

    budget_balance: bool
    budget_residual: float
    individual_rationality: bool
    ir_worst_margin: float
    ir_worst_index: int | None
    fairness: bool
    no_exploitation: bool
    in_core: bool | None
    core_worst_violation: float | None
    core_worst_coalition: tuple[int, ...] | None

    @property
    def all_pass(self) -> bool:
        return (
            self.budget_balance
            and self.individual_rationality
            and self.fairness
            and self.no_exploitation
            and self.in_core is not False
        )


def allocate(snapshot: ScenarioSnapshot, config: PamConfig | None = None) -> PayoffAllocation:
    """Split the pool's market payoff with the marginal-price mechanism.

    Every producer gets ``day_ahead * contract + m * (realization -
    contract)`` where the marginal price m is rt_buy when the pool is short
    in total, rt_sell when it is long, and the configured in-band price when
    the totals match. The payoffs always sum to the pool's own settlement.
    """
    marginal, _ = (config or PamConfig()).marginal_price(snapshot)
    c, x = snapshot.contracts, snapshot.realizations
    payoffs = snapshot.prices.day_ahead * c + marginal * (x - c)
    return PayoffAllocation(payoffs, aggregator_payoff(snapshot), marginal)


def _require_matching(alloc: PayoffAllocation, snapshot: ScenarioSnapshot) -> None:
    if alloc.n != snapshot.n:
        raise ValueError(
            f"allocation covers {alloc.n} producers but snapshot has {snapshot.n}"
        )


def check_budget_balance(
    alloc: PayoffAllocation,
    snapshot: ScenarioSnapshot,
) -> BudgetBalanceResult:
    """Do the payoffs sum to the pool's own market settlement?"""
    _require_matching(alloc, snapshot)
    total = aggregator_payoff(snapshot)
    residual = alloc.total - total
    return BudgetBalanceResult(abs(residual) <= DEFAULT_TOLERANCE * max(1.0, abs(total)), residual)


def check_individual_rationality(
    alloc: PayoffAllocation,
    snapshot: ScenarioSnapshot,
) -> IndividualRationalityResult:
    """Does every producer earn at least its stand-alone settlement?"""
    _require_matching(alloc, snapshot)
    if snapshot.n == 0:
        return IndividualRationalityResult(True, math.inf, None)
    standalone = separate_payoffs(snapshot)
    margins = alloc.payoffs - standalone
    allowance = DEFAULT_TOLERANCE * np.maximum(1.0, np.abs(standalone))
    worst = int(np.argmin(margins))
    return IndividualRationalityResult(
        bool(np.all(margins >= -allowance)), float(margins[worst]), worst
    )


def check_fairness(alloc: PayoffAllocation, snapshot: ScenarioSnapshot) -> bool:
    """Equal deviations must earn equal margins over forward revenue.

    Vacuously true when no two producers share a deviation.
    """
    _require_matching(alloc, snapshot)
    dev = snapshot.contracts - snapshot.realizations
    margin = alloc.payoffs - snapshot.prices.day_ahead * snapshot.contracts
    n = snapshot.n
    for i in range(n):
        for j in range(i + 1, n):
            if approx_equal(dev[i], dev[j]) and not approx_equal(margin[i], margin[j]):
                return False
    return True


def check_no_exploitation(alloc: PayoffAllocation, snapshot: ScenarioSnapshot) -> bool:
    """A producer that delivers its contract exactly gets exactly the forward revenue."""
    _require_matching(alloc, snapshot)
    for i in range(snapshot.n):
        c_i, x_i = snapshot.contracts[i], snapshot.realizations[i]
        if approx_equal(x_i, c_i):
            if not approx_equal(alloc.payoffs[i], snapshot.prices.day_ahead * c_i):
                return False
    return True


#: Largest pool the core audit enumerates (2^20 - 1 coalitions); larger
#: pools are screened with CORE_SAMPLES coalitions drawn from seed 0.
EXHAUSTIVE_LIMIT = 20
#: Coalitions the core audit draws on a pool above EXHAUSTIVE_LIMIT.
CORE_SAMPLES = 100_000

# The enumeration is checked _CHUNK_ROWS coalitions at a time, so each
# temporary of the check stays cache-sized (128 KB); a sampled chunk holds
# at most _CHUNK_CELLS membership cells, whatever the pool size.
_CHUNK_ROWS = 1 << 14
_CHUNK_CELLS = 1 << 20


def _iter_sampled_masks(n: int, samples: int) -> Iterator[np.ndarray]:
    """Yield random nonempty coalitions drawn from seed 0 as 0/1 rows, at
    most ``_CHUNK_CELLS`` cells at a time. An empty draw gets one random
    member, so every row is a real coalition."""
    rng = np.random.default_rng(0)
    step = max(1, _CHUNK_CELLS // n)
    for start in range(0, samples, step):
        rows = min(step, samples - start)
        masks = rng.integers(0, 2, size=(rows, n)).astype(np.float64)
        empty = masks.sum(axis=1) == 0
        if np.any(empty):
            masks[empty, rng.integers(0, n, size=int(empty.sum()))] = 1.0
        yield masks


def _scan(sums: np.ndarray, prices: PriceTriple) -> tuple[bool, float, int]:
    """Check a (3 x m) block of coalition sums (contracts, realizations,
    payoffs); return (all ok, max violation, argmax column)."""
    value = settle(sums[0], sums[1], prices)
    violation = value - sums[2]
    col = int(np.argmax(violation))
    worst = float(violation[col])
    if worst <= DEFAULT_TOLERANCE:  # within the smallest allowance, so all ok
        return True, worst, col
    allowance = DEFAULT_TOLERANCE * np.maximum(1.0, np.maximum(np.abs(value), np.abs(sums[2])))
    return bool(np.all(violation <= allowance)), worst, col


def _coalition_blocks(members: np.ndarray):
    """Yield (sums, coalition): a (3 x m) block of coalition sums of the
    (3 x n) ``members`` rows, and a function naming column col's members.

    Up to ``EXHAUSTIVE_LIMIT`` producers the blocks cover bitmasks 1 ..
    2^n - 1 in order, cut from one subset-sum table whose column k is column
    k - 2^i plus member i, for the top bit i of k: each sum adds its members
    in increasing index order, from zero. Larger pools are sampled.
    """
    n = members.shape[1]
    if n > EXHAUSTIVE_LIMIT:
        for masks in _iter_sampled_masks(n, CORE_SAMPLES):
            yield members @ masks.T, lambda col, masks=masks: tuple(np.flatnonzero(masks[col]).tolist())
        return
    table = np.empty((3, 1 << n))
    table[:, 0] = 0.0
    for i in range(n):
        np.add(table[:, : 1 << i], members[:, i : i + 1], out=table[:, 1 << i : 2 << i])
    for start in range(1, 1 << n, _CHUNK_ROWS):
        yield table[:, start : start + _CHUNK_ROWS], lambda col, k=start: tuple(
            i for i in range(n) if (k + col) >> i & 1
        )


def check_core_membership(alloc: PayoffAllocation, snapshot: ScenarioSnapshot) -> CoreResult:
    """Can any coalition beat its allocated share by seceding?

    A pool of at most ``EXHAUSTIVE_LIMIT`` producers is audited exactly: all
    2^n - 1 nonempty coalitions are enumerated from one (3 x 2^n) table of
    coalition sums, and the worst violation ``v(T) - allocated(T)`` is
    reported with its coalition (ties broken toward the lowest subset
    bitmask). A larger pool is screened with ``CORE_SAMPLES`` random
    coalitions drawn from seed 0 and reports ``exhaustive=False``; sampling
    can only ever certify "no violation found", which is what auditing a
    third-party allocation on a large pool realistically gets. The table is
    checked ``_CHUNK_ROWS`` coalitions at a time, and a sampled chunk holds
    at most ``_CHUNK_CELLS`` membership cells, so memory stays bounded.
    """
    _require_matching(alloc, snapshot)
    n = snapshot.n
    if n == 0:
        return CoreResult(True, 0.0, None, 0, True)
    members = np.array([snapshot.contracts, snapshot.realizations, alloc.payoffs])
    ok_all, worst, witness, checked = True, -math.inf, None, 0
    for sums, coalition in _coalition_blocks(members):
        ok, block_worst, col = _scan(sums, snapshot.prices)
        ok_all = ok_all and ok
        checked += sums.shape[1]
        if block_worst > worst:
            worst, witness = block_worst, coalition(col)
    return CoreResult(ok_all, worst, witness, checked, n <= EXHAUSTIVE_LIMIT)


def run_property_checks(
    alloc: PayoffAllocation,
    snapshot: ScenarioSnapshot,
    *,
    check_core: bool = True,
) -> PropertyReport:
    """Run the full five-property audit on one allocation.

    The core audit enumerates or samples as ``check_core_membership``
    decides from the pool size.
    """
    budget = check_budget_balance(alloc, snapshot)
    ir = check_individual_rationality(alloc, snapshot)
    fairness = check_fairness(alloc, snapshot)
    no_exploit = check_no_exploitation(alloc, snapshot)
    if check_core:
        core = check_core_membership(alloc, snapshot)
        in_core: bool | None = core.in_core
        core_violation: float | None = core.worst_violation
        core_coalition = core.worst_coalition
    else:
        in_core, core_violation, core_coalition = None, None, None
    return PropertyReport(
        budget_balance=budget.ok,
        budget_residual=budget.residual,
        individual_rationality=ir.ok,
        ir_worst_margin=ir.worst_margin,
        ir_worst_index=ir.worst_index,
        fairness=fairness,
        no_exploitation=no_exploit,
        in_core=in_core,
        core_worst_violation=core_violation,
        core_worst_coalition=core_coalition,
    )


def contract_mismatch_counterexample(
    contracts,
    aggregate_contract: float,
    prices: PriceTriple,
) -> ScenarioSnapshot:
    """Realization scenario proving a mismatched pool commitment is unworkable.

    If the pool commits more than the sum of member contracts, put every
    member in shortfall (half its contract delivered): the pool then earns
    strictly less than the members would separately, by exactly
    ``(day_ahead - rt_buy) * (commitment - sum of contracts)``, so no
    budget-balanced split can keep everyone whole. Committing less than the
    sum fails symmetrically with every member in surplus and the rt_sell
    price in the gap. Requires day_ahead < rt_buy for the over-commitment
    case and day_ahead > rt_sell for the under-commitment case; with the
    commitment equal to the sum no counterexample exists at all, the pool
    always at least matches the separate payoffs.
    """
    contracts = np.asarray(list(contracts), dtype=float)
    if np.any(contracts < 0.0):
        raise ValueError("contracts must be >= 0")
    total = float(contracts.sum())
    if approx_equal(aggregate_contract, total):
        raise ValueError(
            "aggregate contract equals the sum of member contracts; "
            "pooling then never loses money and no counterexample exists"
        )
    if aggregate_contract > total:
        if not prices.day_ahead < prices.rt_buy:
            raise ValueError(
                "over-committed case needs day_ahead < rt_buy to force a loss"
            )
        realizations = contracts / 2.0
    else:
        if not prices.day_ahead > prices.rt_sell:
            raise ValueError(
                "under-committed case needs day_ahead > rt_sell to force a loss"
            )
        realizations = contracts * 1.5
    return ScenarioSnapshot.from_arrays(contracts, realizations, prices)
