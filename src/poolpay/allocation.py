"""Marginal-price payoff allocation for a producer pool, plus its audit suite.

The built-in mechanism settles every member at a single marginal imbalance
price: each producer receives its day-ahead revenue plus that price applied
to its own deviation. The marginal price is the real-time buying price when
the pool is short in total, the real-time selling price when it is long, and
the midpoint of the two when the pool exactly meets its commitment.
This split is budget balanced, individually rational, fair, exploitation
free, and lies in the core of the induced coalitional game, for every
realization of generation.

``run_property_checks`` takes arbitrary allocations, not just the built-in
one, so the suite doubles as an audit tool for external mechanisms.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .market import (
    DEFAULT_TOLERANCE,
    PriceTriple,
    ScenarioSnapshot,
    _approx_equal_array,
    aggregator_payoff,
    approx_equal,
    separate_payoffs,
    settle,
)


def marginal_price(snapshot: ScenarioSnapshot) -> tuple[float, bool]:
    """The price applied to every member's deviation, and whether the pool
    counts as balanced.

    rt_buy when the pool is short in total, rt_sell when it is long, and the
    midpoint of the real-time band when the total deviation lies within
    ``DEFAULT_TOLERANCE * max(1, total contract)`` of zero. Any price in the
    band would keep all five properties there; the midpoint is fixed. The
    band is kept tiny because the balanced branch is payoff-discontinuous
    against its neighbours.
    """
    total_c, prices = snapshot.total_contract, snapshot.prices
    total_dev = snapshot.total_realization - total_c
    if abs(total_dev) <= DEFAULT_TOLERANCE * max(1.0, total_c):
        return 0.5 * (prices.rt_buy + prices.rt_sell), True
    return (prices.rt_buy if total_dev < 0.0 else prices.rt_sell), False


def _marginal_array(total_c, total_x, rt_buy, rt_sell) -> np.ndarray:
    """``marginal_price``'s price for pools given by their totals and prices in
    arrays that broadcast together, such as a window's (hours x 1) columns.
    Equal to it bit for bit: each step is the same IEEE operation on the same
    operands (``np.maximum`` differs from ``max`` only on a NaN total, which
    fails the band test either way)."""
    total_dev = total_x - total_c
    balanced = np.abs(total_dev) <= DEFAULT_TOLERANCE * np.maximum(1.0, total_c)
    return np.where(balanced, 0.5 * (rt_buy + rt_sell), np.where(total_dev < 0.0, rt_buy, rt_sell))


def _pam(contracts, realizations, day_ahead, marginal):
    """The mechanism's payoffs, for one pool or, with price columns, a block."""
    return day_ahead * contracts + marginal * (realizations - contracts)


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
        if not np.isfinite(payoffs).all():
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
    worst_violation: float  # v(T) - allocated(T) of worst_coalition; with none, the bound
    worst_coalition: tuple[int, ...] | None
    coalitions_checked: int
    exhaustive: bool  # the verdict covers every coalition, enumerated or bounded


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the five-property audit for one allocation."""

    budget: BudgetBalanceResult
    ir: IndividualRationalityResult
    fairness: bool
    no_exploitation: bool
    core: CoreResult

    @property
    def in_core(self) -> bool:
        return self.core.in_core

    @property
    def all_pass(self) -> bool:
        return (
            self.budget.ok and self.ir.ok and self.fairness and self.no_exploitation and self.in_core
        )


def allocate(snapshot: ScenarioSnapshot) -> PayoffAllocation:
    """Split the pool's market payoff with the marginal-price mechanism.

    Every producer gets ``day_ahead * contract + m * (realization -
    contract)`` where the marginal price m is rt_buy when the pool is short
    in total, rt_sell when it is long, and the band midpoint when the totals
    match (see ``marginal_price``). The payoffs always sum to the pool's own
    settlement.
    """
    marginal, _ = marginal_price(snapshot)
    payoffs = _pam(snapshot.contracts, snapshot.realizations, snapshot.prices.day_ahead, marginal)
    return PayoffAllocation(payoffs, aggregator_payoff(snapshot), marginal)


def _fair(dev: np.ndarray, margin: np.ndarray) -> bool:
    """Fairness: producers with equal deviations ``dev`` must have equal
    ``margin`` over forward revenue.

    Vacuously true when no two producers share a deviation. Every pair is
    judged by ``approx_equal``, in O(n log n) time and O(n) memory:

    - Sort the deviations once. For i < k < j in sorted order,
      ``approx_equal(d_i, d_j)`` implies ``approx_equal(d_i, d_k)`` and
      ``approx_equal(d_k, d_j)``: the gap shrinks while the allowance
      ``1e-9 * max(1, |a|, |b|)`` shrinks at most 1e-9 times as fast, and
      both sides round monotonically. So if no two sorted neighbours are
      equal, no pair is, and the audit ends there.
    - Otherwise each producer's equal-deviation partners at or after it form
      one window [i, end), and ``end`` never moves left as i grows. The
      same rule applied to margins makes the margins equal to ``m_i`` an
      interval, so every margin in the window equals ``m_i`` exactly when
      the window's minimum and maximum do. Two monotone deques keep those
      as the window slides. Pairs are symmetric, so windows to the right
      cover them all.
    """
    order = np.argsort(dev, kind="stable")
    d = dev[order].tolist()
    if not any(map(approx_equal, d[:-1], d[1:])):
        return True
    m = margin[order].tolist()
    n = len(d)
    low, high = deque(), deque()  # window positions of rising / falling margins
    end = 0
    for i, (d_i, m_i) in enumerate(zip(d, m)):
        while end < n and approx_equal(d_i, d[end]):
            m_end = m[end]
            while low and m[low[-1]] >= m_end:
                low.pop()
            low.append(end)
            while high and m[high[-1]] <= m_end:
                high.pop()
            high.append(end)
            end += 1
        if low[0] < i:
            low.popleft()
        if high[0] < i:
            high.popleft()
        if not (approx_equal(m_i, m[low[0]]) and approx_equal(m_i, m[high[0]])):
            return False
    return True


#: Largest pool the core audit enumerates (2^20 - 1 coalitions). A larger
#: pool is bounded, then searched over the 2^20 coalitions that take any
#: subset of its EXHAUSTIVE_LIMIT producers nearest to the LP optimum's
#: zero, with the rest fixed by the optimum's sign.
EXHAUSTIVE_LIMIT = 20

# The subset-sum table stores at most _CHUNK_ROWS coalitions, so each
# temporary of a check stays cache-sized (128 KB) and the audit holds about
# 1.5 MB at any pool size.
_CHUNK_ROWS = 1 << 14


def _scan(sums: np.ndarray, prices: PriceTriple):
    """Check a (3 x m) block of coalition sums (contracts, realizations,
    payoffs); return the max violation, its column, and (violation, column)
    of the worst column beyond its own allowance, or None if none is."""
    value = settle(sums[0], sums[1], prices)
    violation = value - sums[2]
    col = int(np.argmax(violation))
    worst = float(violation[col])
    if worst <= DEFAULT_TOLERANCE:  # within the smallest allowance, so all ok
        return worst, col, None
    allowance = DEFAULT_TOLERANCE * np.maximum(1.0, np.maximum(np.abs(value), np.abs(sums[2])))
    over = np.where(violation <= allowance, -np.inf, violation)
    bad = int(np.argmax(over))
    return worst, col, (None if over[bad] == -np.inf else (float(over[bad]), bad))


def _coalition_blocks(members: np.ndarray, base=None):
    """Yield (sums, coalition): a (3 x m) block of coalition sums of the
    (3 x k) ``members`` rows, and a function naming column col's members.

    The blocks cover columns 1 .. 2^k - 1 of a subset-sum table in order,
    and column 0 too when it holds a ``base``, the sums of producers in
    every coalition. Column j is column j - 2^i plus member i, for the top
    bit i of j, and column 0 is zero or the base. Only the columns below
    ``_CHUNK_ROWS`` are stored; each block adds its higher members to them
    in increasing order, as the table would. With no base, each sum adds
    its members in increasing index order, from zero.
    """
    k = members.shape[1]
    low = min(k, max(1, _CHUNK_ROWS.bit_length() - 1))  # members whose sums are stored
    table = np.empty((3, 1 << low))
    table[:, 0] = 0.0 if base is None else base
    for i in range(low):
        np.add(table[:, : 1 << i], members[:, i : i + 1], out=table[:, 1 << i : 2 << i])
    for top in range(0, 1 << k, 1 << low):
        start = 1 if top == 0 and base is None else 0
        sums = table[:, start:]
        for i in range(low, k):
            if top >> i & 1:
                sums = sums + members[:, i : i + 1]
        yield sums, lambda col, j=top + start: tuple(i for i in range(k) if (j + col) >> i & 1)


# A bound at most this proves the core. Half the allowance: the coalition
# sums of a scan round too, and at the full allowance the bound passed
# splits that the scan flags.
_BOUND_MARGIN = DEFAULT_TOLERANCE / 2


def _core_bound(contracts, realizations, payoffs, prices):
    """(bound, alpha, beta). alpha_i and beta_i are producer i's settlement
    at rt_buy and at rt_sell less its payoff; as rt_sell <= rt_buy, each
    coalition's excess min(alpha(T), beta(T)) is at most U(lam) = sum of
    max(0, lam alpha_i + (1 - lam) beta_i). The bound is the least of U(1),
    U(0), U(1/2) as ``min`` picks it; one per row of (hours x producers)."""
    alpha = _pam(contracts, realizations, prices.day_ahead, prices.rt_buy) - payoffs
    beta = _pam(contracts, realizations, prices.day_ahead, prices.rt_sell) - payoffs
    bound, *rest = (np.maximum(u, 0.0).sum(axis=-1) for u in (alpha, beta, 0.5 * (alpha + beta)))
    for other in rest:
        bound = np.where(other < bound, other, bound)
    return bound, alpha, beta


def _lp_optimum(alpha, beta) -> float:
    """The lam in [0, 1] minimizing U. U's slope right of 0, the sum of
    alpha_i - beta_i where beta_i > 0, rises by |alpha_i - beta_i| at each
    breakpoint beta_i / (beta_i - alpha_i). min U is the LP max over t in
    [0, 1]^n of min(alpha . t, beta . t)."""
    d = alpha - beta
    slope = float(d[beta > 0.0].sum())
    if slope >= 0.0:
        return 0.0
    crossing = np.flatnonzero((alpha > 0.0) != (beta > 0.0))
    breaks = beta[crossing] / (beta[crossing] - alpha[crossing])
    order = np.argsort(breaks, kind="stable")
    turned = np.flatnonzero(slope + np.cumsum(np.abs(d[crossing[order]])) >= 0.0)
    return float(breaks[order[turned[0]]]) if turned.size else 1.0


def _worst(blocks, prices):
    """Scan every block of ``_coalition_blocks``: (excess, coalition, refuted,
    count). The coalition is the worst beyond its own allowance when one is
    (``refuted``), else the worst; ties go to the lowest column."""
    worst, witness, bad, checked = -math.inf, None, None, 0
    for sums, coalition in blocks:
        block_worst, col, block_bad = _scan(sums, prices)
        checked += sums.shape[1]
        if block_worst > worst:
            worst, witness = block_worst, coalition(col)
        if block_bad is not None and (bad is None or block_bad[0] > bad[0]):
            bad = block_bad[0], coalition(block_bad[1])
    return (worst, witness, False, checked) if bad is None else (*bad, True, checked)


def _enumerate(contracts, realizations, payoffs, prices: PriceTriple) -> CoreResult:
    """The exact tier: all 2^n - 1 nonempty coalitions, from one table of
    coalition sums. A refuted pool names the worst coalition beyond its own
    allowance, any other the worst ``v(T) - allocated(T)``; ties go to the
    lowest subset bitmask."""
    members = np.array([contracts, realizations, payoffs])
    excess, coalition, refuted, checked = _worst(_coalition_blocks(members), prices)
    return CoreResult(not refuted, excess, coalition, checked, True)


def _core(contracts, realizations, payoffs, prices: PriceTriple) -> CoreResult:
    """Can any coalition beat its allocated share ``payoffs`` by seceding?

    One decision for a single pool and for each hour of a window. First the
    three-point bound of ``_core_bound``: at most ``_BOUND_MARGIN`` proves
    the pool, reported as ``CoreResult(True, bound, None, 0, True)``.

    An open pool of up to ``EXHAUSTIVE_LIMIT`` producers is enumerated (see
    ``_enumerate``). Above it, the LP minimum of U proves the pool within
    ``_BOUND_MARGIN``. Otherwise the ``EXHAUSTIVE_LIMIT`` producers whose
    value lam* alpha_i + (1 - lam*) beta_i at the LP optimum is nearest 0
    are free, every other producer whose value is positive beyond the
    rounding of its terms is fixed in, and the 2^limit coalitions so formed
    are searched with the same table. Its sums add the fixed members first,
    so the coalition reported (the worst beyond its allowance, else the
    worst) is judged again on its own index-order sums, and only a
    violation there refutes the pool. The search cannot prove one:
    ``exhaustive=False``.
    """
    bound, alpha, beta = _core_bound(contracts, realizations, payoffs, prices)
    if bound <= _BOUND_MARGIN:
        return CoreResult(True, float(bound), None, 0, True)
    if len(payoffs) <= EXHAUSTIVE_LIMIT:
        return _enumerate(contracts, realizations, payoffs, prices)
    lam = _lp_optimum(alpha, beta)
    value = lam * alpha + (1.0 - lam) * beta
    bound = np.maximum(value, 0.0).sum()
    if bound <= _BOUND_MARGIN:
        return CoreResult(True, float(bound), None, 0, True)
    members = np.array([contracts, realizations, payoffs])
    free = np.sort(np.argsort(np.abs(value), kind="stable")[:EXHAUSTIVE_LIMIT])
    # the rounding a value can carry: 16 eps times the sizes of its terms
    rounding = 16 * np.finfo(float).eps * (
        np.abs(payoffs) + np.abs(prices.day_ahead * contracts)
        + (abs(prices.rt_buy) + abs(prices.rt_sell)) * np.abs(realizations - contracts)
    )
    fixed = np.setdiff1d(np.flatnonzero(value > rounding), free).tolist()
    base = members[:, fixed].sum(axis=1) if fixed else None
    _, chosen, _, checked = _worst(_coalition_blocks(members[:, free], base), prices)
    named = tuple(sorted(fixed + free[list(chosen)].tolist()))  # chosen: positions in free
    # added in index order from zero, as the table adds a coalition up to the limit
    own = np.hstack([np.zeros((3, 1)), members[:, list(named)]]).cumsum(axis=1)[:, -1:]
    excess, _, refuted = _scan(own, prices)
    return CoreResult(refuted is None, excess, named, checked, False)


def _audit(contracts, realizations, payoffs, standalone, pool, prices) -> PropertyReport:
    """The five-property audit of one pool's ``payoffs`` against the settlement
    it is handed: budget balance against the ``pool`` payoff, a float, and
    individual rationality against the ``standalone`` payoffs. The arrays are
    1-D, of one length."""
    residual = float(payoffs.sum()) - pool
    budget = BudgetBalanceResult(abs(residual) <= DEFAULT_TOLERANCE * max(1.0, abs(pool)), residual)
    if len(payoffs) == 0:
        ir = IndividualRationalityResult(True, math.inf, None)
    else:
        margins = payoffs - standalone
        allowance = DEFAULT_TOLERANCE * np.maximum(1.0, np.abs(standalone))
        worst = int(np.argmin(margins))
        ir = IndividualRationalityResult(
            bool((margins >= -allowance).all()), float(margins[worst]), worst
        )
    day_ahead = prices.day_ahead
    # a producer that delivers its contract exactly gets exactly the forward revenue
    no_exploitation = all(
        approx_equal(p_i, day_ahead * c_i)
        for c_i, x_i, p_i in zip(contracts.tolist(), realizations.tolist(), payoffs.tolist())
        if approx_equal(x_i, c_i)
    )
    return PropertyReport(
        budget=budget,
        ir=ir,
        fairness=_fair(contracts - realizations, payoffs - day_ahead * contracts),
        no_exploitation=no_exploitation,
        core=_core(contracts, realizations, payoffs, prices),
    )


def _audit_window(contracts, realizations, payoffs, standalone, pool, prices) -> dict:
    """The five-property audit of a window of (hours x producers) blocks: each
    hour's verdicts and figures equal ``_audit``'s on that hour's rows.

    ``pool`` holds one pool payoff per hour and ``prices`` holds (hours x 1)
    price columns. The blocks are C-ordered, so each row sum adds its cells
    as that hour's own vector would. The kernels of one pool run only on the
    hours the block screens leave open: ``_fair`` where two equal sorted
    deviations carry unequal margins, and ``_core`` where ``_core_bound``
    exceeds its margin. The result maps each per-hour column of
    ``simulator.SimulationReport`` to its values.
    """
    hours, n = payoffs.shape
    residual = payoffs.sum(axis=1) - pool
    # Each (hours x producers) block is reduced to per-hour columns and
    # dropped before the next is made, so the audit holds few at a time.
    core_worst = _core_bound(contracts, realizations, payoffs, prices)[0]
    margins = payoffs - standalone
    ir_ok = np.all(margins >= -(DEFAULT_TOLERANCE * np.maximum(1.0, np.abs(standalone))), axis=1)
    if n:
        worst = np.argmin(margins, axis=1)
        worst_margin = margins[np.arange(hours), worst]
    else:
        worst, worst_margin = np.full(hours, -1), np.full(hours, math.inf)
    del margins
    order = np.argsort(contracts - realizations, axis=1)
    sorted_dev = np.take_along_axis(contracts - realizations, order, axis=1)
    tied = _approx_equal_array(sorted_dev[:, :-1], sorted_dev[:, 1:])
    del sorted_dev
    sorted_margin = np.take_along_axis(payoffs - prices.day_ahead * contracts, order, axis=1)
    # Equal deviations lie in one run of equal sorted neighbours (see _fair),
    # so an hour whose every such run holds one margin is fair.
    tied &= sorted_margin[:, :-1] != sorted_margin[:, 1:]
    del sorted_margin, order
    fair = np.ones(hours, dtype=bool)
    for h in np.flatnonzero(tied.any(axis=1)).tolist():
        c, x = contracts[h], realizations[h]
        fair[h] = _fair(c - x, payoffs[h] - prices.day_ahead[h] * c)
    # a producer that delivers its contract exactly gets exactly the forward revenue
    exploited = _approx_equal_array(realizations, contracts)
    exploited &= ~_approx_equal_array(payoffs, prices.day_ahead * contracts)
    in_core = core_worst <= _BOUND_MARGIN
    coalitions = [None] * hours
    for h in np.flatnonzero(~in_core).tolist():
        triple = PriceTriple(
            *(float(col[h, 0]) for col in (prices.day_ahead, prices.rt_buy, prices.rt_sell))
        )
        core = _core(contracts[h], realizations[h], payoffs[h], triple)
        in_core[h], core_worst[h] = core.in_core, core.worst_violation
        coalitions[h] = core.worst_coalition
    return dict(
        budget_ok=np.abs(residual) <= DEFAULT_TOLERANCE * np.maximum(1.0, np.abs(pool)),
        budget_residual=residual,
        ir_ok=ir_ok,
        ir_worst_margin=worst_margin,
        ir_worst_index=worst,
        fair=fair,
        no_exploitation=~exploited.any(axis=1),
        in_core=in_core,
        core_worst=core_worst,
        core_coalition=tuple(coalitions),
    )


def run_property_checks(alloc: PayoffAllocation, snapshot: ScenarioSnapshot) -> PropertyReport:
    """Run the five-property audit on one allocation of ``snapshot``, against
    its ``separate_payoffs`` and ``aggregator_payoff``. The core is decided as
    each hour of ``run_simulation`` decides it: the three-point bound first,
    then enumeration up to ``EXHAUSTIVE_LIMIT`` producers, or the LP minimum
    and a search above it (see ``_core``)."""
    if alloc.n != snapshot.n:
        raise ValueError(
            f"allocation covers {alloc.n} producers but snapshot has {snapshot.n}"
        )
    return _audit(
        snapshot.contracts, snapshot.realizations, alloc.payoffs, separate_payoffs(snapshot),
        aggregator_payoff(snapshot), snapshot.prices,
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
    bad = contracts[~(contracts >= 0.0)]
    if bad.size:
        raise ValueError(f"contracts must be >= 0, got {bad[0]}")
    if not (np.isfinite(aggregate_contract) and aggregate_contract >= 0.0):
        raise ValueError(f"aggregate contract must be finite and >= 0, got {aggregate_contract}")
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
