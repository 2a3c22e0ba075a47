import inspect
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolpay import (
    PayoffAllocation,
    PriceTriple,
    ScenarioSnapshot,
    aggregator_payoff,
    allocate,
    approx_equal,
    coalition_value,
    contract_mismatch_counterexample,
    excess_profit,
    run_property_checks,
    run_simulation,
    separate_payoff,
    separate_payoffs,
)

import poolpay
from poolpay import allocation
from conftest import inside_core, price_triples, random_prices, random_snapshot, snapshots
from oracles import (
    coalition_excess, core_scan, fairness_scan, lp_minimum, no_exploitation_scan,
)

P = PriceTriple(day_ahead=10.0, rt_buy=15.0, rt_sell=5.0)


def snap(contracts, realizations, prices=P):
    return ScenarioSnapshot.from_arrays(contracts, realizations, prices)


def arrays(snapshot, payoffs):
    """The (contracts, realizations, payoffs, prices) a core audit takes."""
    return snapshot.contracts, snapshot.realizations, payoffs, snapshot.prices


def witness_misses():
    """A balanced 21-producer split outside the core that neither rounding of
    its LP optimum refutes. Producer 0 is 1 MWh long, producer 1 exact,
    producer 2 1 MWh short, and nine producers are 5 MWh long and nine 5 MWh
    short; 1.0 of producer 0's payoff moves to producer 1. A coalition with
    0, without 1 and of zero total deviation, such as {0, 2}, gains 1.0 by
    seceding. The LP optimum is lam = 1/2, where only producer 0 has an
    excess, and neither {0} nor {0, k}, for the producer k it names,
    deviates by 0."""
    dev = np.array([1.0, 0.0, -1.0] + [5.0] * 9 + [-5.0] * 9)
    s = snap([10.0] * 21, 10.0 + dev)
    payoffs = allocate(s).payoffs + np.array([-1.0, 1.0] + [0.0] * 19)
    return s, PayoffAllocation(payoffs, aggregator_payoff(s))


def equal_split(snapshot):
    total = aggregator_payoff(snapshot)
    return PayoffAllocation(np.full(snapshot.n, total / snapshot.n), total)


def test_public_names_resolve_and_removed_names_are_gone():
    for name in poolpay.__all__:
        assert hasattr(poolpay, name), name
    removed = {
        "allocation": (
            "PamConfig", "ConfigurationError", "resolve_balance_price", "check_budget_balance",
            "check_individual_rationality", "check_fairness", "check_no_exploitation",
            "check_core_membership", "_iter_sampled_masks", "CORE_SAMPLES", "_CHUNK_CELLS",
            "_certify",
        ),
        "market": ("SurplusPartition", "partition_surplus_shortfall"),
        "equilibrium": ("ProductionFunction", "Redistribution"),
        "contracts": ("expected_separate_payoff", "GenerationDistribution", "optimal_contract"),
        "simulator": ("SimulationConfig", "_prices_for_hour"),
    }
    for module, names in removed.items():
        for name in names:
            assert name not in poolpay.__all__
            assert not hasattr(poolpay, name)
            assert not hasattr(getattr(poolpay, module), name)
    # both audits always audit the core
    assert "check_core" not in inspect.signature(run_property_checks).parameters
    assert "check_core" not in inspect.signature(run_simulation).parameters


class TestAllocate:
    def test_pool_short(self):
        alloc = allocate(snap([100, 50, 50], [80, 60, 40]))
        np.testing.assert_allclose(alloc.payoffs, [700.0, 650.0, 350.0])
        assert alloc.total == 1700.0
        assert alloc.marginal_price_used == P.rt_buy

    def test_marginal_price_names_the_branch(self):
        marginal_price = allocation.marginal_price
        assert marginal_price(snap([100, 50], [80, 60])) == (P.rt_buy, False)
        assert marginal_price(snap([100, 50], [110, 60])) == (P.rt_sell, False)
        assert marginal_price(snap([100, 50], [90, 60])) == (10.0, True)
        # inside the relative band around the total contract counts as balanced
        assert marginal_price(snap([100, 50], [90, 60 + 1e-8]))[1]
        assert not marginal_price(snap([100, 50], [90, 60 + 1e-6]))[1]

    def test_pool_long(self):
        alloc = allocate(snap([100, 50, 50], [110, 60, 50]))
        np.testing.assert_allclose(alloc.payoffs, [1050.0, 550.0, 500.0])
        assert alloc.total == 2100.0
        assert alloc.marginal_price_used == P.rt_sell

    def test_pool_balanced_midpoint(self):
        alloc = allocate(snap([100, 50], [80, 70]))
        np.testing.assert_allclose(alloc.payoffs, [800.0, 700.0])
        assert alloc.marginal_price_used == 10.0  # (15 + 5) / 2

    def test_exact_deliverer_gets_forward_revenue(self):
        assert allocate(snap([100], [100])).payoffs[0] == 1000.0
        # also inside a short pool, where the deviation price is rt_buy
        assert allocate(snap([100, 50], [100, 40])).payoffs[0] == 1000.0

    def test_sums_to_pool_payoff(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = random_snapshot(rng)
            alloc = allocate(s)
            assert approx_equal(alloc.total, aggregator_payoff(s))


class TestBudgetBalance:
    def test_mechanism_output_balances(self):
        s = snap([100, 50, 50], [80, 60, 40])
        result = run_property_checks(allocate(s), s).budget
        assert result.ok
        assert result.residual == 0.0

    def test_inflated_payoff_detected(self):
        s = snap([100, 50, 50], [80, 60, 40])
        alloc = allocate(s)
        tampered = PayoffAllocation(alloc.payoffs + np.array([1.0, 0.0, 0.0]), alloc.aggregator_total)
        result = run_property_checks(tampered, s).budget
        assert not result.ok
        assert result.residual == pytest.approx(1.0)

    def test_zero_producer_snapshot(self):
        s = ScenarioSnapshot.from_arrays([], [], P)
        result = run_property_checks(PayoffAllocation(np.array([]), 0.0), s).budget
        assert result.ok
        assert result.residual == 0.0

    def test_length_mismatch(self):
        s = snap([100, 50], [80, 70])
        with pytest.raises(ValueError, match="producers"):
            run_property_checks(PayoffAllocation(np.array([1.0]), 1.0), s).budget


class TestIndividualRationality:
    def test_short_pool_margins(self):
        # every shortfall member sits exactly at its stand-alone payoff, the
        # surplus member pockets the spread on its own deviation
        s = snap([100, 50, 50], [80, 60, 40])
        alloc = allocate(s)
        result = run_property_checks(alloc, s).ir
        assert result.ok
        margins = alloc.payoffs - separate_payoffs(s)
        assert margins[0] == 0.0
        assert margins[2] == 0.0
        assert margins[1] == pytest.approx((15.0 - 5.0) * 10.0)

    def test_equal_split_can_fail(self):
        s = snap([100, 0], [0, 0])
        result = run_property_checks(equal_split(s), s).ir
        assert not result.ok
        assert result.worst_index == 1
        assert result.worst_margin == pytest.approx(-250.0)


class TestFairness:
    def test_equal_deviations_equal_margins(self):
        s = snap([100, 50], [90, 40])
        alloc = allocate(s)
        assert run_property_checks(alloc, s).fairness
        margins = alloc.payoffs - P.day_ahead * s.contracts
        np.testing.assert_allclose(margins, [-150.0, -150.0])

    def test_unequal_margins_flagged(self):
        s = snap([100, 50], [90, 40])
        uneven = PayoffAllocation(np.array([850.0, 500.0 - 200.0]), aggregator_payoff(s))
        assert not run_property_checks(uneven, s).fairness

    def test_vacuous_without_equal_deviations(self):
        s = snap([100, 50], [90, 45])  # deviations 10 and 5
        lopsided = PayoffAllocation(np.array([0.0, 1290.0]), aggregator_payoff(s))
        assert run_property_checks(lopsided, s).fairness


class TestNoExploitation:
    def test_mechanism_pays_forward_revenue(self):
        s = snap([100, 50, 30], [80, 50, 40])  # producer 1 delivers exactly
        alloc = allocate(s)
        assert run_property_checks(alloc, s).no_exploitation
        assert alloc.payoffs[1] == pytest.approx(500.0)

    def test_bonus_detected(self):
        s = snap([100, 50], [80, 50])
        alloc = allocate(s)
        bonus = PayoffAllocation(alloc.payoffs + np.array([-1.0, 1.0]), alloc.aggregator_total)
        assert not run_property_checks(bonus, s).no_exploitation

    def test_vacuous_without_exact_deliverers(self):
        s = snap([100, 50], [90, 45])
        anything = PayoffAllocation(np.array([0.0, 1300.0]), aggregator_payoff(s))
        assert run_property_checks(anything, s).no_exploitation


class TestCoreMembership:
    def test_mechanism_in_core(self):
        s = snap([100, 50, 50], [80, 60, 40])
        result = run_property_checks(allocate(s), s).core
        assert result.in_core
        assert result.coalitions_checked == 0  # the bound proves it

    def test_equal_split_blocked_by_strong_producer(self):
        s = snap([100, 0], [100, 0])
        result = run_property_checks(equal_split(s), s).core
        assert not result.in_core
        assert result.worst_coalition == (0,)
        assert result.worst_violation == pytest.approx(500.0)

    def test_singleton_forced_by_budget(self):
        s = snap([100], [80])
        good = PayoffAllocation(np.array([700.0]), 700.0)
        assert run_property_checks(good, s).in_core
        bad = PayoffAllocation(np.array([699.0]), 700.0)
        assert not run_property_checks(bad, s).in_core

    def test_exhaustive_refuses_large_pools(self, monkeypatch):
        # a pool of EXHAUSTIVE_LIMIT + 1 producers is bounded, then searched,
        # not refused
        rng = np.random.default_rng(0)
        n = allocation.EXHAUSTIVE_LIMIT + 1
        s, alloc = inside_core(n, rng)
        result = run_property_checks(alloc, s).core
        assert result.in_core
        assert not result.exhaustive
        assert result.coalitions_checked == 2**allocation.EXHAUSTIVE_LIMIT
        # the bound proves the mechanism's own split, with no coalition checked
        result = run_property_checks(allocate(s), s).core
        assert (result.in_core, result.exhaustive, result.coalitions_checked) == (True, True, 0)
        assert result.worst_coalition is None
        # a pool of exactly EXHAUSTIVE_LIMIT producers is still enumerated
        monkeypatch.setattr(allocation, "EXHAUSTIVE_LIMIT", 8)
        for n, checked in ((8, 255), (9, 256)):
            s, alloc = inside_core(n, rng)
            result = run_property_checks(alloc, s).core
            assert result.in_core
            assert result.exhaustive is (n == 8)
            assert result.coalitions_checked == checked

    def test_open_pool_is_searched_not_proven(self):
        rng = np.random.default_rng(1)
        s, alloc = inside_core(22, rng)
        # the LP minimum of this split is about 1.6e-5, above the margin, and
        # no coalition of the search violates: the pool stays open
        result = run_property_checks(alloc, s).core
        assert (result.in_core, result.exhaustive) == (True, False)
        assert result.coalitions_checked == 2**20
        # the coalition named is the search's worst, judged on its own sums
        excess, allowance = coalition_excess(*arrays(s, alloc.payoffs), result.worst_coalition)
        assert result.worst_violation == excess <= allowance
        # the mechanism's split of a random pool is proven instead
        s = random_snapshot(rng, n_min=22, n_max=22)
        result = run_property_checks(allocate(s), s).core
        assert result.in_core and result.exhaustive
        assert result.coalitions_checked == 0

    def test_search_finds_what_the_roundings_miss(self):
        # the coalitions with 0, without 1 and of zero total deviation gain
        # 1.0; producer 1 is not free, producer 0 is, and the lowest column
        # of the search that gains 1.0 is {0, 2}
        s, alloc = witness_misses()
        result = run_property_checks(alloc, s).core
        assert (result.in_core, result.exhaustive) == (False, False)
        assert result.coalitions_checked == 2**20 - 1
        assert (result.worst_coalition, result.worst_violation) == ((0, 2), 1.0)
        coalition = list(result.worst_coalition)
        assert 0 in coalition and 1 not in coalition
        assert s.realizations[coalition].sum() == s.contracts[coalition].sum()
        # a short pool where the idle producer 0 is paid -2e-9 and producers 1
        # and 2 give up 1e-8 each: {0, 1, 2} has the largest excess, 2.2e-8,
        # within its allowance of 1.7e-6, and only {0} exceeds its own, 1e-9.
        # The search names the violation, not the largest excess
        s = snap([0.0] + [100.0] * 20, [0.0] + [90.0] * 20)
        payoffs = allocate(s).payoffs + np.array([-2e-9, -1e-8, -1e-8] + [0.0] * 17 + [1.0])
        result = allocation._core(*arrays(s, payoffs))
        assert (result.in_core, result.worst_coalition, result.worst_violation) == (False, (0,), 2e-9)
        # the same split of three producers: the enumeration names {0} too
        s = snap([0.0, 100.0, 100.0], [0.0, 90.0, 90.0])
        payoffs = allocate(s).payoffs + np.array([-2e-9, -1e-8, -1e-8])
        result = run_property_checks(PayoffAllocation(payoffs, aggregator_payoff(s)), s).core
        assert (result.in_core, result.worst_coalition, result.worst_violation) == (False, (0,), 2e-9)
        assert result.coalitions_checked == 7
        # pools up to EXHAUSTIVE_LIMIT are enumerated; the 5-producer pool
        # ties (0, 1) with (0, 1, 2), and the lowest bitmask wins
        tied = snap([100, 50, 20, 30, 40], [100, 50, 20, 30, 40])
        cases = [
            (snap([100, 0], [100, 0]), None),
            (snap([100] + [0] * 8, [100] + [0] * 8), None),
            (tied, PayoffAllocation(np.array([900.0, 400.0, 200.0, 350.0, 450.0]), 2300.0)),
        ]
        for s, alloc in cases:
            alloc = alloc or equal_split(s)
            result = run_property_checks(alloc, s).core
            assert not result.in_core
            assert result.exhaustive
            assert result.coalitions_checked == 2**s.n - 1
        assert result.worst_coalition == (0, 1)
        assert result.worst_violation == 200.0

    def test_certificate_finds_planted_violation(self):
        # only producer 0 delivers, and producer 1 is paid 200 of its 1000:
        # every coalition with 0 and without 1 falls short by 200. Producer 0
        # is free, as is every idle producer, and {0} is the lowest column
        s = snap([100] + [0] * 20, [100] + [0] * 20)
        alloc = PayoffAllocation(np.array([800.0, 200.0] + [0.0] * 19), 1000.0)
        result = run_property_checks(alloc, s).core
        assert (result.in_core, result.exhaustive) == (False, False)
        assert result.coalitions_checked == 2**20 - 1
        assert (result.worst_coalition, result.worst_violation) == ((0,), 200.0)
        # equal shares of a 21-producer pool where one producer delivers
        # all: producer 0, fixed in, earns 2000 more than its share on its own
        s = snap([210] + [0] * 20, [210] + [0] * 20)
        alloc = equal_split(s)
        result = run_property_checks(alloc, s).core
        assert (result.in_core, result.worst_coalition, result.worst_violation) == (False, (0,), 2000.0)
        assert result.coalitions_checked == 2**20
        # a balanced pool where producer 1 takes 1.0 of producer 0's share:
        # the LP optimum is fractional in producer 2, which is free, and
        # producer 0 is fixed in: {0, 2} blocks the split
        s = snap([10.0, 10.0, 10.0] + [5.0] * 19, [6.0, 10.0, 14.0] + [5.0] * 19)
        payoffs = allocate(s).payoffs + np.array([-1.0, 1.0] + [0.0] * 20)
        result = run_property_checks(PayoffAllocation(payoffs, aggregator_payoff(s)), s).core
        assert (result.in_core, result.worst_coalition, result.coalitions_checked) == (
            False, (0, 2), 2**20
        )
        assert result.worst_violation == coalition_value(s, [0, 2]) - payoffs[[0, 2]].sum() == 1.0

    def test_search_is_deterministic_across_chunks(self, monkeypatch):
        # the search draws nothing: two calls, and any chunk size, give the
        # same result, ties going to the lowest column of the table
        open_pool = inside_core(21, np.random.default_rng(2))
        results = []
        for chunk_rows in (1 << 14, 1 << 14, 1 << 9, 1 << 20):
            monkeypatch.setattr(allocation, "_CHUNK_ROWS", chunk_rows)
            results.append([run_property_checks(alloc, s).core
                            for s, alloc in (witness_misses(), open_pool)])
        assert all(r == results[0] for r in results[1:])
        assert results[0][0].worst_coalition == (0, 2)
        assert results[0][1].in_core and not results[0][1].exhaustive

    def test_sampled_memory_is_bounded_by_cells(self):
        # the above-limit path's peak must not grow with the pool beyond
        # O(n): the search stores _CHUNK_ROWS columns of its table, fills one
        # block of that size at a time, and keeps a few n-vectors besides
        blocks = 16 * 8 * allocation._CHUNK_ROWS
        peaks = []
        for n in (500, 2000):
            s, alloc = inside_core(n, np.random.default_rng(n))
            tracemalloc.start()
            try:
                result = allocation._core(*arrays(s, alloc.payoffs))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.in_core and not result.exhaustive
            assert result.coalitions_checked == 2**allocation.EXHAUSTIVE_LIMIT
            assert peaks[-1] < blocks + 40 * 8 * n
            # the mechanism's split is proven without a search
            proven = run_property_checks(allocate(s), s).core
            assert proven.in_core and proven.coalitions_checked == 0
        assert peaks[0] < peaks[1] < peaks[0] + 40 * 8 * 1500

    def test_certificate_memory_grows_linearly(self):
        # the certificate, the three-point bound and the LP minimum of U,
        # holds a few n-vectors, never a coalition block, so its peak is
        # linear in the pool: 4 times the producers, about 4 times the peak
        peaks = []
        for n in (500, 2000):
            s, alloc = inside_core(n, np.random.default_rng(n))
            tracemalloc.start()
            try:
                bound, alpha, beta = allocation._core_bound(*arrays(s, alloc.payoffs))
                lam = allocation._lp_optimum(alpha, beta)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            # the split is beyond what the certificate proves
            assert bound > allocation._BOUND_MARGIN
            assert np.maximum(lam * alpha + (1.0 - lam) * beta, 0.0).sum() > allocation._BOUND_MARGIN
            assert peaks[-1] < 40 * 8 * n
        assert 3.0 * peaks[0] < peaks[1] < 5.0 * peaks[0]


# Small whole numbers make exact ties between coalitions, and exact
# deliveries (realization == contract), common.
_GRID = st.integers(0, 4).map(float)
_ENERGY = st.one_of(_GRID, st.floats(0.0, 300.0).map(lambda v: round(v, 6)))


@st.composite
def core_cases(draw):
    n = draw(st.integers(1, 10))
    contracts = draw(st.lists(_ENERGY, min_size=n, max_size=n))
    realizations = [c if draw(st.booleans()) else draw(_ENERGY) for c in contracts]
    whole = st.tuples(st.integers(-5, 5), st.integers(0, 5), st.integers(0, 5)).map(
        lambda t: PriceTriple(day_ahead=float(t[0]), rt_buy=float(t[1] + t[2]), rt_sell=float(t[1]))
    )
    s = snap(contracts, realizations, draw(st.one_of(whole, price_triples())))
    nudges = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5]), min_size=n, max_size=n))
    alloc = allocate(s)
    return s, PayoffAllocation(alloc.payoffs + np.array(nudges), alloc.aggregator_total)


# every producer delivers exactly; (0, 1) and (0, 1, 2) tie at 200, in
# different chunks when a chunk holds one coalition
TIED = snap([100, 50, 20, 30, 40], [100, 50, 20, 30, 40])
TIED_PAYOFFS = PayoffAllocation(np.array([900.0, 400.0, 200.0, 350.0, 450.0]), 2300.0)
# the mechanism's split: exact deliverers beside a short and a long member,
# and many coalitions tied at a violation of exactly 0
MIXED = snap([3, 2, 0, 4], [1, 2, 0, 5])


@settings(max_examples=300, deadline=None)
@given(core_cases(), st.sampled_from([1, 3, 64, 1 << 16]))
@example((TIED, TIED_PAYOFFS), 1)
@example((MIXED, allocate(MIXED)), 3)
def test_core_scan_matches_loop_oracle_bit_for_bit(case, chunk_rows):
    """The enumeration tier, called directly on every pool, even one the
    bound proves, equals the loop oracle bit for bit; the audit's verdict
    equals it wherever the bound leaves the pool open."""
    s, alloc = case
    args = arrays(s, alloc.payoffs)
    with mock.patch.object(allocation, "_CHUNK_ROWS", chunk_rows):
        result = allocation._enumerate(*args)
        audit = run_property_checks(alloc, s).core
    ok, worst, witness = core_scan(*args)
    assert result.exhaustive
    assert result.coalitions_checked == 2**s.n - 1
    assert result.in_core is ok
    assert np.float64(result.worst_violation).tobytes() == np.float64(worst).tobytes()
    assert result.worst_coalition == witness
    if allocation._core_bound(*args)[0] > allocation._BOUND_MARGIN:
        assert audit.in_core is ok


@st.composite
def bound_cases(draw):
    """Pools of 1-10 producers at contract scales from 1e-3 to 1e5, with idle
    producers, exact deliveries, short, long and balanced totals and zero
    spreads. The payoffs are the mechanism's, shuffled, or with 0.4-2 times
    the allowance ``1e-9 * max(1, |p_i|)`` of one producer's payoff moved
    to another."""
    n = draw(st.integers(1, 10))
    scale = draw(st.sampled_from([1e-3, 1.0, 120.0, 1e5]))
    unit = st.floats(0.0, 1.0).map(lambda v: round(v, 6))
    contracts = [0.0 if draw(st.integers(0, 4)) == 0 else scale * draw(unit) for _ in range(n)]
    if draw(st.booleans()):  # balanced: the contracts, delivered in another order
        realizations = draw(st.permutations(contracts))
    else:
        realizations = [c if draw(st.integers(0, 3)) == 0 else 2.0 * scale * draw(unit)
                        for c in contracts]
    flat = st.tuples(st.integers(-5, 20), st.integers(-5, 20)).map(
        lambda t: PriceTriple(float(t[0]), float(t[1]), float(t[1]))
    )
    s = snap(contracts, realizations, draw(st.one_of(price_triples(), flat)))
    payoffs = allocate(s).payoffs.tolist()
    style = draw(st.sampled_from(["mechanism", "shuffled", "moved"]))
    if style == "shuffled":
        payoffs = draw(st.permutations(payoffs))
    elif style == "moved" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        move = draw(st.sampled_from([0.4, 0.5, 0.6, 1.0, 2.0])) * 1e-9 * max(1.0, abs(payoffs[i]))
        payoffs[i] -= move
        payoffs[j] += move
    return s, np.array(payoffs), style


# The mechanism's split of a long pool with 1e-9 moved from producer 3 to
# producer 2. Its bound, 1e-9 less 2.8e-11, is within the full allowance,
# but the enumeration's own sums put coalition (1, 3) at 1.0000002e-9, a
# violation: a bound at the full allowance would pass a split the scan fails.
EDGE = snap([0.243, 0.257, 0.073, 0.258], [1.526, 1.396, 0.257, 0.752], PriceTriple(4.0, 1.0, -1.0))
EDGE_PAYOFFS = allocate(EDGE).payoffs + np.array([0.0, 0.0, 1e-9, -1e-9])


@settings(max_examples=400, deadline=None)
@given(bound_cases())
@example((EDGE, EDGE_PAYOFFS, "moved"))
def test_bound_proves_only_pools_in_the_core(case):
    s, payoffs, style = case
    check_search(s, payoffs, 1)
    # the mechanism's short and long splits are proven with a bound of exactly 0
    if style == "mechanism" and not allocation.marginal_price(s)[1]:
        with mock.patch.object(allocation, "EXHAUSTIVE_LIMIT", 0):
            result = allocation._core(*arrays(s, payoffs))
        assert result.coalitions_checked == 0 and result.worst_violation == 0.0


def check_search(s, payoffs, limit):
    """The core verdict on ``payoffs``, with ``EXHAUSTIVE_LIMIT`` at ``limit``,
    against the loop oracle. A pool above the limit is proven only if no
    coalition violates. Otherwise the search names a coalition whose excess
    equals ``coalition_excess`` bit for bit, and refutes the pool exactly
    when that excess exceeds its own allowance, which the oracle confirms."""
    with mock.patch.object(allocation, "EXHAUSTIVE_LIMIT", limit):
        result = allocation._core(*arrays(s, payoffs))
    ok = core_scan(*arrays(s, payoffs))[0]
    if s.n <= limit:  # proven by the bound, or enumerated as the oracle test checks
        assert result.exhaustive and result.in_core is ok
    elif result.exhaustive:  # proven by the bound or the LP minimum
        assert ok
        assert (result.in_core, result.worst_coalition, result.coalitions_checked) == (True, None, 0)
    else:
        excess, allowance = coalition_excess(*arrays(s, payoffs), result.worst_coalition)
        assert np.float64(result.worst_violation).tobytes() == np.float64(excess).tobytes()
        assert result.in_core is (excess <= allowance)
        assert result.coalitions_checked in (2**limit - 1, 2**limit)
        assert result.in_core or not ok


@settings(max_examples=300, deadline=None)
@given(core_cases(), st.integers(2, 4))
def test_certificate_is_sound(case, limit):
    s, alloc = case
    check_search(s, alloc.payoffs, limit)


_EXCESS = st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_EXCESS, _EXCESS), min_size=1, max_size=30))
def test_lp_optimum_attains_the_minimum_of_u(pairs):
    alpha, beta = (np.array(v) for v in zip(*pairs))
    lam = allocation._lp_optimum(alpha, beta)
    u = float(np.maximum(lam * alpha + (1.0 - lam) * beta, 0.0).sum())
    scale = float(np.abs(alpha).sum() + np.abs(beta).sum())
    assert 0.0 <= lam <= 1.0
    assert abs(u - lp_minimum(alpha, beta)) <= 1e-13 * max(1.0, scale)
    # lam is an end or a producer's breakpoint, where it crosses 0
    crossing = (alpha > 0.0) != (beta > 0.0)
    breaks = beta[crossing] / (beta[crossing] - alpha[crossing])
    assert lam in (0.0, 1.0) or lam in breaks.tolist()


@pytest.mark.parametrize("n", [21, 500, 2000])
def test_bound_proves_the_mechanism_on_short_and_long_pools(n):
    rng = np.random.default_rng(n)
    contracts = rng.uniform(0.0, 120.0, n)
    realizations = rng.uniform(0.0, 120.0, n)
    for factor in (0.8, 1.25):  # short, then long
        s = snap(contracts, realizations * (factor * contracts.sum() / realizations.sum()),
                 random_prices(rng))
        assert allocation.marginal_price(s)[1] is False
        result = run_property_checks(allocate(s), s).core
        assert (result.in_core, result.exhaustive, result.coalitions_checked) == (True, True, 0)
        assert result.worst_violation == 0.0


@st.composite
def _near(draw, base):
    """``base``, or a value on, just inside or just outside the 1e-9
    allowance around it."""
    step = draw(st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -0.5, 2.0]))
    value = base + step * 1e-9 * max(1.0, abs(base))
    for _ in range(draw(st.integers(0, 2))):
        value = float(np.nextafter(value, draw(st.sampled_from([np.inf, -np.inf]))))
    return value


_MAGNITUDE = st.one_of(
    st.sampled_from([0.0, 5e-10, 1e-9, 1.0, 3.0, 2.0**20, 2.0**40]), st.floats(0.0, 2.0**40)
)


@st.composite
def pair_audit_cases(draw):
    """Pools of up to 16 producers whose deviations come from a few bases:
    exact ties, near-ties at 1e-9 relative and around zero, magnitudes from
    0 to 2^40 and idle producers. The payoffs are the mechanism's, some
    moved on or across the allowance, or shuffled."""
    n = draw(st.integers(0, 16))
    signed = _MAGNITUDE.flatmap(lambda v: st.sampled_from([v, -v]))
    bases = draw(st.lists(signed, min_size=1, max_size=4))
    contracts, realizations = [], []
    for _ in range(n):
        dev = draw(_near(draw(st.sampled_from(bases))))
        kind = draw(st.sampled_from(["idle", "exact", "offset", "deliver"]))
        offset = draw(_MAGNITUDE)
        if kind == "idle":
            c, x = 0.0, 0.0
        elif kind == "exact":  # c - x == dev exactly, and c == 0 when dev < 0
            c, x = max(dev, 0.0), max(-dev, 0.0)
        elif kind == "offset":
            c, x = offset + max(dev, 0.0), offset + max(-dev, 0.0)
        else:
            c, x = offset, abs(draw(_near(offset)))
        contracts.append(c)
        realizations.append(x)
    whole = st.integers(-5, 5).map(lambda pf: PriceTriple(float(pf), 15.0, 5.0))
    s = snap(contracts, realizations, draw(st.one_of(whole, price_triples())))
    payoffs = allocate(s).payoffs.tolist()
    style = draw(st.sampled_from(["mechanism", "nudged", "shuffled"]))
    if style == "nudged":
        payoffs = [draw(_near(p)) for p in payoffs]
    elif style == "shuffled":
        payoffs = draw(st.permutations(payoffs))
    return s, PayoffAllocation(payoffs, aggregator_payoff(s))


@settings(max_examples=300, deadline=None)
@given(pair_audit_cases())
@example((snap([0.0, 0.0], [0.0, 0.0]), PayoffAllocation([0.0, 2e-9], 0.0)))
@example((snap([3.0, 2.0, 0.0], [1.0, 0.0, 0.0]), PayoffAllocation([10.0, 11.0, 0.0], 21.0)))
def test_pair_audits_match_loop_oracles(case):
    s, alloc = case
    args = (s.contracts, s.realizations, alloc.payoffs, s.prices)
    report = run_property_checks(alloc, s)
    assert report.fairness is fairness_scan(*args)
    assert report.no_exploitation is no_exploitation_scan(*args)


def test_fairness_on_an_all_idle_pool_of_20000():
    # every producer shares deviation 0, so one window holds the whole pool;
    # a pair loop would make 2e8 comparisons here
    n = 20_000
    s = snap([0.0] * n, [0.0] * n)
    fair = allocate(s)
    moved = fair.payoffs.copy()
    moved[n // 2] = 2e-9  # the allowance at zero is 1e-9
    unfair = PayoffAllocation(moved, fair.aggregator_total)
    tracemalloc.start()
    try:
        assert run_property_checks(fair, s).fairness
        assert not run_property_checks(unfair, s).fairness
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# Each check applied to one idle producer (contract 0, output 0, every total
# 0) that is off by ``m``; with totals of 0 the allowance is exactly 1e-9.
# Fairness compares two idle producers, one of them off by ``m``.
IDLE = snap([0.0], [0.0])


def audit(payoffs, s=IDLE):
    return run_property_checks(PayoffAllocation(payoffs, 0.0), s)


OFF_BY = {
    "budget-balance": lambda m: audit([m]).budget.ok,
    "individual-rationality": lambda m: audit([-m]).ir.ok,
    "core": lambda m: audit([-m]).in_core,
    "balance-band": lambda m: allocation.marginal_price(snap([0.0], [m]))[1],
    "no-exploitation": lambda m: audit([m]).no_exploitation,
    "fairness": lambda m: audit([0.0, m], snap([0.0, 0.0], [0.0, 0.0])).fairness,
}


@pytest.mark.parametrize("within_allowance", list(OFF_BY.values()), ids=list(OFF_BY))
def test_allowance_is_exactly_1e_9_at_zero_totals(within_allowance):
    assert within_allowance(1e-9)
    assert not within_allowance(float(np.nextafter(1e-9, np.inf)))


@settings(max_examples=200, deadline=None)
@given(snapshots(max_n=8))
def test_mechanism_satisfies_all_five_properties(s):
    report = run_property_checks(allocate(s), s)
    assert report.budget.ok
    assert report.ir.ok
    assert report.fairness
    assert report.no_exploitation
    assert report.in_core
    assert report.all_pass


@settings(max_examples=200, deadline=None)
@given(snapshots(max_n=8))
def test_core_implies_individual_rationality(s):
    report = run_property_checks(allocate(s), s)
    if report.in_core:
        assert report.ir.ok


def test_report_holds_what_each_check_returns():
    rng = np.random.default_rng(12)
    for k in range(200):
        s = random_snapshot(rng, n_max=8)
        alloc = allocate(s)
        if k % 2:  # an external split: the mechanism's payoffs, shuffled
            alloc = PayoffAllocation(rng.permutation(alloc.payoffs), aggregator_payoff(s))
        report = run_property_checks(alloc, s)
        pool = aggregator_payoff(s)
        residual = alloc.total - pool
        assert report.budget.residual == residual
        assert report.budget.ok is (abs(residual) <= 1e-9 * max(1.0, abs(pool)))
        margins = alloc.payoffs - separate_payoffs(s)
        assert report.ir.worst_index == int(np.argmin(margins))
        assert report.ir.worst_margin == margins.min()
        scale = np.maximum(1.0, np.abs(separate_payoffs(s)))
        assert report.ir.ok is bool(np.all(margins >= -1e-9 * scale))
        args = (s.contracts, s.realizations, alloc.payoffs, s.prices)
        assert report.fairness is fairness_scan(*args)
        assert report.no_exploitation is no_exploitation_scan(*args)
        bound = allocation._core_bound(*args)[0]
        if bound <= allocation._BOUND_MARGIN:  # proven by the bound, as the oracle confirms
            assert report.core == allocation.CoreResult(True, bound, None, 0, True)
            assert core_scan(*args)[0]
        else:
            assert (report.core.in_core, report.core.worst_violation,
                    report.core.worst_coalition) == core_scan(*args)
            assert report.core.coalitions_checked == 2**s.n - 1 and report.core.exhaustive
        assert report.in_core == report.core.in_core
        four = report.budget.ok and report.ir.ok and report.fairness and report.no_exploitation
        assert report.all_pass == (four and report.core.in_core)
    # the other four properties hold and coalition {0, 2} blocks: the core
    # audit alone fails the split
    s = snap([100, 100, 0, 0], [60, 70, 40, 30])
    alloc = PayoffAllocation([750.0, 900.0, 200.0, 150.0], aggregator_payoff(s))
    report = run_property_checks(alloc, s)
    assert report.budget.ok and report.ir.ok and report.fairness and report.no_exploitation
    assert report.core.worst_coalition == (0, 2)
    assert not report.all_pass


def test_margin_sharpness_short_pool():
    rng = np.random.default_rng(11)
    seen = 0
    while seen < 50:
        s = random_snapshot(rng, n_min=2, n_max=8)
        if s.total_realization >= s.total_contract:
            continue
        seen += 1
        margins = allocate(s).payoffs - separate_payoffs(s)
        dev = s.realizations - s.contracts
        for i in np.flatnonzero(dev < 0.0):
            assert margins[i] == 0.0
        for i in np.flatnonzero(dev >= 0.0):
            assert approx_equal(margins[i], s.prices.spread * dev[i])


def test_margin_sharpness_long_pool():
    rng = np.random.default_rng(12)
    seen = 0
    while seen < 50:
        s = random_snapshot(rng, n_min=2, n_max=8)
        if s.total_realization <= s.total_contract:
            continue
        seen += 1
        margins = allocate(s).payoffs - separate_payoffs(s)
        dev = s.realizations - s.contracts
        for i in np.flatnonzero(dev >= 0.0):
            assert margins[i] == 0.0
        for i in np.flatnonzero(dev < 0.0):
            assert approx_equal(margins[i], -s.prices.spread * dev[i])


def test_margins_sum_to_pooling_gain():
    rng = np.random.default_rng(13)
    for _ in range(200):
        s = random_snapshot(rng)
        margins = allocate(s).payoffs - separate_payoffs(s)
        assert approx_equal(float(margins.sum()), excess_profit(s))


def test_every_admissible_balance_price_stays_in_core():
    """The mechanism fixes the balanced price at the band midpoint, but any
    price in [rt_sell, rt_buy] keeps all five properties on a balanced pool."""
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        contracts = rng.uniform(0.0, 200.0, n)
        realizations = rng.uniform(0.0, 200.0, n)
        # force exact balance by scaling the realizations
        total = realizations.sum()
        if total == 0.0:
            realizations = contracts.copy()
        else:
            realizations = realizations * (contracts.sum() / total)
        s = ScenarioSnapshot.from_arrays(contracts, realizations, P)
        assert allocation.marginal_price(s)[1]
        midpoint = 0.5 * (P.rt_buy + P.rt_sell)
        for price in (P.rt_sell, midpoint, P.rt_buy, float(rng.uniform(P.rt_sell, P.rt_buy))):
            payoffs = P.day_ahead * s.contracts + price * (s.realizations - s.contracts)
            alloc = PayoffAllocation(payoffs, aggregator_payoff(s), price)
            assert run_property_checks(alloc, s).all_pass


def test_zero_spread_collapses_to_separate():
    flat = PriceTriple(day_ahead=10.0, rt_buy=8.0, rt_sell=8.0)
    rng = np.random.default_rng(15)
    for _ in range(50):
        s = random_snapshot(rng, prices=flat)
        np.testing.assert_allclose(allocate(s).payoffs, separate_payoffs(s), atol=1e-12)


class TestContractMismatchCounterexample:
    def test_over_committed_pool_loses(self):
        s = contract_mismatch_counterexample([100.0, 50.0], 200.0, P)
        np.testing.assert_allclose(s.realizations, [50.0, 25.0])
        pool = separate_payoff(200.0, s.total_realization, P)
        assert pool == pytest.approx(125.0)
        gap = pool - float(separate_payoffs(s).sum())
        assert gap == pytest.approx(-250.0)
        assert gap == pytest.approx((P.day_ahead - P.rt_buy) * (200.0 - 150.0))

    def test_under_committed_pool_loses(self):
        s = contract_mismatch_counterexample([100.0, 50.0], 100.0, P)
        assert np.all(s.realizations >= s.contracts)
        gap = separate_payoff(100.0, s.total_realization, P) - float(separate_payoffs(s).sum())
        assert gap == pytest.approx((P.day_ahead - P.rt_sell) * (100.0 - 150.0))
        assert gap < 0.0

    def test_matched_commitment_rejected(self):
        with pytest.raises(ValueError, match="no counterexample"):
            contract_mismatch_counterexample([100.0], 100.0, P)

    @pytest.mark.parametrize("aggregate", [np.nan, np.inf, -50.0], ids=["nan", "inf", "negative"])
    def test_commitment_must_be_finite_and_nonnegative(self, aggregate):
        with pytest.raises(ValueError, match=f"finite and >= 0, got {aggregate}"):
            contract_mismatch_counterexample([100.0, 50.0], aggregate, P)

    def test_price_preconditions(self):
        rich_forward = PriceTriple(day_ahead=20.0, rt_buy=15.0, rt_sell=5.0)
        with pytest.raises(ValueError, match="day_ahead < rt_buy"):
            contract_mismatch_counterexample([100.0], 150.0, rich_forward)
        cheap_forward = PriceTriple(day_ahead=2.0, rt_buy=15.0, rt_sell=5.0)
        with pytest.raises(ValueError, match="day_ahead > rt_sell"):
            contract_mismatch_counterexample([100.0], 50.0, cheap_forward)
