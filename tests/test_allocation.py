import numpy as np
import pytest
from hypothesis import given, settings

from poolpay import (
    ConfigurationError,
    PamConfig,
    PayoffAllocation,
    PriceTriple,
    ScenarioSnapshot,
    aggregator_payoff,
    allocate,
    approx_equal,
    check_budget_balance,
    check_core_membership,
    check_fairness,
    check_individual_rationality,
    check_no_exploitation,
    coalition_value,
    contract_mismatch_counterexample,
    excess_profit,
    partition_surplus_shortfall,
    run_property_checks,
    separate_payoff,
    separate_payoffs,
)

from poolpay import allocation
from conftest import random_snapshot, snapshots

P = PriceTriple(day_ahead=10.0, rt_buy=15.0, rt_sell=5.0)


def snap(contracts, realizations, prices=P):
    return ScenarioSnapshot.from_arrays(contracts, realizations, prices)


def equal_split(snapshot):
    total = aggregator_payoff(snapshot)
    return PayoffAllocation(np.full(snapshot.n, total / snapshot.n), total)


class TestAllocate:
    def test_pool_short(self):
        alloc = allocate(snap([100, 50, 50], [80, 60, 40]))
        np.testing.assert_allclose(alloc.payoffs, [700.0, 650.0, 350.0])
        assert alloc.total == 1700.0
        assert alloc.marginal_price_used == P.rt_buy

    def test_marginal_price_names_the_branch(self):
        config = PamConfig()
        assert config.marginal_price(snap([100, 50], [80, 60])) == (P.rt_buy, False)
        assert config.marginal_price(snap([100, 50], [110, 60])) == (P.rt_sell, False)
        assert config.marginal_price(snap([100, 50], [90, 60])) == (10.0, True)
        # inside the relative band around the total contract counts as balanced
        assert config.marginal_price(snap([100, 50], [90, 60 + 1e-8]))[1]
        assert not config.marginal_price(snap([100, 50], [90, 60 + 1e-6]))[1]

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
        for rule in ("midpoint", "rt_buy", "rt_sell", 7.5):
            alloc = allocate(snap([100], [100]), PamConfig(balance_price_rule=rule))
            assert alloc.payoffs[0] == 1000.0

    def test_balance_rule_variants(self):
        s = snap([100, 50], [80, 70])
        for rule, price in (("rt_buy", 15.0), ("rt_sell", 5.0), (12.0, 12.0)):
            alloc = allocate(s, PamConfig(balance_price_rule=rule))
            assert alloc.marginal_price_used == price
            assert approx_equal(alloc.total, 1500.0)

    def test_explicit_price_outside_band_rejected(self):
        with pytest.raises(ConfigurationError, match="band"):
            allocate(snap([100, 50], [80, 70]), PamConfig(balance_price_rule=20.0))

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            PamConfig(balance_price_rule="median")

    def test_sums_to_pool_payoff(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = random_snapshot(rng)
            alloc = allocate(s)
            assert approx_equal(alloc.total, aggregator_payoff(s))


class TestBudgetBalance:
    def test_mechanism_output_balances(self):
        s = snap([100, 50, 50], [80, 60, 40])
        result = check_budget_balance(allocate(s), s)
        assert result.ok
        assert result.residual == 0.0

    def test_inflated_payoff_detected(self):
        s = snap([100, 50, 50], [80, 60, 40])
        alloc = allocate(s)
        tampered = PayoffAllocation(alloc.payoffs + np.array([1.0, 0.0, 0.0]), alloc.aggregator_total)
        result = check_budget_balance(tampered, s)
        assert not result.ok
        assert result.residual == pytest.approx(1.0)

    def test_zero_producer_snapshot(self):
        s = ScenarioSnapshot.from_arrays([], [], P)
        result = check_budget_balance(PayoffAllocation(np.array([]), 0.0), s)
        assert result.ok
        assert result.residual == 0.0

    def test_length_mismatch(self):
        s = snap([100, 50], [80, 70])
        with pytest.raises(ValueError, match="producers"):
            check_budget_balance(PayoffAllocation(np.array([1.0]), 1.0), s)


class TestIndividualRationality:
    def test_short_pool_margins(self):
        # every shortfall member sits exactly at its stand-alone payoff, the
        # surplus member pockets the spread on its own deviation
        s = snap([100, 50, 50], [80, 60, 40])
        alloc = allocate(s)
        result = check_individual_rationality(alloc, s)
        assert result.ok
        margins = alloc.payoffs - separate_payoffs(s)
        assert margins[0] == 0.0
        assert margins[2] == 0.0
        assert margins[1] == pytest.approx((15.0 - 5.0) * 10.0)

    def test_equal_split_can_fail(self):
        s = snap([100, 0], [0, 0])
        result = check_individual_rationality(equal_split(s), s)
        assert not result.ok
        assert result.worst_index == 1
        assert result.worst_margin == pytest.approx(-250.0)


class TestFairness:
    def test_equal_deviations_equal_margins(self):
        s = snap([100, 50], [90, 40])
        alloc = allocate(s)
        assert check_fairness(alloc, s)
        margins = alloc.payoffs - P.day_ahead * s.contracts
        np.testing.assert_allclose(margins, [-150.0, -150.0])

    def test_unequal_margins_flagged(self):
        s = snap([100, 50], [90, 40])
        uneven = PayoffAllocation(np.array([850.0, 500.0 - 200.0]), aggregator_payoff(s))
        assert not check_fairness(uneven, s)

    def test_vacuous_without_equal_deviations(self):
        s = snap([100, 50], [90, 45])  # deviations 10 and 5
        lopsided = PayoffAllocation(np.array([0.0, 1290.0]), aggregator_payoff(s))
        assert check_fairness(lopsided, s)


class TestNoExploitation:
    def test_mechanism_pays_forward_revenue(self):
        s = snap([100, 50, 30], [80, 50, 40])  # producer 1 delivers exactly
        alloc = allocate(s)
        assert check_no_exploitation(alloc, s)
        assert alloc.payoffs[1] == pytest.approx(500.0)

    def test_bonus_detected(self):
        s = snap([100, 50], [80, 50])
        alloc = allocate(s)
        bonus = PayoffAllocation(alloc.payoffs + np.array([-1.0, 1.0]), alloc.aggregator_total)
        assert not check_no_exploitation(bonus, s)

    def test_vacuous_without_exact_deliverers(self):
        s = snap([100, 50], [90, 45])
        anything = PayoffAllocation(np.array([0.0, 1300.0]), aggregator_payoff(s))
        assert check_no_exploitation(anything, s)


class TestCoreMembership:
    def test_mechanism_in_core(self):
        s = snap([100, 50, 50], [80, 60, 40])
        result = check_core_membership(allocate(s), s)
        assert result.in_core
        assert result.coalitions_checked == 7

    def test_equal_split_blocked_by_strong_producer(self):
        s = snap([100, 0], [100, 0])
        result = check_core_membership(equal_split(s), s)
        assert not result.in_core
        assert result.worst_coalition == (0,)
        assert result.worst_violation == pytest.approx(500.0)

    def test_singleton_forced_by_budget(self):
        s = snap([100], [80])
        good = PayoffAllocation(np.array([700.0]), 700.0)
        assert check_core_membership(good, s).in_core
        bad = PayoffAllocation(np.array([699.0]), 700.0)
        assert not check_core_membership(bad, s).in_core

    def test_exhaustive_refuses_large_pools(self, monkeypatch):
        # a pool of EXHAUSTIVE_LIMIT + 1 producers is sampled, not refused
        rng = np.random.default_rng(0)
        n = allocation.EXHAUSTIVE_LIMIT + 1
        s = random_snapshot(rng, n_min=n, n_max=n)
        result = check_core_membership(allocate(s), s)
        assert result.in_core
        assert not result.exhaustive
        assert result.coalitions_checked == allocation.CORE_SAMPLES
        # a pool of exactly EXHAUSTIVE_LIMIT producers is still enumerated
        monkeypatch.setattr(allocation, "EXHAUSTIVE_LIMIT", 8)
        for n, exhaustive in ((8, True), (9, False)):
            s = random_snapshot(rng, n_min=n, n_max=n)
            assert check_core_membership(allocate(s), s).exhaustive is exhaustive

    def test_sampled_mode(self, monkeypatch):
        monkeypatch.setattr(allocation, "CORE_SAMPLES", 2000)
        rng = np.random.default_rng(1)
        s = random_snapshot(rng, n_min=22, n_max=22)
        result = check_core_membership(allocate(s), s, seed=5)
        assert result.in_core
        assert not result.exhaustive
        assert result.coalitions_checked == 2000

    def test_sampled_mode_finds_planted_violation(self, monkeypatch):
        monkeypatch.setattr(allocation, "CORE_SAMPLES", 500)
        monkeypatch.setattr(allocation, "_CHUNK_ROWS", 64)
        # only producer 0 delivers, and producer 1 is paid 200 of its 1000:
        # every coalition with 0 and without 1 falls short by 200, and the
        # first such draw is the witness
        s = snap([100] + [0] * 20, [100] + [0] * 20)
        alloc = PayoffAllocation(np.array([800.0, 200.0] + [0.0] * 19), 1000.0)
        result = check_core_membership(alloc, s)
        assert not result.in_core
        assert not result.exhaustive
        assert result.coalitions_checked == 500
        assert result.worst_violation == 200.0
        masks = np.concatenate(list(allocation._iter_sampled_masks(s.n, 500, seed=0)))
        first = masks[(masks[:, 0] == 1.0) & (masks[:, 1] == 0.0)][0]
        assert result.worst_coalition == tuple(np.flatnonzero(first).tolist())
        # pools up to EXHAUSTIVE_LIMIT are enumerated, even with more
        # coalitions (511 for 9 producers) than CORE_SAMPLES; the 5-producer
        # pool ties (0, 1) with (0, 1, 2), and the lowest bitmask wins
        tied = snap([100, 50, 20, 30, 40], [100, 50, 20, 30, 40])
        cases = [
            (snap([100, 0], [100, 0]), None),
            (snap([100] + [0] * 8, [100] + [0] * 8), None),
            (tied, PayoffAllocation(np.array([900.0, 400.0, 200.0, 350.0, 450.0]), 2300.0)),
        ]
        for s, alloc in cases:
            alloc = alloc or equal_split(s)
            result = check_core_membership(alloc, s)
            assert not result.in_core
            assert result.exhaustive
            assert result.coalitions_checked == 2**s.n - 1
        assert result.worst_coalition == (0, 1)
        assert result.worst_violation == 200.0

    def test_sampled_mode_scans_in_chunks(self, monkeypatch):
        monkeypatch.setattr(allocation, "CORE_SAMPLES", 500)
        monkeypatch.setattr(allocation, "_CHUNK_ROWS", 64)
        s = snap([210] + [0] * 20, [210] + [0] * 20)
        alloc = equal_split(s)
        result = check_core_membership(alloc, s)
        assert not result.in_core
        assert result.coalitions_checked == 500
        members = list(result.worst_coalition)
        assert result.worst_violation == coalition_value(s, members) - alloc.payoffs[members].sum()
        # a one-producer pool draws the empty coalition half the time; each
        # chunk repairs its own empty rows
        chunks = list(allocation._iter_sampled_masks(1, 500, seed=0))
        assert [len(m) for m in chunks] == [64] * 7 + [52]
        assert all(m.sum(axis=1).min() == 1.0 for m in chunks)


@settings(max_examples=200, deadline=None)
@given(snapshots(max_n=8))
def test_mechanism_satisfies_all_five_properties(s):
    report = run_property_checks(allocate(s), s)
    assert report.budget_balance
    assert report.individual_rationality
    assert report.fairness
    assert report.no_exploitation
    assert report.in_core
    assert report.all_pass


@settings(max_examples=200, deadline=None)
@given(snapshots(max_n=8))
def test_core_implies_individual_rationality(s):
    report = run_property_checks(allocate(s), s)
    if report.in_core:
        assert report.individual_rationality


def test_margin_sharpness_short_pool():
    rng = np.random.default_rng(11)
    seen = 0
    while seen < 50:
        s = random_snapshot(rng, n_min=2, n_max=8)
        if s.total_realization >= s.total_contract:
            continue
        seen += 1
        margins = allocate(s).payoffs - separate_payoffs(s)
        part = partition_surplus_shortfall(s)
        for i in part.shortfall_set:
            assert margins[i] == 0.0
        for i in part.surplus_set:
            expect = s.prices.spread * (s.realizations[i] - s.contracts[i])
            assert approx_equal(margins[i], expect)


def test_margin_sharpness_long_pool():
    rng = np.random.default_rng(12)
    seen = 0
    while seen < 50:
        s = random_snapshot(rng, n_min=2, n_max=8)
        if s.total_realization <= s.total_contract:
            continue
        seen += 1
        margins = allocate(s).payoffs - separate_payoffs(s)
        part = partition_surplus_shortfall(s)
        for i in part.surplus_set:
            assert margins[i] == 0.0
        for i in part.shortfall_set:
            expect = s.prices.spread * (s.contracts[i] - s.realizations[i])
            assert approx_equal(margins[i], expect)


def test_margins_sum_to_pooling_gain():
    rng = np.random.default_rng(13)
    for _ in range(200):
        s = random_snapshot(rng)
        margins = allocate(s).payoffs - separate_payoffs(s)
        assert approx_equal(float(margins.sum()), excess_profit(s))


def test_every_admissible_balance_price_stays_in_core():
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
        for rule in ("rt_sell", "midpoint", "rt_buy"):
            alloc = allocate(s, PamConfig(balance_price_rule=rule))
            assert check_core_membership(alloc, s).in_core


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

    def test_price_preconditions(self):
        rich_forward = PriceTriple(day_ahead=20.0, rt_buy=15.0, rt_sell=5.0)
        with pytest.raises(ValueError, match="day_ahead < rt_buy"):
            contract_mismatch_counterexample([100.0], 150.0, rich_forward)
        cheap_forward = PriceTriple(day_ahead=2.0, rt_buy=15.0, rt_sell=5.0)
        with pytest.raises(ValueError, match="day_ahead > rt_sell"):
            contract_mismatch_counterexample([100.0], 50.0, cheap_forward)
