import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolpay import (
    PriceTriple,
    ScenarioSnapshot,
    allocate,
    approx_equal,
    best_response_set,
    coalition_value,
    optimal_redistribution,
    run_property_checks,
    separate_payoff,
    solve_competitive_equilibrium,
    verify_game_equivalence,
    PayoffAllocation,
    aggregator_payoff,
)

from poolpay import equilibrium
from conftest import random_snapshot, snapshots
from oracles import greedy_reallocation

P = PriceTriple(day_ahead=10.0, rt_buy=15.0, rt_sell=5.0)


def snap(contracts, realizations, prices=P):
    return ScenarioSnapshot.from_arrays(contracts, realizations, prices)


def grid_best_pair_value(c1, c2, prices, total, points=10_000):
    """Brute-force two-member reallocation: scan z1 over a dense grid."""
    z1 = np.linspace(0.0, total, points + 1)
    values = [
        separate_payoff(c1, float(a), prices) + separate_payoff(c2, float(total - a), prices)
        for a in z1
    ]
    return max(values)


# The money a member makes from the energy it holds is its stand-alone
# settlement with the contract fixed; these tests pin that function down.
class TestProductionFunction:
    def test_matches_separate_payoff(self):
        assert separate_payoff(100.0, 100.0, P) == 1000.0
        assert separate_payoff(100.0, 60.0, P) == 400.0
        assert separate_payoff(100.0, 140.0, P) == 1200.0

    def test_concave_piecewise_slopes(self):
        def f(z):
            return separate_payoff(100.0, z, P)

        h = 1e-6
        below = (f(50.0 + h) - f(50.0 - h)) / (2 * h)
        above = (f(150.0 + h) - f(150.0 - h)) / (2 * h)
        assert below == pytest.approx(P.rt_buy, abs=1e-5)
        assert above == pytest.approx(P.rt_sell, abs=1e-5)

    def test_rejects_negative_contract(self):
        with pytest.raises(ValueError, match="contract must be >= 0"):
            best_response_set(-1.0, P, 10.0)

    @pytest.mark.parametrize("contract", [math.nan, -math.inf], ids=["nan", "minus-inf"])
    def test_rejects_contract_not_at_least_zero(self, contract):
        with pytest.raises(ValueError, match=f"contract must be >= 0, got {contract}"):
            best_response_set(contract, P, 10.0)

    @pytest.mark.parametrize(
        "contract, price, name, value",
        [(math.inf, 12.0, "contract", "inf"), (50.0, math.nan, "price", "nan"),
         (50.0, math.inf, "price", "inf"), (50.0, -math.inf, "price", "-inf")],
        ids=["inf-contract", "nan-price", "inf-price", "minus-inf-price"],
    )
    def test_rejects_non_finite_arguments(self, contract, price, name, value):
        # a NaN price fails every comparison and fell through to the in-band answer
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}$"):
            best_response_set(contract, P, price)


class TestBestResponseSet:
    def test_at_buy_price_any_holding_up_to_contract(self):
        interval = best_response_set(100.0, P, 15.0)
        assert (interval.lower, interval.upper) == (0.0, 100.0)

    def test_at_sell_price_anything_from_contract_up(self):
        interval = best_response_set(100.0, P, 5.0)
        assert interval.lower == 100.0
        assert math.isinf(interval.upper)

    def test_interior_price_pins_to_contract(self):
        interval = best_response_set(100.0, P, 10.0)
        assert (interval.lower, interval.upper) == (100.0, 100.0)

    def test_price_above_buy_dumps_everything(self):
        interval = best_response_set(100.0, P, 22.0)
        assert (interval.lower, interval.upper) == (0.0, 0.0)
        assert not interval.is_empty

    def test_price_below_sell_has_no_maximizer(self):
        interval = best_response_set(100.0, P, 1.0)
        assert interval.is_empty
        assert not interval.contains(100.0)

    def test_flat_prices(self):
        flat = PriceTriple(day_ahead=10.0, rt_buy=8.0, rt_sell=8.0)
        everything = best_response_set(100.0, flat, 8.0)
        assert everything.lower == 0.0 and math.isinf(everything.upper)
        assert best_response_set(100.0, flat, 9.0).upper == 0.0
        assert best_response_set(100.0, flat, 7.0).is_empty

    def test_interval_argmax_verified_on_grid(self):
        # every claimed-optimal holding must beat every grid point
        endowment = 80.0
        grid = np.linspace(0.0, 400.0, 4001)
        for price, inside in ((15.0, 50.0), (10.0, 100.0), (5.0, 250.0)):
            interval = best_response_set(100.0, P, price)
            assert interval.contains(inside)
            best = max(
                separate_payoff(100.0, float(z), P) - price * (float(z) - endowment) for z in grid
            )
            claimed = separate_payoff(100.0, inside, P) - price * (inside - endowment)
            assert claimed >= best - 1e-9 * max(1.0, abs(best))


def test_prices_outside_band_cannot_clear():
    # above rt_buy everyone dumps to zero holdings, below rt_sell nobody has
    # a best response at all; either way total holdings cannot match the
    # total realization, so no such price clears the market
    s = snap([100, 50], [80, 70])
    high = [best_response_set(float(c), s.prices, 20.0) for c in s.contracts]
    assert all(iv.upper == 0.0 for iv in high)
    assert sum(iv.upper for iv in high) < s.total_realization
    low = [best_response_set(float(c), s.prices, 1.0) for c in s.contracts]
    assert all(iv.is_empty for iv in low)


class TestOptimalRedistribution:
    def test_offsetting_pair(self):
        holdings, value = optimal_redistribution(snap([100, 50], [80, 70]), [0, 1])
        np.testing.assert_allclose(holdings, [100.0, 50.0])
        assert value == 1500.0
        assert value == coalition_value(snap([100, 50], [80, 70]), [0, 1])

    def test_short_coalition_pins_surplus_member(self):
        s = snap([100, 50, 50], [80, 60, 40])
        holdings, value = optimal_redistribution(s, [0, 1, 2])
        assert value == pytest.approx(1700.0)
        assert holdings[1] == 50.0  # surplus member pinned to its contract
        np.testing.assert_allclose(holdings, [90.0, 50.0, 40.0])
        assert holdings.sum() == pytest.approx(s.total_realization)

    def test_singleton_keeps_own_power(self):
        s = snap([100, 50], [80, 70])
        holdings, value = optimal_redistribution(s, [1])
        np.testing.assert_allclose(holdings, [70.0])
        assert value == separate_payoff(50.0, 70.0, P)

    def test_empty_coalition_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            optimal_redistribution(snap([100], [80]), [])

    def test_quantities_stay_nonnegative_and_feasible(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            s = random_snapshot(rng, n_max=6)
            members = tuple(range(s.n))
            holdings, _ = optimal_redistribution(s, members)
            assert holdings.shape == (s.n,)
            assert np.all(holdings >= 0.0)
            assert approx_equal(float(holdings.sum()), s.total_realization)

    def test_two_member_value_matches_grid_search(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            s = random_snapshot(rng, n_min=2, n_max=2)
            c1, c2 = float(s.contracts[0]), float(s.contracts[1])
            total = s.total_realization
            _, value = optimal_redistribution(s, [0, 1])
            grid_value = grid_best_pair_value(c1, c2, s.prices, total, points=2000)
            step = total / 2000 if total else 0.0
            resolution = step * (abs(s.prices.rt_buy) + abs(s.prices.rt_sell))
            assert value >= grid_value - 1e-9 * max(1.0, abs(grid_value))
            assert value <= grid_value + resolution + 1e-9


_ENERGY = st.one_of(
    st.integers(0, 4).map(float), st.floats(0.0, 300.0).map(lambda v: round(v, 6))
)


@st.composite
def greedy_cases(draw):
    """Contracts and realizations of 1-12 members: idle members, exact
    deliveries and free draws, with short, long or balanced totals (a
    balanced pool delivers its contracts in another order), and some zero
    realizations written as -0.0."""
    n = draw(st.integers(1, 12))
    contracts, realizations = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["idle", "exact", "free", "free"]))
        c = 0.0 if kind == "idle" else draw(_ENERGY)
        contracts.append(c)
        realizations.append(c if kind in ("idle", "exact") else draw(_ENERGY))
    if draw(st.booleans()):
        realizations = draw(st.permutations(contracts))
    realizations = [-0.0 if x == 0.0 and draw(st.booleans()) else x for x in realizations]
    return np.array(contracts), np.array(realizations)


@settings(max_examples=300, deadline=None)
@given(greedy_cases())
@example((np.array([0.0, 0.0]), np.array([1.0, -0.0])))  # spent at once: -0.0 stays
@example((np.array([3.0, 1.0, 0.0]), np.array([1.0, 2.0, -0.0])))
def test_greedy_sweep_matches_two_loop_oracle_bit_for_bit(case):
    c, x = case
    # bytes, so the sign of every zero counts
    assert equilibrium._greedy_reallocation(c, x).tobytes() == greedy_reallocation(c, x).tobytes()


class TestGameEquivalence:
    def test_random_snapshots(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            assert verify_game_equivalence(random_snapshot(rng, n_max=6))

    def test_single_producer(self):
        assert verify_game_equivalence(snap([100], [80]))

    def test_flat_prices(self):
        flat = PriceTriple(day_ahead=10.0, rt_buy=8.0, rt_sell=8.0)
        assert verify_game_equivalence(snap([100, 50, 20], [80, 70, 10], flat))

    def test_limit_enforced(self):
        rng = np.random.default_rng(24)
        s = random_snapshot(rng, n_min=21, n_max=21)
        with pytest.raises(ValueError, match="exhaustive"):
            verify_game_equivalence(s)


class TestCompetitiveEquilibrium:
    def test_short_pool(self):
        ce = solve_competitive_equilibrium(snap([100, 50, 50], [80, 60, 40]))
        assert ce.price == 15.0
        np.testing.assert_allclose(ce.payoffs, [700.0, 650.0, 350.0])

    def test_long_pool(self):
        ce = solve_competitive_equilibrium(snap([100, 50, 50], [110, 60, 50]))
        assert ce.price == 5.0
        np.testing.assert_allclose(ce.payoffs, [1050.0, 550.0, 500.0])

    def test_balanced_pool(self):
        ce = solve_competitive_equilibrium(snap([100, 50], [80, 70]))
        assert ce.price == 10.0
        np.testing.assert_allclose(ce.holdings, [100.0, 50.0])
        np.testing.assert_allclose(ce.payoffs, [800.0, 700.0])

    def test_market_clears(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            s = random_snapshot(rng)
            ce = solve_competitive_equilibrium(s)
            assert ce.holdings.shape == (s.n,)
            assert np.all(ce.holdings >= 0.0)
            assert approx_equal(float(ce.holdings.sum()), s.total_realization)

    def test_holdings_are_best_responses(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            s = random_snapshot(rng)
            ce = solve_competitive_equilibrium(s)
            for k in range(s.n):
                response = best_response_set(float(s.contracts[k]), s.prices, ce.price)
                assert response.contains(float(ce.holdings[k]))

    def test_payoffs_in_core(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            s = random_snapshot(rng, n_max=8)
            ce = solve_competitive_equilibrium(s)
            alloc = PayoffAllocation(ce.payoffs, aggregator_payoff(s))
            assert run_property_checks(alloc, s).in_core


@settings(max_examples=200, deadline=None)
@given(snapshots(max_n=8))
def test_competitive_payoffs_equal_marginal_price_allocation(s):
    ce = solve_competitive_equilibrium(s)
    pam = allocate(s)
    assert ce.price == pam.marginal_price_used
    for a, b in zip(ce.payoffs, pam.payoffs):
        assert approx_equal(float(a), float(b))


def test_identity_holds_in_every_balance_case_and_rule():
    rng = np.random.default_rng(28)
    for case in ("short", "long", "balanced"):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            contracts = rng.uniform(0.0, 200.0, n)
            realizations = rng.uniform(0.0, 200.0, n)
            if case == "balanced":
                total = realizations.sum()
                realizations = (
                    contracts.copy() if total == 0.0
                    else realizations * (contracts.sum() / total)
                )
            elif case == "short":
                realizations = np.minimum(realizations, contracts * 0.9)
            else:
                realizations = contracts + realizations + 1.0
            s = ScenarioSnapshot.from_arrays(contracts, realizations, P)
            ce = solve_competitive_equilibrium(s)
            pam = allocate(s)
            assert ce.price == pam.marginal_price_used
            for a, b in zip(ce.payoffs, pam.payoffs):
                assert approx_equal(float(a), float(b))
