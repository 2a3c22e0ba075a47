import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolpay import (
    GenerationDistribution,
    PriceTriple,
    critical_quantile,
    error_spread,
    expected_separate_payoff,
    optimal_contract,
    optimal_contracts,
)

from conftest import price_triples
from oracles import mc_payoff_curve, newsvendor_contract, quad_expected_payoff

P = PriceTriple(day_ahead=10.0, rt_buy=15.0, rt_sell=5.0)


class TestCriticalQuantile:
    def test_midpoint_forward_price_gives_half(self):
        assert critical_quantile(P) == 0.5

    def test_interior(self):
        assert critical_quantile(PriceTriple(12.0, 15.0, 5.0)) == pytest.approx(0.7)

    def test_clamped_high(self):
        assert critical_quantile(PriceTriple(20.0, 15.0, 5.0)) == 1.0

    def test_clamped_low(self):
        assert critical_quantile(PriceTriple(4.0, 15.0, 5.0)) == 0.0

    def test_zero_spread_degenerates(self):
        assert critical_quantile(PriceTriple(7.0, 8.0, 8.0)) == 0.0
        assert critical_quantile(PriceTriple(8.0, 8.0, 8.0)) == 0.0
        assert critical_quantile(PriceTriple(9.0, 8.0, 8.0)) == 1.0

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            sell = rng.uniform(-20, 20)
            prices = PriceTriple(rng.uniform(-30, 50), sell + rng.uniform(0, 40), sell)
            assert 0.0 <= critical_quantile(prices) <= 1.0

    def test_half_whenever_forward_price_is_the_rt_midpoint(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            sell = rng.uniform(-20, 20)
            buy = sell + rng.uniform(0.5, 40)
            prices = PriceTriple((buy + sell) / 2.0, buy, sell)
            assert critical_quantile(prices) == pytest.approx(0.5)

    def test_matches_mc_grid_argmax(self):
        """The quantile formula must agree with brute-force expected-payoff
        maximization over a contract grid (the module's main correctness risk)."""
        rng = np.random.default_rng(32)
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        sample = dist.sample(200_000, rng)
        grid = np.linspace(0.0, 200.0, 401)
        for prices in (P, PriceTriple(12.0, 15.0, 5.0), PriceTriple(8.0, 20.0, -5.0)):
            mean, se = mc_payoff_curve(sample, grid, prices)
            best_grid = grid[int(np.argmax(mean))]
            closed_form = optimal_contract(dist, prices)
            assert abs(closed_form - best_grid) <= 2.0  # within a few grid steps


class TestOptimalContract:
    def test_symmetric_prices_pick_the_mean(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        assert optimal_contract(dist, P) == pytest.approx(100.0, abs=0.01)

    def test_seventy_percent_quantile(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        value = optimal_contract(dist, PriceTriple(12.0, 15.0, 5.0))
        assert value == pytest.approx(110.49, abs=0.01)

    def test_deterministic_generation(self):
        dist = GenerationDistribution(mean=80.0, std_dev=0.0)
        assert optimal_contract(dist, P) == 80.0

    def test_quantile_zero_maps_to_lower_bound(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        value = optimal_contract(dist, PriceTriple(4.0, 15.0, 5.0))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_quantile_one_needs_a_cap(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        prices = PriceTriple(20.0, 15.0, 5.0)
        with pytest.raises(ValueError, match="cap"):
            optimal_contract(dist, prices)
        bounded = GenerationDistribution(mean=100.0, std_dev=20.0, upper_bound=150.0)
        assert optimal_contract(bounded, prices) == 150.0
        capped = GenerationDistribution(mean=100.0, std_dev=20.0, upper_bound=130.0)
        assert optimal_contract(capped, prices) == 130.0

    def test_never_negative(self):
        # with the mean far below zero, scipy 1.17 puts this tiny quantile
        # level a few ulps below 0; the contract floor keeps it at +0.0 or above
        dist = GenerationDistribution(mean=-33.5709416720468, std_dev=0.624855462992385)
        value = optimal_contract(dist, PriceTriple(6.712061290134014e-15, 1.0, 0.0))
        assert value >= 0.0 and math.copysign(1.0, value) == 1.0
        wide = GenerationDistribution(mean=5.0, std_dev=50.0)
        assert optimal_contract(wide, PriceTriple(6.0, 15.0, 5.0)) >= 0.0

    def test_monotone_in_forward_price(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        values = [
            optimal_contract(dist, PriceTriple(pf, 15.0, 5.0))
            for pf in np.linspace(5.5, 14.5, 19)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_in_mean(self):
        prices = PriceTriple(12.0, 15.0, 5.0)
        values = [
            optimal_contract(GenerationDistribution(mean=m, std_dev=20.0), prices)
            for m in np.linspace(50.0, 150.0, 21)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_beats_grid_by_monte_carlo(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            mean = rng.uniform(40.0, 160.0)
            std = rng.uniform(5.0, 40.0)
            sell = rng.uniform(-10.0, 10.0)
            buy = sell + rng.uniform(1.0, 25.0)
            pf = sell + rng.uniform(-0.1, 0.95) * (buy - sell)
            prices = PriceTriple(pf, buy, sell)
            dist = GenerationDistribution(mean=mean, std_dev=std)
            star = optimal_contract(dist, prices)
            sample = dist.sample(200_000, rng)
            grid = np.linspace(0.0, mean + 4.0 * std, 200)
            grid_mean, grid_se = mc_payoff_curve(sample, grid, prices)
            star_mean, star_se = mc_payoff_curve(sample, [star], prices)
            band = 3.0 * (grid_se + star_se[0])
            assert np.all(star_mean[0] >= grid_mean - band)


class TestGenerationDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationDistribution(mean=100.0, std_dev=-1.0)
        for cap in (-5.0, math.nan):
            with pytest.raises(ValueError, match="upper_bound"):
                GenerationDistribution(mean=100.0, std_dev=1.0, upper_bound=cap)

    def test_samples_respect_truncation(self):
        rng = np.random.default_rng(34)
        dist = GenerationDistribution(mean=10.0, std_dev=30.0, upper_bound=25.0)
        draws = dist.sample(10_000, rng)
        assert draws.min() >= 0.0
        assert draws.max() <= 25.0

    def test_quantiles_respect_truncation(self):
        # critical quantile levels 0, 1 and 0.5
        prices = [PriceTriple(5.0, 15.0, 5.0), PriceTriple(15.0, 15.0, 5.0), P]
        low, high, mid = optimal_contracts([[10.0]] * 3, [30.0], prices, upper_bound=25.0)[:, 0]
        assert low == 0.0
        assert high == 25.0
        assert 0.0 < mid < 25.0

    def test_quantile_inverts_cdf(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        prices = [PriceTriple(5.0 + 10.0 * q, 15.0, 5.0) for q in (0.05, 0.3, 0.5, 0.7, 0.95)]
        contracts = optimal_contracts([[dist.mean]] * len(prices), [dist.std_dev], prices)
        for level, contract in zip(map(critical_quantile, prices), contracts[:, 0]):
            assert dist.cdf(contract) == pytest.approx(level, abs=1e-10)

    def test_truncation_shifts_the_median(self):
        # the untruncated median is the mean, 10.0
        assert optimal_contracts([[10.0]], [20.0], [P])[0, 0] > 10.0


@st.composite
def contract_blocks(draw):
    """(means, std_devs, prices, upper_bound) for a block of up to 6 x 5 cells:
    negative and zero means, zero spreads, and per-hour prices whose critical
    quantile levels fall below 0, inside (0, 1) and at or above 1."""
    hours, producers = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    mean = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-100.0, 300.0))
    spread = st.one_of(st.just(0.0), st.floats(1e-3, 80.0))
    row = st.lists(mean, min_size=producers, max_size=producers)
    means = draw(st.lists(row, min_size=hours, max_size=hours))
    std_devs = draw(st.lists(spread, min_size=producers, max_size=producers))
    prices = draw(st.lists(price_triples(), min_size=hours, max_size=hours))
    upper_bound = draw(st.one_of(st.sampled_from([math.inf, 0.0]), st.floats(0.0, 400.0)))
    return means, std_devs, prices, upper_bound


class TestOptimalContracts:
    @settings(max_examples=300, deadline=None)
    @given(contract_blocks())
    # a cap of 0 makes the truncation interval empty: scipy answers NaN
    @example(([[-20.0, 30.0]], [5.0, 5.0], [P], 0.0))
    # q <= 0, q in (0, 1) and q >= 1 rows with a cap, and a zero spread
    @example(([[40.0, -3.0]] * 3, [0.0, 7.5], [PriceTriple(4.0, 15.0, 5.0), P,
                                               PriceTriple(20.0, 15.0, 5.0)], 60.0))
    # a q >= 1 row without a cap
    @example(([[40.0]] * 2, [5.0], [P, PriceTriple(15.0, 15.0, 5.0)], math.inf))
    def test_block_matches_per_cell_oracle_bit_for_bit(self, block):
        means, std_devs, prices, upper_bound = block
        levels = [critical_quantile(p) for p in prices]
        if upper_bound == math.inf and max(levels) >= 1.0:
            with pytest.raises(ValueError, match="finite upper_bound cap"):
                optimal_contracts(means, std_devs, prices, upper_bound)
            return
        got = optimal_contracts(means, std_devs, prices, upper_bound)
        want = np.array([
            [newsvendor_contract(mean, std_dev, q, upper_bound)
             for mean, std_dev in zip(row, std_devs)]
            for row, q in zip(means, levels)
        ])
        # compared as bytes, so NaN or a -0.0 in either block counts too
        assert got.tobytes() == want.tobytes()

    def test_scalar_contract_is_the_one_by_one_block(self):
        dist = GenerationDistribution(mean=-33.5709416720468, std_dev=0.624855462992385)
        prices = PriceTriple(6.712061290134014e-15, 1.0, 0.0)
        block = optimal_contracts([[dist.mean]], [dist.std_dev], [prices])
        assert optimal_contract(dist, prices) == block[0, 0] == newsvendor_contract(
            dist.mean, dist.std_dev, critical_quantile(prices)
        )

    @pytest.mark.parametrize(
        "means, std_devs, upper_bound",
        [([[math.nan]], [1.0], math.inf), ([[1.0]], [-1.0], math.inf),
         ([[1.0]], [math.nan], math.inf), ([[1.0]], [1.0], -5.0), ([[1.0]], [1.0], math.nan)],
        ids=["nan-mean", "negative-spread", "nan-spread", "negative-cap", "nan-cap"],
    )
    def test_validation(self, means, std_devs, upper_bound):
        with pytest.raises(ValueError, match="must be"):
            optimal_contracts(means, std_devs, [P], upper_bound)


class TestFitDistribution:
    """One hour's generation model: the forecast is the mean and the spread of
    past forecast errors, from ``error_spread``, is the standard deviation."""

    def test_error_spread(self):
        spread = error_spread([[100.0], [100.0], [100.0]], [[90.0], [100.0], [110.0]])
        dist = GenerationDistribution(mean=100.0, std_dev=float(spread[0]))
        assert dist.mean == 100.0
        assert dist.std_dev == pytest.approx(10.0)

    def test_identical_pairs_give_zero_spread(self):
        assert error_spread([[50.0]] * 5, [[50.0]] * 5)[0] == 0.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            error_spread(np.empty((0, 1)), np.empty((0, 1)))

    def test_single_observation_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            error_spread([[100.0]], [[90.0]])

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            error_spread([[100.0], [100.0]], [[100.0], [-1.0]])

    def test_one_spread_per_producer_column(self):
        forecasts = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        actuals = np.array([[12.0, 1.0], [18.0, 2.0], [30.0, 6.0]])
        spread = error_spread(forecasts, actuals)
        for pi in range(2):
            expect = np.std(actuals[:, pi] - forecasts[:, pi], ddof=1)
            assert spread[pi] == pytest.approx(expect, rel=1e-15)


class TestExpectedSeparatePayoff:
    def test_degenerate_distribution(self):
        dist = GenerationDistribution(mean=100.0, std_dev=0.0)
        assert expected_separate_payoff(dist, 100.0, P, samples=10) == 1000.0

    def test_zero_contract_zero_salvage(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        prices = PriceTriple(10.0, 15.0, 0.0)
        assert expected_separate_payoff(dist, 0.0, prices, samples=1000) == 0.0

    def test_deterministic_given_seed(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        a = expected_separate_payoff(dist, 90.0, P, samples=5000, seed=7)
        b = expected_separate_payoff(dist, 90.0, P, samples=5000, seed=7)
        c = expected_separate_payoff(dist, 90.0, P, samples=5000, seed=8)
        assert a == b
        assert a != c

    def test_matches_quadrature_within_three_standard_errors(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        samples = 1_000_000
        mc = expected_separate_payoff(dist, 100.0, P, samples=samples, seed=42)
        exact = quad_expected_payoff(dist, 100.0, P)
        rng = np.random.default_rng(42)
        draws = dist.sample(samples, rng)
        payoffs = (
            P.day_ahead * 100.0
            - P.rt_buy * np.maximum(100.0 - draws, 0.0)
            + P.rt_sell * np.maximum(draws - 100.0, 0.0)
        )
        se = payoffs.std(ddof=1) / math.sqrt(samples)
        assert abs(mc - exact) <= 3.0 * se

    def test_rejects_bad_arguments(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        with pytest.raises(ValueError):
            expected_separate_payoff(dist, 100.0, P, samples=0)
        with pytest.raises(ValueError):
            expected_separate_payoff(dist, -1.0, P, samples=10)
