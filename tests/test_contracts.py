import math

import numpy as np
import pytest

from poolpay import (
    GenerationDistribution,
    PriceTriple,
    critical_quantile,
    error_spread,
    expected_separate_payoff,
    optimal_contract,
)

from oracles import mc_payoff_curve, quad_expected_payoff

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
        dist = GenerationDistribution(mean=100.0, std_dev=20.0, lower_bound=10.0)
        assert optimal_contract(dist, PriceTriple(4.0, 15.0, 5.0)) == 10.0

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
        untruncated = GenerationDistribution(
            mean=5.0, std_dev=50.0, lower_bound=-math.inf
        )
        assert optimal_contract(untruncated, PriceTriple(6.0, 15.0, 5.0)) >= 0.0

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
        with pytest.raises(ValueError):
            GenerationDistribution(mean=100.0, std_dev=1.0, lower_bound=10.0, upper_bound=5.0)

    def test_samples_respect_truncation(self):
        rng = np.random.default_rng(34)
        dist = GenerationDistribution(mean=10.0, std_dev=30.0, lower_bound=0.0, upper_bound=25.0)
        draws = dist.sample(10_000, rng)
        assert draws.min() >= 0.0
        assert draws.max() <= 25.0

    def test_quantiles_respect_truncation(self):
        dist = GenerationDistribution(mean=10.0, std_dev=30.0, lower_bound=0.0, upper_bound=25.0)
        assert dist.quantile(0.0) == 0.0
        assert dist.quantile(1.0) == 25.0
        assert 0.0 < dist.quantile(0.5) < 25.0

    def test_quantile_inverts_cdf(self):
        dist = GenerationDistribution(mean=100.0, std_dev=20.0)
        for q in (0.05, 0.3, 0.5, 0.7, 0.95):
            assert dist.cdf(dist.quantile(q)) == pytest.approx(q, abs=1e-10)

    def test_truncation_shifts_the_median(self):
        censored = GenerationDistribution(mean=10.0, std_dev=20.0, lower_bound=0.0)
        plain = GenerationDistribution(mean=10.0, std_dev=20.0, lower_bound=-math.inf)
        assert censored.quantile(0.5) > plain.quantile(0.5)
        assert plain.quantile(0.5) == pytest.approx(10.0, abs=1e-9)


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
