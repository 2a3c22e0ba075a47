import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from poolpay import PriceTriple, critical_quantile, error_spread, optimal_contracts
from poolpay.cli import EXIT_OK, main
from poolpay.contracts import _truncnorm_ppf

from conftest import price_triples
from oracles import mc_payoff_curve, newsvendor_contract, quad_expected_payoff, truncated_normal

P = PriceTriple(day_ahead=10.0, rt_buy=15.0, rt_sell=5.0)


def contract(mean, std_dev, prices, upper_bound=math.inf):
    """One producer's hour, sized as the 1 x 1 block."""
    return optimal_contracts([[mean]], [std_dev], [prices], upper_bound)[0, 0]


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
        sample = truncated_normal(100.0, 20.0).rvs(size=200_000, random_state=rng)
        grid = np.linspace(0.0, 200.0, 401)
        for prices in (P, PriceTriple(12.0, 15.0, 5.0), PriceTriple(8.0, 20.0, -5.0)):
            mean, se = mc_payoff_curve(sample, grid, prices)
            best_grid = grid[int(np.argmax(mean))]
            closed_form = contract(100.0, 20.0, prices)
            assert abs(closed_form - best_grid) <= 2.0  # within a few grid steps


class TestOptimalContract:
    def test_symmetric_prices_pick_the_mean(self):
        assert contract(100.0, 20.0, P) == pytest.approx(100.0, abs=0.01)

    def test_seventy_percent_quantile(self):
        value = contract(100.0, 20.0, PriceTriple(12.0, 15.0, 5.0))
        assert value == pytest.approx(110.49, abs=0.01)

    def test_deterministic_generation(self):
        assert contract(80.0, 0.0, P) == 80.0

    def test_quantile_zero_maps_to_lower_bound(self):
        value = contract(100.0, 20.0, PriceTriple(4.0, 15.0, 5.0))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_quantile_one_needs_a_cap(self):
        prices = PriceTriple(20.0, 15.0, 5.0)
        with pytest.raises(ValueError, match="cap"):
            contract(100.0, 20.0, prices)
        assert contract(100.0, 20.0, prices, upper_bound=150.0) == 150.0
        assert contract(100.0, 20.0, prices, upper_bound=130.0) == 130.0

    def test_never_negative(self):
        # with the mean far below zero, scipy 1.17 puts this tiny quantile
        # level a few ulps below 0; the contract floor keeps it at +0.0 or above
        value = contract(-33.5709416720468, 0.624855462992385,
                         PriceTriple(6.712061290134014e-15, 1.0, 0.0))
        assert value >= 0.0 and math.copysign(1.0, value) == 1.0
        assert contract(5.0, 50.0, PriceTriple(6.0, 15.0, 5.0)) >= 0.0

    def test_monotone_in_forward_price(self):
        values = [contract(100.0, 20.0, PriceTriple(pf, 15.0, 5.0))
                  for pf in np.linspace(5.5, 14.5, 19)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_in_mean(self):
        prices = PriceTriple(12.0, 15.0, 5.0)
        values = [contract(m, 20.0, prices) for m in np.linspace(50.0, 150.0, 21)]
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
            star = contract(mean, std, prices)
            sample = truncated_normal(mean, std).rvs(size=200_000, random_state=rng)
            grid = np.linspace(0.0, mean + 4.0 * std, 200)
            grid_mean, grid_se = mc_payoff_curve(sample, grid, prices)
            star_mean, star_se = mc_payoff_curve(sample, [star], prices)
            band = 3.0 * (grid_se + star_se[0])
            assert np.all(star_mean[0] >= grid_mean - band)


class TestGenerationDistribution:
    """The generation model of each cell: a normal on the forecast with the
    training spread, truncated to [0, upper_bound]."""

    def test_validation(self):
        with pytest.raises(ValueError):
            contract(100.0, -1.0, P)
        for cap in (-5.0, math.nan):
            with pytest.raises(ValueError, match="upper_bound"):
                contract(100.0, 1.0, P, upper_bound=cap)

    def test_quantiles_respect_truncation(self):
        # critical quantile levels 0, 1 and 0.5
        prices = [PriceTriple(5.0, 15.0, 5.0), PriceTriple(15.0, 15.0, 5.0), P]
        low, high, mid = optimal_contracts([[10.0]] * 3, [30.0], prices, upper_bound=25.0)[:, 0]
        assert low == 0.0
        assert high == 25.0
        assert 0.0 < mid < 25.0

    def test_quantile_inverts_cdf(self):
        prices = [PriceTriple(5.0 + 10.0 * q, 15.0, 5.0) for q in (0.05, 0.3, 0.5, 0.7, 0.95)]
        contracts = optimal_contracts([[100.0]] * len(prices), [20.0], prices)
        cdf = truncated_normal(100.0, 20.0).cdf
        for level, value in zip(map(critical_quantile, prices), contracts[:, 0]):
            assert cdf(value) == pytest.approx(level, abs=1e-10)

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

    def test_scalar_contract_is_the_one_by_one_block(self, capsys):
        mean, std_dev = -33.5709416720468, 0.624855462992385
        prices = PriceTriple(6.712061290134014e-15, 1.0, 0.0)
        code = main(["contract", "--mean", repr(mean), "--std", repr(std_dev),
                     "--pf", repr(prices.day_ahead), "--prb", "1.0", "--prs", "0.0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        printed = float(out.split("optimal_contract_mwh: ")[1])
        block = optimal_contracts([[mean]], [std_dev], [prices])
        assert printed == block[0, 0] == newsvendor_contract(
            mean, std_dev, critical_quantile(prices)
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

    @pytest.mark.parametrize("mean, std_dev", [(1e20, 1.0), (50.0, 1e-320), (1e308, 1e-300)])
    def test_mean_far_above_the_cap_commits_the_cap(self, capsys, mean, std_dev):
        # both z-scores round to one value, so the truncation interval is
        # empty in floats; all the mass sits at the cap
        assert contract(mean, std_dev, P, upper_bound=5.0) == 5.0
        code = main(["contract", "--mean", repr(mean), "--std", repr(std_dev), "--cap", "5",
                     "--pf", "10", "--prb", "15", "--prs", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "optimal_contract_mwh: 5.0\n" in captured.out
        assert captured.err == ""

    def test_empty_interval_below_zero_or_at_cap_0_commits_nothing(self):
        # a mean far below 0, or any mean under a cap of 0, still commits +0.0
        means, std_devs = [[-1e20, 1e20, -5.0, 50.0]], [1.0, 1.0, 2.0, 1e-320]
        block = optimal_contracts(means, std_devs, [P], 0.0)
        assert block.tobytes() == np.zeros((1, 4)).tobytes()
        block = optimal_contracts(means, std_devs, [P], 5.0)
        assert block[0, [0, 1, 3]].tobytes() == np.array([0.0, 5.0, 5.0]).tobytes()


def _z_scores(mean, std_dev, upper_bound):
    """The truncation bounds in standard deviations, as ``optimal_contracts``
    computes them; a spread near 0 sends them to +-inf."""
    with np.errstate(over="ignore"):
        return (0.0 - mean) / std_dev, (upper_bound - mean) / std_dev


@st.composite
def ppf_cells(draw):
    """1-40 cells of the port's domain, as arrays (q, a, b, loc, scale):
    levels in (0, 1) down to a few ulps from either end, means of either
    sign, spreads from e^-8 to e^5, and caps of 0, finite or none."""
    n = draw(st.integers(1, 40))
    level = st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([5e-324, 1.5e-323, 1.0 - 2.0**-53, 1.0 - 3 * 2.0**-53]),
    )
    mean = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-300.0, 300.0))
    spread = st.floats(-8.0, 5.0).map(math.exp)
    cap = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.0, 400.0))
    cells = draw(st.lists(st.tuples(level, mean, spread, cap), min_size=n, max_size=n))
    q, loc, scale, upper_bound = map(np.array, zip(*cells))
    return (q, *_z_scores(loc, scale, upper_bound), loc, scale)


def _cases(a, b):
    """The port's branch, then ``_log_gauss_mass``'s case, for one cell."""
    if not a < b:
        return "empty"
    mass = "left" if b <= 0 else "right" if a > 0 else "central"
    return ("left" if a < 0 else "right") + "/" + mass


class TestTruncnormPort:
    """``_truncnorm_ppf`` against ``scipy.stats.truncnorm.ppf``, as bytes."""

    @settings(max_examples=300, deadline=None)
    @given(ppf_cells())
    def test_matches_scipy_bit_for_bit(self, cells):
        q, a, b, loc, scale = cells
        want = stats.truncnorm.ppf(q, a, b, loc=loc, scale=scale)
        assert _truncnorm_ppf(q, a, b, loc, scale).tobytes() == want.tobytes()

    @pytest.mark.parametrize("q, mean, std_dev, upper_bound, case", [
        pytest.param(0.3, -5.0, 2.0, 0.0, "empty", id="cap-0-negative-mean"),
        pytest.param(0.3, 50.0, 20.0, math.inf, "left/central", id="no-cap"),
        pytest.param(0.3, 50.0, 20.0, 40.0, "left/left", id="a<0-left-mass"),
        pytest.param(0.3, 30.0, 20.0, 40.0, "left/central", id="a<0-central-mass"),
        pytest.param(0.3, -50.0, 20.0, 40.0, "right/right", id="a>0-right-mass"),
        pytest.param(0.7, -50.0, 20.0, math.inf, "right/right", id="a>0-no-cap"),
        pytest.param(0.3, 0.0, 20.0, 40.0, "right/central", id="a=-0-central-mass"),
        pytest.param(0.5, 50.0, 1e-320, math.inf, "left/central", id="z-to-minus-and-plus-inf"),
        pytest.param(0.5, 50.0, 1e-320, 100.0, "left/central", id="z-to-inf-with-cap"),
        pytest.param(0.5, 1e308, 1e-300, 5.0, "empty", id="both-z-to-minus-inf"),
        pytest.param(0.5, -50.0, 1e-320, math.inf, "empty", id="both-z-to-plus-inf"),
        pytest.param(5e-324, 50.0, 20.0, 100.0, "left/central", id="q-1-ulp-above-0"),
        pytest.param(1.5e-323, -50.0, 20.0, math.inf, "right/right", id="q-3-ulps-above-0"),
        pytest.param(1.0 - 2.0**-53, 50.0, 20.0, 100.0, "left/central", id="q-1-ulp-below-1"),
        pytest.param(1.0 - 3 * 2.0**-53, -50.0, 20.0, math.inf, "right/right",
                     id="q-3-ulps-below-1"),
    ])
    def test_edge_cases_match_scipy_bit_for_bit(self, q, mean, std_dev, upper_bound, case):
        q, mean, std_dev = np.array([q]), np.array([mean]), np.array([std_dev])
        a, b = _z_scores(mean, std_dev, upper_bound)
        assert _cases(a[0], b[0]) == case
        want = stats.truncnorm.ppf(q, a, b, loc=mean, scale=std_dev)
        got = _truncnorm_ppf(q, a, b, mean, std_dev)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[0]) == (case == "empty")

    def test_empty_truncation_interval_commits_nothing(self):
        # a cap of 0 under a negative mean: the port's NaN is floored to +0.0
        value = contract(-5.0, 2.0, PriceTriple(12.0, 15.0, 5.0), upper_bound=0.0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("mean, std_dev", [(50.0, 1e-320), (1e308, 1e-300)])
    def test_overflowing_z_score_sizes_quietly(self, mean, std_dev):
        # mean / std_dev overflows to inf: the normal is a point at the mean
        assert contract(mean, std_dev, P) == mean


class TestFitDistribution:
    """One hour's generation model: the forecast is the mean and the spread of
    past forecast errors, from ``error_spread``, is the standard deviation."""

    def test_error_spread(self):
        spread = error_spread([[100.0], [100.0], [100.0]], [[90.0], [100.0], [110.0]])
        assert spread[0] == pytest.approx(10.0)

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

    @pytest.mark.parametrize("block", ["forecasts", "actuals"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, block, value):
        forecasts, actuals = [[100.0], [100.0]], [[90.0], [110.0]]
        (forecasts if block == "forecasts" else actuals)[1][0] = value
        with pytest.raises(ValueError, match=f"{block} must be finite and >= 0, got {value}"):
            error_spread(forecasts, actuals)

    def test_one_spread_per_producer_column(self):
        forecasts = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        actuals = np.array([[12.0, 1.0], [18.0, 2.0], [30.0, 6.0]])
        spread = error_spread(forecasts, actuals)
        for pi in range(2):
            expect = np.std(actuals[:, pi] - forecasts[:, pi], ddof=1)
            assert spread[pi] == pytest.approx(expect, rel=1e-15)


class TestExpectedSeparatePayoff:
    def test_matches_quadrature_within_three_standard_errors(self):
        # the sampler against the pdf: the mean payoff over the draws
        # must land within three standard errors of the quadrature value
        rng = np.random.default_rng(42)
        draws = truncated_normal(100.0, 20.0).rvs(size=1_000_000, random_state=rng)
        mean, se = mc_payoff_curve(draws, [100.0], P)
        exact = quad_expected_payoff(100.0, 20.0, math.inf, 100.0, P)
        assert abs(mean[0] - exact) <= 3.0 * se[0]
