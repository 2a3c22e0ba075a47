import math

import numpy as np
import pytest
from hypothesis import given, settings

from poolpay.market import _approx_equal_array
from poolpay import (
    PriceTriple,
    ScenarioSnapshot,
    aggregator_payoff,
    approx_equal,
    coalition_value,
    excess_profit,
    separate_payoff,
    separate_payoffs,
    settle,
)

from conftest import random_snapshot, snapshots

P = PriceTriple(day_ahead=10.0, rt_buy=15.0, rt_sell=5.0)


def snap(contracts, realizations, prices=P):
    return ScenarioSnapshot.from_arrays(contracts, realizations, prices)


def test_array_rule_equals_approx_equal_cell_by_cell():
    """``_approx_equal_array`` decides every pair as ``approx_equal`` does:
    pairs a few ulps either side of the 1e-9 edge, pairs of opposite signs,
    both zeros, and magnitudes from 0 to 1e12."""
    rng = np.random.default_rng(11)
    size = 20_000
    sign = rng.choice([-1.0, 1.0], size)
    a = sign * 10.0 ** rng.uniform(-12.0, 12.0, size)
    a[:8] = [0.0, -0.0, 0.0, -0.0, 1e12, -1e12, 1.0, -1.0]
    a[8 : size // 10] = rng.choice([0.0, -0.0], size // 10 - 8)
    # near-ties: one allowance away from a, then a few ulps either way
    edge = a + rng.choice([-1.0, 1.0], size) * 1e-9 * np.maximum(1.0, np.abs(a))
    near = edge + rng.integers(-3, 4, size) * np.spacing(edge)
    far = -a + rng.choice([0.0, 1e-9, -1e-9], size)  # opposite signs, zeros among them
    cases = {"near": near, "far": far, "zeros": rng.choice([0.0, -0.0], size)}
    for name, b in cases.items():
        expect = [approx_equal(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert _approx_equal_array(a, b).tolist() == expect, name
        assert _approx_equal_array(b, a).tolist() == expect, name
        if name == "near":  # the edge is crossed both ways
            assert 0.2 * size < sum(expect) < 0.8 * size


class TestPriceTriple:
    def test_rejects_arbitrage(self):
        with pytest.raises(ValueError, match="no-arbitrage"):
            PriceTriple(day_ahead=10.0, rt_buy=5.0, rt_sell=15.0)

    def test_negative_sell_price_allowed(self):
        p = PriceTriple(day_ahead=10.0, rt_buy=15.0, rt_sell=-5.0)
        assert p.spread == 20.0

    def test_day_ahead_unconstrained(self):
        PriceTriple(day_ahead=100.0, rt_buy=15.0, rt_sell=5.0)
        PriceTriple(day_ahead=-100.0, rt_buy=15.0, rt_sell=5.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PriceTriple(day_ahead=math.nan, rt_buy=15.0, rt_sell=5.0)


class TestSeparatePayoff:
    def test_exact_delivery(self):
        assert separate_payoff(100.0, 100.0, P) == 1000.0

    def test_shortfall(self):
        # 1000 - 15 * 20
        assert separate_payoff(100.0, 80.0, P) == 700.0

    def test_surplus(self):
        # 1000 + 5 * 20
        assert separate_payoff(100.0, 120.0, P) == 1100.0

    def test_penalized_surplus(self):
        penalized = PriceTriple(day_ahead=10.0, rt_buy=15.0, rt_sell=-5.0)
        assert separate_payoff(100.0, 120.0, penalized) == 900.0

    def test_rejects_negative_quantities(self):
        with pytest.raises(ValueError):
            separate_payoff(-1.0, 0.0, P)
        with pytest.raises(ValueError):
            separate_payoff(0.0, -1.0, P)

    @pytest.mark.parametrize(
        "contract, realization, name",
        [(math.nan, 1.0, "contract"), (1.0, math.nan, "realization")],
        ids=["nan-contract", "nan-realization"],
    )
    def test_rejects_nan_quantities(self, contract, realization, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got nan"):
            separate_payoff(contract, realization, P)

    @pytest.mark.parametrize(
        "contract, realization, name",
        [(math.inf, 1.0, "contract"), (1.0, math.inf, "realization")],
        ids=["inf-contract", "inf-realization"],
    )
    def test_rejects_infinite_quantities(self, contract, realization, name):
        # settled, an infinite quantity gives inf - inf, a NaN payoff
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            separate_payoff(contract, realization, P)

    def test_piecewise_slopes_by_finite_difference(self):
        # slope rt_buy below the contract, rt_sell above, away from the kink
        h = 1e-6
        for x, slope in ((60.0, P.rt_buy), (140.0, P.rt_sell)):
            diff = (separate_payoff(100.0, x + h, P) - separate_payoff(100.0, x - h, P)) / (2 * h)
            assert diff == pytest.approx(slope, abs=1e-6)

    def test_continuous_at_kink(self):
        h = 1e-9
        below = separate_payoff(100.0, 100.0 - h, P)
        above = separate_payoff(100.0, 100.0 + h, P)
        assert below == pytest.approx(1000.0, abs=1e-6)
        assert above == pytest.approx(1000.0, abs=1e-6)


class TestSettle:
    def test_matches_two_sided_formula_bit_for_bit(self):
        rng = np.random.default_rng(3)
        c = np.round(rng.uniform(0.0, 100.0, 2000), 2)
        x = np.round(rng.uniform(0.0, 100.0, 2000), 2)
        x[:50] = c[:50]  # exact delivery
        c[50:60] = x[50:60] = 0.0  # zero contract, zero output
        for prices in (P, PriceTriple(-3.0, 6.0, -8.0), PriceTriple(11.0, 11.0, 11.0)):
            reference = (
                prices.day_ahead * c
                - prices.rt_buy * np.maximum(c - x, 0.0)
                + prices.rt_sell * np.maximum(x - c, 0.0)
            )
            vector = settle(c, x, prices)
            scalars = np.array([settle(a, b, prices) for a, b in zip(c.tolist(), x.tolist())])
            assert vector.tobytes() == reference.tobytes()
            assert scalars.tobytes() == reference.tobytes()


class TestCoalitionValue:
    def test_offsetting_pair(self):
        assert coalition_value(snap([100, 50], [80, 70]), [0, 1]) == 1500.0

    def test_full_coalition_shortfall(self):
        s = snap([100, 50, 50], [80, 60, 40])
        assert coalition_value(s, range(3)) == 1700.0

    def test_singleton_reduces_to_separate(self):
        s = snap([100, 50], [80, 70])
        # 500 + 5 * 20
        assert coalition_value(s, [1]) == 600.0
        assert coalition_value(s, [1]) == separate_payoff(50.0, 70.0, P)

    def test_empty_coalition_is_zero(self):
        assert coalition_value(snap([100], [80]), []) == 0.0

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            coalition_value(snap([100], [80]), [1])
        with pytest.raises(IndexError):
            coalition_value(snap([100], [80]), [-1])

    def test_permutation_invariant(self):
        s = snap([100, 50, 30], [80, 60, 40])
        assert coalition_value(s, [2, 0, 1]) == coalition_value(s, [0, 1, 2])
        assert coalition_value(s, (1, 2)) == coalition_value(s, (2, 1))


class TestAggregatorPayoff:
    def test_balanced(self):
        assert aggregator_payoff(snap([100, 50, 50], [80, 70, 50])) == 2000.0

    def test_surplus(self):
        assert aggregator_payoff(snap([100, 50, 50], [110, 60, 50])) == 2100.0

    def test_shortfall(self):
        assert aggregator_payoff(snap([100, 50, 50], [80, 60, 40])) == 1700.0

    def test_equals_full_coalition(self):
        s = snap([100, 50, 50], [80, 60, 40])
        assert aggregator_payoff(s) == coalition_value(s, range(3))


class TestPartition:
    """How excess_profit splits producers by the sign of their deviation."""

    def test_split_and_totals(self):
        # surplus 20 + 15 = 35 against shortfall 20: the smaller side counts
        assert excess_profit(snap([100, 50, 10], [80, 70, 25])) == 10.0 * 20.0
        assert excess_profit(snap([100, 50, 10], [80, 55, 15])) == 10.0 * 10.0

    def test_exact_delivery_goes_to_surplus_side(self):
        assert excess_profit(snap([100], [100])) == 0.0
        # an exact deliverer adds nothing to either side
        assert excess_profit(snap([100, 50, 30], [80, 70, 30])) == excess_profit(
            snap([100, 50], [80, 70])
        )

    def test_all_shortfall(self):
        assert excess_profit(snap([10, 20, 30], [0, 0, 0])) == 0.0


class TestExcessProfit:
    def test_offsetting_pair(self):
        s = snap([100, 50], [80, 70])
        assert excess_profit(s) == 200.0
        # same number via the definition of the gain: pool minus separate
        assert aggregator_payoff(s) - separate_payoffs(s).sum() == 200.0

    def test_zero_when_one_side_empty(self):
        assert excess_profit(snap([100, 50], [90, 40])) == 0.0

    def test_surplus_without_shortfall_is_plus_zero(self):
        assert not np.signbit(excess_profit(snap([100, 50], [110, 50])))
        assert not np.signbit(excess_profit(snap([100], [103])))

    def test_zero_when_spread_zero(self):
        flat = PriceTriple(day_ahead=10.0, rt_buy=15.0, rt_sell=15.0)
        assert excess_profit(snap([100, 50], [80, 70], flat)) == 0.0


@settings(max_examples=300)
@given(snapshots())
def test_pooling_gain_identity(s):
    """Pool payoff minus separate payoffs equals spread * min(surplus, shortfall)."""
    gap = aggregator_payoff(s) - float(separate_payoffs(s).sum())
    assert approx_equal(gap, excess_profit(s))


@settings(max_examples=300)
@given(snapshots())
def test_pooling_gain_nonnegative(s):
    assert excess_profit(s) >= 0.0
    slack = 1e-9 * max(1.0, abs(aggregator_payoff(s)))
    assert aggregator_payoff(s) >= float(separate_payoffs(s).sum()) - slack


def _all_subsets(n):
    for bitmask in range(1, 2**n):
        yield tuple(i for i in range(n) if bitmask >> i & 1)


def test_superadditive_at_grand_coalition():
    """Splitting the pool in two never beats settling jointly, checked
    exhaustively for every complementary pair."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        s = random_snapshot(rng, n_max=6)
        full = aggregator_payoff(s)
        members = set(range(s.n))
        for subset in _all_subsets(s.n):
            rest = tuple(members - set(subset))
            joint = coalition_value(s, subset) + coalition_value(s, rest)
            assert full >= joint - 1e-9 * max(1.0, abs(full))


def test_superadditive_at_n12():
    rng = np.random.default_rng(7)
    s = random_snapshot(rng, n_min=12, n_max=12)
    full = aggregator_payoff(s)
    members = set(range(12))
    for subset in _all_subsets(12):
        rest = tuple(members - set(subset))
        joint = coalition_value(s, subset) + coalition_value(s, rest)
        assert full >= joint - 1e-9 * max(1.0, abs(full))


class TestSnapshotValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ScenarioSnapshot(("a", "b"), np.array([1.0]), np.array([1.0, 2.0]), P)

    def test_negative_contract(self):
        with pytest.raises(ValueError):
            snap([-1.0], [0.0])

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            ScenarioSnapshot(("a", "a"), np.array([1.0, 2.0]), np.array([1.0, 2.0]), P)

    def test_arrays_frozen(self):
        s = snap([100.0], [80.0])
        with pytest.raises(ValueError):
            s.contracts[0] = 0.0

    def test_zero_producers_allowed(self):
        s = ScenarioSnapshot.from_arrays([], [], P)
        assert s.n == 0
        assert aggregator_payoff(s) == 0.0
