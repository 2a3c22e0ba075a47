"""Shared generators for randomized and property-based tests."""
import numpy as np
from hypothesis import strategies as st

from poolpay import PayoffAllocation, PriceTriple, ScenarioSnapshot, aggregator_payoff, allocate


def random_prices(rng, sell_low=-10.0, sell_high=10.0, max_spread=25.0):
    """Admissible price triple; rt_sell may be negative, spread >= 0."""
    rt_sell = float(rng.uniform(sell_low, sell_high))
    rt_buy = rt_sell + float(rng.uniform(0.0, max_spread))
    day_ahead = float(rng.uniform(0.0, 25.0))
    return PriceTriple(day_ahead=day_ahead, rt_buy=rt_buy, rt_sell=rt_sell)


def random_snapshot(rng, n_min=1, n_max=10, energy_scale=200.0, prices=None):
    n = int(rng.integers(n_min, n_max + 1))
    contracts = rng.uniform(0.0, energy_scale, n)
    realizations = rng.uniform(0.0, energy_scale, n)
    return ScenarioSnapshot.from_arrays(
        contracts, realizations, prices or random_prices(rng)
    )


@st.composite
def price_triples(draw):
    rt_sell = draw(st.floats(-20.0, 20.0))
    spread = draw(st.floats(0.0, 30.0))
    day_ahead = draw(st.floats(-10.0, 40.0))
    return PriceTriple(day_ahead=day_ahead, rt_buy=rt_sell + spread, rt_sell=rt_sell)


@st.composite
def snapshots(draw, max_n=8, max_energy=300.0):
    # Energies are quantized to a 1e-6 grid so that deviations (and the
    # pool's total deviation) are either exactly zero or far outside the
    # 1e-9 equality band; inside that band the branch choice is a
    # documented approximation and not a property worth falsifying.
    n = draw(st.integers(1, max_n))
    energy = st.floats(0.0, max_energy).map(lambda v: round(v, 6))
    contracts = draw(st.lists(energy, min_size=n, max_size=n))
    realizations = draw(st.lists(energy, min_size=n, max_size=n))
    return ScenarioSnapshot.from_arrays(contracts, realizations, draw(price_triples()))


def inside_core(n, rng):
    """A split of ``n >= 3`` producers that lies in the core with room to
    spare, yet beyond what the bound and the LP minimum prove: the core
    audit searches it, finds no violation, and leaves it open above
    ``EXHAUSTIVE_LIMIT``. The pool is balanced: producer
    0's surplus of 40 offsets producer 1's shortfall, and the others deviate
    in +/- pairs of less than 20 / n each. On the mechanism's split a
    coalition with 0 and without 1 deviates by more than 20, so it falls
    short of its share by more than 100; then 1e-7 of producer 0's payoff,
    at least 900, moves to producer 1, whose payoff is at least 100."""
    half = rng.uniform(0.0, 20.0 / n, (n - 2) // 2)
    dev = np.concatenate([[40.0, -40.0], half, -half, [0.0] * (n % 2)])
    contracts = rng.uniform(50.0, 100.0, n)
    s = ScenarioSnapshot.from_arrays(contracts, contracts + dev, PriceTriple(10.0, 15.0, 5.0))
    payoffs = allocate(s).payoffs.copy()
    move = 1e-7 * payoffs[0]
    payoffs[0] -= move
    payoffs[1] += move
    return s, PayoffAllocation(payoffs, aggregator_payoff(s))
