"""Day-ahead contract sizing under uncertain generation.

Committing energy forward and settling deviations at asymmetric real-time
prices is a news-vendor trade-off. Under-committing forgoes day_ahead -
rt_sell per MWh that ends up dumped in real time; over-committing costs
rt_buy - day_ahead per MWh bought back. The expected-payoff optimum is the
generation distribution's quantile at

    q = (day_ahead - rt_sell) / (rt_buy - rt_sell)

clamped to [0, 1]. The Monte Carlo estimator in this module exists to keep
that closed form honest: tests maximize the sampled expectation over a
contract grid and compare.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .market import PriceTriple, settle


@dataclass(frozen=True)
class GenerationDistribution:
    """Normal model of one producer's generation for one hour, truncated at
    zero so samples stay physical (generation is nonnegative). A finite
    ``upper_bound`` models a known capacity.
    """

    mean: float
    std_dev: float
    upper_bound: float = math.inf

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if not self.std_dev >= 0.0:
            raise ValueError(f"std_dev must be >= 0, got {self.std_dev}")
        if not self.upper_bound >= 0.0:
            raise ValueError(f"upper_bound must be >= 0, got {self.upper_bound}")

    def _frozen(self):
        a = (0.0 - self.mean) / self.std_dev
        b = (self.upper_bound - self.mean) / self.std_dev
        return stats.truncnorm(a, b, loc=self.mean, scale=self.std_dev)

    def _degenerate_point(self) -> float:
        return min(max(self.mean, 0.0), self.upper_bound)

    def quantile(self, q: float) -> float:
        """Inverse CDF; q=0 gives 0, q=1 the upper bound."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {q}")
        if self.std_dev == 0.0:
            return self._degenerate_point()
        if q == 0.0:
            return 0.0
        if q == 1.0:
            return self.upper_bound
        return float(self._frozen().ppf(q))

    def cdf(self, value: float) -> float:
        if self.std_dev == 0.0:
            return 1.0 if value >= self._degenerate_point() else 0.0
        return float(self._frozen().cdf(value))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be >= 0")
        if self.std_dev == 0.0:
            return np.full(count, self._degenerate_point())
        return self._frozen().rvs(size=count, random_state=rng)


def critical_quantile(prices: PriceTriple) -> float:
    """Quantile level of the expected-payoff-maximizing contract.

    Clamped to [0, 1]: a day-ahead price at or above rt_buy makes forward
    sales dominant at any volume (level 1), one at or below rt_sell makes
    committing pointless (level 0). With a zero spread the trade-off
    degenerates; commit nothing unless the forward price strictly beats the
    common real-time price.
    """
    spread = prices.spread
    if spread == 0.0:
        return 0.0 if prices.day_ahead <= prices.rt_buy else 1.0
    q = (prices.day_ahead - prices.rt_sell) / spread
    return min(1.0, max(0.0, q))


def optimal_contract(dist: GenerationDistribution, prices: PriceTriple) -> float:
    """Expected-payoff-maximizing forward commitment for one producer.

    The critical quantile of the generation distribution, floored at zero
    so it is always a valid contract. At level 1 the commitment is the
    distribution's upper bound, which must then be a finite capacity
    because an unbounded contract is economically meaningless.
    """
    q = critical_quantile(prices)
    if q >= 1.0:
        if not math.isfinite(dist.upper_bound):
            raise ValueError(
                "critical quantile is 1 and the distribution is unbounded above; "
                "give it a finite upper_bound cap (the producer's capacity)"
            )
        return max(0.0, float(dist.upper_bound))
    if q <= 0.0:
        return 0.0
    return max(0.0, dist.quantile(q))


def error_spread(forecasts, actuals) -> np.ndarray:
    """Per-producer spread of past forecast errors over a training block.

    ``forecasts`` and ``actuals`` are (hours x producers); the result is the
    sample standard deviation (n - 1 denominator) of ``actual - forecast``
    down each column, which needs at least two hours to exist.
    """
    forecasts = np.asarray(forecasts, dtype=float)
    actuals = np.asarray(actuals, dtype=float)
    if forecasts.ndim != 2 or forecasts.shape != actuals.shape:
        raise ValueError("forecasts and actuals must be matching (hours x producers) arrays")
    if forecasts.shape[0] < 2:
        raise ValueError("need at least 2 training hours to estimate the error spread")
    if np.any(forecasts < 0.0) or np.any(actuals < 0.0):
        raise ValueError("forecasts and actuals must be >= 0")
    return np.std(actuals - forecasts, axis=0, ddof=1)


def expected_separate_payoff(
    dist: GenerationDistribution,
    contract: float,
    prices: PriceTriple,
    samples: int,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of the expected stand-alone payoff at one contract.

    Deterministic for a given seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if contract < 0.0:
        raise ValueError("contract must be >= 0")
    rng = np.random.default_rng(seed)
    return float(settle(contract, dist.sample(samples, rng), prices).mean())
