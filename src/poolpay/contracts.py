"""Day-ahead contract sizing under uncertain generation.

Committing energy forward and settling deviations at asymmetric real-time
prices is a news-vendor trade-off. Under-committing forgoes day_ahead -
rt_sell per MWh that ends up dumped in real time; over-committing costs
rt_buy - day_ahead per MWh bought back. The expected-payoff optimum is the
generation distribution's quantile at

    q = (day_ahead - rt_sell) / (rt_buy - rt_sell)

clamped to [0, 1]. ``optimal_contracts`` sizes a whole (hours x producers)
block with one broadcast quantile call; ``optimal_contract`` is its 1 x 1
case. The Monte Carlo estimator in this module exists to keep that closed
form honest: tests maximize the sampled expectation over a contract grid
and compare.
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


def optimal_contracts(means, std_devs, prices, upper_bound: float = math.inf) -> np.ndarray:
    """Expected-payoff-maximizing commitments for an (hours x producers) block.

    Each cell is the critical quantile, at its row's entry of ``prices``, of
    a normal with that cell's mean and its column's entry of ``std_devs``,
    truncated to [0, upper_bound] and floored at zero. A level of 0 commits
    nothing, a zero spread the mean clipped to the bounds, and a level of 1
    the upper bound, which must then be a finite capacity.
    """
    means = np.asarray(means, dtype=float)
    std_devs = np.broadcast_to(np.asarray(std_devs, dtype=float), means.shape)
    q = np.broadcast_to(np.array([critical_quantile(p) for p in prices])[:, None], means.shape)
    if not (np.isfinite(means).all() and (std_devs >= 0.0).all() and upper_bound >= 0.0):
        raise ValueError("means must be finite, and std_devs and upper_bound >= 0")
    if not math.isfinite(upper_bound) and (q >= 1.0).any():
        raise ValueError(
            "critical quantile is 1 and the distribution is unbounded above; "
            "give it a finite upper_bound cap (the producer's capacity)"
        )
    contracts = np.where(q >= 1.0, upper_bound, 0.0)
    interior = (q > 0.0) & (q < 1.0)
    point = interior & (std_devs == 0.0)
    contracts[point] = np.minimum(np.maximum(means[point], 0.0), upper_bound)
    cells = interior & (std_devs > 0.0)
    m, s = means[cells], std_devs[cells]
    a, b = (0.0 - m) / s, (upper_bound - m) / s
    contracts[cells] = stats.truncnorm.ppf(q[cells], a, b, loc=m, scale=s)
    # not np.maximum: like max(0.0, x), this maps NaN (scipy's answer when
    # the truncation interval is empty) and -0.0 to +0.0
    return np.where(contracts > 0.0, contracts, 0.0)


def optimal_contract(dist: GenerationDistribution, prices: PriceTriple) -> float:
    """Expected-payoff-maximizing commitment for one producer: a 1 x 1 block."""
    return float(optimal_contracts([[dist.mean]], [dist.std_dev], [prices], dist.upper_bound)[0, 0])


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
