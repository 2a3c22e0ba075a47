"""Day-ahead contract sizing under uncertain generation.

Committing energy forward and settling deviations at asymmetric real-time
prices is a news-vendor trade-off. Under-committing forgoes day_ahead -
rt_sell per MWh that ends up dumped in real time; over-committing costs
rt_buy - day_ahead per MWh bought back. The expected-payoff optimum is the
generation distribution's quantile at

    q = (day_ahead - rt_sell) / (rt_buy - rt_sell)

clamped to [0, 1]. ``optimal_contracts`` sizes a whole (hours x producers)
block with one broadcast quantile call; one producer's hour is its 1 x 1
block. The quantile is scipy's truncated-normal ``ppf``, ported onto
``scipy.special`` so that importing this module does not import
``scipy.stats``.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.special as sc

from .market import PriceTriple


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


def _log_gauss_mass(a, b) -> np.ndarray:
    """Log of the standard normal's mass on [a, b], as scipy 1.17.1's
    ``_log_gauss_mass`` computes it: an interval in the right tail is mirrored
    into the left, a difference of logs is a ``logsumexp`` with -e^x written
    as e^(x + pi i), and an interval around 0 is ``log1p`` of minus its tails."""
    out = np.full_like(a, np.nan, dtype=np.complex128)
    left, right = b <= 0, a > 0
    central = ~(left | right)
    for case, hi, lo in ((left, b, a), (right, -a, -b)):
        if case.any():  # log(Phi(hi) - Phi(lo))
            terms = [sc.log_ndtr(hi[case]), sc.log_ndtr(lo[case]) + np.pi * 1j]
            out[case] = sc.logsumexp(terms, axis=0)
    if central.any():
        out[central] = sc.log1p(-sc.ndtr(a[central]) - sc.ndtr(-b[central]))
    return np.real(out)


def _truncnorm_ppf(q, a, b, loc, scale) -> np.ndarray:
    """``scipy.stats.truncnorm.ppf(q, a, b, loc, scale)`` on 1-D arrays with
    0 < q < 1 and scale > 0, bit for bit, from ``scipy.special`` alone.

    A port of scipy 1.17.1's ``truncnorm._ppf`` on ``_log_gauss_mass``, with
    the generic ``ppf`` wrapper's NaN where a >= b and its ``x * scale + loc``.
    """
    x = np.full_like(q, np.nan)
    valid = a < b
    q, a, b = q[valid], a[valid], b[valid]
    z = np.empty_like(q)
    left = a < 0
    right = ~left
    if left.any():
        terms = [sc.log_ndtr(a[left]), np.log(q[left]) + _log_gauss_mass(a[left], b[left])]
        z[left] = sc.ndtri_exp(sc.logsumexp(terms, axis=0))
    if right.any():
        terms = [sc.log_ndtr(-b[right]),
                 np.log1p(-q[right]) + _log_gauss_mass(a[right], b[right])]
        z[right] = -sc.ndtri_exp(sc.logsumexp(terms, axis=0))
    x[valid] = z * scale[valid] + loc[valid]
    return x


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
    with np.errstate(over="ignore"):  # a spread near 0 sends a z-score to +-inf
        a, b = (0.0 - m) / s, (upper_bound - m) / s
    x = _truncnorm_ppf(q[cells], a, b, m, s)
    # NaN (the port's, as scipy's) marks an interval empty in floats, the mean so
    # far outside [0, upper_bound] that its z-scores round alike: the cap above it
    contracts[cells] = np.where(np.isnan(x) & (m > upper_bound), upper_bound, x)
    # not np.maximum: like max(0.0, x), this maps NaN (a mean below 0) and -0.0 to +0.0
    return np.where(contracts > 0.0, contracts, 0.0)


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
    for name, block in (("forecasts", forecasts), ("actuals", actuals)):
        bad = block[~(np.isfinite(block) & (block >= 0.0))]
        if bad.size:
            raise ValueError(f"{name} must be finite and >= 0, got {bad[0]}")
    return np.std(actuals - forecasts, axis=0, ddof=1)

