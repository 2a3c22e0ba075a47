"""Independent oracles used only by the test suite.

These deliberately avoid the library's own code paths: expected payoffs are
evaluated from raw samples via sorted prefix sums, or by direct quadrature
against the distribution's pdf, so the closed-form contract formula is
checked against something it cannot share a bug with; the core audit is
checked against a plain loop over every coalition.
"""
import math

import numpy as np
from scipy import integrate, stats


def mc_payoff_curve(sample, contracts, prices):
    """Monte Carlo mean and standard error of the stand-alone payoff at each
    contract, over one fixed sample.

    Uses prefix sums over the sorted sample so a fine contract grid stays
    cheap: with k samples below contract c,
    sum (c - x)+ = k c - prefix_k and sum (x - c)+ = total - prefix_k - (M - k) c.
    """
    s = np.sort(np.asarray(sample, dtype=float))
    m = s.shape[0]
    prefix = np.concatenate([[0.0], np.cumsum(s)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(s * s)])
    total, total_sq = prefix[-1], prefix_sq[-1]

    c = np.asarray(contracts, dtype=float)
    k = np.searchsorted(s, c, side="left")
    below = prefix[k]
    below_sq = prefix_sq[k]

    e_short = (k * c - below) / m
    e_long = (total - below - (m - k) * c) / m
    e_short_sq = (k * c * c - 2.0 * c * below + below_sq) / m
    e_long_sq = ((total_sq - below_sq) - 2.0 * c * (total - below) + (m - k) * c * c) / m

    pf, pb, ps = prices.day_ahead, prices.rt_buy, prices.rt_sell
    mean = pf * c - pb * e_short + ps * e_long
    # (c-x)+ and (x-c)+ never overlap, so the cross moment vanishes
    second = (
        (pf * c) ** 2
        - 2.0 * pf * c * pb * e_short
        + 2.0 * pf * c * ps * e_long
        + pb * pb * e_short_sq
        + ps * ps * e_long_sq
    )
    variance = np.maximum(second - mean * mean, 0.0)
    return mean, np.sqrt(variance / m)


def newsvendor_contract(mean, std_dev, q, upper_bound=math.inf):
    """One cell of the news-vendor rule, sized on its own: the cap at level
    1, nothing at level 0, the clipped mean at zero spread, else a frozen
    ``stats.truncnorm(a, b, loc, scale).ppf(q)``, floored with Python's
    ``max(0.0, .)`` (which maps NaN and -0.0 to 0.0)."""
    if q >= 1.0:
        return max(0.0, upper_bound)
    if q <= 0.0:
        return 0.0
    if std_dev == 0.0:
        return max(0.0, min(max(mean, 0.0), upper_bound))
    a = (0.0 - mean) / std_dev
    b = (upper_bound - mean) / std_dev
    return max(0.0, float(stats.truncnorm(a, b, loc=mean, scale=std_dev).ppf(q)))


def quad_expected_payoff(dist, contract, prices):
    """Expected stand-alone payoff by direct quadrature of the truncated pdf."""
    if dist.std_dev == 0.0:
        point = min(max(dist.mean, 0.0), dist.upper_bound)
        return (
            prices.day_ahead * contract
            - prices.rt_buy * max(contract - point, 0.0)
            + prices.rt_sell * max(point - contract, 0.0)
        )
    a = (0.0 - dist.mean) / dist.std_dev
    b = (dist.upper_bound - dist.mean) / dist.std_dev
    frozen = stats.truncnorm(a, b, loc=dist.mean, scale=dist.std_dev)
    upper = dist.upper_bound if math.isfinite(dist.upper_bound) else np.inf
    short = 0.0
    if contract > 0.0:
        short = integrate.quad(lambda x: (contract - x) * frozen.pdf(x), 0.0, contract)[0]
    long_ = 0.0
    if upper > contract:
        long_ = integrate.quad(lambda x: (x - contract) * frozen.pdf(x), contract, upper)[0]
    return prices.day_ahead * contract - prices.rt_buy * short + prices.rt_sell * long_


def core_scan(contracts, realizations, payoffs, prices):
    """Exhaustive core audit as a Python loop over bitmasks 1 .. 2^n - 1.

    Each coalition's sums add its members with ``+=`` in index order from
    0.0 (not ``sum()``, which adds floats with compensation on Python 3.12).
    Returns (no violation, worst ``v(T) - allocated(T)``, its coalition),
    the worst being the first, lowest-bitmask coalition to reach it.
    """
    n = len(contracts)
    ok, worst, witness = True, -math.inf, None
    for mask in range(1, 1 << n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        c = x = paid = 0.0
        for i in members:
            c += float(contracts[i])
            x += float(realizations[i])
            paid += float(payoffs[i])
        shortfall = max(c - x, 0.0)
        value = (
            prices.day_ahead * c
            - prices.rt_buy * shortfall
            + prices.rt_sell * (shortfall - (c - x))
        )
        violation = value - paid
        if violation > 1e-9 * max(1.0, abs(value), abs(paid)):
            ok = False
        if violation > worst:
            worst, witness = violation, members
    return ok, worst, witness
