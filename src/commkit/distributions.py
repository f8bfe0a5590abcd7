"""Histogram, cumulative-distribution, and moment summaries of per-community values.

Normality is reported, never adjudicated: the summary carries moments and
the Kolmogorov-Smirnov distance to the normal fitted by sample mean/std,
and leaves the verdict to the reader.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import ConfigError


class HistogramBin(NamedTuple):
    lower: float
    width: float
    count: int


class DistributionSummary(NamedTuple):
    variable: str
    count: int
    mean: float
    std: float
    skewness: float | None
    excess_kurtosis: float | None
    ks_stat: float | None  # None when std == 0 (normal fit undefined)
    degenerate: bool
    # last, and left out of the summary row: each is a table of its own
    histogram: tuple[HistogramBin, ...]
    cumulative: tuple[tuple[float, float], ...]  # (value, fraction <= value)


def mean(values: Sequence[float]) -> float:
    """Correctly rounded sum divided once by the count, so the order of the values is immaterial."""
    return math.fsum(values) / len(values)


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def summarize(values: Sequence[float], bin_count: int = 20, variable: str = "") -> DistributionSummary:
    """Equal-width histogram over [min, max], moments, ECDF, and KS distance.

    Needs at least two values; all-equal input degenerates to a single bin
    with std 0 and an undefined KS statistic (flagged, not an error).
    """
    n = len(values)
    if n < 2:
        raise ConfigError("summarize needs at least 2 values")
    if bin_count < 1:
        raise ConfigError(f"bin_count must be >= 1, got {bin_count}")

    data = sorted(float(v) for v in values)
    mu = mean(data)
    m2 = mean([(v - mu) ** 2 for v in data])
    std = math.sqrt(m2 * n / (n - 1))  # unbiased variance

    lo, hi = data[0], data[-1]
    # a subnormal spread underflows the bin width to zero; same handling
    degenerate = hi == lo or (hi - lo) / bin_count == 0.0
    if degenerate:
        bins = (HistogramBin(lower=lo, width=hi - lo, count=n),)
    else:
        width = (hi - lo) / bin_count
        counts = [0] * bin_count
        for v in data:
            i = min(int((v - lo) / width), bin_count - 1)  # top edge closes the last bin
            counts[i] += 1
        bins = tuple(
            HistogramBin(lower=lo + i * width, width=width, count=c)
            for i, c in enumerate(counts)
        )

    cumulative = [(v, (i + 1) / n) for i, v in enumerate(data) if i + 1 == n or data[i + 1] != v]

    if std == 0.0:
        skewness = kurtosis = ks = None
    else:
        # standardize before raising to powers so tiny variances cannot
        # underflow the moment ratios
        sigma = math.sqrt(m2)
        z = [(v - mu) / sigma for v in data]
        g1 = mean([x**3 for x in z])
        g2 = mean([x**4 for x in z]) - 3.0
        # adjusted Fisher-Pearson estimators
        skewness = math.sqrt(n * (n - 1)) / (n - 2) * g1 if n > 2 else g1
        if n > 3:
            kurtosis = (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)
        else:
            kurtosis = g2
        ks = 0.0
        for i, v in enumerate(data):
            cdf = _normal_cdf((v - mu) / std)
            ks = max(ks, abs((i + 1) / n - cdf), abs(cdf - i / n))

    return DistributionSummary(
        variable=variable,
        count=n,
        mean=mu,
        std=std,
        skewness=skewness,
        excess_kurtosis=kurtosis,
        ks_stat=ks,
        degenerate=degenerate,
        histogram=bins,
        cumulative=tuple(cumulative),
    )
