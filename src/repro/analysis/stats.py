"""Summary statistics and robust trend estimators.

:func:`route_length_stats` computes the Table 1 columns (MEAN, SD, MIN,
quartiles, MAX) over a set of route lengths.  The slope estimators feed
the Threat Model 2 classifiers: ordinary least squares for speed, and
Theil-Sen for robustness to the occasional metastability outlier.

The two-sample tools at the bottom back the cross-run analytics layer
(:mod:`repro.observability.analytics`): :func:`bootstrap_mean_diff_ci`
puts a seeded-bootstrap confidence interval on a difference of means
(recovery accuracy across seed sets), and :func:`rank_sum_test` is a
Wilcoxon-Mann-Whitney rank test with normal approximation and tie
correction (latency reservoirs are heavy-tailed; ranks are robust
where a t statistic is not).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True)
class RouteLengthStats:
    """The Table 1 statistics row for one asset."""

    count: int
    mean: float
    sd: float
    minimum: float
    p25: float
    p50: float
    p75: float
    maximum: float


def route_length_stats(lengths_ps) -> RouteLengthStats:
    """Distribution statistics of per-bit route lengths (Table 1 row)."""
    lengths = np.asarray(lengths_ps, dtype=float).ravel()
    if lengths.size == 0:
        raise AnalysisError("need at least one route length")
    if not np.isfinite(lengths).all():
        raise AnalysisError("route lengths must be finite")
    return RouteLengthStats(
        count=int(lengths.size),
        mean=float(np.mean(lengths)),
        sd=float(np.std(lengths, ddof=1)) if lengths.size > 1 else 0.0,
        minimum=float(np.min(lengths)),
        p25=float(np.percentile(lengths, 25)),
        p50=float(np.percentile(lengths, 50)),
        p75=float(np.percentile(lengths, 75)),
        maximum=float(np.max(lengths)),
    )


def ols_slope(x, y) -> float:
    """Ordinary-least-squares slope of y on x."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size or x.size < 2:
        raise AnalysisError("slope needs >= 2 aligned points")
    x_centred = x - x.mean()
    denominator = float(np.dot(x_centred, x_centred))
    if denominator == 0.0:
        raise AnalysisError("x values are all identical")
    return float(np.dot(x_centred, y - y.mean()) / denominator)


def theil_sen_slope(x, y, max_pairs: int = 20000) -> float:
    """Theil-Sen estimator: median of pairwise slopes.

    Robust to outliers; exact for small series, subsampled beyond
    ``max_pairs`` pairs.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size or x.size < 2:
        raise AnalysisError("slope needs >= 2 aligned points")
    pairs = list(combinations(range(x.size), 2))
    if len(pairs) > max_pairs:
        stride = len(pairs) // max_pairs + 1
        pairs = pairs[::stride]
    slopes = []
    for i, j in pairs:
        dx = x[j] - x[i]
        if dx != 0.0:
            slopes.append((y[j] - y[i]) / dx)
    if not slopes:
        raise AnalysisError("x values are all identical")
    return float(np.median(slopes))


def bootstrap_mean_diff_ci(
    a,
    b,
    coverage: float = 0.95,
    n_boot: int = 2000,
    seed: int = 7,
) -> tuple[float, float]:
    """Percentile-bootstrap CI on ``mean(b) - mean(a)``.

    Both samples are resampled independently with replacement
    ``n_boot`` times from a seeded generator, so the interval is
    reproducible run to run.  Degenerate (constant) samples collapse
    the interval to the point difference, which is exactly the right
    answer for them.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size < 1 or b.size < 1:
        raise AnalysisError("bootstrap needs >= 1 point per sample")
    if not 0.0 < coverage < 1.0:
        raise AnalysisError("coverage must be in (0, 1)")
    if n_boot < 10:
        raise AnalysisError(f"n_boot must be >= 10, got {n_boot}")
    rng = np.random.default_rng(seed)
    means_a = rng.choice(a, size=(n_boot, a.size), replace=True).mean(axis=1)
    means_b = rng.choice(b, size=(n_boot, b.size), replace=True).mean(axis=1)
    diffs = means_b - means_a
    tail = (1.0 - coverage) / 2.0 * 100.0
    lo, hi = np.percentile(diffs, [tail, 100.0 - tail])
    return float(lo), float(hi)


@dataclass(frozen=True)
class RankSumResult:
    """Wilcoxon-Mann-Whitney test outcome."""

    u_statistic: float
    z_score: float
    p_value: float  # two-sided, normal approximation
    n_a: int
    n_b: int


def rank_sum_test(a, b) -> RankSumResult:
    """Two-sided Mann-Whitney U via the normal approximation.

    Mid-ranks handle ties, and the variance carries the standard tie
    correction.  Samples that are entirely one constant value on both
    sides (zero variance) return ``p_value=1.0`` when equal and
    ``p_value=0.0`` on complete separation -- the limiting answers.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size < 1 or b.size < 1:
        raise AnalysisError("rank test needs >= 1 point per sample")
    n_a, n_b = int(a.size), int(b.size)
    combined = np.concatenate([a, b])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(combined.size, dtype=float)
    ranks[order] = np.arange(1, combined.size + 1, dtype=float)
    # Mid-ranks for ties.
    values, inverse, counts = np.unique(
        combined, return_inverse=True, return_counts=True
    )
    sums = np.zeros(values.size)
    np.add.at(sums, inverse, ranks)
    ranks = (sums / counts)[inverse]
    r_a = float(ranks[:n_a].sum())
    u_a = r_a - n_a * (n_a + 1) / 2.0
    mean_u = n_a * n_b / 2.0
    n = n_a + n_b
    tie_term = float(((counts**3 - counts).sum())) / (n * (n - 1)) if n > 1 else 0.0
    var_u = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    if var_u <= 0.0:
        # Every observation identical: no evidence either way.
        return RankSumResult(u_statistic=float(u_a), z_score=0.0,
                             p_value=1.0, n_a=n_a, n_b=n_b)
    z = (u_a - mean_u) / var_u**0.5
    p = float(2.0 * _normal_sf(abs(z)))
    return RankSumResult(u_statistic=float(u_a), z_score=float(z),
                         p_value=min(p, 1.0), n_a=n_a, n_b=n_b)


def _normal_sf(z: float) -> float:
    """Standard normal survival function via the complementary erf."""
    from math import erfc, sqrt

    return 0.5 * erfc(z / sqrt(2.0))
