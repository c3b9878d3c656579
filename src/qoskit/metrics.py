"""Estimators shared by simulation output and field-log analysis.

Covers the per-packet delay-variation series and its mean-absolute summary,
tumbling-window throughput, counter-based loss rate, and paired correlation
statistics. All functions are pure; the bootstrap confidence interval takes
an explicit seed so repeated calls reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccountingError,
    ConstantSeriesError,
    DomainError,
    InsufficientDataError,
    _count,
    _real,
)

#: Resamples used for the bootstrap confidence interval.
BOOTSTRAP_RESAMPLES = 1000

#: Fixed fallback seed for the bootstrap. Never wall-clock.
DEFAULT_BOOTSTRAP_SEED = 0

#: Most windows ``windowed_throughput`` returns (a list of pairs, about a
#: gigabyte at this size); the count is checked before anything is built.
_MAX_WINDOWS = 10_000_000


@dataclass(frozen=True)
class JitterEstimate:
    """Mean absolute delay variation with sample count and bootstrap CI.

    The CI is a percentile bootstrap over the |difference| samples. Those
    samples are serially dependent, so the interval is approximate and is
    labelled as such wherever it is reported. ``ci95_halfwidth`` is None when
    the caller skipped the bootstrap.
    """

    mean_abs_ipdv: float
    n_samples: int
    ci95_halfwidth: float | None


@dataclass(frozen=True)
class SeriesStats:
    """Pearson and Spearman coefficients over paired samples."""

    pearson_r: float
    spearman_rho: float
    n: int


def _as_delay_array(delays) -> np.ndarray:
    arr = np.asarray(delays, dtype=float)
    if arr.ndim != 1:
        raise DomainError("a delay series must be one-dimensional")
    if arr.size < 2:
        raise InsufficientDataError(
            f"need at least 2 delays to difference, got {arr.size}"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise DomainError("delays must be finite and non-negative")
    return arr


def ipdv_series(delays) -> np.ndarray:
    """Signed differences of consecutive delays: out[j] = delays[j+1] - delays[j]."""
    return np.diff(_as_delay_array(delays))


def _abs_differences(values, out=None) -> np.ndarray:
    """|values[j+1] - values[j]|: the samples of every mean absolute delay
    variation the toolkit reports (simulated runs, field logs, delay series).
    ``out`` may be ``values[:-1]``: each difference is written after both of
    its operands are read."""
    differences = np.subtract(values[1:], values[:-1], out=out)
    return np.abs(differences, out=differences)


def mean_abs_jitter(
    delays,
    *,
    ci: bool = True,
    n_boot: int = BOOTSTRAP_RESAMPLES,
    seed: int = DEFAULT_BOOTSTRAP_SEED,
) -> JitterEstimate:
    """Mean of |consecutive delay differences| over a contiguous delay series.

    Adding a constant latency to every delay leaves the estimate unchanged and
    scaling all delays scales it linearly; it measures variation, not latency.
    """
    samples = _abs_differences(_as_delay_array(delays))
    mean = float(samples.mean())
    halfwidth = None
    if ci:
        _count(n_boot, "n_boot", 1)
        _count(seed, "seed", 0)
        rng = np.random.default_rng(seed)
        n = samples.size
        means = np.empty(n_boot)
        for b in range(n_boot):
            means[b] = samples[rng.integers(0, n, size=n)].mean()
        lo, hi = np.percentile(means, [2.5, 97.5])
        halfwidth = float((hi - lo) / 2.0)
    return JitterEstimate(mean_abs_ipdv=mean, n_samples=int(samples.size), ci95_halfwidth=halfwidth)


def windowed_throughput(
    deliveries,
    window_seconds: float,
    *,
    t_start: float = 0.0,
    t_end: float | None = None,
) -> list[tuple[float, float]]:
    """Tumbling-window delivery rate.

    ``deliveries`` is an iterable of (time, amount) pairs with non-decreasing
    times; amounts are whatever unit the caller counts in (packets, bytes,
    bits). Windows are [t_start + k*w, t_start + (k+1)*w); empty windows yield
    rate 0. ``t_end`` extends (or clips) the covered span; by default windows
    run through the last delivery.
    """
    _real(window_seconds, "window", gt=0)
    _real(t_start, "t_start")
    if t_end is not None:
        _real(t_end, "t_end")
    pairs = list(deliveries)
    times = np.asarray([p[0] for p in pairs], dtype=float)
    amounts = np.asarray([p[1] for p in pairs], dtype=float)
    if times.size and np.any(np.diff(times) < 0):
        raise DomainError("delivery times must be non-decreasing")
    if t_end is None:
        if not times.size:
            return []
        # cover exactly through the window holding the last delivery
        count = (float(times[-1]) - t_start) // window_seconds + 1
    else:
        count = (t_end - t_start) / window_seconds
    _real(count, "number of windows", le=_MAX_WINDOWS)
    n_windows = math.ceil(count)
    if n_windows <= 0:
        return []
    totals = np.zeros(n_windows)
    if times.size:
        in_span = (times >= t_start) & (times < t_start + n_windows * window_seconds)
        buckets = ((times[in_span] - t_start) // window_seconds).astype(int)
        np.add.at(totals, buckets, amounts[in_span])
    return [
        (t_start + k * window_seconds, float(totals[k]) / window_seconds)
        for k in range(n_windows)
    ]


def loss_rate(offered: int, delivered: int) -> float:
    """Fraction lost, (offered - delivered) / offered, from raw counters."""
    _count(offered, "offered count", 1)
    _count(delivered, "delivered count", 0)
    if delivered > offered:
        raise AccountingError(
            f"delivered count {delivered} exceeds offered count {offered}"
        )
    return (offered - delivered) / offered


def correlate(series_a, series_b) -> SeriesStats:
    """Pearson and Spearman coefficients over two paired series.

    Spearman uses average ranks for ties. Constant series are rejected: the
    coefficients are undefined there.
    """
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise DomainError("series must be one-dimensional")
    if a.size != b.size:
        raise DomainError(f"series lengths differ: {a.size} vs {b.size}")
    if a.size < 3:
        raise InsufficientDataError(f"need at least 3 paired samples, got {a.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("series must be finite")
    if np.all(a == a[0]):
        raise ConstantSeriesError("first series is constant; correlation undefined")
    if np.all(b == b[0]):
        raise ConstantSeriesError("second series is constant; correlation undefined")
    # Imported here: scipy.stats takes most of a second to import, and only
    # correlations need it.
    from scipy import stats

    pearson = stats.pearsonr(a, b).statistic
    spearman = stats.spearmanr(a, b).statistic
    return SeriesStats(pearson_r=float(pearson), spearman_rho=float(spearman), n=int(a.size))
