"""Estimators shared by simulation output and field-log analysis.

Covers the per-packet delay-variation series, its mean-absolute summary and
paired correlation statistics. All functions are pure; the bootstrap
confidence interval takes an explicit seed so repeated calls reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, _count

#: Resamples used for the bootstrap confidence interval.
BOOTSTRAP_RESAMPLES = 1000

#: Fixed fallback seed for the bootstrap. Never wall-clock.
DEFAULT_BOOTSTRAP_SEED = 0


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
        raise DomainError(f"need at least 2 delays to difference, got {arr.size}")
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
    mean = _mean(samples)
    halfwidth = None
    if ci:
        _count(n_boot, "n_boot", 1)
        _count(seed, "seed", 0)
        lo, hi = np.percentile(_bootstrap_means(samples, n_boot, seed), [2.5, 97.5])
        halfwidth = float((hi - lo) / 2.0)
    return JitterEstimate(mean_abs_ipdv=mean, n_samples=int(samples.size), ci95_halfwidth=halfwidth)


def _bootstrap_means(samples, n_boot: int, seed: int) -> np.ndarray:
    """The ``_mean`` of each of ``n_boot`` resamples of ``samples``, drawn
    with replacement by one generator seeded with ``seed``.

    The calling thread draws resample b + 1's indices while the worker of
    ``_one_ahead`` gathers resample b and averages it; numpy releases the
    GIL in both steps, so they overlap on two cores. The draws, their order
    and every mean are those of a plain loop, so the bits do not depend on
    the core count.
    """
    rng = np.random.default_rng(seed)
    n = samples.size
    draws = (rng.integers(0, n, size=n) for _ in range(n_boot))
    means = _one_ahead(lambda idx: _mean(samples[idx]), draws)
    return np.fromiter(means, float, n_boot)


def _one_ahead(fn, items):
    """Yield ``fn(item)`` for each of ``items`` in order, computed on one
    worker thread one item ahead of the caller: the worker computes item
    k + 1 while the caller uses result k, and the caller makes item k + 2
    (items are made on the calling thread) while the worker computes k + 1.

    Errors come in item order: an error of ``fn`` on item k, or of making
    item k, reaches the caller in place of result k, after results 0 to
    k - 1, and no later item is computed. The worker runs under the
    caller's numpy error handling and is joined when the consumer stops,
    whether it is done, breaks off or raises.
    """
    items = iter(items)
    with _worker_pool(1) as pool:
        running = None
        while True:
            try:
                item = next(items)
            except StopIteration:
                break
            except Exception:
                if running is not None:
                    yield running.result()
                raise
            if running is None:
                running = pool.submit(fn, item)
                continue
            result = running.result()
            running = pool.submit(fn, item)
            yield result
        if running is not None:
            yield running.result()


def _worker_pool(workers: int):
    """A pool of ``workers`` threads, each starting from the caller's numpy
    error handling, which numpy keeps per thread. ``concurrent.futures`` is
    imported here: it brings in logging, about 1 MiB and 7 ms, which a call
    that starts no pool need not load."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, initializer=partial(np.seterr, **np.geterr()))


def correlate(series_a, series_b) -> SeriesStats:
    """Pearson and Spearman coefficients over two paired series.

    Spearman is the Pearson coefficient of the average ranks (ties share
    the mean of the ranks they span). Constant series are rejected: the
    coefficients are undefined there.
    """
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise DomainError("series must be one-dimensional")
    if a.size != b.size:
        raise DomainError(f"series lengths differ: {a.size} vs {b.size}")
    if a.size < 3:
        raise DomainError(f"need at least 3 paired samples, got {a.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("series must be finite")
    if np.all(a == a[0]):
        raise DomainError("first series is constant; correlation undefined")
    if np.all(b == b[0]):
        raise DomainError("second series is constant; correlation undefined")
    return SeriesStats(pearson_r=_pearson(a, b), n=int(a.size),
                       spearman_rho=_pearson(_average_ranks(a), _average_ranks(b)))


def _unit_scaled(values) -> tuple[np.ndarray, int]:
    """``values`` times 2^-e, the power of two that brings their largest
    magnitude into [0.5, 1), and e; exact short of the subnormal range."""
    exponent = math.frexp(float(np.abs(values).max()))[1]
    return np.ldexp(values, -exponent), exponent


def _mean(values) -> float:
    """``values.mean()``, NaN when empty. Where the plain sum leaves the
    double range, the mean is taken over unit-scaled values and scaled back;
    every finite plain mean keeps its bits."""
    if not values.size:
        return math.nan
    with np.errstate(over="ignore"):
        mean = float(values.mean())
    if math.isinf(mean):
        scaled, exponent = _unit_scaled(values)
        mean = math.ldexp(float(scaled.mean()), exponent)
    return mean


def _pearson(x, y) -> float:
    """Pearson r of two finite, non-constant series of equal length.

    Each series is unit-scaled before it is centred and again before the dot
    products, so nothing leaves the double range at any finite magnitude.
    ``sqrt(sxx * syy)`` is exactly ``sxx`` when the centred series are equal,
    so r is exactly +-1 for series equal up to sign and a power-of-two scale,
    and negating one series negates r exactly."""
    dx, dy = (_unit_scaled(v - v.mean())[0]
              for v in (_unit_scaled(x)[0], _unit_scaled(y)[0]))
    r = np.dot(dx, dy) / math.sqrt(np.dot(dx, dx) * np.dot(dy, dy))
    return min(max(float(r), -1.0), 1.0)


def _average_ranks(values) -> np.ndarray:
    """1-based ranks, ties sharing the average of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]
