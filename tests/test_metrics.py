"""Estimator unit truths and invariance properties."""

import contextlib
import json
import math
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qoskit.errors import DomainError
from qoskit import metrics
from qoskit.metrics import JitterEstimate, correlate, ipdv_series, mean_abs_jitter
from qoskit.model import loss_from_throughput
from qoskit.sim import SimConfig, simulate_run

# integer-valued floats keep double arithmetic exact, so identities that hold
# in real arithmetic hold bitwise
_int_delays = st.lists(
    st.integers(min_value=0, max_value=10**9).map(float), min_size=2, max_size=50
)


class TestIpdvSeries:
    def test_hand_case(self):
        assert ipdv_series([1, 3, 2]).tolist() == [2, -1]

    def test_constant_delay(self):
        assert ipdv_series([5, 5, 5]).tolist() == [0, 0]

    def test_insufficient_data(self):
        with pytest.raises(DomainError, match="need at least 2 delays"):
            ipdv_series([1.0])

    def test_rejects_negative_or_nonfinite(self):
        with pytest.raises(DomainError):
            ipdv_series([1.0, -2.0])
        with pytest.raises(DomainError):
            ipdv_series([1.0, float("nan")])

    @given(_int_delays)
    def test_reversal_antisymmetry(self, delays):
        forward = ipdv_series(delays)
        backward = ipdv_series(delays[::-1])
        assert np.array_equal(backward[::-1], -forward)

    @given(_int_delays)
    def test_telescoping_sum(self, delays):
        assert ipdv_series(delays).sum() == delays[-1] - delays[0]


class TestMeanAbsJitter:
    def test_hand_case(self):
        est = mean_abs_jitter([1, 3, 2], ci=False)
        assert est.mean_abs_ipdv == 1.5
        assert est.n_samples == 2
        assert est.ci95_halfwidth is None

    def test_constant_series_zero_with_zero_ci(self):
        est = mean_abs_jitter([4.0] * 10, seed=1)
        assert est.mean_abs_ipdv == 0.0
        assert est.ci95_halfwidth == 0.0
        assert est.n_samples == 9

    @pytest.mark.parametrize("delays", [[0.0, 1.5e308, 0.0, 1.5e308],
                                        [0.0, 1e308, 0.0, 1.6e308, 0.0, 1.6e308]])
    def test_mean_whose_sum_overflows(self, delays):
        """The estimate and each bootstrap resample take the overflow-safe
        mean of the run summaries; a plain sum of these samples is inf."""
        samples = np.abs(np.diff(delays))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = mean_abs_jitter(delays, seed=1)
        assert est.mean_abs_ipdv == pytest.approx(math.fsum(samples / 8) / samples.size * 8,
                                                  rel=1e-15)
        assert math.isfinite(est.ci95_halfwidth)
        assert (est.ci95_halfwidth == 0.0) == (np.ptp(samples) == 0.0)

    def test_bootstrap_is_seeded(self):
        delays = np.random.default_rng(3).exponential(1.0, 200)
        a = mean_abs_jitter(delays, seed=42)
        b = mean_abs_jitter(delays, seed=42)
        c = mean_abs_jitter(delays, seed=43)
        assert a == b
        assert a.ci95_halfwidth != c.ci95_halfwidth
        assert a.ci95_halfwidth > 0

    @given(_int_delays, st.integers(min_value=0, max_value=10**6).map(float))
    def test_translation_invariance_exact(self, delays, shift):
        base = mean_abs_jitter(delays, ci=False).mean_abs_ipdv
        shifted = mean_abs_jitter([d + shift for d in delays], ci=False).mean_abs_ipdv
        assert shifted == base

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=50),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_linear_scaling(self, delays, k):
        """Rounding each ``d * k`` moves each difference by up to about
        eps * k * max|d|, which cancellation can make large against a small
        mean; the 1e-300 floor covers products in the subnormal range."""
        base = mean_abs_jitter(delays, ci=False).mean_abs_ipdv
        scaled = mean_abs_jitter([d * k for d in delays], ci=False).mean_abs_ipdv
        cancellation = 2 * sys.float_info.epsilon * k * max(delays)
        assert scaled == pytest.approx(k * base, rel=1e-12, abs=max(cancellation, 1e-300))

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=50),
        st.integers(min_value=0, max_value=20),
    )
    @example([0.0, 5e-324, 1.5e-323], 1)  # mean 1.5 steps rounds to 2; doubled it is 3
    def test_power_of_two_scaling_is_exact(self, delays, j):
        """Scaling by 2**j scales every delay, difference and partial sum
        exactly, so the mean scales bit for bit unless it is subnormal: there
        the final division rounds to the subnormal grid, steps of 2**-1074."""
        k = 2.0 ** j
        base = mean_abs_jitter(delays, ci=False).mean_abs_ipdv
        scaled = mean_abs_jitter([d * k for d in delays], ci=False).mean_abs_ipdv
        if base == 0.0 or base >= sys.float_info.min:
            assert scaled == k * base
        else:
            assert abs(scaled - k * base) <= k * 2.0 ** -1074

    def test_matches_run_summary_estimator_exactly(self):
        """On an unbounded run the tagged delay series is contiguous, so the
        standalone estimator reproduces the run summary bit for bit."""
        cfg = SimConfig(1000.0, 500.0, horizon_packets=50_000, seed=12)
        log, summary = simulate_run(cfg)
        first = int(cfg.horizon_packets * cfg.warmup_fraction)
        delays = log.sojourn_times[first:][log.tagged[first:]]
        est = mean_abs_jitter(delays, ci=False)
        assert est.mean_abs_ipdv == summary.empirical_jitter_J
        assert est.n_samples == summary.n_jitter_samples


def _sequential_jitter(delays, n_boot, seed) -> JitterEstimate:
    """``mean_abs_jitter`` as one plain loop: each resample is drawn, gathered
    and averaged before the next is drawn."""
    samples = metrics._abs_differences(metrics._as_delay_array(delays))
    rng = np.random.default_rng(seed)
    n = samples.size
    means = np.empty(n_boot)
    for b in range(n_boot):
        means[b] = metrics._mean(samples[rng.integers(0, n, size=n)])
    lo, hi = np.percentile(means, [2.5, 97.5])
    return JitterEstimate(mean_abs_ipdv=metrics._mean(samples), n_samples=int(n),
                          ci95_halfwidth=float((hi - lo) / 2.0))


def _outcome(estimate):
    """What ``estimate()`` returns, or the type and text of its error."""
    try:
        return estimate()
    except FloatingPointError as exc:
        return type(exc), str(exc)


# |differences| of about 1.6e308: a resample's plain sum leaves the double
# range, so its mean is taken over unit-scaled values
_NEAR_MAX = [0.0, 1.6e308, 0.0, 1e308, 1.5e308, 0.0, 1.7e308, 2e307]

# nine |differences| of 1e-300 and one of 1.7e308: the estimate's sum is
# finite, but a resample that draws the large one twice is unit-scaled, and
# 1e-300 scaled by 2^-1024 underflows
_UNDERFLOWS_WHEN_SCALED = [0.0, 1e-300] * 5 + [1.7e308]


class TestBootstrapPipeline:
    """The bootstrap draws resample b + 1 while a worker thread averages
    resample b; it must give the plain loop's values bit for bit."""

    @pytest.mark.parametrize("n_boot", [1, 2, 3, 1000])
    @pytest.mark.parametrize("size", [2, 3, 4, 17, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_equals_the_sequential_loop(self, n_boot, size, seed):
        delays = np.random.default_rng([size, seed % 97]).exponential(1e-3, size)
        assert mean_abs_jitter(delays, n_boot=n_boot, seed=seed) == \
            _sequential_jitter(delays, n_boot, seed)

    @pytest.mark.parametrize("n_boot", [1, 2, 3, 1000])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_the_sequential_loop_near_the_largest_double(self, n_boot, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            estimate = mean_abs_jitter(_NEAR_MAX, n_boot=n_boot, seed=seed)
        assert estimate == _sequential_jitter(_NEAR_MAX, n_boot, seed)
        assert math.isfinite(estimate.ci95_halfwidth)

    def test_equals_the_sequential_loop_under_fast_thread_switches(self):
        """The worker writes each mean while the caller draws; a switch
        interval of 1 us interleaves the two threads as finely as it can."""
        delays = np.random.default_rng(5).exponential(1.0, 300)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            estimate = mean_abs_jitter(delays, n_boot=2000, seed=3)
        finally:
            sys.setswitchinterval(interval)
        assert estimate == _sequential_jitter(delays, 2000, 3)

    def test_workload_fingerprint(self):
        """The packet-dump benchmark's estimate, over the tagged sojourns of
        its 1M-packet seed-42 run, is the recorded fingerprint exactly."""
        golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
        recorded = json.loads(golden.read_text())["packet-dump"]["jitter"]
        log, _ = simulate_run(SimConfig(1000.0, 500.0, horizon_packets=1_000_000, seed=42))
        estimate = mean_abs_jitter(log.sojourn_times[log.tagged & ~log.dropped])
        assert {"mean_abs_ipdv": estimate.mean_abs_ipdv, "n_samples": estimate.n_samples,
                "ci95_halfwidth": estimate.ci95_halfwidth} == recorded

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        mean_abs_jitter(np.arange(50.0) % 7, n_boot=100)
        assert threading.active_count() == before

    @pytest.mark.parametrize("k", [0, 1, 5, 99])
    def test_first_error_in_resample_order(self, monkeypatch, k):
        """Every resample from k on fails; the caller gets resample k's
        error, no later resample is averaged, and no thread is left."""
        calls = []
        mean = metrics._mean

        def failing(values):
            calls.append(len(calls) - 1)    # call 0 takes the estimate itself
            if calls[-1] >= k:
                raise RuntimeError(f"resample {calls[-1]}")
            return mean(values)

        monkeypatch.setattr(metrics, "_mean", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^resample {k}$"):
            mean_abs_jitter(np.arange(50.0) % 7, n_boot=100)
        assert calls == list(range(-1, k + 1))
        assert threading.active_count() == before

    @pytest.mark.parametrize("errors, raises", [({"over": "raise"}, False),
                                                ({"under": "raise"}, True),
                                                ({"all": "raise"}, True)])
    def test_caller_error_handling_reaches_the_worker(self, errors, raises):
        """numpy's error handling is per thread: the worker must average
        under the caller's, as the plain loop does."""
        with np.errstate(**errors):
            got = _outcome(lambda: mean_abs_jitter(_UNDERFLOWS_WHEN_SCALED, n_boot=20, seed=0))
            want = _outcome(lambda: _sequential_jitter(_UNDERFLOWS_WHEN_SCALED, 20, 0))
        assert got == want
        assert isinstance(got, tuple) == raises

    def test_peak_memory_a_few_arrays(self):
        """At most five arrays of n doubles at once: the samples, the
        indices being averaged and those being drawn, and the gathered
        resample. The plain loop peaked at about 2.3 MiB here."""
        n = 100_000
        delays = np.random.default_rng(11).exponential(1e-3, n + 1)
        mean_abs_jitter(delays[:100], n_boot=2)     # imports outside the trace
        tracemalloc.start()
        try:
            mean_abs_jitter(delays, n_boot=50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n * 8


class TestOneAhead:
    """``metrics._one_ahead``, the bounded worker map under the bootstrap and
    the packet dump's writer (one worker) and the sweep (one per core)."""

    def test_results_in_item_order(self):
        before = threading.active_count()
        assert list(metrics._one_ahead(lambda x: x * x, range(50))) == [x * x for x in range(50)]
        assert list(metrics._one_ahead(lambda x: x, [])) == []
        assert list(metrics._one_ahead(lambda x: x, [7])) == [7]
        assert threading.active_count() == before

    @pytest.mark.parametrize("k", [0, 1, 5, 9])
    def test_error_in_item_k_reaches_the_caller_at_k(self, k):
        """Item k fails: the caller gets results 0 to k - 1, then the error,
        and no later item is computed."""
        calls = []

        def fn(x):
            calls.append(x)
            if x >= k:
                raise RuntimeError(f"item {x}")
            return x

        got = []
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^item {k}$"):
            for result in metrics._one_ahead(fn, range(10)):
                got.append(result)
        assert got == list(range(k)) and calls == list(range(k + 1))
        assert threading.active_count() == before

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_error_making_item_k_comes_after_result_k_minus_1(self, k):
        """Items are made on the calling thread; one that fails to be made
        fails in its place, after every earlier result."""
        calls = []

        def items():
            for x in range(10):
                if x == k:
                    raise ValueError(f"making {x}")
                yield x

        got = []
        with pytest.raises(ValueError, match=f"^making {k}$"):
            for result in metrics._one_ahead(calls.append, items()):
                got.append(result)
        assert got == [None] * k and calls == list(range(k))

    def test_items_made_on_the_calling_thread(self):
        caller = threading.get_ident()
        made = []

        def items():
            for x in range(5):
                made.append(threading.get_ident())
                yield x

        workers = set(metrics._one_ahead(lambda x: threading.get_ident(), items()))
        assert set(made) == {caller} and caller not in workers and len(workers) == 1

    @pytest.mark.parametrize("how", ["break", "raise"])
    def test_consumer_that_stops_early_leaves_no_thread(self, how):
        before = threading.active_count()
        calls = []
        with pytest.raises(KeyError) if how == "raise" else contextlib.nullcontext():
            for result in metrics._one_ahead(lambda x: calls.append(x) or x, range(100)):
                if result == 3:
                    if how == "break":
                        break
                    raise KeyError(result)
        assert threading.active_count() == before
        assert calls == list(range(5))      # item 4 had started when result 3 came

    @pytest.mark.parametrize("errors", [{"divide": "raise"}, {"divide": "ignore"},
                                        {"all": "warn"}])
    def test_worker_runs_under_the_callers_error_handling(self, errors):
        with np.errstate(**errors):
            caller = np.geterr()
            seen = list(metrics._one_ahead(lambda _: np.geterr(), range(3)))
        assert seen == [caller] * 3

    def test_results_in_item_order_on_two_workers(self):
        """Calls that finish out of order still come back in item order."""
        before = threading.active_count()

        def fn(x):
            time.sleep(0.002 * (x % 3 == 0))
            return x * x

        assert list(metrics._one_ahead(fn, range(60), 2)) == [x * x for x in range(60)]
        assert list(metrics._one_ahead(fn, [], 2)) == []
        assert list(metrics._one_ahead(fn, [7], 2)) == [49]
        assert threading.active_count() == before

    def test_three_calls_submitted_on_two_workers(self):
        """While item 0 runs, the other worker takes items 1 and 2 at once;
        item 3 is made but waits for result 0."""
        calls, made, seen = [], [], []

        def items():
            for x in range(10):
                made.append(x)
                yield x

        def fn(x):
            calls.append(x)
            if x == 0:
                deadline = time.monotonic() + 10
                while len(calls) < 3 and time.monotonic() < deadline:
                    time.sleep(0.001)
                time.sleep(0.05)        # a call past the window would start now
                seen.append((list(made), sorted(calls)))
            return x

        assert list(metrics._one_ahead(fn, items(), 2)) == list(range(10))
        assert seen == [([0, 1, 2, 3], [0, 1, 2])]

    @pytest.mark.parametrize("k", [0, 1, 5, 9])
    def test_error_in_item_k_on_two_workers(self, k):
        """Item k fails: the caller gets results 0 to k - 1, then the error,
        and nothing past item k + 3 is called."""
        calls = []

        def fn(x):
            calls.append(x)
            if x == k:
                raise RuntimeError(f"item {x}")
            return x

        got = []
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^item {k}$"):
            for result in metrics._one_ahead(fn, range(20), 2):
                got.append(result)
        assert got == list(range(k))
        assert set(range(k + 1)) <= set(calls) <= set(range(k + 4))
        assert threading.active_count() == before

    def test_calls_not_started_are_cancelled(self):
        """On three workers five calls are submitted. Item 0 fails once
        items 1 and 2 hold the other workers; item 4, and item 3 unless the
        freed worker took it first, are cancelled and never run."""
        calls = []
        started = threading.Barrier(3, timeout=10)

        def fn(x):
            calls.append(x)
            if x < 3:
                started.wait()
            if x == 0:
                raise RuntimeError("item 0")
            time.sleep(0.2)
            return x

        with pytest.raises(RuntimeError, match="^item 0$"):
            list(metrics._one_ahead(fn, range(20), 3))
        assert sorted(calls) in ([0, 1, 2], [0, 1, 2, 3])

    @pytest.mark.parametrize("k", [0, 3])
    def test_error_making_item_k_on_two_workers(self, k):
        def items():
            for x in range(10):
                if x == k:
                    raise ValueError(f"making {x}")
                yield x

        got = []
        with pytest.raises(ValueError, match=f"^making {k}$"):
            for result in metrics._one_ahead(lambda x: x, items(), 2):
                got.append(result)
        assert got == list(range(k))

    @pytest.mark.parametrize("how", ["break", "raise"])
    def test_consumer_that_stops_early_on_two_workers(self, how):
        before = threading.active_count()
        calls = []
        with pytest.raises(KeyError) if how == "raise" else contextlib.nullcontext():
            for result in metrics._one_ahead(lambda x: calls.append(x) or x, range(100), 2):
                if result == 3:
                    if how == "break":
                        break
                    raise KeyError(result)
        assert threading.active_count() == before
        assert set(range(4)) <= set(calls) <= set(range(7))

    @pytest.mark.parametrize("errors", [{"divide": "raise"}, {"divide": "ignore"},
                                        {"all": "warn"}])
    def test_two_workers_run_under_the_callers_error_handling(self, errors):
        """Items 0 and 1 meet at a barrier, so both workers run."""
        barrier = threading.Barrier(2, timeout=10)

        def fn(x):
            if x < 2:
                barrier.wait()
            return threading.get_ident(), np.geterr()

        with np.errstate(**errors):
            caller = np.geterr()
            seen = list(metrics._one_ahead(fn, range(6), 2))
        assert len({ident for ident, _ in seen}) == 2
        assert [state for _, state in seen] == [caller] * 6


class TestWindowedThroughput:
    def test_consistent_with_run_counter_within_one_percent(self):
        """Mean of per-second delivery counts over the measurement span agrees
        with the run's global delivered/duration counter."""
        cfg = SimConfig(1000.0, 500.0, horizon_packets=50_000, seed=9)
        log, summary = simulate_run(cfg)
        first = int(cfg.horizon_packets * cfg.warmup_fraction)
        t_start = log.arrival_times[first - 1]
        span = int(log.arrival_times[-1] - t_start)
        seconds = (log.departure_times[first:] - t_start) // 1.0
        per_second = np.bincount(seconds[seconds < span].astype(np.int64), minlength=span)
        mean_rate = per_second.mean()
        assert mean_rate == pytest.approx(summary.throughput_X, rel=0.01)


class TestLossRate:
    def test_equals_run_summary_counters_exactly(self):
        cfg = SimConfig(1000.0, 800.0, buffer_capacity=10, horizon_packets=50_000, seed=6)
        _, summary = simulate_run(cfg)
        offered, delivered = summary.offered_count, summary.delivered_count
        assert (offered - delivered) / offered == summary.loss_B

    def test_hand_cases(self):
        """An unbounded buffer drops nothing; a one-packet buffer at load 0.8
        drops a share of the arrivals."""
        _, lossless = simulate_run(SimConfig(1000.0, 500.0, horizon_packets=5_000, seed=6))
        assert lossless.delivered_count == lossless.offered_count
        assert lossless.loss_B == 0.0
        _, lossy = simulate_run(SimConfig(1000.0, 800.0, buffer_capacity=1,
                                          horizon_packets=5_000, seed=6))
        assert 0.0 < lossy.loss_B < 1.0

    def test_counter_form_of_the_model_identity(self):
        """``loss_B`` is ``loss_from_throughput`` applied to the counters."""
        cfg = SimConfig(1000.0, 1200.0, buffer_capacity=5, horizon_packets=20_000, seed=7)
        _, summary = simulate_run(cfg)
        assert summary.loss_B == loss_from_throughput(summary.offered_count,
                                                      summary.delivered_count)


class TestCorrelate:
    def test_exact_linear_relation(self):
        stats = correlate([1, 2, 3], [2, 4, 6])
        assert stats.pearson_r == pytest.approx(1.0, abs=1e-15)
        assert stats.spearman_rho == 1.0
        assert stats.n == 3

    def test_exact_negative_relation(self):
        stats = correlate([1, 2, 3], [6, 4, 2])
        assert stats.pearson_r == pytest.approx(-1.0, abs=1e-15)
        assert stats.spearman_rho == -1.0

    def test_negating_one_series_flips_sign_exactly(self):
        rng = np.random.default_rng(4)
        a = rng.random(50)
        b = rng.random(50)
        plus = correlate(a, b)
        minus = correlate(a, -b + 2.0)  # keep values positive, flip direction
        flipped = correlate(a, -b)
        assert flipped.pearson_r == -plus.pearson_r
        assert flipped.spearman_rho == -plus.spearman_rho
        assert minus.spearman_rho == -plus.spearman_rho

    def test_ties_use_average_ranks(self):
        # b has a tie; average ranks give a deterministic, symmetric value
        stats = correlate([1, 2, 3, 4], [1, 2, 2, 3])
        assert stats.spearman_rho == pytest.approx(0.9486832980505139, rel=1e-12)

    def test_errors(self):
        with pytest.raises(DomainError):
            correlate([1, 2, 3], [1, 2])
        with pytest.raises(DomainError, match="need at least 3 paired samples"):
            correlate([1, 2], [3, 4])
        with pytest.raises(DomainError, match="first series is constant"):
            correlate([1, 1, 1], [1, 2, 3])
        with pytest.raises(DomainError, match="second series is constant"):
            correlate([1, 2, 3], [7, 7, 7])


@st.composite
def _paired_series(draw):
    """Two integer-valued series of 3 to 300 pairs times a magnitude from
    1e-300 to 1e300 each: a narrow integer range gives many ties, and the
    second series may follow the first."""
    n = draw(st.integers(3, 300))
    span = draw(st.integers(1, 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(-span, span, size=n, endpoint=True).astype(float)
    b = rng.integers(-span, span, size=n, endpoint=True) + draw(st.floats(-1, 1)) * a
    magnitude = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1, 9.99), st.integers(-300, 300))
    return a * draw(magnitude), b * draw(magnitude)


class TestCorrelateAgainstScipy:
    """Both coefficients are computed in numpy; scipy is the oracle."""

    @settings(deadline=None)
    @given(series=_paired_series())
    def test_matches_scipy_at_any_magnitude(self, series):
        stats = pytest.importorskip("scipy.stats")
        a, b = series
        if np.all(a == a[0]) or np.all(b == b[0]):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = correlate(a, b)
        assert math.isfinite(got.pearson_r) and math.isfinite(got.spearman_rho)
        assert got.pearson_r == pytest.approx(stats.pearsonr(a, b).statistic, abs=1e-15)
        assert got.spearman_rho == pytest.approx(stats.spearmanr(a, b).statistic, abs=1e-15)

    @pytest.mark.parametrize("magnitude", [5e-324, 1e-310, 1e-200, 1e200, 3e307])
    def test_extreme_magnitudes_give_the_unit_scale_values(self, magnitude):
        """The plain sums and squares overflow at 1e200 and leave nothing to
        divide by at 1e-200 and below; scaling by powers of two first does
        neither."""
        a, b = np.array([1.0, 2.0, 3.0, 5.0]), np.array([2.0, 1.0, 4.0, 4.0])
        want = correlate(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = correlate(a * magnitude, b * magnitude)
        assert got.pearson_r == pytest.approx(want.pearson_r, abs=1e-15)
        assert got.spearman_rho == want.spearman_rho
