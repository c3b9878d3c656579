"""Queue simulator: hand traces, classical queueing oracles, determinism."""

import dataclasses
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qoskit import sim
from qoskit.errors import (
    DomainError,
    EmptyRunError,
    InconsistentGroupError,
    InstabilityError,
)
from qoskit.sim import (
    PACKET_TRACE_HEADER,
    PacketLog,
    RunSummary,
    SimConfig,
    child_seed,
    fcfs_departures,
    merge_summaries,
    read_packet_trace,
    simulate_run,
    simulate_sweep,
    splitmix64,
    write_packet_trace,
)


class TestEngine:
    def test_hand_traced_fcfs(self):
        """Two arrivals at 0 and 0.1 with 0.5 s of service each: the second
        waits for the first, so the sojourns are 0.5 and 0.9."""
        dep, dropped = fcfs_departures([0.0, 0.1], [0.5, 0.5])
        assert dep.tolist() == [0.5, 1.0]
        assert not dropped.any()
        sojourns = dep - np.array([0.0, 0.1])
        assert sojourns.tolist() == [0.5, 0.9]
        assert abs(sojourns[1] - sojourns[0]) == pytest.approx(0.4, abs=0)

    def test_single_arrival_sojourn_is_service(self):
        dep, _ = fcfs_departures([2.0], [0.25])
        assert dep[0] == 2.25

    def test_tail_drop_when_full(self):
        # buffer of 1: the second packet arrives while the first is in service
        dep, dropped = fcfs_departures([0.0, 0.1, 2.0], [1.0, 1.0, 1.0], buffer_capacity=1)
        assert dropped.tolist() == [False, True, False]
        assert math.isnan(dep[1])
        assert dep[2] == 3.0

    def test_departure_frees_slot_on_tie(self):
        # arrival exactly at the previous departure instant is admitted
        dep, dropped = fcfs_departures([0.0, 1.0], [1.0, 1.0], buffer_capacity=1)
        assert dropped.tolist() == [False, False]
        assert dep.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("buffer_capacity", [0, -3, 2.5, True])
    def test_bad_buffer_rejected(self, buffer_capacity):
        with pytest.raises(DomainError, match="buffer capacity"):
            fcfs_departures([0.0, 1.0], [1.0, 1.0], buffer_capacity)

    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(DomainError):
            fcfs_departures([1.0, 0.5], [0.1, 0.1])

    @pytest.mark.parametrize("buffer_capacity", [None, 3, 50])
    def test_work_conservation_and_fcfs_order(self, buffer_capacity):
        """Service starts at max(arrival, previous accepted departure): the
        server never idles while someone waits, and departures keep arrival
        order among delivered packets."""
        rng = np.random.default_rng(99)
        arrivals = np.cumsum(rng.exponential(1.0, size=500))
        services = rng.exponential(0.8, size=500)
        dep, dropped = fcfs_departures(arrivals, services, buffer_capacity)
        acc = ~dropped
        acc_dep = dep[acc]
        acc_arr = arrivals[acc]
        acc_srv = services[acc]
        assert np.all(np.diff(acc_dep) >= 0)
        starts = acc_dep - acc_srv
        prev_dep = np.concatenate(([0.0], acc_dep[:-1]))
        # up to accumulated rounding of the Lindley recursion
        assert np.allclose(starts, np.maximum(acc_arr, prev_dep), rtol=1e-9, atol=1e-9)
        assert np.all(acc_dep >= acc_arr + acc_srv - 1e-9)


def _reference_fcfs(arrival_times, service_times, buffer_capacity):
    """The per-packet tail-drop loop that ``fcfs_departures`` ran before its
    two finite-buffer paths, kept verbatim as their oracle."""
    a = np.asarray(arrival_times, dtype=float).tolist()
    s = np.asarray(service_times, dtype=float).tolist()
    n = len(a)
    departures = [math.nan] * n
    dropped = [False] * n
    accepted_dep = [0.0] * n     # departures of accepted packets, in order
    n_acc = 0
    head = 0                     # accepted packets departed by current time
    for i in range(n):
        t = a[i]
        while head < n_acc and accepted_dep[head] <= t:
            head += 1
        if n_acc - head >= buffer_capacity:
            dropped[i] = True
            continue
        if n_acc and accepted_dep[n_acc - 1] > t:
            start = accepted_dep[n_acc - 1]
        else:
            start = t
        d = start + s[i]
        accepted_dep[n_acc] = d
        n_acc += 1
        departures[i] = d
    return np.asarray(departures), np.asarray(dropped)


_CROSSOVER = sim._BLOCK_MIN_BUFFER
_BUFFERS = st.sampled_from([1, 2, 3, 7, _CROSSOVER - 1, _CROSSOVER, _CROSSOVER + 1, 250])


@st.composite
def _integer_times(draw):
    """Integer-valued arrivals and services: every sum is exact, so arrival
    instants tie exactly with departure instants. Zero gaps repeat arrival
    instants; zero services occur; the load runs from idle to overload."""
    n = draw(st.integers(1, 4 * _CROSSOVER))
    max_gap = draw(st.integers(0, 3))
    max_service = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrivals = np.cumsum(rng.integers(0, max_gap, size=n, endpoint=True)).astype(float)
    services = rng.integers(0, max_service, size=n, endpoint=True).astype(float)
    return arrivals, services


class TestFiniteBufferOracle:
    @settings(deadline=None)
    @given(times=_integer_times(), buffer_capacity=_BUFFERS)
    def test_exact_on_integer_times(self, times, buffer_capacity):
        arrivals, services = times
        dep, dropped = fcfs_departures(arrivals, services, buffer_capacity)
        ref_dep, ref_dropped = _reference_fcfs(arrivals, services, buffer_capacity)
        assert np.array_equal(dropped, ref_dropped)
        assert np.array_equal(dep, ref_dep, equal_nan=True)

    @pytest.mark.parametrize("path", [
        sim._fcfs_ring,
        # Lanes of 8 packets: the real ones are longer than these inputs.
        pytest.param(lambda a, s, k: _run_lanes((8, 4, 3, 2, 5), a, s, k)[0],
                     id="_fcfs_lanes"),
        sim._fcfs_blocks,
    ])
    @settings(deadline=None)
    @given(times=_integer_times(), buffer_capacity=st.integers(1, 12) | _BUFFERS)
    def test_each_path_exact_at_any_buffer(self, path, times, buffer_capacity):
        arrivals, services = times
        ref_dep, _ = _reference_fcfs(arrivals, services, buffer_capacity)
        assert np.array_equal(path(arrivals, services, buffer_capacity), ref_dep,
                              equal_nan=True)

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rho=st.floats(0.3, 4.0),
        n=st.integers(1, 3000),
        buffer_capacity=_BUFFERS,
    )
    def test_matches_reference_on_continuous_times(self, seed, rho, n, buffer_capacity):
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = rng.exponential(rho, size=n)
        dep, dropped = fcfs_departures(arrivals, services, buffer_capacity)
        ref_dep, ref_dropped = _reference_fcfs(arrivals, services, buffer_capacity)
        assert np.array_equal(dropped, ref_dropped)
        kept = ~ref_dropped
        assert np.allclose(dep[kept], ref_dep[kept], rtol=1e-12, atol=0.0)
        assert np.isnan(dep[ref_dropped]).all()
        if buffer_capacity < _CROSSOVER:
            assert np.array_equal(dep, ref_dep, equal_nan=True)


_LANE_CONSTANTS = ("_LANE_PACKETS", "_LANE_WARMUP", "_LANE_GROUP", "_LANE_PROBE",
                   "_LANE_CHUNK")


@st.composite
def _lane_shapes(draw):
    """Small lanes, so that short inputs span many lanes and groups: L
    packets per lane, W warm-up packets (1 to L), groups of 1 to 7 lanes
    after a first group of 1 to 3, and chunks of 1 to L + W steps."""
    lane = draw(st.integers(4, 64))
    warm = draw(st.integers(1, lane))
    return (lane, warm, draw(st.integers(1, 7)), draw(st.integers(1, 3)),
            draw(st.integers(1, lane + warm)))


@st.composite
def _continuous_times(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3000))
    return np.cumsum(rng.exponential(1.0, size=n)), rng.exponential(draw(st.floats(0.3, 4.0)),
                                                                    size=n)


def _run_lanes(shape, arrivals, services, buffer_capacity):
    """``_fcfs_lanes`` at the given lane shape; also returns the (lo, hi)
    packet ranges it handed to the ring loop."""
    calls = []
    ring_run = sim._ring_run

    def spy(arr, srv, lo, hi, departures, state):
        calls.append((lo, hi))
        return ring_run(arr, srv, lo, hi, departures, state)

    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(_LANE_CONSTANTS, shape):
            mp.setattr(sim, name, value)
        mp.setattr(sim, "_ring_run", spy)
        departures = sim._fcfs_lanes(np.asarray(arrivals, dtype=float),
                                     np.asarray(services, dtype=float), buffer_capacity)
    return departures, calls


class TestLanes:
    """The lanes path against the per-packet oracle, bit for bit, at lane
    shapes small enough to reach every branch: several groups, lanes that
    couple in their overlap, lanes repaired up to a shared idle arrival,
    chains of lanes that never couple (overload), the packets after the
    last whole lane, and the hand-over to the ring loop."""

    @settings(deadline=None, max_examples=300)
    @given(shape=_lane_shapes(), times=_integer_times() | _continuous_times(),
           buffer_capacity=st.integers(1, 12) | st.sampled_from([_CROSSOVER - 1]))
    def test_bit_identical_at_any_lane_shape(self, shape, times, buffer_capacity):
        arrivals, services = times
        departures, _ = _run_lanes(shape, arrivals, services, buffer_capacity)
        ref_dep, _ = _reference_fcfs(arrivals, services, buffer_capacity)
        assert np.array_equal(departures, ref_dep, equal_nan=True)

    @pytest.mark.parametrize("buffer_capacity", [1, 3])
    def test_departure_at_an_arrival_counts_as_idle(self, buffer_capacity):
        """Each packet leaves exactly when the next arrives: the queue is
        idle (not strictly) at every arrival, so every lane couples in its
        overlap and the ring loop only sees the packets after the last lane."""
        shape = (8, 2, 3, 1, 5)
        n = 20 * 8 + 3
        arrivals = 2.0 * np.arange(n)
        services = np.full(n, 2.0)
        departures, calls = _run_lanes(shape, arrivals, services, buffer_capacity)
        assert np.array_equal(departures, arrivals + 2.0)
        assert calls == [(n - 3, n)]

    def test_rerun_stops_where_a_departure_meets_an_arrival(self):
        """A long service leaves lane 1 busy through its overlap, so the
        ring loop reruns it; the queue is next idle exactly when a
        departure meets an arrival, and there the rerun hands back."""
        n = 5 * 8 + 3
        arrivals = 2.0 * np.arange(n)
        services = np.full(n, 2.0)
        services[5] = 8.0
        departures, calls = _run_lanes((8, 2, 3, 1, 5), arrivals, services, 1)
        ref_dep, _ = _reference_fcfs(arrivals, services, 1)
        assert np.array_equal(departures, ref_dep, equal_nan=True)
        assert calls == [(8, 16), (n - 3, n)]

    @pytest.mark.parametrize(
        "load, buffer_capacity, branches",
        [
            # Mostly idle: every lane couples in its overlap, over many groups.
            (0.3, 3, {"several groups", "last packets"}),
            # Near saturation: some lanes need a rerun up to a shared idle arrival.
            (1.0, 4, {"several groups", "rerun until coupled", "last packets"}),
            # Overload: lanes never couple, so reruns chain and the ring takes over.
            (3.0, 6, {"never coupled", "ring takes over"}),
        ],
        ids=["idle", "saturated", "overload"],
    )
    def test_reaches_every_branch(self, load, buffer_capacity, branches):
        shape = (64, 8, 4, 2, 16)
        lane, _, _, probe, _ = shape
        rng = np.random.default_rng(2024)
        n = 40 * lane + 5
        arrivals = np.cumsum(rng.integers(0, 3, size=n, endpoint=True)).astype(float)
        services = rng.integers(0, round(2 * load), size=n, endpoint=True).astype(float)
        departures, calls = _run_lanes(shape, arrivals, services, buffer_capacity)
        ref_dep, _ = _reference_fcfs(arrivals, services, buffer_capacity)
        assert np.array_equal(departures, ref_dep, equal_nan=True)
        # The true queue is idle at an arrival when every earlier departure is
        # at or before it; a lane without such an arrival cannot couple.
        before = np.concatenate(([-np.inf], np.fmax.accumulate(ref_dep)[:-1]))
        idle = np.nan_to_num(before, nan=-np.inf) <= arrivals
        whole = n // lane * lane
        seen = set()
        if (whole, n) in calls:
            seen.add("last packets")
            if whole > probe * lane:
                seen.add("several groups")
        if any(hi == n and lo < whole for lo, hi in calls):
            seen.add("ring takes over")
        for first in range(0, whole, lane):
            ends = [hi for lo, hi in calls if first <= lo < first + lane and hi <= whole]
            if ends and max(ends) < first + lane:
                seen.add("rerun until coupled")
            elif ends and not idle[first:first + lane].any():
                seen.add("never coupled")
        assert branches <= seen


class TestLanesAtTheRealShape:
    """The lanes at their real constants, which the small shapes above stand
    in for."""

    def test_bit_identical_with_couplings_and_reruns(self):
        """A 32-lane first group, then one group of the rest, at a load
        where half the lanes couple in their overlap, most others are rerun
        up to a shared idle arrival, and some to their end."""
        lane = sim._LANE_PACKETS
        rng = np.random.default_rng(1729)
        n = 40 * lane + 77
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = rng.exponential(1.3, size=n)
        shape = tuple(getattr(sim, name) for name in _LANE_CONSTANTS)
        departures, calls = _run_lanes(shape, arrivals, services, 10)
        ref_dep, _ = _reference_fcfs(arrivals, services, 10)
        assert np.array_equal(departures, ref_dep, equal_nan=True)
        whole = n // lane * lane
        rerun = {lo // lane: [] for lo, hi in calls if hi <= whole}
        for lo, hi in calls:
            if hi <= whole:
                rerun[lo // lane].append(hi)
        assert calls[-1] == (whole, n)
        assert 0 < len(rerun) < n // lane
        coupled = [max(ends) < (j + 1) * lane for j, ends in rerun.items()]
        assert any(coupled) and not all(coupled)
        assert any(j >= sim._LANE_PROBE for j in rerun)

    @pytest.mark.parametrize(
        "n, load, lanes",
        [(sim._LANE_MIN_PACKETS - 1, 0.5, False), (sim._LANE_MIN_PACKETS, 0.5, True),
         (sim._LANE_MIN_PACKETS, 2.5, False)],
        ids=["short", "long", "long overload"],
    )
    def test_lanes_only_where_they_pay(self, n, load, lanes):
        """Short inputs and queues that are seldom idle go to the ring loop."""
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = rng.exponential(load, size=n)
        taken = []
        fcfs_lanes = sim._fcfs_lanes

        def spy(*args):
            taken.append(args)
            return fcfs_lanes(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_fcfs_lanes", spy)
            departures, _ = fcfs_departures(arrivals, services, 10)
        assert bool(taken) == lanes
        assert np.array_equal(departures, sim._fcfs_ring(arrivals, services, 10),
                              equal_nan=True)


class TestSimConfig:
    def test_unstable_unbounded_rejected(self):
        with pytest.raises(InstabilityError):
            SimConfig(1000.0, 1000.0)

    def test_unstable_allowed_with_finite_buffer(self):
        cfg = SimConfig(1000.0, 1500.0, buffer_capacity=10, horizon_packets=10)
        assert cfg.rho == 1.5

    def test_zero_horizon_is_empty_run(self):
        with pytest.raises(EmptyRunError):
            SimConfig(1000.0, 500.0, horizon_packets=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tagged_fraction=0.0),
            dict(tagged_fraction=1.5),
            dict(warmup_fraction=0.5),
            dict(warmup_fraction=-0.1),
            dict(buffer_capacity=0),
            dict(service_distribution="uniform"),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(1000.0, 500.0, horizon_packets=10, **kwargs)

    @pytest.mark.parametrize("field", ["buffer_capacity", "horizon_packets"])
    def test_bool_is_not_a_count(self, field):
        """``True`` is an int to Python; as a count it would silently be 1."""
        counts = {"buffer_capacity": 10, "horizon_packets": 10, field: True}
        with pytest.raises(DomainError, match="count"):
            SimConfig(1000.0, 500.0, **counts)


class TestSimulateRun:
    def test_deterministic_bit_identical(self):
        cfg = SimConfig(1000.0, 500.0, horizon_packets=5000, seed=7)
        log1, s1 = simulate_run(cfg)
        log2, s2 = simulate_run(cfg)
        assert np.array_equal(log1.arrival_times, log2.arrival_times)
        assert np.array_equal(log1.service_times, log2.service_times)
        assert np.array_equal(log1.departure_times, log2.departure_times)
        assert np.array_equal(log1.tagged, log2.tagged)
        assert s1 == s2

    def test_different_seeds_differ(self):
        _, s1 = simulate_run(SimConfig(1000.0, 500.0, horizon_packets=5000, seed=1))
        _, s2 = simulate_run(SimConfig(1000.0, 500.0, horizon_packets=5000, seed=2))
        assert s1.empirical_jitter_J != s2.empirical_jitter_J

    def test_single_packet_deterministic_service(self):
        cfg = SimConfig(
            1000.0, 500.0, horizon_packets=1, warmup_fraction=0.0,
            service_distribution="deterministic", seed=5,
        )
        log, summary = simulate_run(cfg)
        assert log.sojourn_times[0] == 1.0 / 1000.0
        assert summary.delivered_count == 1
        assert summary.loss_B == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3, 42])
    def test_mm1_mean_sojourn_oracle(self, seed):
        """M/M/1: the stationary mean sojourn is 1/(C - lambda)."""
        cfg = SimConfig(1000.0, 500.0, horizon_packets=200_000, seed=seed)
        _, summary = simulate_run(cfg)
        assert summary.mean_sojourn == pytest.approx(1.0 / 500.0, rel=0.02)
        assert summary.loss_B == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3, 42])
    def test_mm1k_loss_oracle(self, seed):
        """M/M/1/K: blocking probability (1-rho) rho^K / (1 - rho^(K+1)),
        with the buffer counting waiting plus in-service packets."""
        rho, cap = 0.8, 10
        cfg = SimConfig(1000.0, 800.0, buffer_capacity=cap, horizon_packets=200_000, seed=seed)
        _, summary = simulate_run(cfg)
        oracle = (1 - rho) * rho**cap / (1 - rho ** (cap + 1))
        assert summary.loss_B == pytest.approx(oracle, rel=0.05)

    def test_counter_identity_is_exact(self):
        """Loss from counters equals (lambda - X)/lambda computed from the
        stored rates: both divide the same counts by the same window."""
        for cfg in (
            SimConfig(1000.0, 500.0, horizon_packets=20_000, seed=3),
            SimConfig(1000.0, 800.0, buffer_capacity=10, horizon_packets=20_000, seed=3),
            SimConfig(1000.0, 950.0, buffer_capacity=4, horizon_packets=20_000, seed=4),
        ):
            _, s = simulate_run(cfg)
            rate_form = (s.offered_lambda - s.throughput_X) / s.offered_lambda
            if s.loss_B == 0.0:
                assert rate_form == 0.0
            else:
                assert abs(rate_form - s.loss_B) / s.loss_B <= 1e-12
            assert s.loss_B == (s.offered_count - s.delivered_count) / s.offered_count

    def test_jitter_pairs_broken_by_drops(self):
        """A dropped tagged packet contributes no pair on either side."""
        cfg = SimConfig(
            1000.0, 2000.0, buffer_capacity=2, horizon_packets=4000,
            tagged_fraction=1.0, warmup_fraction=0.0, seed=11,
        )
        log, summary = simulate_run(cfg)
        delivered = ~log.dropped
        # pairs of adjacent arrivals that were both delivered
        both = delivered[:-1] & delivered[1:]
        assert summary.n_jitter_samples == int(both.sum())
        expected = np.abs(
            log.sojourn_times[1:][both] - log.sojourn_times[:-1][both]
        ).mean()
        assert summary.empirical_jitter_J == expected

    def test_packet_columns_mark_drops(self):
        """Departure and sojourn are NaN exactly on the dropped packets, and
        every delivered packet departs no sooner than arrival + service."""
        cfg = SimConfig(1000.0, 800.0, buffer_capacity=3, horizon_packets=200, seed=8)
        log, _ = simulate_run(cfg)
        assert len(log) == 200
        assert log.dropped.any() and not log.dropped.all()
        assert np.array_equal(np.isnan(log.departure_times), log.dropped)
        assert np.array_equal(np.isnan(log.sojourn_times), log.dropped)
        kept = ~log.dropped
        assert np.all(log.departure_times[kept]
                      >= log.arrival_times[kept] + log.service_times[kept])

    def test_packet_log_compares_by_identity(self):
        """Two runs of one config give equal columns but distinct logs; a
        field-wise == over the arrays would raise instead."""
        cfg = SimConfig(1000.0, 500.0, horizon_packets=100, seed=8)
        log, _ = simulate_run(cfg)
        twin, _ = simulate_run(cfg)
        assert np.array_equal(log.sojourn_times, twin.sojourn_times)
        assert log == log and log != twin
        assert hash(log) == object.__hash__(log)
        assert len({log, twin, log}) == 2


def _reference_unbounded_fcfs(arrival_times, service_times):
    """The whole-array unbounded pass that ``fcfs_departures`` ran before
    the chunked one, checks included, kept verbatim as its oracle."""
    arr = np.ascontiguousarray(arrival_times, dtype=float)
    srv = np.ascontiguousarray(service_times, dtype=float)
    if np.any(np.diff(arr) < 0):
        raise DomainError("arrival times must be non-decreasing")
    if np.any(srv < 0) or not np.all(np.isfinite(srv)) or not np.all(np.isfinite(arr)):
        raise DomainError("times must be finite and service times non-negative")
    increments = srv[:-1] - np.diff(arr)
    prefix = np.concatenate(([0.0], np.cumsum(increments)))
    waits = prefix - np.minimum.accumulate(prefix)
    return arr + waits + srv


def _reference_simulate_run(config):
    """The whole-array ``simulate_run`` of an unbounded run before the
    chunked pass, kept verbatim as its oracle: it always takes the tagging
    draw and builds the drop masks."""
    n = config.horizon_packets
    rng = np.random.default_rng(config.seed & ((1 << 64) - 1))
    interarrivals = rng.exponential(1.0 / config.arrival_rate_lambda, size=n)
    arrivals = np.cumsum(interarrivals)
    if config.service_distribution == "exponential":
        services = rng.exponential(1.0 / config.capacity_C, size=n)
    else:
        services = np.full(n, 1.0 / config.capacity_C)
    tagged = rng.random(size=n) < config.tagged_fraction
    departures = _reference_unbounded_fcfs(arrivals, services)
    dropped = np.zeros(n, dtype=bool)
    sojourn = departures - arrivals
    log = PacketLog(arrivals, services, departures, sojourn, tagged, dropped)

    first = int(n * config.warmup_fraction)
    t_start = float(arrivals[first - 1]) if first > 0 else 0.0
    window = float(arrivals[-1]) - t_start
    offered = n - first
    delivered = int(np.count_nonzero(~dropped[first:]))
    delivered_sojourns = sojourn[first:][~dropped[first:]]
    mean_sojourn = float(delivered_sojourns.mean()) if delivered_sojourns.size else math.nan
    tagged_idx = np.flatnonzero(tagged[first:]) + first
    ok = ~dropped[tagged_idx[:-1]] & ~dropped[tagged_idx[1:]]
    samples = np.abs(np.diff(sojourn[tagged_idx]))[ok]
    jitter = float(samples.mean()) if samples.size else math.nan
    return log, RunSummary(
        mean_sojourn=mean_sojourn,
        empirical_jitter_J=jitter,
        throughput_X=delivered / window,
        offered_lambda=offered / window,
        loss_B=(offered - delivered) / offered,
        n_jitter_samples=int(samples.size),
        seed=config.seed,
        offered_count=offered,
        delivered_count=delivered,
        config=config,
    )


#: Unbounded runs the chunked pass must reproduce bit for bit: horizons that
#: no chunk size divides, one and two packets, no warm-up, a sparse and a
#: full tagged flow, deterministic service.
_UNBOUNDED_RUNS = {
    "sparse tags": dict(arrival_rate_lambda=500.0, tagged_fraction=0.05,
                        horizon_packets=2_503, seed=3),
    "all tagged, no warm-up": dict(arrival_rate_lambda=950.0, tagged_fraction=1.0,
                                   warmup_fraction=0.0, horizon_packets=2_503, seed=4),
    "deterministic service": dict(arrival_rate_lambda=800.0, horizon_packets=1_001,
                                  service_distribution="deterministic", seed=5),
    "one packet": dict(arrival_rate_lambda=500.0, horizon_packets=1, warmup_fraction=0.0,
                       seed=6),
    "two packets, all tagged": dict(arrival_rate_lambda=500.0, horizon_packets=2,
                                    tagged_fraction=1.0, warmup_fraction=0.0, seed=6),
}

_CHUNKS = [1, 2, 7, 1000, sim._UNBOUNDED_CHUNK]


@st.composite
def _unbounded_times(draw):
    """Non-decreasing arrivals and non-negative services as a caller may
    build them: repeated instants, signed zeros, subnormals, negative times."""
    n = draw(st.integers(1, 60))
    edge = st.sampled_from([0.0, -0.0, 5e-324, 1.0])
    arrivals = sorted(draw(st.lists(edge | st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    services = draw(st.lists(edge | st.floats(0.0, 1e3), min_size=n, max_size=n))
    return np.array(arrivals), np.array(services)


class TestUnboundedChunks:
    """The chunked unbounded pass against the whole-array pass it replaced."""

    @pytest.mark.parametrize("chunk", _CHUNKS)
    @pytest.mark.parametrize("run", list(_UNBOUNDED_RUNS.values()), ids=list(_UNBOUNDED_RUNS))
    def test_simulate_run_matches_whole_array_pass(self, monkeypatch, chunk, run):
        config = SimConfig(1000.0, **run)
        monkeypatch.setattr(sim, "_UNBOUNDED_CHUNK", chunk)
        log, summary = simulate_run(config)
        want_log, want = _reference_simulate_run(config)
        _assert_same_log(log, want_log)
        assert summary == want
        assert repr(summary) == repr(want)
        _assert_same_summary(sim._summarize_run(config), want)

    @pytest.mark.parametrize("tagged_fraction", [0.05, 1.0])
    def test_ragged_last_chunk_at_the_default_size(self, tagged_fraction):
        config = SimConfig(1000.0, 900.0, tagged_fraction=tagged_fraction,
                           horizon_packets=2 * sim._UNBOUNDED_CHUNK + 4_001, seed=17)
        log, summary = simulate_run(config)
        want_log, want = _reference_simulate_run(config)
        _assert_same_log(log, want_log)
        assert summary == want

    def test_all_tagged_shortcut_equals_the_drawn_form(self):
        """At a tagged fraction of 1 the tagging uniforms, all below 1, are
        the last draw, so leaving it out changes no bit; the pairs are then
        every adjacent pair after the warm-up."""
        config = SimConfig(1000.0, 700.0, tagged_fraction=1.0, horizon_packets=5_000, seed=9)
        log, summary = simulate_run(config)
        want_log, want = _reference_simulate_run(config)
        assert want_log.tagged.all()
        _assert_same_log(log, want_log)
        assert summary == want
        assert summary.n_jitter_samples == 5_000 - 500 - 1

    @settings(deadline=None)
    @given(times=_unbounded_times(), chunk=st.sampled_from(_CHUNKS[:4]))
    def test_fcfs_departures_matches_whole_array_pass(self, times, chunk):
        arrivals, services = times
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_UNBOUNDED_CHUNK", chunk)
            departures, dropped = fcfs_departures(arrivals, services)
        assert departures.tobytes() == _reference_unbounded_fcfs(arrivals, services).tobytes()
        assert not dropped.any()

    @pytest.mark.parametrize("arrivals, services", [
        ([0.0, math.inf], [1.0, 1.0]),
        ([0.0, 1.0], [math.nan, 1.0]),
        ([0.0, 1.0], [1.0, -1.0]),
        ([1.0, 0.5], [1.0, math.inf]),
    ])
    def test_fcfs_departures_checks_as_before(self, arrivals, services):
        with pytest.raises(DomainError) as want:
            _reference_unbounded_fcfs(arrivals, services)
        with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
            fcfs_departures(arrivals, services)

    @pytest.mark.parametrize("chunk", [1, 2, sim._UNBOUNDED_CHUNK])
    @pytest.mark.parametrize("run", [
        # 1/C and 1/lambda are infinite
        dict(capacity_C=1e-310, arrival_rate_lambda=5e-311, horizon_packets=50,
             service_distribution="deterministic"),
        # only the service draw overflows past 1.8e308
        dict(capacity_C=2e-308, arrival_rate_lambda=1.99e-308, horizon_packets=1, seed=55),
        # only the arrivals overflow, after about 180 packets
        dict(capacity_C=1e-300, arrival_rate_lambda=1e-306, horizon_packets=1_000),
    ], ids=["both infinite", "service overflows", "arrivals overflow"])
    def test_non_finite_draws_rejected_as_before(self, monkeypatch, chunk, run):
        config = SimConfig(**run)
        monkeypatch.setattr(sim, "_UNBOUNDED_CHUNK", chunk)
        with pytest.raises(DomainError) as want, np.errstate(all="ignore"):
            _reference_simulate_run(config)
        with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"), \
                np.errstate(all="ignore"):
            simulate_run(config)


#: SHA-256 of ``departure_times.tobytes()`` and ``sojourn_times.tobytes()``
#: for three 50k-packet unbounded runs, recorded from the whole-array pass:
#: a flipped bit anywhere in the unbounded core changes them.
_UNBOUNDED_FINGERPRINTS = [
    (dict(arrival_rate_lambda=500.0, seed=1),
     "d6513934b04911a7afafdb002648a7c307e25103e3da713fe62dbed1cc8e4d3b",
     "84da6bab7c6f41dcbf835057f1b0ded61b68deda73b4962984af6b6212c06cf9"),
    (dict(arrival_rate_lambda=950.0, tagged_fraction=1.0, warmup_fraction=0.0, seed=7),
     "8964278a0acb200361e0c5b6514592703da404a3bf0e3f11a9773611105f2e45",
     "462baa3e3de7676cba3133380375676cf07fcf09b06e44af7a8f8887bae8042e"),
    (dict(arrival_rate_lambda=800.0, service_distribution="deterministic", seed=1729),
     "762cc719fb57eecdf65c447f2c61bb2748d8f96f3b3c025e469eac92cf51823f",
     "e31f3746fbc1a88efd1f87f15c0a611358eb0a0f0c797248bd2c0c36375d34a7"),
]


@pytest.mark.parametrize("run, departures_sha256, sojourns_sha256", _UNBOUNDED_FINGERPRINTS,
                         ids=["rho 0.5", "rho 0.95 all tagged", "rho 0.8 deterministic"])
def test_unbounded_fingerprint(run, departures_sha256, sojourns_sha256):
    log, _ = simulate_run(SimConfig(1000.0, horizon_packets=50_000, **run))
    assert hashlib.sha256(log.departure_times.tobytes()).hexdigest() == departures_sha256
    assert hashlib.sha256(log.sojourn_times.tobytes()).hexdigest() == sojourns_sha256


class TestSeeds:
    def test_splitmix64_is_stable(self):
        # frozen reference values of the standard finalizer
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) == 10451216379200822465

    def test_child_seeds_distinct_and_reproducible(self):
        seeds = {child_seed(1729, i, j) for i in range(20) for j in range(20)}
        assert len(seeds) == 400
        assert child_seed(1729, 3, 4) == child_seed(1729, 3, 4)
        assert child_seed(1729, 3, 4) != child_seed(1729, 4, 3)


class TestSweep:
    def test_single_point_matches_direct_run(self):
        base = SimConfig(1000.0, 500.0, horizon_packets=20_000, seed=77)
        [summary] = simulate_sweep(base, [0.5], seeds_per_point=1)
        direct_cfg = SimConfig(
            1000.0, 500.0, horizon_packets=20_000, seed=child_seed(77, 0, 0)
        )
        _, direct = simulate_run(direct_cfg)
        assert summary == direct

    def test_empty_grid(self):
        base = SimConfig(1000.0, 500.0, horizon_packets=100, seed=1)
        assert simulate_sweep(base, []) == []

    def test_errors_annotated_with_grid_point(self):
        base = SimConfig(1000.0, 500.0, horizon_packets=100, seed=1)
        with pytest.raises(InstabilityError, match="grid index 1"):
            simulate_sweep(base, [0.5, 1.2])

    def test_capacity_mode_holds_arrival_rate(self):
        base = SimConfig(1000.0, 800.0, buffer_capacity=10, horizon_packets=1000, seed=5)
        summaries = simulate_sweep(base, [0.5, 1.0, 1.6], seeds_per_point=1, vary="capacity")
        assert [s.config.arrival_rate_lambda for s in summaries] == [800.0] * 3
        assert [s.config.capacity_C for s in summaries] == [1600.0, 800.0, 500.0]


def _assert_same_summary(got, want):
    """Field by field and bit for bit (``repr`` round-trips a float); NaN
    equals NaN."""
    for field in dataclasses.fields(RunSummary):
        assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), field.name


def _sweep_against_runs(base, grid, **kwargs):
    """``simulate_sweep`` next to ``simulate_run`` of each point's config."""
    swept = simulate_sweep(base, grid, **kwargs)
    assert len(swept) == len(grid) * kwargs.get("seeds_per_point", 1)
    for summary in swept:
        _, want = simulate_run(summary.config)
        _assert_same_summary(summary, want)
    return swept


#: Horizons around the unbounded pass's chunk of 32,768 packets.
_SUMMARY_HORIZONS = [1, 2, 32_767, 32_768, 32_769, 65_537, 300_001]


class TestSummaryOnly:
    """Sweeps run summary-only in one reused workspace; every summary must
    be the one ``simulate_run`` gives for the same config."""

    @pytest.mark.parametrize("horizon", _SUMMARY_HORIZONS)
    @pytest.mark.parametrize("tagged_fraction", [1.0, 0.1, 0.001])
    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.49])
    def test_unbounded_sweep_equals_logged_runs(self, horizon, tagged_fraction,
                                                warmup_fraction):
        base = SimConfig(1000.0, 500.0, tagged_fraction=tagged_fraction,
                         horizon_packets=horizon, warmup_fraction=warmup_fraction,
                         seed=horizon)
        _sweep_against_runs(base, [0.3, 0.9])

    @pytest.mark.parametrize("horizon", [2, 32_769, 65_537])
    @pytest.mark.parametrize("tagged_fraction", [1.0, 0.1])
    def test_deterministic_service(self, horizon, tagged_fraction):
        base = SimConfig(1000.0, 500.0, tagged_fraction=tagged_fraction,
                         horizon_packets=horizon, seed=3,
                         service_distribution="deterministic")
        _sweep_against_runs(base, [0.5, 0.95])

    @pytest.mark.parametrize("buffer_capacity", [3, 10, 100])
    @pytest.mark.parametrize("tagged_fraction", [1.0, 0.1, 0.001])
    @pytest.mark.parametrize("horizon", [2, 32_769, 300_001])
    def test_finite_buffer_sweep_equals_logged_runs(self, buffer_capacity, tagged_fraction,
                                                    horizon):
        base = SimConfig(1000.0, 800.0, tagged_fraction=tagged_fraction,
                         buffer_capacity=buffer_capacity, horizon_packets=horizon, seed=9)
        _sweep_against_runs(base, [0.6, 1.4], vary="capacity")

    @pytest.mark.parametrize("buffer_capacity", [None, 10])
    @pytest.mark.parametrize("tagged_fraction", [1.0, 0.1])
    def test_reversed_grid_gives_the_same_points(self, buffer_capacity, tagged_fraction):
        """Whatever run used the workspace before, each point is its own
        logged run: nothing leaks from one run to the next."""
        grid = [0.2, 0.95, 0.5] if buffer_capacity is None else [0.5, 2.5, 1.0]
        base = SimConfig(1000.0, 500.0, tagged_fraction=tagged_fraction,
                         buffer_capacity=buffer_capacity, horizon_packets=70_001, seed=21)
        forward = _sweep_against_runs(base, grid, seeds_per_point=2)
        backward = _sweep_against_runs(base, grid[::-1], seeds_per_point=2)
        assert [s.config.rho for s in forward[::2]] == [s.config.rho for s in backward[::-2]]

    @pytest.mark.parametrize("tagged_fraction", [0.1, 1.0])
    def test_sweep_memory_per_packet(self, tagged_fraction):
        """The sweep keeps arrivals, sojourns and tagged flags (17 bytes a
        packet) and fixed chunk buffers; building each run's packet log
        peaked at 71-75 bytes a packet."""
        n = 500_000
        base = SimConfig(1000.0, 500.0, tagged_fraction=tagged_fraction,
                         horizon_packets=n, seed=11)
        tracemalloc.start()
        try:
            simulate_sweep(base, [0.3, 0.6, 0.9])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * n

    def test_tiny_capacity_near_saturation_has_finite_means(self):
        """Near saturation at C = 1e-300 the sojourns near 1e302 sum past
        the double range; the means are taken over scaled values instead,
        and the sweep and the logged run agree."""
        base = SimConfig(1e-300, 0.5e-300, horizon_packets=1_000_000, seed=1729)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            [summary] = _sweep_against_runs(base, [0.9999999])
        assert 1e301 < summary.mean_sojourn < math.inf
        assert 0 < summary.empirical_jitter_J < math.inf

    @pytest.mark.parametrize("values", [
        [1e308, 1e308, 1e308],
        [1.5e308, 1.5e308, 5e-324, 0.0],
    ])
    def test_mean_of_values_whose_sum_overflows(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mean = sim._mean(np.array(values))
        assert mean == pytest.approx(math.fsum(v / 4 for v in values) / len(values) * 4,
                                     rel=1e-15)

    def test_mean_keeps_the_plain_bits_when_finite(self):
        values = np.random.default_rng(5).exponential(1e300, size=10_001)
        assert sim._mean(values) == float(values.mean())
        assert math.isnan(sim._mean(np.empty(0)))


class TestMerge:
    def _summaries(self, n, rho=0.5, packets=5000):
        base = SimConfig(1000.0, rho * 1000.0, horizon_packets=packets, seed=13)
        return simulate_sweep(base, [rho], seeds_per_point=n)

    def test_single_summary_has_undefined_stderr(self):
        [s] = self._summaries(1)
        agg = merge_summaries([s])
        assert agg.jitter_mean == s.empirical_jitter_J
        assert agg.jitter_stderr is None
        assert agg.n_runs == 1

    def test_duplicated_summaries_zero_stderr(self):
        [s] = self._summaries(1)
        agg = merge_summaries([s, s, s])
        assert agg.jitter_stderr == 0.0
        assert agg.jitter_mean == s.empirical_jitter_J

    def test_order_independent(self):
        summaries = self._summaries(5)
        a = merge_summaries(summaries)
        b = merge_summaries(list(reversed(summaries)))
        assert a == b

    def test_mixed_group_rejected(self):
        base = SimConfig(1000.0, 500.0, horizon_packets=1000, seed=13)
        summaries = simulate_sweep(base, [0.4, 0.5], seeds_per_point=1)
        with pytest.raises(InconsistentGroupError):
            merge_summaries(summaries)

    def test_stderr_shrinks_with_seed_count(self):
        """The across-seed standard error is the spread over sqrt(n)."""
        summaries = self._summaries(10, packets=20_000)
        agg = merge_summaries(summaries)
        jitters = np.array([s.empirical_jitter_J for s in summaries])
        spread = jitters.std(ddof=1)
        assert agg.jitter_stderr == pytest.approx(spread / math.sqrt(10), rel=1e-12)
        assert agg.jitter_stderr < spread

    def test_empty_group_rejected(self):
        with pytest.raises(DomainError):
            merge_summaries([])

    def test_stderr_scales_as_one_over_capacity(self):
        """The across-seed stderr stays in the double range at extreme
        capacities: stderr * C is the same at C = 1e-300, 1 and 1e300."""
        scaled = []
        for capacity in (1e-300, 1.0, 1e300):
            base = SimConfig(capacity, capacity / 2, horizon_packets=2000, seed=13)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                agg = merge_summaries(simulate_sweep(base, [0.5], seeds_per_point=3))
            scaled.append(agg.jitter_stderr * capacity)
        assert scaled[0] > 0
        assert scaled[0] == pytest.approx(scaled[1], rel=1e-12)
        assert scaled[2] == pytest.approx(scaled[1], rel=1e-12)


def _reference_write_packet_trace(log, path):
    """The per-line writer that ``write_packet_trace`` replaced, kept
    verbatim as the oracle for its bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PACKET_TRACE_HEADER + "\n")
        for i in range(len(log)):
            flow = "tagged" if log.tagged[i] else "background"
            arr = f"{log.arrival_times[i]:.17g}"
            srv = f"{log.service_times[i]:.17g}"
            if log.dropped[i]:
                fh.write(f"{i},{flow},{arr},{srv},,,1\n")
            else:
                dep = f"{log.departure_times[i]:.17g}"
                soj = f"{log.sojourn_times[i]:.17g}"
                fh.write(f"{i},{flow},{arr},{srv},{dep},{soj},0\n")


def _reference_read_packet_trace(path):
    """The per-line reader that ``read_packet_trace`` replaced, kept
    verbatim as the oracle for its arrays on well-formed dumps."""
    arrivals, services, departures, sojourns, tagged, dropped = [], [], [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != PACKET_TRACE_HEADER:
            raise DomainError(f"unexpected packet trace header: {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 7:
                raise DomainError(f"malformed packet trace line: {line!r}")
            _, flow, arr, srv, dep, soj, drop = parts
            arrivals.append(float(arr))
            services.append(float(srv))
            is_dropped = drop == "1"
            departures.append(math.nan if is_dropped else float(dep))
            sojourns.append(math.nan if is_dropped else float(soj))
            tagged.append(flow == "tagged")
            dropped.append(is_dropped)
    return PacketLog(
        np.asarray(arrivals),
        np.asarray(services),
        np.asarray(departures),
        np.asarray(sojourns),
        np.asarray(tagged, dtype=bool),
        np.asarray(dropped, dtype=bool),
    )


_DUMP_ARRAYS = ("arrival_times", "service_times", "departure_times", "sojourn_times",
                "tagged", "dropped")

#: Doubles whose 17-digit text is easy to get wrong: subnormals down to the
#: smallest, the smallest normal, huge values, signed zero, inexact fractions.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 2.2250738585072014e-308, 1e300,
                1.7976931348623157e308, 0.1, 1.0 / 3.0]


@st.composite
def _packet_logs(draw, times=st.floats(allow_nan=False, allow_infinity=False)):
    """Arbitrary logs as the writer sees them: any doubles, drops anywhere
    (their departure and sojourn NaN), and all, none or some packets tagged."""
    n = draw(st.integers(0, 40))
    values = st.sampled_from(_EDGE_FLOATS) | times
    column = st.lists(values, min_size=n, max_size=n)
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    tagging = draw(st.sampled_from(["all", "none", "some"]))
    tagged = {"all": [True] * n, "none": [False] * n}.get(tagging) or draw(flags)
    dropped = np.array(draw(flags), dtype=bool)
    departures = np.array(draw(column), dtype=float)
    sojourns = np.array(draw(column), dtype=float)
    departures[dropped] = np.nan
    sojourns[dropped] = np.nan
    return PacketLog(np.array(draw(column), dtype=float), np.array(draw(column), dtype=float),
                     departures, sojourns, np.array(tagged, dtype=bool), dropped)


def _assert_same_log(got, want):
    for name in _DUMP_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestPacketTrace:
    def test_round_trip_exact(self, tmp_path):
        cfg = SimConfig(1000.0, 900.0, buffer_capacity=5, horizon_packets=3000, seed=21)
        log, _ = simulate_run(cfg)
        path = tmp_path / "trace.csv"
        write_packet_trace(log, path)
        back = read_packet_trace(path)
        assert np.array_equal(back.arrival_times, log.arrival_times)
        assert np.array_equal(back.service_times, log.service_times)
        assert np.array_equal(back.tagged, log.tagged)
        assert np.array_equal(back.dropped, log.dropped)
        kept = ~log.dropped
        assert np.array_equal(back.departure_times[kept], log.departure_times[kept])
        assert np.isnan(back.departure_times[log.dropped]).all()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("index,flow,arrival_s\n0,tagged,0.5\n")
        with pytest.raises(DomainError, match="header"):
            read_packet_trace(path)

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(PACKET_TRACE_HEADER + "\n0,tagged,0.5,0.1,0.6,0.1,0\n1,background,0.7\n")
        with pytest.raises(DomainError, match="malformed packet trace line"):
            read_packet_trace(path)

    @settings(deadline=None)
    @given(log=_packet_logs(times=st.floats()), chunk=st.integers(1, 8))
    def test_writer_bytes_match_reference(self, tmp_path_factory, log, chunk):
        """Any doubles, NaN and infinities included, format as before."""
        out = tmp_path_factory.mktemp("dump")
        _reference_write_packet_trace(log, out / "reference.csv")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_DUMP_WRITE_PACKETS", chunk)
            write_packet_trace(log, out / "chunked.csv")
        assert (out / "chunked.csv").read_bytes() == (out / "reference.csv").read_bytes()

    @settings(deadline=None)
    @given(log=_packet_logs(), write_chunk=st.integers(1, 8), read_bytes=st.integers(1, 300))
    def test_read_back_bit_identical_across_blocks(self, tmp_path_factory, log, write_chunk,
                                                   read_bytes):
        """Blocks as small as one byte cut lines anywhere; the arrays still
        come back bit for bit, and equal to the reference reader's."""
        path = tmp_path_factory.mktemp("dump") / "trace.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_DUMP_WRITE_PACKETS", write_chunk)
            mp.setattr(sim, "_DUMP_READ_BYTES", read_bytes)
            write_packet_trace(log, path)
            back = read_packet_trace(path)
        _assert_same_log(back, log)
        _assert_same_log(back, _reference_read_packet_trace(path))

    def test_simulated_run_across_many_blocks(self, tmp_path, monkeypatch):
        cfg = SimConfig(1000.0, 1500.0, buffer_capacity=4, horizon_packets=3000, seed=9)
        log, _ = simulate_run(cfg)
        monkeypatch.setattr(sim, "_DUMP_WRITE_PACKETS", 777)
        monkeypatch.setattr(sim, "_DUMP_READ_BYTES", 1000)
        write_packet_trace(log, tmp_path / "a.csv")
        _reference_write_packet_trace(log, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        _assert_same_log(read_packet_trace(tmp_path / "a.csv"), log)

    def test_header_only_file_is_an_empty_log(self, tmp_path):
        path = tmp_path / "trace.csv"
        empty = PacketLog(np.empty(0), np.empty(0), np.empty(0), np.empty(0),
                          np.empty(0, dtype=bool), np.empty(0, dtype=bool))
        write_packet_trace(empty, path)
        assert path.read_text() == PACKET_TRACE_HEADER + "\n"
        _assert_same_log(read_packet_trace(path), empty)
        path.write_text(PACKET_TRACE_HEADER)
        assert len(read_packet_trace(path)) == 0

    def test_last_line_without_final_newline(self, tmp_path):
        log, _ = simulate_run(SimConfig(1000.0, 500.0, horizon_packets=50, seed=4))
        path = tmp_path / "trace.csv"
        write_packet_trace(log, path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        _assert_same_log(read_packet_trace(path), log)

    def test_crlf_line_ends_read_as_before(self, tmp_path):
        log, _ = simulate_run(SimConfig(1000.0, 2000.0, buffer_capacity=2,
                                        horizon_packets=50, seed=4))
        path = tmp_path / "trace.csv"
        write_packet_trace(log, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        _assert_same_log(read_packet_trace(path), log)
        _assert_same_log(read_packet_trace(path), _reference_read_packet_trace(path))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1,tagged,abc,0.1,0.8,0.1,0", "arrival_s 'abc' is not a number"),
            ("1,tagged,0.7,0.1,,,0", "departure_s '' is not a number"),
            ("1,tagged,0.7,0.1,0.8,x,0", "sojourn_s 'x' is not a number"),
            ("1,probe,0.7,0.1,0.8,0.1,0", "unknown flow 'probe'"),
            ("1,tagged,0.7,0.1,0.8,0.1,yes", "unknown dropped flag 'yes'"),
            ("1,tagged\0,0.7,0.1,0.8,0.1,0", "NUL byte"),
            ("1,tagged,0.7,0.1,0.8,0.1,0,",
             "malformed packet trace line: '1,tagged,0.7,0.1,0.8,0.1,0,'"),
        ],
        ids=["non-numeric", "delivered-without-departure", "bad-sojourn", "unknown-flow",
             "unknown-drop-flag", "nul-padded-flow", "eight-fields"],
    )
    def test_bad_field_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "trace.csv"
        path.write_text(PACKET_TRACE_HEADER + "\n0,background,0.5,0.1,0.6,0.1,0\n"
                        + line + "\n2,background,0.9,0.1,1.0,0.1,0\n")
        with pytest.raises(DomainError, match=f"line 3: {message}"):
            read_packet_trace(path)

    def test_dropped_row_ignores_departure_fields(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(PACKET_TRACE_HEADER + "\n0,tagged,0.5,0.1,n/a,n/a,1\n")
        back = read_packet_trace(path)
        assert back.dropped.tolist() == [True] and np.isnan(back.sojourn_times).all()

    def test_rewrite_is_byte_identical(self, tmp_path):
        cfg = SimConfig(1000.0, 500.0, horizon_packets=500, seed=2)
        log, _ = simulate_run(cfg)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_packet_trace(log, p1)
        write_packet_trace(read_packet_trace(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
