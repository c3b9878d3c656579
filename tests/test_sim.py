"""Queue simulator: hand traces, classical queueing oracles, determinism."""

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from qoskit import _dumptext, sim
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


def _ring(arrivals, services, buffer_capacity):
    """The ring loop over the whole stream from the empty state."""
    departures = np.empty(len(arrivals))
    sim._ring_run(arrivals, services, 0, len(arrivals), departures,
                  ([-math.inf] * buffer_capacity, 0, -math.inf))
    return departures


def _blocks(arrivals, services, buffer_capacity):
    """The block path into a new departures array."""
    departures = np.empty(len(arrivals))
    sim._fcfs_blocks(arrivals, services, buffer_capacity, departures)
    return departures


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


#: Ring-loop chunk sizes the oracle tests draw: chunk seams at every
#: packet, at odd offsets, inside the longest inputs, and the real size.
_RING_CHUNKS = st.sampled_from([1, 7, 1000, sim._CHUNK])


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
        pytest.param(_ring, id="_ring_run"),
        # Lanes of 8 packets: the real ones are longer than these inputs.
        pytest.param(lambda a, s, k: _run_lanes((8, 4, 3, 2, 5), a, s, k)[0],
                     id="_fcfs_lanes"),
        pytest.param(_blocks, id="_fcfs_blocks"),
    ])
    @settings(deadline=None)
    @given(times=_integer_times(), buffer_capacity=st.integers(1, 12) | _BUFFERS,
           chunk=_RING_CHUNKS)
    def test_each_path_exact_at_any_buffer(self, path, times, buffer_capacity, chunk):
        arrivals, services = times
        ref_dep, _ = _reference_fcfs(arrivals, services, buffer_capacity)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_CHUNK", chunk)
            departures = path(arrivals, services, buffer_capacity)
        assert np.array_equal(departures, ref_dep, equal_nan=True)

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rho=st.floats(0.3, 4.0),
        n=st.integers(1, 3000),
        buffer_capacity=_BUFFERS,
        chunk=_RING_CHUNKS,
    )
    def test_matches_reference_on_continuous_times(self, seed, rho, n, buffer_capacity,
                                                   chunk):
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = rng.exponential(rho, size=n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_CHUNK", chunk)
            dep, dropped = fcfs_departures(arrivals, services, buffer_capacity)
        ref_dep, ref_dropped = _reference_fcfs(arrivals, services, buffer_capacity)
        assert np.array_equal(dropped, ref_dropped)
        kept = ~ref_dropped
        assert np.allclose(dep[kept], ref_dep[kept], rtol=1e-12, atol=0.0)
        assert np.isnan(dep[ref_dropped]).all()
        if buffer_capacity < _CROSSOVER:
            assert np.array_equal(dep, ref_dep, equal_nan=True)

    @pytest.mark.parametrize("buffer_capacity", [1, 10, _CROSSOVER - 1])
    def test_ring_chunk_seams_at_the_real_size(self, buffer_capacity):
        """A stream across two seams of the ring loop's real chunk, near
        saturation so that drops and waits straddle them."""
        rng = np.random.default_rng(32_768)
        n = 2 * sim._CHUNK + 1_001
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = rng.exponential(1.0, size=n)
        dep, dropped = fcfs_departures(arrivals, services, buffer_capacity)
        ref_dep, ref_dropped = _reference_fcfs(arrivals, services, buffer_capacity)
        assert np.array_equal(dropped, ref_dropped)
        assert np.array_equal(dep, ref_dep, equal_nan=True)


def _assert_blocks_match_ring(arrivals, services, buffer_capacity, exact):
    """The block path against the ring loop: the same drop set, and the
    same departures, within 1e-12 relative or, when ``exact``, bit for bit."""
    ring = _ring(arrivals, services, buffer_capacity)
    blocks = _blocks(arrivals, services, buffer_capacity)
    dropped = np.isnan(ring)
    assert np.array_equal(np.isnan(blocks), dropped)
    if exact:
        assert np.array_equal(blocks, ring, equal_nan=True)
    else:
        assert np.allclose(blocks[~dropped], ring[~dropped], rtol=1e-12, atol=0.0)
    return dropped


class TestBlockWindow:
    """The block path searches its thresholds in a window of 4K arrivals
    that doubles when the last threshold lies past it."""

    @pytest.mark.parametrize("buffer_capacity", [96, 100, 256])
    @pytest.mark.parametrize("exact", [False, True], ids=["continuous", "integer"])
    def test_burst_past_the_window(self, buffer_capacity, exact):
        """12K arrivals inside the first packet's service time: the next
        block's thresholds lie past a window of 4K and of 8K arrivals."""
        k = buffer_capacity
        rng = np.random.default_rng(k)
        if exact:
            burst = np.sort(rng.integers(0, 3, size=12 * k)).astype(float)
            tail = 3.0 + np.cumsum(rng.integers(0, 3, size=4000)).astype(float)
            services = rng.integers(0, 4, size=burst.size + tail.size).astype(float)
        else:
            burst = np.sort(rng.uniform(0.0, 1.0, size=12 * k))
            tail = 1.0 + np.cumsum(rng.exponential(1.0, size=4000))
            services = rng.exponential(0.9, size=burst.size + tail.size)
        services[0] = 2.0 * k
        arrivals = np.concatenate((burst, tail))
        dropped = _assert_blocks_match_ring(arrivals, services, k, exact)
        assert dropped[k:burst.size].all() and not dropped[burst.size:].all()

    @pytest.mark.parametrize("buffer_capacity", [96, 100, 256])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("exact", [False, True], ids=["continuous", "integer"])
    def test_inputs_about_one_buffer_long(self, buffer_capacity, extra, exact):
        n = buffer_capacity + extra
        rng = np.random.default_rng(n)
        if exact:
            arrivals = np.cumsum(rng.integers(0, 2, size=n)).astype(float)
            services = rng.integers(0, 5, size=n).astype(float)
        else:
            arrivals = np.cumsum(rng.exponential(1.0, size=n))
            services = rng.exponential(3.0, size=n)
        _assert_blocks_match_ring(arrivals, services, buffer_capacity, exact)

    @pytest.mark.parametrize("buffer_capacity", [96, 100, 256])
    @pytest.mark.parametrize("exact", [False, True], ids=["continuous", "integer"])
    def test_every_arrival_at_one_instant(self, buffer_capacity, exact):
        n = 9 * buffer_capacity + 5
        rng = np.random.default_rng(n)
        services = (rng.integers(0, 5, size=n).astype(float) if exact
                    else rng.exponential(1.0, size=n))
        dropped = _assert_blocks_match_ring(np.full(n, 5.0), services, buffer_capacity, exact)
        assert np.flatnonzero(~dropped).tolist() == list(range(buffer_capacity))


_LANE_CONSTANTS = ("_LANE_PACKETS", "_LANE_WARMUP", "_LANE_GROUP", "_LANE_PROBE",
                   "_LANE_CHUNK", "_LANE_BUSY")


@st.composite
def _lane_shapes(draw):
    """Small lanes, so that short inputs span many lanes and groups: L
    packets per lane, W warm-up packets (1 to L), groups of 1 to 7 lanes
    after a first group of 1 to 8 lanes of W packets, chunks of 1 to L + W
    steps, and a hand-over share that sends the rest of the stream to the
    ring loop after the first group, after a later one, or never. (The
    first group's first two lanes always couple at packet 0, so its reruns
    pass one half of its packets only from 5 lanes on.)"""
    lane = draw(st.integers(4, 64))
    warm = draw(st.integers(1, lane))
    return (lane, warm, draw(st.integers(1, 7)), draw(st.integers(1, 8)),
            draw(st.integers(1, lane + warm)), draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])))


@st.composite
def _continuous_times(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3000))
    return np.cumsum(rng.exponential(1.0, size=n)), rng.exponential(draw(st.floats(0.3, 4.0)),
                                                                    size=n)


def _lane_starts(shape, n):
    """The first packet of every lane ``_fcfs_lanes`` cuts n packets into
    at the given lane shape, and the end of the last whole lane: the first
    group's lanes of W packets, then lanes of L."""
    lane, warm, _, probe = shape[:4]
    first = min(probe, n // warm) * warm
    whole = first + (n - first) // lane * lane
    return list(range(0, first, warm)) + list(range(first, whole, lane)), whole


def _group_ends(shape, n):
    """The end of every group of lanes ``_fcfs_lanes`` runs at the given
    shape over n packets when none hands over: the first group's, then
    those of the equal groups of at most G lanes of L packets. The last is
    the end of the last whole lane."""
    lane, warm, group, probe = shape[:4]
    ends = [min(probe, n // warm) * warm]
    while rest := (n - ends[-1]) // lane:
        ends.append(ends[-1] + math.ceil(rest / math.ceil(rest / group)) * lane)
    return ends


def _rerun_shares(calls, ends):
    """The share of each group's packets that the ring loop reran, from the
    ring calls of one ``_fcfs_lanes`` run (the last runs the rest)."""
    starts = [0] + ends[:-1]
    return [sum(hi - lo for lo, hi in calls[:-1] if lo0 <= lo < hi0) / (hi0 - lo0)
            for lo0, hi0 in zip(starts, ends)]


@contextlib.contextmanager
def _ring_calls():
    """Record the (lo, hi) packet range of every ``sim._ring_run`` call."""
    calls = []
    ring_run = sim._ring_run

    def spy(arr, srv, lo, hi, departures, state):
        calls.append((lo, hi))
        return ring_run(arr, srv, lo, hi, departures, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_ring_run", spy)
        yield calls


def _run_lanes(shape, arrivals, services, buffer_capacity):
    """``_fcfs_lanes`` at the given lane shape; also returns the (lo, hi)
    packet ranges it handed to the ring loop. A shape of five leaves
    ``_LANE_BUSY`` at its real value."""
    arrivals = np.asarray(arrivals, dtype=float)
    with pytest.MonkeyPatch.context() as mp, _ring_calls() as calls:
        for name, value in zip(_LANE_CONSTANTS, shape):
            mp.setattr(sim, name, value)
        departures = np.empty(arrivals.size)
        sim._fcfs_lanes(arrivals, np.asarray(services, dtype=float), departures,
                        ([-math.inf] * buffer_capacity, 0, -math.inf))
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
        departures, calls = _run_lanes(shape, arrivals, services, buffer_capacity)
        ref_dep, _ = _reference_fcfs(arrivals, services, buffer_capacity)
        assert np.array_equal(departures, ref_dep, equal_nan=True)
        ends = _group_ends(shape, len(arrivals))
        rest = calls[-1][0]     # the ring loop always runs the rest
        event("no hand-over" if rest == ends[-1] else
              "hand-over before any repair" if rest == 0 else
              "hand-over after the first group" if rest == ends[0] else
              "hand-over after a later group")

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
        assert calls == [(_lane_starts(shape, n)[1], n)] == [(n - 1, n)]

    def test_rerun_stops_where_a_departure_meets_an_arrival(self):
        """A long service leaves the lane of packets 10-17 busy through its
        overlap (packets 8 and 9), so the ring loop reruns it; the queue is
        next idle exactly when a departure meets an arrival, and there the
        rerun hands back."""
        n = 5 * 8 + 3
        arrivals = 2.0 * np.arange(n)
        services = np.full(n, 2.0)
        services[7] = 8.0
        shape = (8, 2, 3, 1, 5)
        departures, calls = _run_lanes(shape, arrivals, services, 1)
        ref_dep, _ = _reference_fcfs(arrivals, services, 1)
        assert np.array_equal(departures, ref_dep, equal_nan=True)
        assert _lane_starts(shape, n) == ([0, 2, 10, 18, 26, 34], 42)
        assert calls == [(10, 18), (n - 1, n)]

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
        lane, _, group, _, _ = shape
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
        starts, whole = _lane_starts(shape, n)
        seen = set()
        if (whole, n) in calls:
            seen.add("last packets")
            if len(starts) - shape[3] > group:
                seen.add("several groups")
        if any(hi == n and lo < whole for lo, hi in calls):
            seen.add("ring takes over")
        for first, end in zip(starts, starts[1:] + [whole]):
            ends = [hi for lo, hi in calls if first <= lo < end and hi <= whole]
            if ends and max(ends) < end:
                seen.add("rerun until coupled")
            elif ends and not idle[first:end].any():
                seen.add("never coupled")
        assert branches <= seen

    @pytest.mark.parametrize("calm", [0, 100], ids=["first group", "later group"])
    def test_hands_over_after_any_group(self, calm):
        """Light load for ``calm`` packets, then overload: the ring loop runs
        the rest of the stream from the end of the first group, the first or
        a later one, whose repairs rerun more than ``_LANE_BUSY`` (here 0.5)
        of its packets, with whole lanes still to run."""
        shape = (8, 2, 3, 6, 5, 0.5)
        n = 273
        rng = np.random.default_rng(36)
        arrivals = np.cumsum(rng.integers(0, 3, size=n, endpoint=True)).astype(float)
        services = rng.integers(0, 4, size=n, endpoint=True).astype(float)
        services[:calm] //= 4
        departures, calls = _run_lanes(shape, arrivals, services, 3)
        ref_dep, _ = _reference_fcfs(arrivals, services, 3)
        assert np.array_equal(departures, ref_dep, equal_nan=True)
        ends = _group_ends(shape, n)
        rest = calls[-1][0]
        assert rest < ends[-1]
        handed = ends.index(rest)
        assert (handed == 0) == (calm == 0)
        shares = _rerun_shares(calls, ends[:handed + 1])
        assert max(shares[:-1], default=0.0) <= 0.5 < shares[-1]


class TestLanesAtTheRealShape:
    """The lanes at their real constants, which the small shapes above stand
    in for."""

    def test_bit_identical_with_couplings_and_reruns(self):
        """A first group of 64 lanes of 128 packets, then one group of the
        rest, at a load where half the lanes couple in their overlap, most
        others are rerun up to a shared idle arrival, and some to their
        end."""
        rng = np.random.default_rng(1729)
        n = 40 * sim._LANE_PACKETS + 77
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = rng.exponential(1.3, size=n)
        shape = tuple(getattr(sim, name) for name in _LANE_CONSTANTS)
        departures, calls = _run_lanes(shape, arrivals, services, 10)
        ref_dep, _ = _reference_fcfs(arrivals, services, 10)
        assert np.array_equal(departures, ref_dep, equal_nan=True)
        starts, whole = _lane_starts(shape, n)
        ends = starts[1:] + [whole]
        rerun = {}
        for lo, hi in calls:
            if hi <= whole:
                rerun.setdefault(np.searchsorted(starts, lo, side="right") - 1, []).append(hi)
        assert calls[-1] == (whole, n)
        assert 0 < len(rerun) < len(starts)
        coupled = [max(his) < ends[j] for j, his in rerun.items()]
        assert any(coupled) and not all(coupled)
        assert any(j >= sim._LANE_PROBE for j in rerun)

    @pytest.mark.parametrize(
        "n, load, lanes",
        [(sim._LANE_MIN_PACKETS - 1, 0.5, False), (sim._LANE_MIN_PACKETS, 0.5, True),
         (sim._LANE_MIN_PACKETS, 2.5, False)],
        ids=["short", "long", "long overload"],
    )
    def test_lanes_only_where_they_pay(self, n, load, lanes):
        """Short inputs go to the ring loop, and so does the rest of a queue
        that is seldom idle once the first group has found that out."""
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = rng.exponential(load, size=n)
        with _ring_calls() as calls:
            departures, _ = fcfs_departures(arrivals, services, 10)
        ring = sum(hi - lo for lo, hi in calls)
        first = sim._LANE_PROBE * sim._LANE_WARMUP
        if not lanes:
            # never more than the first group's packets off the ring loop
            assert ring >= n - first
            assert calls[-1][1] == n and calls[-1][0] <= first
        else:
            assert ring < n // 10
        assert np.array_equal(departures, _ring(arrivals, services, 10),
                              equal_nan=True)

    @pytest.mark.parametrize("n", [131_071, 131_072])
    @pytest.mark.parametrize("load", [0.5, 1.4])
    def test_bit_identical_at_the_cutoff(self, n, load):
        """The lanes start at 131,072 packets, where at K = 10 they took
        0.42x the ring loop's time at rho 0.5 and 0.95x at rho 1.4."""
        assert sim._LANE_MIN_PACKETS == 131_072
        rng = np.random.default_rng(n)
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = rng.exponential(load, size=n)
        with _ring_calls() as calls:
            departures, _ = fcfs_departures(arrivals, services, 10)
        assert (calls[0] == (0, n)) == (n < sim._LANE_MIN_PACKETS)
        assert np.array_equal(departures, _ring(arrivals, services, 10), equal_nan=True)

    def test_hands_over_after_a_later_group(self):
        """2.2M packets at K = 20, rho 0.5 for the first half and 2.5 for the
        second: after the first group come three equal groups of 713-714
        lanes. The one across the load step reruns about half its packets and
        keeps its lanes; the next reruns all of its own, and the ring loop
        runs the rest of the stream from its end."""
        n = 2_200_000
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = np.concatenate((rng.exponential(0.5, size=n // 2),
                                   rng.exponential(2.5, size=n - n // 2)))
        with _ring_calls() as calls:
            departures, _ = fcfs_departures(arrivals, services, 20)
        assert np.array_equal(departures, _ring(arrivals, services, 20), equal_nan=True)
        ends = _group_ends(tuple(getattr(sim, name) for name in _LANE_CONSTANTS), n)
        assert len(ends) == 4
        to_end = [lo for lo, hi in calls if hi == n]
        assert len(to_end) == 1 and to_end[0] in ends
        shares = _rerun_shares(calls, ends[:ends.index(to_end[0]) + 1])
        assert len(shares) == 4
        assert max(shares[:2]) == 0.0
        assert 0.5 < shares[2] <= sim._LANE_BUSY < shares[3]


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

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8, 0.95])
    def test_all_tagged_jitter_is_one_over_capacity(self, rho):
        """Stationary M/M/1: the next sojourn is max(T - A, 0) + S, so the
        step is S - min(T, A). T ~ Exp(C - lambda) and A ~ Exp(lambda) are
        independent, so min(T, A) ~ Exp(C), the step is Laplace with scale
        1/C, and E|dT| = 1/C exactly at every load. The samples are serially
        dependent, so the yardstick is a 50-batch batch-means standard
        error."""
        capacity = 1000.0
        cfg = SimConfig(capacity, rho * capacity, tagged_fraction=1.0,
                        horizon_packets=1_000_000, seed=1729)
        log, summary = simulate_run(cfg)
        samples = np.abs(np.diff(log.sojourn_times[int(1_000_000 * cfg.warmup_fraction):]))
        assert summary.n_jitter_samples == samples.size
        batches = samples[:samples.size // 50 * 50].reshape(50, -1).mean(axis=1)
        stderr = batches.std(ddof=1) / math.sqrt(50)
        assert abs(summary.empirical_jitter_J - 1.0 / capacity) <= 4 * stderr

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

_CHUNKS = [1, 2, 7, 1000, sim._CHUNK]


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
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        log, summary = simulate_run(config)
        want_log, want = _reference_simulate_run(config)
        _assert_same_log(log, want_log)
        assert summary == want
        assert repr(summary) == repr(want)
        _assert_same_summary(sim._summarize_run(config), want)

    @pytest.mark.parametrize("tagged_fraction", [0.05, 1.0])
    def test_ragged_last_chunk_at_the_default_size(self, tagged_fraction):
        config = SimConfig(1000.0, 900.0, tagged_fraction=tagged_fraction,
                           horizon_packets=2 * sim._CHUNK + 4_001, seed=17)
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
            mp.setattr(sim, "_CHUNK", chunk)
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

    @pytest.mark.parametrize("chunk", [1, 2, sim._CHUNK])
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
        monkeypatch.setattr(sim, "_CHUNK", chunk)
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


def _use_cores(monkeypatch, cores):
    """Make ``simulate_sweep`` see ``cores`` available cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def _sweep_peak(base, grid, **kwargs):
    """Peak traced bytes of ``simulate_sweep``."""
    tracemalloc.start()
    try:
        simulate_sweep(base, grid, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _pool_sizes(monkeypatch):
    """Record the worker count of every pool ``simulate_sweep`` makes."""
    sizes = []
    executor = concurrent.futures.ThreadPoolExecutor

    def spy(workers):
        sizes.append(workers)
        return executor(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    return sizes


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
    def test_sweep_memory_per_packet(self, monkeypatch, tagged_fraction):
        """Each worker of an unbounded sweep keeps one column (8 bytes a
        packet) and fixed chunk buffers of about 1.6 MiB; one workspace of
        arrivals, sojourns and tagged flags peaked at 19.6-21.2 bytes a
        packet, and building each run's packet log at 71-75."""
        n = 500_000
        base = SimConfig(1000.0, 500.0, tagged_fraction=tagged_fraction,
                         horizon_packets=n, seed=11)
        for workers in (1, 2):
            _use_cores(monkeypatch, workers)
            assert _sweep_peak(base, [0.3, 0.6, 0.9]) <= workers * (8 * n + (2 << 20))

    @pytest.mark.parametrize("tagged_fraction", [0.1, 1.0])
    def test_finite_sweep_memory_per_packet(self, tagged_fraction):
        """A finite-buffer sweep runs on one worker, which keeps arrivals,
        services then sojourns, and departures (24 bytes a packet) plus the
        lanes' working memory (about 1.8 MiB here); with fresh departures
        and drop flags per run and a delivered copy it peaked at 35.7."""
        n = 500_000
        base = SimConfig(1000.0, 800.0, tagged_fraction=tagged_fraction, buffer_capacity=10,
                         horizon_packets=n, seed=11)
        assert _sweep_peak(base, [0.6, 1.0, 1.4], vary="capacity") <= 24 * n + (3 << 20)

    def test_tiny_capacity_near_saturation_has_finite_means(self, monkeypatch):
        """Near saturation at C = 1e-300 the sojourns near 1e302 sum past
        the double range; the means are taken over scaled values instead,
        and the sweep and the logged run agree. This holds on worker
        threads too: a RuntimeWarning there, made an error, would reach the
        caller."""
        _use_cores(monkeypatch, 2)
        base = SimConfig(1e-300, 0.5e-300, horizon_packets=1_000_000, seed=1729)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            summary, _ = _sweep_against_runs(base, [0.9999999, 0.5])
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


class TestParallelSweep:
    """An unbounded sweep runs on one worker thread per available core, each
    in its own workspace; nothing it returns may depend on that count."""

    @pytest.mark.parametrize("horizon", [1, 2, 32_767, 32_768, 32_769, 100_001])
    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.1, 0.49])
    @pytest.mark.parametrize("tagged_fraction", [1.0, 0.1, 0.001])
    def test_same_summaries_on_one_two_and_three_workers(self, monkeypatch, horizon,
                                                        warmup_fraction, tagged_fraction):
        sizes = _pool_sizes(monkeypatch)
        for service, vary in [("exponential", "arrival"), ("deterministic", "arrival"),
                              ("exponential", "capacity"), ("deterministic", "capacity")]:
            base = SimConfig(1000.0, 500.0, tagged_fraction=tagged_fraction,
                             horizon_packets=horizon, warmup_fraction=warmup_fraction,
                             seed=horizon, service_distribution=service)
            swept = []
            for cores in (1, 2, 3):
                _use_cores(monkeypatch, cores)
                swept.append(simulate_sweep(base, [0.3, 0.9], seeds_per_point=2, vary=vary))
            assert sizes[-3:] == [1, 2, 3]
            for one, two, three in zip(*swept):
                _assert_same_summary(two, one)
                _assert_same_summary(three, one)
                _assert_same_summary(one, simulate_run(one.config)[1])
            assert [(s.config.rho, s.seed) for s in swept[0]] == [
                (pytest.approx(rho), child_seed(horizon, i, j))
                for i, rho in enumerate([0.3, 0.9]) for j in range(2)]

    def test_worker_count(self, monkeypatch):
        """One worker per available core, at most one per run; one worker
        for a finite buffer, whose ring loop holds the GIL."""
        sizes = _pool_sizes(monkeypatch)
        base = SimConfig(1000.0, 500.0, horizon_packets=100, seed=1)
        _use_cores(monkeypatch, 4)
        simulate_sweep(base, [0.5, 0.6], seeds_per_point=3)
        simulate_sweep(base, [0.5], seeds_per_point=2)
        simulate_sweep(dataclasses.replace(base, buffer_capacity=5), [0.5, 0.6],
                       seeds_per_point=3)
        assert simulate_sweep(base, []) == []
        assert sizes == [4, 2, 1]

    def test_more_workers_than_cores_under_frequent_switches(self, monkeypatch):
        """Eight workers on a short GIL switch interval give the summaries
        of one; each run keeps to its own workspace."""
        base = SimConfig(1000.0, 500.0, tagged_fraction=0.1, horizon_packets=40_001, seed=5)
        grid = [0.2, 0.5, 0.8, 0.95]
        _use_cores(monkeypatch, 1)
        want = simulate_sweep(base, grid, seeds_per_point=3)
        _use_cores(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_sweep(base, grid, seeds_per_point=3)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, want, strict=True):
            _assert_same_summary(a, b)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_failed_run_names_its_point_and_cancels_the_rest(self, monkeypatch, cores):
        """At rho 1e-6 the interarrival draws near 1e306 overflow within a
        few hundred packets: the run fails inside ``_simulate``, with the
        message the sequential loop gave, and the runs not yet started are
        cancelled. The caller's ``np.errstate`` holds on the workers, so
        the overflow is silent under the suite's RuntimeWarning filter."""
        _use_cores(monkeypatch, cores)
        calls = []
        simulate = sim._simulate

        def counted(config, ws):
            calls.append(config.seed)
            return simulate(config, ws)

        monkeypatch.setattr(sim, "_simulate", counted)
        base = SimConfig(1e-300, 0.5e-300, horizon_packets=200_000, seed=3)
        grid = [0.5, 0.5, 1e-6] + [0.5] * 57
        with pytest.raises(DomainError) as want, np.errstate(all="ignore"):
            simulate_run(dataclasses.replace(base, arrival_rate_lambda=1e-6 * 1e-300,
                                             seed=child_seed(3, 2, 0)))
        before = threading.enumerate()
        with pytest.raises(DomainError) as got, np.errstate(all="ignore"):
            simulate_sweep(base, grid, vary="arrival")
        assert str(got.value) == f"rho=1e-06 (grid index 2, seed index 0): {want.value}"
        assert set(threading.enumerate()) <= set(before)
        # runs 0-2, and those started before the caller saw the failure
        assert 3 <= len(calls) < len(grid) // 2

    def test_failed_finite_run_names_its_point(self):
        """At C = lambda / rho = 1e-309 the service time 1/C overflows."""
        base = SimConfig(1000.0, 1e-300, buffer_capacity=4, horizon_packets=1_000, seed=3)
        with pytest.raises(DomainError) as got, np.errstate(all="ignore"):
            simulate_sweep(base, [0.5, 1e9, 0.5], vary="capacity")
        assert str(got.value) == ("rho=1000000000.0 (grid index 1, seed index 0): "
                                  "times must be finite and service times non-negative")

    def test_no_thread_outlives_a_sweep(self, monkeypatch):
        _use_cores(monkeypatch, 3)
        base = SimConfig(1000.0, 500.0, horizon_packets=5_000, seed=2)
        before = set(threading.enumerate())
        simulate_sweep(base, [0.2, 0.4, 0.6, 0.8], seeds_per_point=2)
        assert set(threading.enumerate()) <= before


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

    def test_means_whose_sum_overflows(self):
        """At C = 1e308 and load 0.9 three throughputs near 9e307 sum past
        the double range; their mean is still finite and nothing warns."""
        base = SimConfig(1e308, 0.5e308, horizon_packets=2000, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            agg = merge_summaries(simulate_sweep(base, [0.9], seeds_per_point=3))
        assert 8e307 < agg.throughput_mean < 1e308

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


def _below_normal_at(k, rho, n, *seeds):
    """Whether a run at C = 2^k and load rho with these seeds may draw a
    time below the normal range, where scaling by 2^-k loses bits: its
    smallest interarrival or standard service draw, scaled, is within a
    factor 2 of it."""
    smallest = math.inf
    for seed in seeds:
        rng = np.random.default_rng(seed)
        smallest = min(smallest, rng.exponential(1 / rho, n).min(),
                       rng.standard_exponential(n).min())
    return math.ldexp(smallest, -k) < 2 * np.finfo(float).tiny


def _scaled_summary(summary, k):
    """The fields of a run summary at C = 1 as they must read at C = 2^k."""
    return {"mean_sojourn": math.ldexp(summary.mean_sojourn, -k),
            "empirical_jitter_J": math.ldexp(summary.empirical_jitter_J, -k),
            "throughput_X": math.ldexp(summary.throughput_X, k),
            "offered_lambda": math.ldexp(summary.offered_lambda, k),
            **{name: getattr(summary, name) for name in (
                "loss_B", "n_jitter_samples", "seed", "offered_count", "delivered_count")}}


class TestScaleInvariance:
    """A run at C = 2^k is the C = 1 run scaled by 2^-k, bit for bit: every
    draw is its scale times a standard draw, and every later step is a sum, a
    difference, a max or a comparison, which a power-of-two scale leaves
    exact. That fails only where a scaled value falls below the normal range
    (2^-1022) and loses bits; hypothesis labels those cases. A queue path
    given such rounded inputs is compared, again bit for bit, with its run on
    the rounded inputs scaled back up; a run whose draws fall there is held
    to 1e-9 relative."""

    @pytest.mark.parametrize("path", [
        pytest.param(_ring, id="_ring_run"),
        pytest.param(lambda a, s, k: _run_lanes((8, 4, 3, 2, 5), a, s, k)[0],
                     id="_fcfs_lanes"),
        pytest.param(_blocks, id="_fcfs_blocks"),
        pytest.param(lambda a, s, k: fcfs_departures(a, s)[0], id="_fcfs_unbounded"),
    ])
    @settings(deadline=None)
    @given(times=_continuous_times(), k=st.integers(-1000, 1000),
           buffer_capacity=st.integers(1, 12) | _BUFFERS, tiny_services=st.booleans())
    def test_fcfs_paths(self, path, times, k, buffer_capacity, tiny_services):
        arrivals, services = times
        if tiny_services:
            services[::7] *= 2.0**-1000
        arr, srv = np.ldexp(arrivals, -k), np.ldexp(services, -k)
        rounded = np.ldexp(arr, k), np.ldexp(srv, k)
        if not (np.array_equal(rounded[0], arrivals) and np.array_equal(rounded[1], services)):
            event("inputs below the normal range: compared on their rounded values")
        want = np.ldexp(path(*rounded, buffer_capacity), -k)
        assert np.array_equal(path(arr, srv, buffer_capacity), want, equal_nan=True)

    @settings(deadline=None)
    @given(k=st.integers(-1000, 1000), rho=st.floats(0.1, 3.0),
           buffer_capacity=st.none() | st.integers(1, 12) | _BUFFERS,
           n=st.integers(2, 3000), tagged_fraction=st.sampled_from([0.1, 0.5, 1.0]),
           service=st.sampled_from(sim._SERVICE_KINDS), seed=st.integers(0, 2**64 - 1))
    # seed 1717 draws a service time of 7.4e-8, below the normal range at k = 1000
    @example(k=1000, rho=0.5, buffer_capacity=None, n=3000, tagged_fraction=1.0,
             service="exponential", seed=1717)
    @example(k=1000, rho=2.0, buffer_capacity=5, n=3000, tagged_fraction=0.1,
             service="exponential", seed=1717)
    def test_simulate_run(self, k, rho, buffer_capacity, n, tagged_fraction, service, seed):
        if buffer_capacity is None:
            rho = min(rho, 0.95)
        configs = [SimConfig(c, rho * c, tagged_fraction, buffer_capacity, n, seed=seed,
                             service_distribution=service)
                   for c in (1.0, math.ldexp(1.0, k))]
        (log, summary), (log_k, summary_k) = map(simulate_run, configs)
        want = _scaled_summary(summary, k)
        got = {name: getattr(summary_k, name) for name in want}
        if _below_normal_at(k, rho, n, seed):
            event("draws below the normal range: held to 1e-9 relative")
            assert got == pytest.approx(want, rel=1e-9, nan_ok=True)
            return
        assert repr(got) == repr(want)
        for name in ("arrival_times", "service_times", "departure_times", "sojourn_times"):
            assert np.array_equal(getattr(log_k, name), np.ldexp(getattr(log, name), -k),
                                  equal_nan=True), name
        assert np.array_equal(log_k.tagged, log.tagged)
        assert np.array_equal(log_k.dropped, log.dropped)

    @settings(deadline=None)
    @given(k=st.integers(-1000, 1000), rho=st.floats(0.1, 3.0),
           buffer_capacity=st.none() | st.integers(1, 12) | _BUFFERS,
           seeds=st.integers(1, 4), seed=st.integers(0, 2**64 - 1))
    # seed 18693's first run draws a time of 9.4e-8, below the normal range at k = 1000
    @example(k=1000, rho=0.5, buffer_capacity=None, seeds=2, seed=18693)
    def test_merge_summaries(self, k, rho, buffer_capacity, seeds, seed):
        if buffer_capacity is None:
            rho = min(rho, 0.95)
        one, scaled = [merge_summaries(simulate_sweep(
                           SimConfig(c, c / 2, buffer_capacity=buffer_capacity,
                                     horizon_packets=500, seed=seed), [rho], seeds))
                       for c in (1.0, math.ldexp(1.0, k))]
        stderr = None if one.jitter_stderr is None else math.ldexp(one.jitter_stderr, -k)
        want = dataclasses.replace(
            one, capacity_C=math.ldexp(1.0, k),
            arrival_rate_lambda=math.ldexp(one.arrival_rate_lambda, k),
            jitter_mean=math.ldexp(one.jitter_mean, -k), jitter_stderr=stderr,
            throughput_mean=math.ldexp(one.throughput_mean, k),
            mean_sojourn_mean=math.ldexp(one.mean_sojourn_mean, -k))
        if _below_normal_at(k, rho, 500, *(child_seed(seed, 0, j) for j in range(seeds))):
            event("draws below the normal range: held to 1e-9 relative")
            assert dataclasses.astuple(scaled) == pytest.approx(
                dataclasses.astuple(want), rel=1e-9)
            return
        assert repr(scaled) == repr(want)


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


def _slot_texts(values):
    """Each float slot of ``_dumptext.float_words`` without its pad bytes."""
    words = _dumptext.float_words(np.asarray(values, dtype=np.float64))
    slots = _dumptext.word_bytes(np.ascontiguousarray(words.T)).reshape(-1, 32)
    return [bytes(slot[slot != 0]) for slot in slots]


def _powers_of_ten_and_neighbours():
    powers = 10.0 ** np.arange(-30, 18)
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


#: Doubles the renderer could get wrong: powers of ten and their neighbours
#: (the log10 estimate of the exponent is off by one on some: 1e-07 is
#: 9.9999999999999995e-08, and 1e-10, one digit, has no point);
#: doubles whose 17-digit rounding carries to the next power of ten (none
#: of them in the fast range, so they take the '%' slot); both
#: sides of the %g switches at X = -5/-4 and 16/17; both ends of the fast
#: range; short decimals with trailing zeros; and the values that always
#: go through '%': subnormals, signed zeros, infinities, NaN, negatives.
_RENDER_CASES = np.concatenate([
    _powers_of_ten_and_neighbours(),
    [1e-14, 1e-70, 1e-79, 1e98, 1e220],
    [9.9999e-5, 9.99999999999999e-5, 1.00001e-4, 0.0001234, 9.999999999999999e16,
     1.0000000000000002e16, 1e16, 1.2345e16, 1.2345e17],
    np.nextafter([1e-11, 1e-11, 2.0 ** 51, 2.0 ** 51, 2.0 ** 52, 2.0 ** 52],
                 [0, np.inf] * 3),
    [1e-11, 2.0 ** 51, 2.0 ** 52, 0.5, 0.25, 1.5, 100.0, 120.0, 1234.5, 0.001, 0.1, 1 / 3],
    [5e-324, 2.2250738585072009e-308, 0.0, -0.0, np.inf, -np.inf, np.nan, -1.5, -1e-7],
])


class TestDumpText:
    def test_targeted_values_format_as_percent_g(self):
        assert _slot_texts(_RENDER_CASES) == [b"%.17g" % x for x in _RENDER_CASES.tolist()]
        fast = _dumptext.decimal17(_RENDER_CASES)[2]
        assert fast.any() and not fast.all()

    @settings(deadline=None)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=40),
           fast=st.lists(st.floats(2e-11, 2.0 ** 50), min_size=1, max_size=40),
           slow=st.lists(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -1.0, 5e-324,
                                          1e300]), min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_double_formats_as_percent_g(self, bits, fast, slow, seed):
        """Arbitrary 64-bit patterns viewed as doubles, mixed with doubles of
        the fast range and values that need '%'; both paths run every time."""
        values = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64), fast, slow])
        np.random.default_rng(seed).shuffle(values)
        assert _slot_texts(values) == [b"%.17g" % x for x in values.tolist()]
        on_fast_path = _dumptext.decimal17(values)[2]
        assert on_fast_path.any() and not on_fast_path.all()

    def test_index_digits(self):
        """The index renderer near 10**k for every k it covers and near 2**40,
        without a dump that long."""
        i = [0, 1, 2 ** 40 - 1, 2 ** 40, 2 ** 40 + 1]
        i += [10 ** k + d for k in range(1, 16) for d in (-1, 0, 1)] + [10 ** 16 - 1]
        words = _dumptext.index_words(np.array(i, dtype=np.uint64))
        slots = _dumptext.word_bytes(np.ascontiguousarray(words.T)).reshape(-1, 16)
        assert [bytes(slot[slot != 0]) for slot in slots] == [b"%d" % k for k in i]


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

    def test_round_trip_across_default_blocks(self, tmp_path):
        """At the default sizes a dump of 30k packets, some dropped, spans
        several write chunks and read blocks."""
        cfg = SimConfig(1000.0, 1100.0, buffer_capacity=20, tagged_fraction=0.1,
                        horizon_packets=30_000, seed=5)
        log, _ = simulate_run(cfg)
        assert 0 < log.dropped.sum() < len(log)
        write_packet_trace(log, tmp_path / "a.csv")
        _reference_write_packet_trace(log, tmp_path / "b.csv")
        data = (tmp_path / "a.csv").read_bytes()
        assert len(log) > 3 * sim._DUMP_WRITE_PACKETS and len(data) > 3 * sim._DUMP_READ_BYTES
        assert data == (tmp_path / "b.csv").read_bytes()
        _assert_same_log(read_packet_trace(tmp_path / "a.csv"), log)

    def test_working_set_is_a_few_blocks(self, tmp_path):
        """The writer's traced peak, a chunk's Python floats, line strings
        and joined text, measured 3.2 MiB at the default 8,192 lines; the
        reader's, above its 34-byte-a-packet output arrays, one block's
        split tokens and temporaries, measured 3.8 MiB at 512 KiB. The
        dump of 200k packets is about 19 MiB, so neither bound holds for
        a peak that grows with its length."""
        n = 200_000
        log, _ = simulate_run(SimConfig(1000.0, 500.0, tagged_fraction=0.1,
                                        horizon_packets=n, seed=8))
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            write_packet_trace(log, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            read_packet_trace(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 16 << 20
        assert write_peak <= 4 << 20
        assert read_peak <= 34 * n + (5 << 20)

    def test_other_dtypes_write_as_the_reference(self, tmp_path):
        """int64 and float32 times are written as their doubles, and 0/1/2
        flags by truth, as the per-line writer's ``'%.17g'`` and ``if`` do;
        5,000 packets span three chunks."""
        n = 5_000
        rng = np.random.default_rng(3)
        flags = rng.integers(0, 3, size=(2, n))
        ints = rng.integers(-(2 ** 62), 2 ** 62, size=n)
        ints[:3] = [2 ** 53 + 1, -(2 ** 63), 2 ** 63 - 1]     # not exact as doubles
        small = rng.integers(0, 10 ** 6, size=n)
        singles = rng.exponential(1e-3, size=n).astype(np.float32)
        log = PacketLog(ints, singles, small, singles * np.float32(3), flags[0], flags[1])
        write_packet_trace(log, tmp_path / "a.csv")
        _reference_write_packet_trace(log, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_index_digits_across_powers_of_ten(self, tmp_path):
        """At the real chunk size the index gains a digit inside a chunk at
        10, 100, ..., 100,000; the lines are the reference writer's."""
        n = 100_050
        t = np.arange(n) * 1e-3 + 0.5
        log = PacketLog(t, np.full(n, 1e-3), t + 1e-3, np.full(n, 1e-3),
                        np.arange(n) % 3 == 0, np.zeros(n, dtype=bool))
        write_packet_trace(log, tmp_path / "a.csv")
        lines = (tmp_path / "a.csv").read_bytes().split(b"\n")
        assert lines[-1] == b"" and len(lines) == n + 2
        for k in range(1, 6):
            for i in (10 ** k - 1, 10 ** k):
                assert lines[i + 1] == b"%d,%s,%.17g,0.001,%.17g,0.001,0" % (
                    i, b"tagged" if i % 3 == 0 else b"background", t[i], t[i] + 1e-3)
        head = PacketLog(*(getattr(log, name)[:12_000] for name in _DUMP_ARRAYS))
        _reference_write_packet_trace(head, tmp_path / "b.csv")
        assert b"\n".join(lines[:12_001]) + b"\n" == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("column", _DUMP_ARRAYS)
    def test_unequal_columns_rejected_before_the_file_is_made(self, tmp_path, column):
        """``zip`` would stop at the shortest column and write a partial dump."""
        log, _ = simulate_run(SimConfig(1000.0, 500.0, horizon_packets=5, seed=4))
        path = tmp_path / "trace.csv"
        short = dataclasses.replace(log, **{column: getattr(log, column)[:3]})
        with pytest.raises(DomainError, match="1-D arrays of one length"):
            write_packet_trace(short, path)
        tall = dataclasses.replace(log, **{column: getattr(log, column).reshape(5, 1)})
        with pytest.raises(DomainError, match="1-D arrays of one length"):
            write_packet_trace(tall, path)
        assert not path.exists()

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
            ("1,tagged,nan,0.1,0.8,0.1,0", "arrival_s 'nan' is not finite"),
            ("1,background,0.7,inf,,,1", "service_s 'inf' is not finite"),
            ("1,tagged,0.5,0.1,nan,inf,0", "departure_s 'nan' is not finite"),
            ("1,tagged,0.7,0.1,0.8,-inf,0", "sojourn_s '-inf' is not finite"),
        ],
        ids=["non-numeric", "delivered-without-departure", "bad-sojourn", "unknown-flow",
             "unknown-drop-flag", "nul-padded-flow", "eight-fields", "nan-arrival",
             "infinite-service-of-dropped", "nan-departure", "infinite-sojourn"],
    )
    def test_bad_field_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "trace.csv"
        path.write_text(PACKET_TRACE_HEADER + "\n0,background,0.5,0.1,0.6,0.1,0\n"
                        + line + "\n2,background,0.9,0.1,1.0,0.1,0\n")
        with pytest.raises(DomainError, match=f"line 3: {message}"):
            read_packet_trace(path)

    def test_dropped_row_ignores_non_finite_departure(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(PACKET_TRACE_HEADER + "\n0,tagged,0.5,0.1,nan,inf,1\n")
        back = read_packet_trace(path)
        assert back.dropped.tolist() == [True] and np.isnan(back.departure_times).all()

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
