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
from qoskit.errors import DomainError
from qoskit.reporting import run_validation
from qoskit.sim import (
    PACKET_TRACE_HEADER,
    PacketLog,
    RunSummary,
    SimConfig,
    child_seed,
    fcfs_departures,
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

    def test_arrivals_spanning_past_the_double_range(self):
        """Arrivals 3e308 apart: the finite buffer queues them without a
        warning, and the unbounded pass, whose running sum holds minus the
        span, refuses a span above 2**1023 s, half the largest double. It
        used to return NaN, flag the packet dropped and warn of overflows."""
        arrivals, services = [-1.5e308, 1.5e308], [1.0, 1.0]
        for buffer_capacity in (1, 5, 100):
            dep, dropped = fcfs_departures(arrivals, services, buffer_capacity)
            assert dep.tolist() == arrivals and not dropped.any()
        with pytest.raises(DomainError, match=r"at most 2\*\*1023 s"):
            fcfs_departures(arrivals, services)
        dep, dropped = fcfs_departures([-4e307, 4e307], services)
        assert dep.tolist() == [-4e307, 4e307] and not dropped.any()

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
    """The block path, at any buffer, into a new departures array."""
    departures = np.empty(len(arrivals))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_BLOCK_MIN_BUFFER", 1)
        sim._fcfs(arrivals, services, buffer_capacity, departures,
                  sim._fcfs_seam(buffer_capacity, len(arrivals))[0])
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
    """Small lanes, so that short inputs span many lanes: L packets per
    lane, W warm-up packets (1 to L), groups of at most 1 to 7 lanes (which
    size ``_fcfs_seam``'s pieces), a probe of 1 to 8 lanes of W packets,
    chunks of 1 to L + W steps, and a hand-over share that sends the rest
    of the piece to the ring loop after the probe, or never. (The probe's
    first two lanes always couple at packet 0, so its reruns pass one half
    of its packets only from 5 lanes on.)"""
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
    at the given lane shape, and the end of the last whole lane: the
    probe's lanes of W packets, then the group's lanes of L."""
    lane, warm, _, probe = shape[:4]
    first = min(probe, n // warm) * warm
    whole = first + (n - first) // lane * lane
    return list(range(0, first, warm)) + list(range(first, whole, lane)), whole


def _pieces(buffer_capacity, n):
    """The (lo, hi) packet ranges ``fcfs_departures`` feeds the queue."""
    size = sim._fcfs_seam(buffer_capacity, n)[1]
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


@contextlib.contextmanager
def _ring_calls():
    """Record the (lo, hi) packet range of every ``sim._ring_run`` call,
    counted from the start of the stream that ``sim._fcfs`` is fed in
    pieces."""
    calls = []
    starts = [0, 0]         # the current piece's first packet, and the next one's
    fcfs, ring_run = sim._fcfs, sim._ring_run

    def fcfs_spy(arr, *args):
        starts[0] = starts[1]
        starts[1] += arr.size
        return fcfs(arr, *args)

    def spy(arr, srv, lo, hi, departures, state):
        calls.append((starts[0] + lo, starts[0] + hi))
        return ring_run(arr, srv, lo, hi, departures, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_fcfs", fcfs_spy)
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


def _run_pieces(shape, arrivals, services, buffer_capacity):
    """``fcfs_departures`` at the given lane shape, with lanes on a piece of
    any length; also returns the ranges handed to the ring loop, and the
    pieces."""
    with pytest.MonkeyPatch.context() as mp, _ring_calls() as calls:
        for name, value in zip(_LANE_CONSTANTS, shape):
            mp.setattr(sim, name, value)
        mp.setattr(sim, "_LANE_MIN_PACKETS", 1)
        departures, _ = fcfs_departures(arrivals, services, buffer_capacity)
        pieces = _pieces(buffer_capacity, len(arrivals))
    return departures, calls, pieces


class TestLanes:
    """The lanes path against the per-packet oracle, bit for bit, at lane
    shapes small enough to reach every branch: lanes that couple in their
    overlap, lanes repaired up to a shared idle arrival, chains of lanes
    that never couple (overload), the packets after the last whole lane,
    the hand-over to the ring loop, and, through ``fcfs_departures``,
    several pieces that each probe afresh."""

    @settings(deadline=None, max_examples=300)
    @given(shape=_lane_shapes(), times=_integer_times() | _continuous_times(),
           buffer_capacity=st.integers(1, 12) | st.sampled_from([_CROSSOVER - 1]))
    def test_bit_identical_at_any_lane_shape(self, shape, times, buffer_capacity):
        arrivals, services = times
        departures, calls = _run_lanes(shape, arrivals, services, buffer_capacity)
        ref_dep, _ = _reference_fcfs(arrivals, services, buffer_capacity)
        assert np.array_equal(departures, ref_dep, equal_nan=True)
        lane, warm, _, probe = shape[:4]
        probe_end = min(probe, len(arrivals) // warm) * warm
        whole = _lane_starts(shape, len(arrivals))[1]
        rest = calls[-1][0]     # the ring loop always runs the rest
        assert rest in (probe_end, whole)
        event("no hand-over" if rest == whole else "hand-over after the probe")

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
            # Mostly idle: every lane couples in its overlap, piece after piece.
            (0.3, 3, {"several pieces", "last packets"}),
            # Near saturation: some lanes need a rerun up to a shared idle arrival.
            (1.0, 4, {"several pieces", "rerun until coupled", "last packets"}),
            # Overload: lanes never couple, so reruns chain and the ring takes over.
            (3.0, 6, {"never coupled", "ring takes over"}),
        ],
        ids=["idle", "saturated", "overload"],
    )
    def test_reaches_every_branch(self, load, buffer_capacity, branches):
        """Through ``fcfs_departures``, which cuts the stream into pieces of
        one probe (two lanes of 8) and one group (four lanes of 64) each."""
        shape = (64, 8, 4, 2, 16)
        rng = np.random.default_rng(2024)
        n = 40 * shape[0] + 5
        arrivals = np.cumsum(rng.integers(0, 3, size=n, endpoint=True)).astype(float)
        services = rng.integers(0, round(2 * load), size=n, endpoint=True).astype(float)
        departures, calls, pieces = _run_pieces(shape, arrivals, services, buffer_capacity)
        ref_dep, _ = _reference_fcfs(arrivals, services, buffer_capacity)
        assert np.array_equal(departures, ref_dep, equal_nan=True)
        # The true queue is idle at an arrival when every earlier departure is
        # at or before it; a lane without such an arrival cannot couple.
        before = np.concatenate(([-np.inf], np.fmax.accumulate(ref_dep)[:-1]))
        idle = np.nan_to_num(before, nan=-np.inf) <= arrivals
        seen = set()
        kept = 0            # pieces whose lanes ran to the last whole one
        for p0, p1 in pieces:
            starts, whole = _lane_starts(shape, p1 - p0)
            starts, whole = [p0 + first for first in starts], p0 + whole
            assert len(starts) <= shape[3] + shape[2]
            if (whole, p1) in calls:
                seen.add("last packets")
                kept += 1
            if any(hi == p1 and lo < whole for lo, hi in calls):
                seen.add("ring takes over")
            for first, end in zip(starts, starts[1:] + [whole]):
                ends = [hi for lo, hi in calls if first <= lo < end and hi <= whole]
                if ends and max(ends) < end:
                    seen.add("rerun until coupled")
                elif ends and not idle[first:end].any():
                    seen.add("never coupled")
        if kept > 1:
            seen.add("several pieces")
        assert branches <= seen

    @pytest.mark.parametrize("calm", [0, 100], ids=["first piece", "later piece"])
    def test_hands_over_in_any_piece(self, calm):
        """Light load for ``calm`` packets, then overload, in pieces of one
        probe (six lanes of 2) and one group (three lanes of 8): a piece
        whose probe's repairs rerun more than ``_LANE_BUSY`` (here 0.5) of
        its packets hands the rest of the piece, whole lanes still to run,
        to the ring loop; the others keep their lanes. The first piece to
        hand over is the first one, or one past the calm packets."""
        shape = (8, 2, 3, 6, 5, 0.5)
        n = 273
        rng = np.random.default_rng(36)
        arrivals = np.cumsum(rng.integers(0, 3, size=n, endpoint=True)).astype(float)
        services = rng.integers(0, 4, size=n, endpoint=True).astype(float)
        services[:calm] //= 4
        departures, calls, pieces = _run_pieces(shape, arrivals, services, 3)
        ref_dep, _ = _reference_fcfs(arrivals, services, 3)
        assert np.array_equal(departures, ref_dep, equal_nan=True)
        handed = []
        for p0, p1 in pieces:
            starts, whole = _lane_starts(shape, p1 - p0)
            probe_end = p0 + starts[shape[3]]
            share = sum(hi - lo for lo, hi in calls if p0 <= lo < probe_end) / (probe_end - p0)
            hands = (probe_end, p1) in calls
            assert hands == (share > 0.5) and probe_end < p0 + whole
            handed.append(hands)
        first = handed.index(True)
        assert (first == 0) == (calm == 0)
        assert pieces[first][1] > calm


class TestLanesAtTheRealShape:
    """The lanes at their real constants, which the small shapes above stand
    in for."""

    def test_bit_identical_with_couplings_and_reruns(self):
        """A probe of 64 lanes of 128 packets, then one group of the
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
        that is seldom idle once the probe has found that out."""
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = rng.exponential(load, size=n)
        with _ring_calls() as calls:
            departures, _ = fcfs_departures(arrivals, services, 10)
        ring = sum(hi - lo for lo, hi in calls)
        first = sim._LANE_PROBE * sim._LANE_WARMUP
        if not lanes:
            # never more than the probe's packets off the ring loop
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

    def test_lanes_come_back_after_overload(self):
        """2.2M packets at K = 20, rho 2.5 for the first half and 0.5 for the
        second, in three pieces of 733,334 that each probe afresh. The first
        piece hands the rest of itself to the ring loop after its probe; the
        last lies wholly past the load step, keeps its lanes, and reruns less
        than a tenth of its packets."""
        n = 2_200_000
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = np.concatenate((rng.exponential(2.5, size=n // 2),
                                   rng.exponential(0.5, size=n - n // 2)))
        with _ring_calls() as calls:
            departures, _ = fcfs_departures(arrivals, services, 20)
        assert np.array_equal(departures, _ring(arrivals, services, 20), equal_nan=True)
        pieces = _pieces(20, n)
        assert len(pieces) == 3
        assert (sim._LANE_PROBE * sim._LANE_WARMUP, pieces[0][1]) in calls
        lo, hi = pieces[-1]
        assert lo > n // 2
        assert sum(b - a for a, b in calls if a >= lo) < (hi - lo) // 10


#: Module constants that put ``_fcfs`` on one path at any buffer;
#: the lanes are small (as in ``_lane_shapes``) and run from 1 packet.
_PATHS = {
    "ring": {"_BLOCK_MIN_BUFFER": 10**9, "_LANE_MIN_PACKETS": 10**9},
    "lanes": {"_BLOCK_MIN_BUFFER": 10**9, "_LANE_MIN_PACKETS": 1,
              **dict(zip(_LANE_CONSTANTS, (8, 4, 3, 2, 5)))},
    "blocks": {"_BLOCK_MIN_BUFFER": 1},
}


@contextlib.contextmanager
def _on_path(path):
    with pytest.MonkeyPatch.context() as mp:
        for name, value in _PATHS[path].items():
            mp.setattr(sim, name, value)
        yield


def _in_pieces(arrivals, services, buffer_capacity, cuts):
    """The finite queue over the pieces between ``cuts``, the first from
    the stream's empty state, each later one from the seam state the call
    before returned; also returns those states."""
    departures = np.empty(len(arrivals))
    state, states = sim._fcfs_seam(buffer_capacity, len(arrivals))[0], []
    for lo, hi in zip([0, *cuts], [*cuts, len(arrivals)]):
        state = sim._fcfs(arrivals[lo:hi], services[lo:hi], buffer_capacity,
                                 departures[lo:hi], state)
        states.append(state)
    return departures, states


def _one_call(arrivals, services, buffer_capacity):
    departures = np.empty(len(arrivals))
    sim._fcfs(arrivals, services, buffer_capacity, departures,
              sim._fcfs_seam(buffer_capacity, len(arrivals))[0])
    return departures


class TestDepartureOverflow:
    """A departure past the largest double is an error on every path. It
    used to come back as an infinite departure of a delivered packet, and
    the block path and the unbounded pass warned of overflows."""

    @pytest.mark.parametrize("n", [2, 3, 40])
    @pytest.mark.parametrize("path", [*_PATHS, "unbounded"])
    def test_overflowing_departure_raises(self, path, n):
        buffer_capacity = None if path == "unbounded" else 5
        with _on_path(path) if buffer_capacity else contextlib.nullcontext():
            with pytest.raises(DomainError, match="largest double"):
                fcfs_departures(np.zeros(n), np.full(n, 1e308), buffer_capacity)
            # the last departure just below the largest double stands
            dep, dropped = fcfs_departures(np.zeros(2), np.full(2, 8e307), buffer_capacity)
            assert dep.tolist() == [8e307, 1.6e308] and not dropped.any()

    @pytest.mark.parametrize("path", _PATHS)
    def test_overflow_after_the_first_piece(self, path):
        """The check holds for a piece fed from another's seam state."""
        arrivals, services = np.zeros(12), np.full(12, 4e307)
        with _on_path(path):
            with pytest.raises(DomainError, match="largest double"):
                _in_pieces(arrivals, services, 5, [3, 4])

    @pytest.mark.parametrize("buffer_capacity", [None, 5])
    @pytest.mark.parametrize("run", [simulate_run, sim._summarize_run])
    def test_zero_window_refused(self, monkeypatch, run, buffer_capacity):
        """Packets that all arrive at one instant measure their rates over a
        zero window; that was a ZeroDivisionError."""
        monkeypatch.setattr(sim, "_exponential_into", lambda rng, scale, out: out.fill(0.0))
        config = SimConfig(1.0, 0.5, buffer_capacity=buffer_capacity, horizon_packets=3,
                           warmup_fraction=0.0)
        with pytest.raises(DomainError, match="^the measured packet rates over 3 packets "
                                              "pass the largest double$"):
            run(config)


class TestPieceGuard:
    """``_fcfs`` checks the last arrival and the largest service time of
    each non-empty piece, the one check that the simulator and trace
    synthesis rely on: times that never decrease carry a NaN or an infinity
    to the end of their piece, and draws that are never negative carry one
    to its largest service time. Empty pieces stay valid."""

    @pytest.mark.parametrize("column, value", [("arrival", math.nan), ("arrival", math.inf),
                                               ("service", math.nan), ("service", math.inf)])
    @pytest.mark.parametrize("path", [*_PATHS, "unbounded"])
    def test_non_finite_piece_refused(self, path, column, value):
        arrivals, services = np.arange(12.0), np.ones(12)
        if column == "arrival":
            arrivals[-1] = value
        else:
            services[6] = value
        buffer_capacity = None if path == "unbounded" else 5
        with _on_path(path) if buffer_capacity else contextlib.nullcontext():
            with pytest.raises(DomainError, match="^times must be finite and service "
                                                  "times non-negative$"):
                _in_pieces(arrivals, services, buffer_capacity, [4, 4, 8, 12])


class TestSeamState:
    """A stream split anywhere and resumed from the seam state gives the
    departures and drops of one call, bit for bit, on every path."""

    @pytest.mark.parametrize("path", list(_PATHS))
    @settings(deadline=None, max_examples=150)
    @given(times=_integer_times() | _continuous_times(),
           buffer_capacity=st.sampled_from([1, 10, 95, 96, 100, 256]), data=st.data())
    def test_resumed_stream_is_one_call(self, path, times, buffer_capacity, data):
        arrivals, services = times
        n = len(arrivals)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6), label="cuts"))
        with _on_path(path):
            whole = _one_call(arrivals, services, buffer_capacity)
            pieces, states = _in_pieces(arrivals, services, buffer_capacity, cuts)
        assert np.array_equal(pieces, whole, equal_nan=True)
        seams = [(cut, state) for cut, state in zip(cuts, states) if cut < n]
        if path == "blocks" and any(state[2] for _, state in seams):
            event("a block step split at a seam")
        if path != "blocks" and any(state[2] > arrivals[cut] for cut, state in seams):
            event("resumed from a busy queue")

    @pytest.mark.parametrize("path", ["ring", "lanes"])
    def test_lanes_and_ring_resume_from_a_busy_queue(self, path):
        """Overload up to the seam, light load after it: the second call
        starts from a queue that is still busy. The lanes (of 32 packets,
        a probe of four lanes of 8) repair their first lane from that
        state (to its end: a rerun checks for a shared idle arrival at most
        every 16 packets), and the rest couple."""
        rng = np.random.default_rng(24)
        n, cut, k = 600, 200, 3
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = np.concatenate((rng.exponential(2.0, size=cut),
                                   rng.exponential(0.3, size=n - cut)))
        departures = np.empty(n)
        with _on_path(path), pytest.MonkeyPatch.context() as mp:
            for name, value in zip(_LANE_CONSTANTS, (32, 8, 4, 4, 8)):
                mp.setattr(sim, name, value)
            state = sim._fcfs(arrivals[:cut], services[:cut], k, departures[:cut],
                              sim._fcfs_seam(k, n)[0])
            assert state[2] > arrivals[cut]
            with _ring_calls() as calls:
                sim._fcfs(arrivals[cut:], services[cut:], k, departures[cut:], state)
        assert np.array_equal(departures, _ring(arrivals, services, k), equal_nan=True)
        if path == "lanes":
            assert calls[0] == (0, 8)       # the first lane, rerun from the state
            assert sum(hi - lo for lo, hi in calls) < (n - cut) // 4
        else:
            assert calls == [(0, n - cut)]

    @pytest.mark.parametrize("buffer_capacity", [96, 100, 256])
    @pytest.mark.parametrize("exact", [False, True], ids=["continuous", "integer"])
    def test_block_step_split_at_a_seam(self, buffer_capacity, exact):
        """Seams every 7K + 3 arrivals in overload: the block steps run past
        them, go on in the next call from their running sum and running
        max, and keep the bits of one call."""
        rng = np.random.default_rng(buffer_capacity)
        n = 40 * buffer_capacity
        if exact:
            arrivals = np.cumsum(rng.integers(0, 2, size=n)).astype(float)
            services = rng.integers(0, 5, size=n).astype(float)
        else:
            arrivals = np.cumsum(rng.exponential(1.0, size=n))
            services = rng.exponential(2.0, size=n)
        cuts = list(range(7 * buffer_capacity + 3, n, 7 * buffer_capacity + 3))
        pieces, states = _in_pieces(arrivals, services, buffer_capacity, cuts)
        assert sum(0 < state[2] < buffer_capacity for state in states[:-1]) >= 3
        assert np.array_equal(pieces, _one_call(arrivals, services, buffer_capacity),
                              equal_nan=True)
        _assert_blocks_match_ring(arrivals, services, buffer_capacity, exact)


class TestBufferLargerThanTheStream:
    """A queue never holds more packets than its stream has, so a buffer of
    K beyond the stream costs what one of the stream's length does, and
    gives the same bits."""

    def test_fcfs_departures_at_a_huge_buffer(self):
        departures, dropped = fcfs_departures([0.0], [1.0], 10**12)
        assert departures.tolist() == [1.0] and dropped.tolist() == [False]
        rng = np.random.default_rng(5)
        arrivals = np.cumsum(rng.exponential(1.0, size=500))
        services = rng.exponential(3.0, size=500)
        got = fcfs_departures(arrivals, services, 10**12)
        want = fcfs_departures(arrivals, services, 500)
        assert np.array_equal(got[0], want[0]) and not got[1].any()

    def test_simulate_run_at_a_huge_buffer(self):
        base = SimConfig(1000.0, 1500.0, buffer_capacity=1000, horizon_packets=1000, seed=7)
        log, summary = simulate_run(dataclasses.replace(base, buffer_capacity=10**12))
        want_log, want_summary = simulate_run(base)
        assert np.array_equal(log.departure_times, want_log.departure_times)
        assert summary == dataclasses.replace(want_summary, config=summary.config)

    def test_a_piece_costs_its_own_length(self):
        """A piece of 10 packets from the state of a 10**6-packet stream at
        K = 10**12 searches and allocates for 10 packets, not for K or
        the stream."""
        state = sim._fcfs_seam(10**12, 10**6)[0]
        arrivals, services = np.arange(10.0), np.full(10, 5.0)
        departures = np.empty(10)
        tracemalloc.start()
        try:
            state = sim._fcfs(arrivals, services, 10**12, departures, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_096
        assert departures.tolist() == (5.0 * np.arange(1, 11)).tolist()
        assert state[2] == 10


class TestSimConfig:
    def test_unstable_unbounded_rejected(self):
        with pytest.raises(DomainError, match="an unbounded queue is unstable"):
            SimConfig(1000.0, 1000.0)

    def test_unstable_allowed_with_finite_buffer(self):
        cfg = SimConfig(1000.0, 1500.0, buffer_capacity=10, horizon_packets=10)
        assert cfg.rho == 1.5

    def test_zero_horizon_is_empty_run(self):
        with pytest.raises(DomainError, match="nothing to simulate"):
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


def _tagged_run(config):
    """A run's summary and the 50-batch batch-means standard error of its
    |dT| samples between consecutive tagged packets, which are serially
    dependent."""
    log, summary = simulate_run(config)
    first = int(config.horizon_packets * config.warmup_fraction)
    samples = np.abs(np.diff(log.sojourn_times[first:][log.tagged[first:]]))
    samples = samples[~np.isnan(samples)]       # the pairs that a drop breaks
    assert summary.n_jitter_samples == samples.size
    batches = samples[:samples.size // 50 * 50].reshape(50, -1).mean(axis=1)
    return summary, batches.std(ddof=1) / math.sqrt(50)


def _mm1k_jitter(rho, buffer_capacity):
    """E|dT| of all-tagged M/M/1/K at C = 1 over the pairs of consecutive
    admitted packets (the README has the derivation): packet n finds j
    packets with weight rho**j, j < K, and the pair counts unless j = K - 1
    and the next arrival comes before the first departure."""
    lam, k = rho, buffer_capacity
    q1, q2 = 1 / (lam + 1), 1 / (lam + 2)

    def spread(m):          # E|S - min(Erlang(m), Exp(lambda))|
        return (1 - q1**m) / lam - 1 + 2 * (1 - q2 * (1 - q2**m) / (1 - q2))

    full = (1 / (lam + 1) + (1 - q1**(k - 1)) / lam - 1
            + 2 * (lam + 1) / (lam + 2) * (1 - q2 * (1 - q2**(k - 1)) / (1 - q2)))
    weights = [rho**j for j in range(k)]
    total = sum(w * spread(j + 1) for j, w in enumerate(weights[:-1])) + weights[-1] * q1 * full
    return total / (sum(weights[:-1]) + weights[-1] * q1)


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
        summary, stderr = _tagged_run(cfg)
        assert abs(summary.empirical_jitter_J - 1.0 / capacity) <= 4 * stderr

    @pytest.mark.parametrize("i, rho", enumerate([0.2, 0.5, 0.8]))
    def test_all_tagged_steps_are_laplace(self, i, rho):
        """The same M/M/1 step S - min(T, A) is Laplace(0, 1/C) in law, not
        only in its mean. The steps are serially dependent, so every k-th
        is kept, k the first lag at which the sample autocorrelations of dT
        and |dT| both fall within 2/sqrt(n) (medians 7, 17 and 37 over the
        seeds below), and the thinned steps go to a KS test.

        The rejection level comes from 500 seeds per load
        (``child_seed(99, i, j)``): the p-values were uniform (a KS test of
        them against U(0, 1) gave 0.38, 0.18 and 0.58), 1.2%, 1.8% and 0.6%
        fell below 0.01, and the smallest of the 1,500 was 0.0014. The test
        rejects below 1e-4, which a correct simulator does with probability
        1e-4 per load; a step scale 10% off gives p below 1e-5 at these
        sizes. The seed is fixed by the load's place in the grid."""
        stats = pytest.importorskip("scipy.stats")
        capacity, n = 1000.0, 1_000_000
        log, _ = simulate_run(SimConfig(capacity, rho * capacity, tagged_fraction=1.0,
                                        horizon_packets=n, seed=child_seed(1729, i)))
        steps = np.diff(log.sojourn_times[n // 10:])
        centred = [x - x.mean() for x in (steps, np.abs(steps))]
        noise = [2 / math.sqrt(steps.size) * (x @ x) for x in centred]
        k = next(k for k in range(1, 200)
                 if all(abs(x[:-k] @ x[k:]) < bound for x, bound in zip(centred, noise)))
        assert 3 <= k < 100
        result = stats.kstest(steps[::k], stats.laplace(scale=1 / capacity).cdf)
        assert result.pvalue >= 1e-4, (k, result)

    @pytest.mark.parametrize("j, fraction", enumerate([0.1, 0.5]))
    @pytest.mark.parametrize("i, rho", enumerate([0.2, 0.5, 0.8]))
    def test_tagged_jitter_matches_the_exact_value(self, i, rho, j, fraction):
        """M/M/1 with a measured flow of a fraction p: E|T_{n+G} - T_n| over
        a geometric gap G is (sqrt((C + lambda)**2 - 4 lambda C (1 - p)) -
        (C - lambda)) / (2 lambda p C), derived (the README has the
        derivation and the evidence). At C = 1 that is 1.21320 / 1.09902 at
        rho 0.2, 1.70820 / 1.23607 at 0.5 and 2.5 / 1.35078 at 0.8
        (p = 0.1 / 0.5). Each cell's seed is fixed by its place in the
        grid."""
        capacity, lam = 1.0, rho
        exact = ((math.sqrt((capacity + lam) ** 2 - 4 * lam * capacity * (1 - fraction))
                  - (capacity - lam)) / (2 * lam * fraction * capacity))
        cfg = SimConfig(capacity, lam, tagged_fraction=fraction, horizon_packets=1_000_000,
                        seed=child_seed(1729, i, j))
        summary, stderr = _tagged_run(cfg)
        assert sim._summarize_run(cfg) == summary
        assert abs(summary.empirical_jitter_J - exact) <= 4 * stderr

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8, 0.95])
    def test_all_tagged_deterministic_jitter_is_exact(self, rho):
        """Stationary M/D/1 with service D = 1/C: the step is
        D - min(T, A), and only E[exp(-lambda W)] = (1 - rho) e^rho of the
        wait is needed, which gives E|dT| = 2(rho + expm1(-rho)) / (rho C)
        (the README has the derivation)."""
        capacity = 1000.0
        cfg = SimConfig(capacity, rho * capacity, tagged_fraction=1.0,
                        horizon_packets=1_000_000, seed=1729,
                        service_distribution="deterministic")
        summary, stderr = _tagged_run(cfg)
        exact = 2 * (rho + math.expm1(-rho)) / (rho * capacity)
        assert abs(summary.empirical_jitter_J - exact) <= 4 * stderr

    @pytest.mark.parametrize("packets", [100_000, 300_000], ids=["ring loop", "lanes"])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.5])
    def test_one_packet_buffer_jitter_is_exact(self, rho, packets):
        """All-tagged M/M/1/1: an admitted packet found the server empty, so
        its sojourn is its own service. The next packet is admitted when it
        arrives after that departure, so given a counted pair the first
        sojourn is Exp(lambda + C), and E|dT| = (1/C)(1 + 1/(1 + rho) -
        2/(2 + rho)) (the README has the derivation)."""
        capacity = 1000.0
        cfg = SimConfig(capacity, rho * capacity, tagged_fraction=1.0, buffer_capacity=1,
                        horizon_packets=packets, seed=1729)
        summary, stderr = _tagged_run(cfg)
        exact = (1 + 1 / (1 + rho) - 2 / (2 + rho)) / capacity
        assert abs(summary.empirical_jitter_J - exact) <= 4 * stderr

    def test_finite_buffer_jitter_formula_at_known_points(self):
        """``_mm1k_jitter`` gives 13/15 and 5/6 at K = 1, M/M/1/1's form at
        any load, 0.81902 at K = 10 and rho 2.5, and M/M/1's 1/C as K grows
        below rho 1."""
        assert _mm1k_jitter(0.5, 1) == pytest.approx(13 / 15, rel=1e-12)
        assert _mm1k_jitter(1.0, 1) == pytest.approx(5 / 6, rel=1e-12)
        for rho in (0.3, 0.9, 2.5):
            assert _mm1k_jitter(rho, 1) == pytest.approx(1 + 1 / (1 + rho) - 2 / (2 + rho),
                                                         rel=1e-12)
        assert _mm1k_jitter(2.5, 10) == pytest.approx(0.81902, abs=5e-6)
        assert _mm1k_jitter(0.5, 300) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("buffer_capacity, rho, packets, path", [
        (3, 0.9, 100_000, "ring"),
        (20, 0.9, 1_000_000, "lanes"),
        (20, 2.5, 1_000_000, "lanes, then ring"),
        (100, 1.4, 1_000_000, "blocks"),
        (100, 2.5, 1_000_000, "blocks"),
    ])
    def test_finite_buffer_jitter_is_exact(self, buffer_capacity, rho, packets, path):
        """All-tagged M/M/1/K against its exact jitter under loss
        (``_mm1k_jitter``), on each finite-buffer path, which the ring
        loop's calls pin: all of the run, a few lanes' reruns, the probe's
        reruns and then the rest of the piece, or none. The seed is
        101 + 5i + j for K at index i of (1, 3, 10, 20, 64, 95, 96, 100, 256)
        and the load at index j of (0.5, 0.9, 1.0, 1.4, 2.5), fixed before
        any run."""
        seed = (101 + 5 * (1, 3, 10, 20, 64, 95, 96, 100, 256).index(buffer_capacity)
                + (0.5, 0.9, 1.0, 1.4, 2.5).index(rho))
        capacity = 1000.0
        cfg = SimConfig(capacity, rho * capacity, tagged_fraction=1.0,
                        buffer_capacity=buffer_capacity, horizon_packets=packets, seed=seed)
        with _ring_calls() as calls:
            summary, stderr = _tagged_run(cfg)
        probe = sim._LANE_PROBE * sim._LANE_WARMUP
        rerun = sum(hi - lo for lo, hi in calls)
        if path == "ring":
            assert calls == [(0, packets)]
        elif path == "lanes":
            assert 0 < rerun < packets // 2 and calls[-1][0] > probe
        elif path == "lanes, then ring":
            assert calls[-1] == (probe, packets) and rerun < packets
        else:
            assert calls == []
        exact = _mm1k_jitter(rho, buffer_capacity) / capacity
        assert abs(summary.empirical_jitter_J - exact) <= 4 * stderr

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
    """The whole-array ``simulate_run`` before the chunked pass, kept
    verbatim as its oracle: it always takes the tagging draw and builds the
    drop masks. A finite buffer is one ``fcfs_departures`` call over the
    whole arrays."""
    n = config.horizon_packets
    rng = np.random.default_rng(config.seed & ((1 << 64) - 1))
    interarrivals = rng.exponential(1.0 / config.arrival_rate_lambda, size=n)
    arrivals = np.cumsum(interarrivals)
    if config.service_distribution == "exponential":
        services = rng.exponential(1.0 / config.capacity_C, size=n)
    else:
        services = np.full(n, 1.0 / config.capacity_C)
    tagged = rng.random(size=n) < config.tagged_fraction
    if config.buffer_capacity is None:
        departures = _reference_unbounded_fcfs(arrivals, services)
        dropped = np.zeros(n, dtype=bool)
    else:
        departures, dropped = fcfs_departures(arrivals, services, config.buffer_capacity)
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

    @settings(deadline=None)
    @given(times=_unbounded_times(), chunk=st.sampled_from(_CHUNKS[:4]), data=st.data())
    def test_resumed_stream_is_one_call(self, times, chunk, data):
        """The unbounded pass split anywhere and resumed from its seam
        state gives the departures of the whole-array pass, bit for bit."""
        arrivals, services = times
        cuts = sorted(data.draw(st.lists(st.integers(0, len(arrivals)), max_size=6),
                                label="cuts"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_CHUNK", chunk)
            departures, _ = _in_pieces(arrivals, services, None, cuts)
        assert departures.tobytes() == _reference_unbounded_fcfs(arrivals, services).tobytes()

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


#: Finite-buffer runs the loop over pieces must reproduce bit for bit:
#: horizons that no piece size divides, no warm-up and the longest one, a
#: full and a sparse tagged flow, overload and light load.
_FINITE_RUNS = {
    "overload, all tagged, no warm-up": dict(arrival_rate_lambda=1500.0, tagged_fraction=1.0,
                                             warmup_fraction=0.0, horizon_packets=2_503,
                                             seed=41),
    "overload, sparse tags, long warm-up": dict(arrival_rate_lambda=1300.0,
                                                tagged_fraction=0.1, warmup_fraction=0.49,
                                                horizon_packets=2_503, seed=42),
    "light load, all tagged, long warm-up": dict(arrival_rate_lambda=600.0,
                                                 tagged_fraction=1.0, warmup_fraction=0.49,
                                                 horizon_packets=1_009, seed=43),
    "deterministic service, sparse tags": dict(arrival_rate_lambda=1100.0,
                                               tagged_fraction=0.1, warmup_fraction=0.0,
                                               horizon_packets=1_009, seed=44,
                                               service_distribution="deterministic"),
}


def _assert_matches_whole_array_oracle(config):
    log, summary = simulate_run(config)
    want_log, want = _reference_simulate_run(config)
    _assert_same_log(log, want_log)
    _assert_same_summary(summary, want)
    _assert_same_summary(sim._summarize_run(config), want)


class TestFiniteRuns:
    """A finite-buffer run queues piece by piece from the seam state; its
    log and summary equal those of one queue call over the whole arrays."""

    @pytest.mark.parametrize("chunk", [1, 7, 1000, sim._CHUNK])
    @pytest.mark.parametrize("buffer_capacity", [1, 10, 95, 96, 100])
    @pytest.mark.parametrize("run", list(_FINITE_RUNS.values()), ids=list(_FINITE_RUNS))
    def test_simulate_run_matches_whole_array_oracle(self, monkeypatch, chunk,
                                                     buffer_capacity, run):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        _assert_matches_whole_array_oracle(
            SimConfig(1000.0, buffer_capacity=buffer_capacity, **run))

    @pytest.mark.parametrize("buffer_capacity", [10, 100])
    def test_seams_at_the_default_chunk(self, buffer_capacity):
        _assert_matches_whole_array_oracle(
            SimConfig(1000.0, 1200.0, buffer_capacity=buffer_capacity,
                      horizon_packets=2 * sim._CHUNK + 4_001, seed=45))

    def test_lane_groups_meet_at_seams(self):
        """Below K = 96 a piece is one probe and one group of lanes. With a
        probe of two lanes of 4 packets and a group of three lanes of 8, a
        run in overload is 77 pieces of at most 39 packets, each run by the
        lanes from the often busy queue the piece before left."""
        config = SimConfig(1000.0, 1100.0, buffer_capacity=10, horizon_packets=3_001,
                           seed=46)
        with _on_path("lanes"):
            assert sim._fcfs_seam(10, 3_001)[1] == 39
            _assert_matches_whole_array_oracle(config)


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


_SWEEP_BASE = SimConfig(1000.0, 500.0, horizon_packets=20, seed=1)


def _counted_configs(monkeypatch):
    """The arrival rate of every ``SimConfig`` built from here on; a third
    build fails the test."""
    built = []
    post_init = SimConfig.__post_init__

    def counted(config):
        built.append(config.arrival_rate_lambda)
        assert len(built) <= 2, "a config built past one per load"
        post_init(config)

    monkeypatch.setattr(SimConfig, "__post_init__", counted)
    return built


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
        with pytest.raises(DomainError, match="grid index 1, .*an unbounded queue is unstable"):
            simulate_sweep(base, [0.5, 1.2])

    @pytest.mark.parametrize("vary, rho, formed", [
        ("capacity", 1e-310, "arrival rate 500.0 over load 1e-310 overflows the capacity"),
        ("arrival", 1e306, "load 1e+306 times capacity 1000.0 overflows the arrival rate"),
    ], ids=["capacity", "arrival"])
    def test_load_beyond_the_double_range_named_as_typed(self, vary, rho, formed):
        """lambda / rho and rho * C past the largest double used to be
        reported as a capacity or an arrival rate of inf."""
        base = SimConfig(1000.0, 500.0, horizon_packets=100, seed=1)
        with pytest.raises(DomainError) as got:
            simulate_sweep(base, [0.5, rho], vary=vary)
        assert str(got.value) == f"rho={rho!r} (grid index 1, seed index 0): {formed}"

    @pytest.mark.parametrize("seeds", [2 ** 64, np.uint64(2 ** 63)], ids=["int", "numpy"])
    def test_run_count_refused_after_one_config_per_load(self, monkeypatch, seeds):
        """A sweep used to build every run's config before the first run,
        so 2**64 seeds a point filled memory. It counts its runs and refuses
        the sweep before it builds any config; a config past one per load
        stops the test instead. A numpy count does not wrap."""
        built = _counted_configs(monkeypatch)
        with pytest.raises(DomainError) as got:
            simulate_sweep(_SWEEP_BASE, [0.5, 0.6], seeds)
        assert built == []
        assert str(got.value) == (f"2 grid point(s) x {seeds!r} seeds per point is "
                                  "more than the 1,000,000 runs a sweep may make")

    @pytest.mark.parametrize("kind, points", [("numpy", 10 ** 7), ("generator", 1_000_001)])
    def test_long_grid_refused_before_any_config(self, monkeypatch, kind, points):
        """A grid of 10**7 loads used to build a config for each before the
        runs were counted (a 10**6-point grid took 11 s and 321 MB); a grid
        without a length is counted once it is listed."""
        grid = (np.linspace(0.1, 0.9, points) if kind == "numpy" else
                (0.5 for _ in range(points)))
        built = _counted_configs(monkeypatch)
        with pytest.raises(DomainError) as got:
            simulate_sweep(_SWEEP_BASE, grid)
        assert built == []
        assert str(got.value) == (f"{points} grid point(s) x 1 seeds per point is "
                                  "more than the 1,000,000 runs a sweep may make")

    def test_run_count_named_before_a_bad_load(self):
        with pytest.raises(DomainError, match=r"^2 grid point\(s\) x 2000000 seeds"):
            simulate_sweep(_SWEEP_BASE, [0.5, 1.2], 2_000_000)

    def test_peak_memory_per_run(self):
        """Every run used to be handed to the pool at once, each holding a
        future until its result was read: 1.83-2.01 KiB traced a run. With
        at most ``2 * workers - 1`` runs submitted, a run holds its summary,
        the summary's config and its list slot, 0.54-0.57 KiB."""
        grid = list(np.linspace(0.1, 0.9, 1_000))
        runs = len(grid) * 2
        assert _sweep_peak(_SWEEP_BASE, grid, seeds_per_point=2) <= 0.75 * 1024 * runs

    def test_most_runs_are_made_and_no_more(self, monkeypatch):
        monkeypatch.setattr(sim, "_MAX_SWEEP_RUNS", 6, raising=False)
        base = SimConfig(1000.0, 500.0, horizon_packets=100, seed=1)
        assert len(simulate_sweep(base, [0.5, 0.6], 3)) == 6
        with pytest.raises(DomainError, match=r"^2 grid point\(s\) x 4 seeds per point is "
                                              r"more than the 6 runs a sweep may make$"):
            simulate_sweep(base, [0.5, 0.6], 4)

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
    monkeypatch.setattr(sim, "_usable_cores", lambda: cores)


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

    def spy(workers, **kwargs):
        sizes.append(workers)
        return executor(workers, **kwargs)

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

    @pytest.mark.parametrize("tagged_fraction, buffer_capacity, bytes_per_packet", [
        pytest.param(0.1, 10, 24, id="0.1"),
        pytest.param(1.0, 10, 24, id="1.0"),
        pytest.param(0.1, 100, 16, id="0.1-K100"),
        pytest.param(1.0, 100, 16, id="1.0-K100"),
    ])
    def test_finite_sweep_memory_per_packet(self, tagged_fraction, buffer_capacity,
                                            bytes_per_packet):
        """A finite-buffer sweep runs on one worker, which keeps the
        arrivals then sojourns and the departures (16 bytes a packet), and
        the services of one piece: at K = 10 one group of lanes, here the
        whole run, with the lanes' working memory (about 1.8 MiB); at
        K = 100 a chunk. With a whole column of services at any K it peaked
        at 25.2 bytes a packet at K = 100, and with fresh departures and
        drop flags per run and a delivered copy at 35.7 at K = 10."""
        n = 500_000
        base = SimConfig(1000.0, 800.0, tagged_fraction=tagged_fraction,
                         buffer_capacity=buffer_capacity, horizon_packets=n, seed=11)
        assert (_sweep_peak(base, [0.6, 1.0, 1.4], vary="capacity")
                <= bytes_per_packet * n + (3 << 20))

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
            assert [(s.config.rho, s.config.seed) for s in swept[0]] == [
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

    def test_platform_without_affinity(self, monkeypatch):
        """Where ``os`` has no ``sched_getaffinity`` (macOS, Windows) the
        sweep runs on ``os.cpu_count()`` workers, with the summaries of one
        run at a time. It used to raise AttributeError."""
        sizes = _pool_sizes(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        base = SimConfig(1000.0, 500.0, tagged_fraction=0.1, horizon_packets=40_001, seed=5)
        _sweep_against_runs(base, [0.2, 0.5, 0.8], seeds_per_point=2)
        assert sizes == [3]

    def test_no_thread_outlives_a_sweep(self, monkeypatch):
        _use_cores(monkeypatch, 3)
        base = SimConfig(1000.0, 500.0, horizon_packets=5_000, seed=2)
        before = set(threading.enumerate())
        simulate_sweep(base, [0.2, 0.4, 0.6, 0.8], seeds_per_point=2)
        assert set(threading.enumerate()) <= before


class TestValidationAggregate:
    """``run_validation``'s mean and across-seed standard error per load."""

    def test_single_seed_has_undefined_stderr(self):
        [s] = simulate_sweep(SimConfig(1000.0, 500.0, horizon_packets=5000, seed=13), [0.5])
        [row] = run_validation(1000.0, [0.5], 5000, 1, base_seed=13).rows
        assert row.jitter_sim_mean == s.empirical_jitter_J
        assert row.jitter_sim_stderr is None

    def test_stderr_is_the_seed_ordered_spread_over_sqrt_n(self):
        """Scaling the jitters by a power of two before ``std`` is exact, so
        the mean and the stderr are the plain ones over the jitters in seed
        order, bit for bit. At base seed 7 the sweep's own order gives other
        last bits for both, so the order is pinned too."""
        base = SimConfig(1000.0, 500.0, horizon_packets=20_000, seed=7)
        summaries = simulate_sweep(base, [0.5], seeds_per_point=10)
        swept = np.array([s.empirical_jitter_J for s in summaries])
        jitters = np.array([s.empirical_jitter_J
                            for s in sorted(summaries, key=lambda s: s.config.seed)])
        [row] = run_validation(1000.0, [0.5], 20_000, 10, base_seed=7).rows
        assert row.arrival_rate_lambda == 500.0
        assert row.jitter_sim_mean == jitters.mean() != swept.mean()
        spread = jitters.std(ddof=1)
        assert row.jitter_sim_stderr == spread / math.sqrt(10)
        assert spread != swept.std(ddof=1)

    def test_stderr_scales_as_one_over_capacity(self):
        """The across-seed stderr stays in the double range at extreme
        capacities: stderr * C is the same at C = 1e-300, 1 and 1e300."""
        scaled = []
        for capacity in (1e-300, 1.0, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                [row] = run_validation(capacity, [0.5], 2000, 3, base_seed=13).rows
            scaled.append(row.jitter_sim_stderr * capacity)
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
                "loss_B", "n_jitter_samples", "offered_count", "delivered_count")}}


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
    @given(k=st.integers(-1000, 1000), rho=st.floats(0.1, 0.95),
           seeds=st.integers(1, 4), seed=st.integers(0, 2**64 - 1))
    # seed 18693's first run draws a time of 9.4e-8, below the normal range at k = 1000
    @example(k=1000, rho=0.5, seeds=2, seed=18693)
    def test_run_validation(self, k, rho, seeds, seed):
        one, scaled = [run_validation(c, [rho], 500, seeds, base_seed=seed).rows[0]
                       for c in (1.0, math.ldexp(1.0, k))]
        got = scaled.jitter_sim_mean, scaled.jitter_sim_stderr
        want = (math.ldexp(one.jitter_sim_mean, -k),
                None if one.jitter_sim_stderr is None else math.ldexp(one.jitter_sim_stderr, -k))
        if _below_normal_at(k, rho, 500, *(child_seed(seed, 0, j) for j in range(seeds))):
            event("draws below the normal range: held to 1e-9 relative")
            assert got == pytest.approx(want, rel=1e-9)
            return
        assert repr(got) == repr(want)


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


class TestPacketTraceWriter:
    """The writer's bytes; these tests read no dump, so the reader's gate
    cannot change them and they run once."""

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

    def test_bytes_match_reference_under_fine_thread_switching(self, tmp_path, monkeypatch):
        """The worker renders a chunk into one word matrix while the caller
        finishes the other; threads switching every microsecond must not
        mix them. 2,000 packets with drops span 400 chunks."""
        log, _ = simulate_run(SimConfig(1000.0, 1100.0, buffer_capacity=20, tagged_fraction=0.1,
                                        horizon_packets=2_000, seed=5))
        monkeypatch.setattr(sim, "_DUMP_WRITE_PACKETS", 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            write_packet_trace(log, tmp_path / "a.csv")
        finally:
            sys.setswitchinterval(interval)
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
        """The writer's traced peak, a chunk's uint64 word matrix, its text
        and the renderer's temporaries, measured 2.3 MiB at the default
        2,048 lines; the reader's, above its 34-byte-a-packet output arrays,
        one block's temporaries, measured 4.1 MiB at 512 KiB in numpy and
        3.1 MiB on the token path. The dump of 200k packets is about
        19 MiB, so neither bound holds for a peak that grows with its
        length."""
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

    @pytest.mark.parametrize("grow", [True, False], ids=["grown", "cut"])
    def test_file_changed_while_read(self, tmp_path, monkeypatch, grow):
        """Lines appended, or the file cut at a line end past what the
        reader has buffered, once the lines are counted and the first block
        is read: a block with more lines than the arrays have rows left, or
        fewer lines in all, is an error, not a log of another length."""
        log, _ = simulate_run(SimConfig(1000.0, 500.0, horizon_packets=2_000, seed=4))
        path = tmp_path / "trace.csv"
        write_packet_trace(log, path)
        text = path.read_bytes()
        body = text.index(b"\n") + 1
        parse = sim.parse_lines

        def changing(blocks, line0, *columns):
            def first_then_change():
                for k, block in enumerate(blocks):
                    yield block
                    if k == 0:
                        path.write_bytes(text + text[body:] if grow
                                         else text[:text.index(b"\n", body + 65_536) + 1])
            return parse(first_then_change(), line0, *columns)

        monkeypatch.setattr(sim, "_DUMP_READ_BYTES", 256)
        monkeypatch.setattr(sim, "parse_lines", changing)
        message = (r"packet trace line \d+: the file changed while it was read" if grow
                   else "packet trace changed while it was read")
        with pytest.raises(DomainError, match=message):
            read_packet_trace(path)

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

    @pytest.mark.parametrize("read_bytes", [1, 40, 100])
    @pytest.mark.parametrize("token, message", [
        ("abc", "line 42: arrival_s 'abc' is not a number"),
        ("1e5", "line 43: malformed packet trace line: '41,tagged,0.7,0.1,0.8,0.1,0,'"),
    ], ids=["refused", "read-by-float"])
    def test_errors_in_line_order_across_blocks(self, tmp_path, monkeypatch, read_bytes, token,
                                                message):
        """A time the fast path refuses on line 42 and a malformed line 43,
        in one block or two: the first bad line is the one named, though the
        field count is checked before any time is read, and no worker thread
        is left."""
        good = "".join(f"{i},background,0.5,0.1,0.6,0.1,0\n" for i in range(40))
        path = tmp_path / "trace.csv"
        path.write_text(PACKET_TRACE_HEADER + "\n" + good + f"40,tagged,{token},0.1,0.8,0.1,0\n"
                        + "41,tagged,0.7,0.1,0.8,0.1,0,\n" + good)
        monkeypatch.setattr(sim, "_DUMP_READ_BYTES", read_bytes)
        before = threading.active_count()
        with pytest.raises(DomainError, match=f"^packet trace {re.escape(message)}$"):
            read_packet_trace(path)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_write_or_a_read(self, tmp_path, monkeypatch):
        log, _ = simulate_run(SimConfig(1000.0, 500.0, horizon_packets=3_000, seed=4))
        monkeypatch.setattr(sim, "_DUMP_WRITE_PACKETS", 500)
        monkeypatch.setattr(sim, "_DUMP_READ_BYTES", 10_000)
        before = threading.active_count()
        write_packet_trace(log, tmp_path / "a.csv")
        assert threading.active_count() == before
        _assert_same_log(read_packet_trace(tmp_path / "a.csv"), log)
        assert threading.active_count() == before

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


@contextlib.contextmanager
def _token_path():
    """The reader with the fast path's gate off, as on a platform without x87
    extended precision; the fast path's two entry points fail if called."""
    def fast_path(*args):
        raise AssertionError("fast-path code ran with its gate off")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_dumptext, "EXACT_SCALING", False)
        mp.setattr(_dumptext, "_read_fast", fast_path)
        mp.setattr(_dumptext, "parse_decimals", fast_path)
        yield


class TestPacketTraceTokenPath(TestPacketTrace):
    """Every ``TestPacketTrace`` test again on the token path. It is the
    fallback where the gate is off and the fast path's oracle here, where
    the gate is always on, so it must stay tested here too."""

    @pytest.fixture(autouse=True, scope="class")
    def _gate_off(self):
        with _token_path():
            yield

    # Hypothesis runs each test from one class, so the property test is
    # wrapped again here.
    test_read_back_bit_identical_across_blocks = settings(deadline=None)(given(
        log=_packet_logs(), write_chunk=st.integers(1, 8), read_bytes=st.integers(1, 300))(
        TestPacketTrace.test_read_back_bit_identical_across_blocks.hypothesis.inner_test))

    def test_no_fast_path_code_runs(self, tmp_path):
        """The gate is off, and the fast path's entry points fail if called."""
        assert not _dumptext.EXACT_SCALING
        log, _ = simulate_run(SimConfig(1000.0, 1500.0, buffer_capacity=2, horizon_packets=50,
                                        seed=4))
        write_packet_trace(log, tmp_path / "a.csv")
        _assert_same_log(read_packet_trace(tmp_path / "a.csv"), log)


def _read_outcome(path):
    """The arrays read back, or the error's text."""
    try:
        log = read_packet_trace(path)
    except DomainError as exc:
        return str(exc)
    return [getattr(log, name).tobytes() for name in _DUMP_ARRAYS]


def _certified(token: bytes):
    """``_dumptext.parse_decimals`` on one token after a dump's ",", and
    before one: (value, certified)."""
    text = np.frombuffer(b"," * 24 + token + b"," * 8, np.uint8)
    values, good = _dumptext.parse_decimals(text, np.array([24]), np.array([24 + len(token)]))
    return values[0], bool(good[0])


_NEEDS_X87 = pytest.mark.skipif(not _dumptext.EXACT_SCALING,
                                reason="the fast path runs only with x87 extended precision")

#: Tokens at the edges of the fast path's grammar, and whether it certifies
#: each: midpoints of two doubles, and decimals whose extended-precision
#: value rounds onto a midpoint, where a second rounding goes the wrong way
#: (float() reads 26.229135849669728 and 85.13751424477427, rounding twice
#: ...724 and ...425), all refused by the certificate; 19 and 20 digits;
#: scales of 10**27 and 10**28; 2- and 3-digit exponents; the spellings
#: only ``float()`` reads; a subnormal; and malformed tokens, among them
#: 24-byte ones with a byte below "0" before a point in their first word.
_TOKENS = {
    b"9007199254740993": False, b"4503599627370496.5": False, b"9.007199254740993e+15": False,
    b"26.229135849669726": False, b"85.137514244774259": False,
    b"1234567890123456789": True, b"12345678901234567890": False,
    b"0.1234567890123456789": True, b"0.12345678901234567891": False,
    b"1.5e-26": True, b"1.5e-27": False, b"1e+27": True, b"1e+28": False,
    b"1.2345e-005": False, b"1e-100": False, b"1e-05": True, b"1.0000000000000001e-05": True,
    b"0.00012345678901234567": True, b"000000000000000000000001": True,
    b"0000000000000000000000001": False, b"0.1": True, b"0": True, b".5": True, b"5.": True,
    b"1_0": False, b" 1.5": False, b"+1": False, b"1E5": False, b"1e5": False, b"1e+5": False,
    b"-0": False, b"-1.5": False, b"infinity": False, b"4.9406564584124654e-324": False,
    b"1.7976931348623157e+308": False, b"": False, b".": False, b"e-05": False, b"1..5": False,
    b"1.5.": False, b"1e-05e": False, b"1e--5": False, b"1e-0:": False, b"1e-00:": False,
    b"2.5e+01;": False, b"nan": False, b"0x10": False, b"00000!.00000000000000001": False,
    b"0000 .000000000000000001": False, b"0000\t.000000000000000001": False,
}


@st.composite
def _low_byte_before_point(draw):
    """24 bytes: four zeros, 19 digits and a point, but for one byte in
    0x01-0x29 after the zeros and before the point. The fast path reads a
    token's last 24 mantissa bytes, so the byte lands in the first of its
    three words, and only the digit test refuses the token."""
    before = draw(st.integers(5, 8))
    digits = "0000" + draw(st.text("0123456789", min_size=19, max_size=19))
    low = draw(st.integers(4, before - 1))
    byte = chr(draw(st.integers(0x01, 0x29)))
    return digits[:low] + byte + digits[low + 1:before] + "." + digits[before:]


_ODD_FIELD = st.one_of(
    st.floats().map("%.17g".__mod__), st.sampled_from(list(_TOKENS)).map(bytes.decode),
    st.sampled_from(["probe", "", "2", " 0", "tagged\0"]),
    st.text("0123456789.e+-E_ \0\r", max_size=8),
    _low_byte_before_point())


@st.composite
def _dump_lines(draw):
    """Dump lines in the grammar, then up to three edits: a field replaced by
    an odd one (which ``float()`` may still read) or a line that is not a
    dump line at all."""
    times = st.floats(0, 1e6).map("%.17g".__mod__)
    lines = [[str(i), draw(st.sampled_from(["tagged", "background"])),
              *draw(st.lists(times, min_size=4, max_size=4)), draw(st.sampled_from("01"))]
             for i in range(draw(st.integers(1, 12)))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        if draw(st.integers(0, 5)) and len(lines[at]) == 7:
            lines[at][draw(st.integers(1, 6))] = draw(_ODD_FIELD)
        else:
            lines[at] = [draw(st.text("01.,e\n", max_size=30))]
    return "".join(",".join(fields) + "\n" for fields in lines)


class TestDumpParse:
    @pytest.mark.parametrize("token", list(_TOKENS), ids=[t.decode() or "empty" for t in _TOKENS])
    def test_token_reads_as_float_or_fails_as_before(self, tmp_path, token):
        """In each time column the token reads back as ``float(token)``, or
        fails with the token path's error."""
        path = tmp_path / "trace.csv"
        line = b"1,tagged,%s,%s,%s,%s,0\n" % ((token,) * 4)
        path.write_bytes(PACKET_TRACE_HEADER.encode() + b"\n0,background,0.5,0.1,0.6,0.1,0\n"
                         + line + b"2,background,0.9,0.1,1.0,0.1,0\n")
        with _token_path():
            expected = _read_outcome(path)
        assert _read_outcome(path) == expected
        try:
            value = float(token)
        except ValueError:
            assert expected == f"packet trace line 3: arrival_s {token.decode()!r} is not a number"
            return
        if not math.isfinite(value):
            assert expected == f"packet trace line 3: arrival_s {token.decode()!r} is not finite"
            return
        assert [np.frombuffer(column)[1:2].tobytes() for column in expected[:4]] == [
            np.float64(value).tobytes()] * 4

    @_NEEDS_X87
    @pytest.mark.parametrize("token", list(_TOKENS), ids=[t.decode() or "empty" for t in _TOKENS])
    def test_certified_tokens(self, token):
        value, good = _certified(token)
        assert good == _TOKENS[token]
        if good:
            assert value.tobytes() == np.float64(float(token)).tobytes()

    @_NEEDS_X87
    @settings(deadline=None)
    @given(digits=st.text("0123456789", min_size=1, max_size=22), point=st.integers(-1, 22),
           exponent=st.none() | st.tuples(st.sampled_from("+-"), st.integers(0, 40),
                                         st.sampled_from(["%02d", "%03d"])))
    def test_any_certified_decimal_is_float(self, digits, point, exponent):
        """Any decimal in or near the grammar: where certified, the value is
        float()'s bit for bit."""
        token = digits if point < 0 else digits[:point] + "." + digits[point:]
        if exponent is not None:
            sign, e, form = exponent
            token += "e" + sign + form % e
        value, good = _certified(token.encode())
        event(f"certified: {good}")
        if good:
            assert value.tobytes() == np.float64(float(token)).tobytes()

    @_NEEDS_X87
    def test_midpoints_are_refused(self):
        """A decimal exactly between two doubles makes the extended result a
        float64 midpoint, which rounding once more could break the wrong way."""
        for shift in range(11):
            for odd in (1, 3, 5, 2 ** 52 - 1):
                midpoint = (2 ** 53 + odd) << shift
                if midpoint < 10 ** 19:
                    assert _certified(b"%d" % midpoint)[1] is False
        assert _certified(b"4503599627370497.5")[1] is False
        assert _certified(b"9007199254740994")[1] is True

    @_NEEDS_X87
    def test_simulated_dump_needs_no_float(self, tmp_path, monkeypatch):
        """On a dump with drops every time the writer wrote is certified; the
        only uncertified tokens are the dropped rows' empty fields."""
        log, _ = simulate_run(SimConfig(1000.0, 1100.0, buffer_capacity=20,
                                        horizon_packets=30_000, seed=5))
        write_packet_trace(log, tmp_path / "a.csv")
        refused = []
        parse = _dumptext.parse_decimals

        def counted(text, starts, stops, **scratch):
            values, good = parse(text, starts, stops, **scratch)
            refused.extend((stops - starts)[~good].tolist())
            return values, good

        monkeypatch.setattr(_dumptext, "parse_decimals", counted)
        _assert_same_log(read_packet_trace(tmp_path / "a.csv"), log)
        assert refused == [0] * (2 * int(log.dropped.sum())) and refused

    @settings(deadline=None)
    @given(lines=_dump_lines(), read_bytes=st.integers(1, 400))
    def test_fast_and_token_paths_agree(self, tmp_path_factory, lines, read_bytes):
        """Random lines, most in the dump's grammar, some with a field or the
        whole line out of it, give the same arrays or the same error on both
        paths."""
        path = tmp_path_factory.mktemp("dump") / "trace.csv"
        path.write_bytes((PACKET_TRACE_HEADER + "\n" + lines).encode())
        accepted = []
        read_fast = _dumptext._read_fast

        def fast_path(*args):
            accepted.append(read_fast(*args))
            return accepted[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_DUMP_READ_BYTES", read_bytes)
            mp.setattr(_dumptext, "_read_fast", fast_path)
            fast = _read_outcome(path)
            with _token_path():
                assert _read_outcome(path) == fast
        event(f"blocks the fast path took: {min(sum(accepted), 3)}+")
        event("arrays" if isinstance(fast, list) else fast.split(": ")[1].split(" ")[0])
