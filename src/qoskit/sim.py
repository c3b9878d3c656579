"""Seeded discrete-event simulation of a single FCFS queue.

Poisson arrivals at a total rate lambda share one server of capacity C
(packets/s); each arrival is independently marked as belonging to the tagged
flow with probability ``tagged_fraction``. Service times are exponential with
mean 1/C (unit-mean packet sizes) or deterministic 1/C. The buffer is either
unbounded (requires lambda < C) or holds ``buffer_capacity`` packets counting
the one in service; arrivals to a full system are tail-dropped.

The per-run randomness comes from one numpy Generator seeded by the config;
the draw order is fixed (interarrivals, then service times when exponential,
then tagging uniforms below a tagged fraction of 1), so identical configs
reproduce bit-identical packet streams. Sweeps derive per-point child seeds
with a documented splitmix64 mix, making every point re-runnable in
isolation.

Delay variation is measured between consecutive tagged packets: each pair of
adjacent entries of the tagged subsequence contributes |T_next - T_prev| when
both were delivered; a dropped tagged packet breaks the pair (the delay of a
dropped packet is undefined). The first ``warmup_fraction`` of arrivals is
excluded from all summary statistics to remove the empty-queue start-up bias.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from . import _dumptext
from .errors import (
    DomainError,
    EmptyRunError,
    InconsistentGroupError,
    InstabilityError,
    _count,
    _real,
)
from .metrics import _abs_differences, _mean, _unit_scaled

SERVICE_EXPONENTIAL = "exponential"
SERVICE_DETERMINISTIC = "deterministic"
_SERVICE_KINDS = (SERVICE_EXPONENTIAL, SERVICE_DETERMINISTIC)

#: Fixed fallback seed used when callers do not supply one. Never wall-clock.
DEFAULT_SEED = 1729

_MASK64 = (1 << 64) - 1

PACKET_TRACE_HEADER = "index,flow,arrival_s,service_s,departure_s,sojourn_s,dropped"


def splitmix64(value: int) -> int:
    """One step of the splitmix64 finalizer (public-domain constants)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(base_seed: int, *indices: int) -> int:
    """Derive an independent child seed from a base seed and grid indices.

    Recipe: starting from the base seed, fold in each index with
    ``s = splitmix64(s XOR (index + 1))``. Documented so any point of a sweep
    can be reproduced standalone.
    """
    s = base_seed & _MASK64
    for ix in indices:
        s = splitmix64(s ^ ((ix + 1) & _MASK64))
    return s


@dataclass(frozen=True)
class SimConfig:
    """Everything one run depends on, including the seed."""

    capacity_C: float
    arrival_rate_lambda: float
    tagged_fraction: float = 0.1
    buffer_capacity: int | None = None
    horizon_packets: int = 100_000
    warmup_fraction: float = 0.1
    seed: int = DEFAULT_SEED
    service_distribution: str = SERVICE_EXPONENTIAL

    def __post_init__(self):
        _real(self.capacity_C, "capacity", gt=0)
        _real(self.arrival_rate_lambda, "arrival rate", gt=0)
        if self.buffer_capacity is None:
            if self.arrival_rate_lambda >= self.capacity_C:
                raise InstabilityError(
                    f"unbounded buffer requires lambda < C; got load {self.rho:.6g}"
                )
        else:
            _count(self.buffer_capacity, "buffer capacity (a packet count)", 1)
        _real(self.tagged_fraction, "tagged fraction", gt=0, le=1)
        _count(self.horizon_packets, "horizon (a packet count)", 0)
        if self.horizon_packets == 0:
            raise EmptyRunError("horizon of zero packets: nothing to simulate")
        _real(self.warmup_fraction, "warmup fraction", ge=0, lt=0.5)
        _count(self.seed, "seed")
        # numpy integers cannot take the 64-bit seed mask
        object.__setattr__(self, "seed", int(self.seed))
        if self.service_distribution not in _SERVICE_KINDS:
            raise DomainError(
                f"service distribution must be one of {_SERVICE_KINDS}, "
                f"got {self.service_distribution!r}"
            )

    @property
    def rho(self) -> float:
        return self.arrival_rate_lambda / self.capacity_C


@dataclass(frozen=True, eq=False)
class PacketLog:
    """One run's packets as six numpy columns in arrival order; departure and
    sojourn are NaN for a dropped packet. Compared and hashed by identity,
    as a field-wise ``==`` over arrays would raise."""

    arrival_times: np.ndarray
    service_times: np.ndarray
    departure_times: np.ndarray
    sojourn_times: np.ndarray
    tagged: np.ndarray
    dropped: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_times)


@dataclass(frozen=True)
class RunSummary:
    """Post-warmup statistics of one run.

    ``loss_B`` is computed from the offered/delivered counters, which is the
    counting form of the loss/throughput identity; ``offered_lambda`` and
    ``throughput_X`` divide the same counters by the same measurement window,
    so the rate form holds to arithmetic precision.
    """

    mean_sojourn: float
    empirical_jitter_J: float
    throughput_X: float
    offered_lambda: float
    loss_B: float
    n_jitter_samples: int
    seed: int
    offered_count: int
    delivered_count: int
    config: SimConfig


#: Packets per chunk of the unbounded pass (see ``_fcfs_unbounded``), whose
#: slices of its six arrays, about 1.5 MB, stay in a core's cache from one
#: step of the pass to the next; also the packets per ``tolist()``
#: conversion in the ring loop, which bounds its Python objects to a fixed
#: size whatever the run length.
_CHUNK = 32_768

#: Buffer size from which the finite-buffer queue uses block-of-K acceptance
#: instead of the lanes and the ring loop (see ``fcfs_departures``).
_BLOCK_MIN_BUFFER = 96

#: Lanes of the small-buffer path (see ``_fcfs_lanes``): packets per lane,
#: packets each lane runs before its own to warm up, and the most lanes
#: advanced together by one numpy step.
_LANE_PACKETS = 1024
_LANE_WARMUP = 128
_LANE_GROUP = 1024

#: The first group of lanes: how many, each of just W packets. A numpy step
#: costs 5-8 us however few lanes it has, so the first group's 2W steps
#: (about 2 ms) find out a queue that is seldom idle, where a group of whole
#: lanes would take 9 ms.
_LANE_PROBE = 64

#: Share of a group's packets, the first group's or a later one's, that the
#: ring loop had to rerun above which it runs the rest of the stream; also
#: the share of the first group's lanes without a shared idle arrival above
#: which it runs the whole stream.
_LANE_BUSY = 0.9

#: The side-by-side run costs about 9 ms per group however few lanes it has,
#: so the lanes only pay on long inputs (the README gives the measured
#: break-even).
_LANE_MIN_PACKETS = 131_072

#: Steps per chunk of the side-by-side run; bounds its working memory.
_LANE_CHUNK = 64


def fcfs_departures(arrival_times, service_times, buffer_capacity: int | None = None):
    """Run the FCFS queue over explicit arrival and service times.

    This is the deterministic core of the simulator and doubles as a test
    hook for hand-built packet patterns. Returns ``(departures, dropped)``
    where departures holds NaN for dropped packets. A departure occurring
    exactly at an arrival instant frees its buffer slot first.

    The unbounded buffer uses the closed-form Lindley recursion. A finite
    buffer of K packets takes one of three paths:

    - ``K < 96``, at least 131,072 packets: lanes of 1,024 packets run side
      by side in numpy, then are checked and repaired (``_fcfs_lanes``).
      Bit-identical to the per-packet recursion ``d = max(a, d_prev) + s``
      with tail drop.
    - ``K < 96`` otherwise, and the rest of a stream on which lanes stop
      paying: a sequential loop over a ring of the last K accepted
      departures (``_ring_run``), bit-identical to the same recursion.
    - ``K >= 96``: K acceptances at a time (one ``searchsorted`` in a
      window of the arrivals plus a block Lindley pass), so dropped packets
      cost nothing. The sums are taken in another order, so departures may
      differ from the recursion's in the last digits (the tests hold them
      to 1e-12 relative); they are bit-identical whenever the sums are
      exact, as with integer times.

    The lanes rest on one fact: a tail-drop queue that is idle at an
    arrival (its last departure at or before it) holds nothing that can
    still delay or drop a later packet. So two runs that are both idle at
    the same arrival give the same output from there on, whatever their
    earlier state. Each lane starts empty 128 packets before its first one;
    it is exact when it and the lane before it are both idle at one of
    those 128 arrivals and the lane before it is itself exact from some
    packet on. Any other lane is rerun by the ring loop from the true state
    until an arrival at which both runs are idle.

    When the queue seldom goes idle (long overload at moderate K) nearly
    every lane needs that rerun, and the lanes cost more than the ring loop
    alone once reruns pass about 0.65 of the packets. Observed shares,
    never K or the load, hand such a stream to the ring loop:

    - The first group is 64 lanes of just 128 packets from the start of the
      stream (about 2 ms side by side). If more than 0.9 of them share no
      idle arrival with the lane before, the ring loop runs the whole
      stream without repairing them.
    - The rest is cut into lanes of 1,024 packets, in equal groups of at
      most 1,024 lanes sized to the input (one group up to 1,057,791
      packets).
    - Once the repairs of any group, the first or a later one, have rerun
      more than 0.9 of its packets, the ring loop runs the rest.

    On every path packet i is dropped exactly when the accepted packet K
    places before it has not departed by ``a_i``, so the drop set is the
    recursion's. On the block path the one exception would be an arrival
    falling between the two paths' roundings of that departure instant.

    The README gives the measurements behind the 131,072-packet cutoff
    and each path's cost by K and load.
    """
    arr = np.ascontiguousarray(arrival_times, dtype=float)
    srv = np.ascontiguousarray(service_times, dtype=float)
    if arr.ndim != 1 or srv.ndim != 1 or arr.shape != srv.shape:
        raise DomainError("arrival and service times must be 1-D arrays of equal length")
    n = arr.size
    if n == 0:
        return np.empty(0), np.empty(0, dtype=bool)
    if np.any(np.diff(arr) < 0):
        raise DomainError("arrival times must be non-decreasing")
    if np.any(srv < 0) or not np.all(np.isfinite(srv)) or not np.all(np.isfinite(arr)):
        raise DomainError("times must be finite and service times non-negative")

    if buffer_capacity is None:
        departures = np.empty(n)
        _fcfs_unbounded(arr, srv, departures)
        return departures, np.zeros(n, dtype=bool)

    _count(buffer_capacity, "buffer capacity", 1)
    departures = np.empty(n)
    _fcfs_finite(arr, srv, buffer_capacity, departures)
    return departures, np.isnan(departures)


def _fcfs_finite(arr, srv, buffer_capacity, departures):
    """The finite-buffer queue of ``fcfs_departures`` on checked arrays,
    into ``departures``; NaN marks a dropped packet."""
    if buffer_capacity >= _BLOCK_MIN_BUFFER:
        _fcfs_blocks(arr, srv, buffer_capacity, departures)
        return
    empty = ([-math.inf] * buffer_capacity, 0, -math.inf)
    if arr.size >= _LANE_MIN_PACKETS:
        _fcfs_lanes(arr, srv, departures, empty)
    else:
        _ring_run(arr, srv, 0, arr.size, departures, empty)


def _fcfs_unbounded(arr, srv, departures, sojourn=None, draw=None, first=0):
    """Unbounded FCFS in chunks of ``_CHUNK`` packets; departures
    go to ``departures`` and, when given, ``departure - arrival`` to
    ``sojourn``. Returns the arrival of packet ``first - 1`` (0.0 when
    ``first`` is 0) and the last arrival.

    The wait is the running sum of ``s[k] - (a[k+1] - a[k])`` minus its
    running minimum (the Lindley recursion in closed form). Slot 0 of the
    chunk's buffer holds the chunk before's last running sum for ``cumsum``,
    then its last running minimum for ``minimum.accumulate``. Both are
    sequential, so every value is the same operation on the same operands
    as in one pass over the whole arrays, and the bits are the same. The
    first chunk starts from a sum of -0.0 and an increment of -0.0 for
    packet 0 (adding -0.0 changes no bits), then gives packet 0 the +0.0
    sum of the whole-array form; the minimum starts at +inf. The chunk
    before's last arrival and last service time, which the chunk's first
    increment needs, are carried as numbers, so ``sojourn`` may be ``arr``
    itself: each chunk's sojourns then overwrite its arrivals.

    With ``draw``, the pass also makes the run: ``arr`` holds interarrival
    draws and becomes the arrivals in place, and ``draw(out)`` writes each
    chunk's service times, in packet order, ahead of the chunk's pass.
    Draws are never negative, so the arrivals never decrease and a NaN or
    an infinity stays to the end of its chunk: a chunk's last arrival and
    largest service time carry the checks that ``fcfs_departures`` makes on
    whole arrays.

    ``srv`` and ``departures`` are whole columns, or, for a run that keeps
    neither, buffers a chunk long that every chunk reuses. A run of one
    chunk uses its buffers as columns.
    """
    n = arr.size
    size = min(_CHUNK, n) + 1
    prefix_buf, low_buf = np.empty(size), np.empty(size)
    last_prefix, last_low = -0.0, math.inf
    t_start = last_arrival = last_service = 0.0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        a = arr[lo:hi]
        at = lo % departures.size       # lo in a column, 0 in a chunk buffer
        s, dep = srv[at:at + hi - lo], departures[at:at + hi - lo]
        if draw is not None:
            if lo:
                a[0] += last_arrival
            np.cumsum(a, out=a)
            draw(s)
            if not (a[-1] < math.inf and s.max() < math.inf):
                raise DomainError("times must be finite and service times non-negative")
        prefix, low = prefix_buf[:hi - lo + 1], low_buf[:hi - lo + 1]
        prefix[0] = last_prefix
        prefix[1] = last_service - (a[0] - last_arrival) if lo else -0.0
        inc = prefix[2:]
        np.subtract(a[1:], a[:-1], out=inc)
        np.subtract(s[:-1], inc, out=inc)
        np.cumsum(prefix, out=prefix)
        if not lo:
            prefix[1] = 0.0
        prefix[0] = last_low
        np.minimum.accumulate(prefix, out=low)
        last_prefix, last_low = prefix[-1], low[-1]
        if lo < first <= hi:
            t_start = float(a[first - 1 - lo])
        last_arrival, last_service = a[-1], s[-1]
        waits = np.subtract(prefix[1:], low[1:], out=low[1:])
        np.add(a, waits, out=dep)
        dep += s
        if sojourn is not None:
            np.subtract(dep, a, out=sojourn[lo:hi])
    return t_start, float(last_arrival)


def _ring_run(arr, srv, lo, hi, departures, state):
    """Run the ring loop over packets ``lo:hi`` from ``state`` and return
    the state after them; departures go to ``departures[lo:hi]``.

    A state is ``(ring, pos, last)``: ``ring[pos]`` holds the departure of
    the accepted packet K places back (-inf until K have been accepted), so
    an arrival is admitted exactly when that packet has left, i.e. fewer
    than K accepted packets remain; ``last`` is the last departure.
    """
    ring, pos, last = state
    buffer_capacity = len(ring)
    nan = math.nan
    for c0 in range(lo, hi, _CHUNK):
        c1 = min(c0 + _CHUNK, hi)
        out = []
        append = out.append
        for t, s in zip(arr[c0:c1].tolist(), srv[c0:c1].tolist()):
            if t < ring[pos]:
                append(nan)
                continue
            last = (last if last > t else t) + s
            ring[pos] = last
            pos += 1
            if pos == buffer_capacity:
                pos = 0
            append(last)
        departures[c0:c1] = out
    return ring, pos, last


def _fcfs_lanes(arr, srv, departures, state):
    """Tail-drop FCFS from the empty ring ``state`` in lanes checked at
    shared idle instants, into ``departures``; NaN marks a dropped packet.
    Bit-identical to ``_ring_run`` over the whole stream from that state.

    The stream is cut into lanes; each starts empty W packets before its
    first packet. The first group is ``_LANE_PROBE`` lanes of W packets,
    the rest are lanes of L packets in equal groups of at most
    ``_LANE_GROUP``, and the packets after the last whole lane go to the
    ring loop. Each group runs side by side (``_speculate``), then lane by
    lane:

    - Check: a lane is exact over its whole range when, at one of its first
      W arrivals, both it and the lane before it were idle, and that lane
      is exact from some packet on. The two then agree from that arrival,
      and the lane before agrees with the true queue from its own meeting
      point; both points come before the lane's first packet.
    - Repair: any other lane is rerun by the ring loop from the true end
      state of the lane before it, until an arrival at which the rerun and
      the lane are both idle; from there the lane's output stands. A lane
      never idle together with its rerun leaves the next one to a rerun.

    A group, the first or a later one, whose repairs reran more than
    ``_LANE_BUSY`` of its packets hands the rest of the stream to the ring
    loop. When more than ``_LANE_BUSY`` of the first group's lanes have no
    shared idle arrival, the ring loop runs the whole stream without
    repairing them.
    """
    n = arr.size
    warm = _LANE_WARMUP
    buffer_capacity = len(state[0])
    # The lane before the next one: its idle flags over the next lane's
    # warm-up, whether its output is exact from some packet on, and its true
    # end state (None: its speculative end state, the same when exact).
    prev_idle = np.ones(warm, dtype=bool)
    exact = True
    lo = 0
    lane, m = warm, min(_LANE_PROBE, n // warm)
    while m:
        hi = lo + m * lane
        idle, rings, lasts = _speculate(arr, srv, lo, m, lane, buffer_capacity,
                                        departures)
        shared = idle[:warm].copy()
        shared[:, 0] &= prev_idle
        shared[:, 1:] &= idle[lane:, :-1]
        has_shared = shared.any(axis=0)
        unshared = np.flatnonzero(~has_shared)
        if not lo and unshared.size > _LANE_BUSY * m:
            break       # lanes without a shared idle arrival need a rerun
        rerun = 0
        l = 0
        while l < m:
            if exact and has_shared[l]:
                # This lane and every one up to the next without a shared
                # idle arrival are exact.
                i = np.searchsorted(unshared, l)
                l = int(unshared[i]) if i < unshared.size else m
                state = None
                continue
            if state is None:
                state = rings[l - 1].tolist(), 0, float(lasts[l - 1])
            # Rerun from the true state, checking for a shared idle arrival
            # at the lane's own idle arrivals at least 16 packets apart (a
            # ring call costs about as much as 16 packets of it); past one
            # skipped, both runs agree, so the next check finds them idle.
            first = lo + l * lane
            done = first
            exact = False
            for q in (first + np.flatnonzero(idle[warm:, l])).tolist():
                if q > done:
                    if q - done < 16:
                        continue
                    state = _ring_run(arr, srv, done, q, departures, state)
                    done = q
                if state[2] <= arr[q]:
                    exact, state = True, None
                    break
            else:
                state = _ring_run(arr, srv, done, first + lane, departures, state)
                done = first + lane
            rerun += done - first
            l += 1
        if state is None:
            state = rings[m - 1].tolist(), 0, float(lasts[m - 1])
        prev_idle = idle[lane:, m - 1].copy()
        fall_back = rerun > _LANE_BUSY * (hi - lo)
        lo = hi
        if fall_back:
            break
        lane = _LANE_PACKETS
        rest = (n - lo) // lane
        m = math.ceil(rest / math.ceil(rest / _LANE_GROUP)) if rest else 0
    _ring_run(arr, srv, lo, n, departures, state)


def _speculate(arr, srv, lo, m, lane, buffer_capacity, departures):
    """Run the m lanes of ``lane`` (L) packets from packet ``lo`` side by
    side, each from empty.

    Writes each lane's own L departures (NaN for a drop) to ``departures``.
    Returns the idle flags, ``idle[s, l]`` when lane l's last departure
    before its step s is at or before that arrival, and each lane's end
    state: its last k accepted departures (oldest first, -inf before k
    acceptances) and its last departure.

    Lane l's step s is packet ``lo - W + l*L + s``; lane 0 of the stream is
    given W stand-in packets, arriving with packet 0 and bringing no work,
    which leave it idle and so change nothing. A step does the ring loop's
    float operations for every lane at once: the admission threshold is
    gathered from each lane's row of accepted departures, ``max`` + add
    gives the departure. The steps run in chunks of ``_LANE_CHUNK``, so the
    working memory is a few (chunk x m) arrays plus the idle flags.
    """
    warm, chunk = _LANE_WARMUP, _LANE_CHUNK
    k = buffer_capacity
    steps = warm + lane
    hi = lo + m * lane
    if lo:
        t_all, s_all = arr[lo - warm:hi], srv[lo - warm:hi]
    else:
        t_all = np.concatenate((np.full(warm, arr[0]), arr[:hi]))
        s_all = np.concatenate((np.zeros(warm), srv[:hi]))
    t_lanes = np.lib.stride_tricks.sliding_window_view(t_all, steps)[::lane]
    s_lanes = np.lib.stride_tricks.sliding_window_view(s_all, steps)[::lane]
    out = departures[lo:hi].reshape(m, lane)

    idle = np.empty((steps, m), dtype=bool)
    times = np.empty((chunk, m))
    works = np.empty((chunk, m))
    last = np.empty((chunk + 1, m))     # last[s + 1]: after step s of the chunk
    last[0] = -math.inf
    dropped = np.empty((chunk, m), dtype=bool)
    # Row l of ``rows`` holds lane l's last k accepted departures, then the
    # ones accepted in this chunk. Before step s the threshold is at
    # ``accepted[s + pos]``: ``pos`` starts at the row and falls by one per
    # drop. The ``chunk`` slots in front keep every such index positive.
    width = k + chunk
    accepted = np.empty(chunk + m * width)
    rows = accepted[chunk:].reshape(m, width)
    rows[:, :k] = -math.inf
    row_starts = np.arange(chunk, chunk + m * width, width)
    for c0 in range(0, steps, chunk):
        c = min(chunk, steps - c0)
        _transpose_into(times[:c], t_lanes[:, c0:c0 + c])
        _transpose_into(works[:c], s_lanes[:, c0:c0 + c])
        pos = row_starts.copy()
        for s, (t, w, before, after, drop) in enumerate(
                zip(times[:c], works[:c], last[:c], last[1:c + 1], dropped[:c])):
            np.less(t, accepted[s:][pos], out=drop)
            np.maximum(before, t, out=after)
            after += w
            np.copyto(after, before, where=drop)
            # A dropped lane writes the slot of its next acceptance, unread.
            accepted[s + k:][pos] = after
            pos -= drop.view(np.int8)
        np.less_equal(last[:c], times[:c], out=idle[c0:c0 + c])
        rows[:, :k] = accepted[(c + pos)[:, None] + np.arange(k)]
        last[0] = last[c]
        s0 = max(warm - c0, 0)          # the chunk's first step past the warm-up
        if s0 < c:
            own = last[s0 + 1:c + 1]
            np.copyto(own, math.nan, where=dropped[s0:c])
            _transpose_into(out[:, c0 + s0 - warm:c0 + c - warm], own)
    return idle, rows[:, :k], last[0]


def _transpose_into(dst, src):
    """``dst[...] = src.T`` in blocks of 64 columns, which keeps both sides'
    reads and writes close together (about 2.5x faster than one strided
    copy)."""
    for j in range(0, dst.shape[1], 64):
        dst[:, j:j + 64] = src[j:j + 64].T


def _fcfs_blocks(arr, srv, buffer_capacity, departures):
    """Tail-drop FCFS, K acceptances per step, into ``departures``; NaN
    marks a dropped packet.

    Accepted packet m needs ``a >= D[m-K]`` (D: departures of accepted
    packets, non-decreasing), so once K departures are known the next K
    admissions follow from them alone: the first arrival at or after each
    threshold (``side="left"``: a departure frees its slot first), pushed
    past the previous admission by a running max of ``x_j - j``. Their
    departures come from the Lindley recursion in closed form,
    ``D = cs + max.accumulate(max(a - cs_prev, D_prev))``. While fewer than
    K packets have been accepted every arrival is admitted.

    The thresholds are searched for in a window of the arrivals from the
    first one not yet considered, which takes the place of pushing the
    indices past it (the running max makes the two the same). The window
    starts at 4K arrivals and doubles whenever the last threshold lies past
    its end, so every index is the whole array's.
    """
    n = arr.size
    departures.fill(math.nan)
    k = min(buffer_capacity, n)
    steps = np.arange(k)
    thresholds = np.full(k, -math.inf)
    cs = np.zeros(k + 1)        # cs[0] stays 0
    cs_prev, cs_next, dep = cs[:-1], cs[1:], np.empty(k)
    span = 4 * k
    next_free = 0               # first arrival index not yet considered
    d_prev = -math.inf          # departure of the last accepted packet
    while True:
        idx = arr[next_free:next_free + span].searchsorted(thresholds, side="left")
        while idx[-1] == span and next_free + span < n:
            span *= 2
            idx = arr[next_free:next_free + span].searchsorted(thresholds, side="left")
        idx -= steps
        np.maximum.accumulate(idx, out=idx)
        idx += steps
        idx += next_free
        if idx[-1] >= n:
            idx = idx[: idx.searchsorted(n)]
            m = idx.size
            if m == 0:
                break
            cs_prev, cs_next, dep = cs_prev[:m], cs_next[:m], dep[:m]
        np.add.accumulate(srv[idx], out=cs_next)
        np.subtract(arr[idx], cs_prev, out=dep)
        if d_prev > dep[0]:
            dep[0] = d_prev
        np.maximum.accumulate(dep, out=dep)
        dep += cs_next
        departures[idx] = dep
        if dep.size < k:
            break
        thresholds = dep
        next_free = int(idx[-1]) + 1
        d_prev = dep[-1]


def _exponential_into(rng, scale: float, out) -> None:
    """``rng.exponential(scale, out.size)`` drawn into ``out``: the same
    bits, as numpy forms it as ``scale`` times a standard draw; like it, an
    overflowing product is infinite without a warning."""
    rng.standard_exponential(out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(out, scale, out=out)


class _Workspace:
    """The arrays one run of ``config``'s horizon and buffer is drawn,
    queued and summarised in.

    A logged run (``simulate_run``) gets the six whole columns its
    ``PacketLog`` keeps. A summary-only run keeps less, and a sweep reuses
    one such workspace per worker for all its runs:

    - unbounded: one column, 8 bytes a packet. It takes the interarrival
      draws, becomes the arrivals, and then, chunk by chunk, the sojourns
      (``_fcfs_unbounded``). Once the mean sojourn is taken, the window's
      tagged sojourns are compacted to its front and differenced there.
      The services, departures, tagging uniforms and tagged flags go to
      buffers of one chunk each; the pass carries the chunk before's last
      service time as a number, as it does its last arrival.
    - finite buffer: the arrivals, a column that takes the services and
      then the sojourns, and the departures, 24 bytes a packet. Once the
      sojourns are formed, the departures are spent; the summary selects
      the delivered sojourns and the unbroken |dT| pairs into them
      (``_delivered``).
    """

    def __init__(self, config: SimConfig, logged: bool):
        n = config.horizon_packets
        chunk = min(_CHUNK, n)
        finite = config.buffer_capacity is not None
        whole = logged or finite
        self.logged = logged
        self.arrivals = np.empty(n)
        self.sojourn = np.empty(n) if whole else self.arrivals
        if logged or not finite:
            self.services = np.empty(n if logged else chunk)
        else:
            self.services = self.sojourn
        self.departures = np.empty(n if whole else chunk)
        self.tagged = np.empty(n if logged else chunk, dtype=bool)
        self.uniforms = np.empty(chunk)


def _simulate(config: SimConfig, ws: _Workspace) -> RunSummary:
    """Draw, queue and summarise one run in ``ws``.

    Draw order: all interarrivals, then the service times (chunk by chunk
    inside the unbounded pass), then the tagging uniforms (chunk by chunk
    after the mean sojourn is taken). Each stream is consumed in order, so
    the bits are those of one whole-array draw per stream. All tagged (a
    fraction of 1) takes no tagging draw: uniforms below 1 are all below
    it, and it is the last draw. Every mean is taken over the same values,
    contiguous and in the same order, in both forms of a run, so its bits
    are the same.
    """
    n = config.horizon_packets
    first = int(n * config.warmup_fraction)
    rng = np.random.default_rng(config.seed & _MASK64)
    arrivals, sojourn, services = ws.arrivals, ws.sojourn, ws.services
    _exponential_into(rng, 1.0 / config.arrival_rate_lambda, arrivals)
    service = 1.0 / config.capacity_C
    if config.service_distribution == SERVICE_EXPONENTIAL:
        def draw(out):
            _exponential_into(rng, service, out)
    else:
        def draw(out):
            out.fill(service)

    finite = config.buffer_capacity is not None
    if finite:
        draw(services)
        np.cumsum(arrivals, out=arrivals)
        # draws are never negative: see _fcfs_unbounded
        if not (arrivals[-1] < math.inf and services.max() < math.inf):
            raise DomainError("times must be finite and service times non-negative")
        t_start = float(arrivals[first - 1]) if first > 0 else 0.0
        t_end = float(arrivals[-1])
        _fcfs_finite(arrivals, services, config.buffer_capacity, ws.departures)
        np.subtract(ws.departures, arrivals, out=sojourn)
        # a dropped packet's sojourn is NaN, and only a dropped one's
        delivered_sojourns = _delivered(sojourn[first:], ws)
        delivered = delivered_sojourns.size
        mean_sojourn = _mean(delivered_sojourns)
    else:
        t_start, t_end = _fcfs_unbounded(arrivals, services, ws.departures, sojourn, draw,
                                         first)
        delivered = n - first
        mean_sojourn = _mean(sojourn[first:])

    all_tagged = config.tagged_fraction == 1
    if all_tagged:
        ws.tagged.fill(True)
        pairs = sojourn[first:]
    else:
        pairs = _tagged_pairs(rng, config.tagged_fraction, ws, first)
    samples = _abs_differences(pairs, out=None if all_tagged and ws.logged else pairs[:-1])
    if finite:
        # the NaN differences are exactly the pairs that a drop breaks
        samples = _delivered(samples, ws)

    window = t_end - t_start
    offered = n - first
    return RunSummary(
        mean_sojourn=mean_sojourn,
        empirical_jitter_J=_mean(samples),
        throughput_X=delivered / window,
        offered_lambda=offered / window,
        loss_B=(offered - delivered) / offered,
        n_jitter_samples=int(samples.size),
        seed=config.seed,
        offered_count=offered,
        delivered_count=delivered,
        config=config,
    )


def _delivered(values, ws: _Workspace):
    """``values`` without their NaNs, selected chunk by chunk, so that no
    mask or index array of the whole run is made; a summary-only run
    selects into its spent departure column."""
    out = np.empty(values.size) if ws.logged else ws.departures
    count = 0
    for lo in range(0, values.size, _CHUNK):
        part = values[lo:lo + _CHUNK]
        part = part[~np.isnan(part)]
        out[count:count + part.size] = part
        count += part.size
    return out[:count]


def _tagged_pairs(rng, fraction: float, ws: _Workspace, first: int):
    """Draw the tagging uniforms chunk by chunk and return the sojourns of
    the tagged packets from ``first`` on, in order.

    A logged run fills its tagged column and gathers a copy. A summary-only
    run compacts each chunk's tagged sojourns to the front of its sojourn
    column: the write never passes the chunk being read, and the sojourns
    it overwrites are read already.
    """
    sojourn, tagged = ws.sojourn, ws.tagged
    n = sojourn.size
    count = 0
    for lo in range(0, n, ws.uniforms.size):
        u = ws.uniforms[:n - lo]
        hi = lo + u.size
        rng.random(out=u)
        flags = tagged[lo:hi] if ws.logged else tagged[:u.size]
        np.less(u, fraction, out=flags)
        if not ws.logged and hi > first:
            start = max(first - lo, 0)
            m = np.count_nonzero(flags[start:])
            np.compress(flags[start:], sojourn[lo + start:hi], out=sojourn[count:count + m])
            count += m
    return sojourn[first:][tagged[first:]] if ws.logged else sojourn[:count]


def simulate_run(config: SimConfig) -> tuple[PacketLog, RunSummary]:
    """Generate, queue, and summarize one packet stream.

    The unbounded queue runs in one chunked pass that also forms the
    arrivals and sojourns (``_fcfs_unbounded``). ``simulate_sweep`` makes
    the same runs without their logs.
    """
    ws = _Workspace(config, logged=True)
    summary = _simulate(config, ws)
    return PacketLog(ws.arrivals, ws.services, ws.departures, ws.sojourn, ws.tagged,
                     np.isnan(ws.departures)), summary


def _summarize_run(config: SimConfig) -> RunSummary:
    """``simulate_run(config)[1]`` without building the packet log."""
    return _simulate(config, _Workspace(config, logged=False))


def _at_point(rho, i: int, j: int, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its domain errors naming the sweep point."""
    try:
        return fn(*args, **kwargs)
    except (DomainError, InstabilityError) as exc:
        raise type(exc)(f"rho={rho!r} (grid index {i}, seed index {j}): {exc}") from exc


def simulate_sweep(
    base_config: SimConfig,
    rho_grid,
    seeds_per_point: int = 1,
    vary: str = "arrival",
) -> list[RunSummary]:
    """One run per (rho, seed) over a load grid.

    ``vary="arrival"`` substitutes lambda = rho * C at fixed capacity (the
    model-validation sweep). ``vary="capacity"`` substitutes C = lambda / rho
    at fixed arrival rate, reproducing a link whose capacity degrades under a
    constant offered rate. Child seeds come from ``child_seed(base, i, j)``.

    Every load is checked and every run's config built before any run
    starts, so a bad load is reported before any run is made. An error
    names its grid point; of the runs that fail, the first in grid order is
    reported, and the runs not yet started are cancelled. Each summary
    equals ``simulate_run``'s for the same config, but no packet log is
    built: each worker draws, queues and summarises its runs in one reused
    workspace sized to the horizon. The summaries come back in grid order,
    and their bits do not depend on the number of workers.

    The runs share nothing, and numpy releases the GIL in the draws and
    array passes that take almost all of an unbounded run's time, so an
    unbounded sweep runs on one worker thread per available core (at most
    one per run), each in a workspace of 8 bytes a packet. A finite buffer
    runs on one worker: its ring loop holds the GIL, and its workspace
    takes 24 bytes a packet. The workers run under the caller's numpy error
    handling (``np.errstate``).
    """
    if vary not in ("arrival", "capacity"):
        raise DomainError(f"vary must be 'arrival' or 'capacity', got {vary!r}")
    _count(seeds_per_point, "seeds_per_point", 1)
    jobs = []
    for i, rho in enumerate(rho_grid):
        _real(rho, f"rho_grid[{i}]", gt=0)
        if vary == "arrival":
            load = {"arrival_rate_lambda": rho * base_config.capacity_C}
        else:
            load = {"capacity_C": base_config.arrival_rate_lambda / rho}
        for j in range(seeds_per_point):
            seed = child_seed(base_config.seed, i, j)
            jobs.append((rho, i, j, _at_point(rho, i, j, replace, base_config, **load,
                                              seed=seed)))
    if not jobs:
        return []
    # imported here: it brings in logging, about 1 MiB and 7 ms that every
    # other command would pay
    from concurrent.futures import ThreadPoolExecutor

    local = threading.local()
    errors = np.geterr()        # numpy's error handling is per thread

    def run(job):
        rho, i, j, config = job
        if not hasattr(local, "ws"):
            local.ws = _Workspace(base_config, logged=False)
        with np.errstate(**errors):
            return _at_point(rho, i, j, _simulate, config, local.ws)

    if base_config.buffer_capacity is None:
        workers = min(len(os.sched_getaffinity(0)), len(jobs))
    else:
        workers = 1
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, jobs))


@dataclass(frozen=True)
class SweepAggregate:
    """Per-load aggregate over seeds. stderr is None for a single run."""

    capacity_C: float
    arrival_rate_lambda: float
    load_rho: float
    buffer_capacity: int | None
    service_distribution: str
    n_runs: int
    jitter_mean: float
    jitter_stderr: float | None
    throughput_mean: float
    loss_mean: float
    mean_sojourn_mean: float


def merge_summaries(summaries) -> SweepAggregate:
    """Aggregate runs that share (C, lambda, buffer, service distribution).

    Summaries are sorted by seed before reducing, so the result does not
    depend on the order runs finished in.
    """
    group = list(summaries)
    if not group:
        raise DomainError("cannot merge an empty group of summaries")
    key = None
    for s in group:
        k = (
            s.config.capacity_C,
            s.config.arrival_rate_lambda,
            s.config.buffer_capacity,
            s.config.service_distribution,
        )
        if key is None:
            key = k
        elif k != key:
            raise InconsistentGroupError(
                f"summaries mix parameters: {k} vs {key}; group them by load first"
            )
    group.sort(key=lambda s: s.seed)
    jitters = np.array([s.empirical_jitter_J for s in group])
    # std squares the jitters, which leaves the double range at extreme
    # capacities; scaling by a power of two first is exact.
    scaled, exponent = _unit_scaled(jitters)
    stderr = (math.ldexp(float(scaled.std(ddof=1)), exponent) / math.sqrt(len(group))
              if len(group) >= 2 else None)
    return SweepAggregate(
        capacity_C=key[0],
        arrival_rate_lambda=key[1],
        load_rho=key[1] / key[0],
        buffer_capacity=key[2],
        service_distribution=key[3],
        n_runs=len(group),
        jitter_mean=_mean(jitters),
        jitter_stderr=stderr,
        throughput_mean=_mean(np.array([s.throughput_X for s in group])),
        loss_mean=float(np.mean([s.loss_B for s in group])),
        mean_sojourn_mean=_mean(np.array([s.mean_sojourn for s in group])),
    )


#: Packets rendered per ``write`` call by ``write_packet_trace``. A chunk's
#: word matrix, its text and the renderer's temporaries peak at 2.3 MiB
#: (4.6 MiB at 4,096 packets, at the same speed).
_DUMP_WRITE_PACKETS = 2_048

#: Bytes read per block by ``read_packet_trace``; each block is cut back to
#: whole lines. Split into ``bytes`` tokens a block takes about 8x its size,
#: so the reader's working memory is about 4 MiB.
_DUMP_READ_BYTES = 512 << 10

#: A dump line as uint64 words (see ``_dumptext``): the index, "," and the
#: flow, four 4-word float slots each led by ",", then "," and the flag.
_LINE_WORDS = 21
_FLOW_WORDS = _dumptext.le_words([np.frombuffer(b",background".ljust(16, b"\0"), np.uint8),
                                  np.frombuffer(b",tagged".ljust(16, b"\0"), np.uint8)])
_FLAG_WORDS = _dumptext.le_words([np.frombuffer(b",0\n".ljust(8, b"\0"), np.uint8),
                                  np.frombuffer(b",1\n".ljust(8, b"\0"), np.uint8)]).ravel()


def write_packet_trace(log: PacketLog, path) -> None:
    """Dump one packet per line; floats carry 17 significant digits so the
    file round-trips to the exact same doubles.

    The bytes are those of ``"%d,%s,%.17g,%.17g,%.17g,%.17g,0"`` for a
    delivered packet and ``"%d,%s,%.17g,%.17g,,,1"`` for a dropped one, but
    numpy renders ``_DUMP_WRITE_PACKETS`` lines at a time with no Python
    object per packet: each field goes into a fixed slot of a matrix of
    uint64 words, with byte 0 where its text is shorter, and a chunk is one
    ``write`` of the matrix's bytes without the 0 bytes. The digits of a
    double x = m * 2**q are exact integer arithmetic (``_dumptext``): they
    are round-half-even(m * 5**p * 2**(q + p)) with p = 16 - floor(log10 x),
    the 53 x 64-bit product shifted right, wherever p is in [0, 27] and the
    shift in [1, 63], which is about 1e-11 <= x < 2**51. Every other value
    (0, -0, negatives, subnormals, infinities, NaN, values too large or too
    small) goes through ``'%.17g' %`` into its own slot. Time columns of
    another dtype are written as their float64 values and flags by truth,
    as ``'%.17g'`` and ``if`` would.

    Raises DomainError, before the file is opened, unless the six columns
    are 1-D arrays of one length.
    """
    columns = [np.asarray(c) for c in (log.tagged, log.dropped, log.arrival_times,
                                       log.service_times, log.departure_times,
                                       log.sojourn_times)]
    shape = columns[0].shape
    if len(shape) != 1 or any(c.shape != shape for c in columns):
        raise DomainError("packet log columns must be 1-D arrays of one length, got shapes "
                          + ", ".join(str(c.shape) for c in columns))
    n = shape[0]
    tagged, dropped, *times = columns
    with open(path, "wb") as fh:
        fh.write(PACKET_TRACE_HEADER.encode() + b"\n")
        for lo in range(0, n, _DUMP_WRITE_PACKETS):
            hi = min(lo + _DUMP_WRITE_PACKETS, n)
            drop = dropped[lo:hi].astype(bool)
            values = np.empty((hi - lo, 4))
            for j, column in enumerate(times):
                values[:, j] = column[lo:hi]
            values[drop, 2:] = 1.0          # not written; 1.0 keeps them off the % path
            lines = np.empty((hi - lo, _LINE_WORDS), np.uint64)
            lines[:, 0:2] = _dumptext.index_words(np.arange(lo, hi)).T
            lines[:, 2:4] = _FLOW_WORDS[tagged[lo:hi].astype(bool).view(np.uint8)]
            floats = lines[:, 4:20]
            for j, word in enumerate(_dumptext.float_words(values.ravel())):
                floats[:, j::4] = word.reshape(-1, 4)
            floats[drop, 8:] = 0                # no departure or sojourn
            floats[:, 0::4] |= np.uint64(ord(","))
            lines[:, 20] = _FLAG_WORDS[drop.view(np.uint8)]
            text = _dumptext.word_bytes(lines).ravel()
            fh.write(text[text != 0])


def read_packet_trace(path) -> PacketLog:
    """Inverse of write_packet_trace.

    Two passes: the first counts lines so the six output arrays are
    allocated once (34 bytes a packet); the second parses blocks of whole
    lines of about ``_DUMP_READ_BYTES``. So memory is the output arrays plus
    one block's split tokens, about 8x the block's bytes, and no per-packet
    Python object outlives its block.

    Raises DomainError, naming the 1-based line, on a wrong header, a line
    without exactly 7 fields or with a NUL byte, a flow other than
    tagged/background, a dropped flag other than 0/1, or a time that is not
    a finite number (a delivered packet needs its departure and sojourn; a
    dropped one's are ignored).
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8", "replace").rstrip("\r\n")
        if header != PACKET_TRACE_HEADER:
            raise DomainError(f"unexpected packet trace header: {header!r}")
        body = fh.tell()
        n = 0
        last = b"\n"
        while block := fh.read(_DUMP_READ_BYTES):
            n += block.count(b"\n")
            last = block[-1:]
        n += last != b"\n"
        fh.seek(body)
        log = PacketLog(np.empty(n), np.empty(n), np.full(n, math.nan), np.full(n, math.nan),
                        np.empty(n, dtype=bool), np.empty(n, dtype=bool))
        done = 0
        tail = b""
        while data := fh.read(_DUMP_READ_BYTES):
            block = tail + data
            cut = block.rfind(b"\n") + 1
            tail = block[cut:]
            done += _read_trace_lines(block[:cut], done, log)
        if tail:
            done += _read_trace_lines(tail + b"\n", done, log)
    if done != n:
        raise DomainError(f"packet trace changed while it was read: {path!r}")
    return log


def _read_trace_lines(block: bytes, first: int, log: PacketLog) -> int:
    """Parse whole newline-terminated dump lines into ``log`` from packet
    ``first`` on; returns the number of lines parsed."""
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    raw = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    m = ends.size
    line0 = first + 2       # 1-based line number of the block's first line
    if first + m > len(log):
        raise DomainError(f"packet trace line {line0}: the file changed while it was read")
    n_fields = np.diff(np.searchsorted(np.flatnonzero(raw == ord(",")), ends), prepend=0) + 1
    bad = np.flatnonzero(n_fields != 7)
    if bad.size:
        j = int(bad[0])
        line = block[ends[j - 1] + 1 if j else 0:ends[j]].decode("utf-8", "replace")
        raise DomainError(f"packet trace line {line0 + j}: "
                          f"malformed packet trace line: {line!r}")
    if b"\0" in block:     # numpy bytes arrays drop trailing NULs: "1\0" would read as "1"
        j = int(np.searchsorted(ends, block.index(b"\0")))
        raise DomainError(f"packet trace line {line0 + j}: NUL byte in packet trace line")
    # Newlines become field separators, so column k of the block is
    # fields[k::7]; the empty field after the last newline is never read.
    fields = block.replace(b"\n", b",").split(b",")
    line_nos = np.arange(line0, line0 + m)
    span = slice(first, first + m)

    flow = np.array(fields[1::7])
    tagged = flow == b"tagged"
    _check_tokens(tagged | (flow == b"background"), flow, line_nos, "flow")
    flag = np.array(fields[6::7])
    dropped = flag == b"1"
    _check_tokens(dropped | (flag == b"0"), flag, line_nos, "dropped flag")
    log.tagged[span] = tagged
    log.dropped[span] = dropped

    log.arrival_times[span] = _parse_floats(fields[2::7], line_nos, "arrival_s")
    log.service_times[span] = _parse_floats(fields[3::7], line_nos, "service_s")
    delivered = ~dropped
    keep = delivered.tolist()
    log.departure_times[span][delivered] = _parse_floats(
        list(compress(fields[4::7], keep)), line_nos[delivered], "departure_s")
    log.sojourn_times[span][delivered] = _parse_floats(
        list(compress(fields[5::7], keep)), line_nos[delivered], "sojourn_s")
    return m


def _check_tokens(known, tokens, line_nos, what: str) -> None:
    bad = np.flatnonzero(~known)
    if bad.size:
        j = int(bad[0])
        raise DomainError(f"packet trace line {line_nos[j]}: unknown {what} "
                          f"{tokens[j].decode('utf-8', 'replace')!r}")


def _parse_floats(tokens: list, line_nos, column: str) -> np.ndarray:
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:
        for token, line_no in zip(tokens, line_nos):
            try:
                float(token)
            except ValueError:
                raise DomainError(
                    f"packet trace line {line_no}: {column} "
                    f"{token.decode('utf-8', 'replace')!r} is not a number"
                ) from None
        raise
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        j = int(bad[0])
        raise DomainError(f"packet trace line {line_nos[j]}: {column} "
                          f"{tokens[j].decode('utf-8', 'replace')!r} is not finite")
    return values
