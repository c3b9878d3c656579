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

import numpy as np

from ._dumptext import PACKET_TRACE_HEADER, parse_lines, render_lines
from .errors import DomainError, _count, _real, _seed
from .metrics import _abs_differences, _mean, _worker_pool
from .model import _from_load, _require_stable

SERVICE_EXPONENTIAL = "exponential"
SERVICE_DETERMINISTIC = "deterministic"
_SERVICE_KINDS = (SERVICE_EXPONENTIAL, SERVICE_DETERMINISTIC)

#: Fixed fallback seed used when callers do not supply one. Never wall-clock.
DEFAULT_SEED = 1729

_MASK64 = (1 << 64) - 1


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
    can be reproduced standalone. Raises DomainError unless the base seed
    and every index are integers in [0, 2**64).
    """
    s = _seed(base_seed, "base seed")
    for ix in indices:
        s = splitmix64(s ^ ((_seed(ix, "seed index") + 1) & _MASK64))
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
            _require_stable(self.capacity_C, self.arrival_rate_lambda)
        else:
            _count(self.buffer_capacity, "buffer capacity (a packet count)", 1)
        _real(self.tagged_fraction, "tagged fraction", gt=0, le=1)
        _count(self.horizon_packets, "horizon (a packet count)", 0)
        if self.horizon_packets == 0:
            raise DomainError("horizon of zero packets: nothing to simulate")
        _real(self.warmup_fraction, "warmup fraction", ge=0, lt=0.5)
        # stored as an int: a numpy integer seed would not serialize as JSON
        object.__setattr__(self, "seed", _seed(self.seed, "seed"))
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
    so the rate form holds to arithmetic precision. A run whose rates would
    pass the largest double raises DomainError instead.
    """

    mean_sojourn: float
    empirical_jitter_J: float
    throughput_X: float
    offered_lambda: float
    loss_B: float
    n_jitter_samples: int
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
#: packets each lane runs before its own to warm up, and the most lanes of
#: a piece's one group (``_fcfs_seam`` sizes the pieces to it).
_LANE_PACKETS = 1024
_LANE_WARMUP = 128
_LANE_GROUP = 1024

#: The probe that opens each piece: how many lanes, each of just W packets.
#: A numpy step costs 5-8 us however few lanes it has, so the probe's 2W
#: steps (about 2 ms) find out a queue that is seldom idle, where a group of
#: whole lanes would take 9 ms.
_LANE_PROBE = 64

#: Share of the probe's packets that the ring loop had to rerun above which
#: it runs the rest of the piece.
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
    where departures holds NaN for dropped packets and ``dropped`` is
    ``np.isnan(departures)``. A departure occurring exactly at an arrival
    instant frees its buffer slot first. Either buffer runs through the
    queue (``_fcfs``) over the pieces of ``_fcfs_seam``, from the empty
    state, as the simulator does; the seam state makes the pieces one call.

    The unbounded buffer uses the closed-form Lindley recursion
    (``_fcfs_unbounded``); its running sum holds minus the arrivals' span,
    so the arrivals may span at most 2**1023 s (about 9e307, half the
    largest double). On either buffer a departure past the largest double
    raises DomainError. A finite buffer of K packets takes one of three paths:

    - ``K < 96``, a piece of at least 131,072 packets: lanes run side by
      side in numpy, then are checked and repaired (``_fcfs_lanes``). A
      piece is one probe of 64 lanes of 128 packets and one group of lanes
      of 1,024 packets: at most 1,057,791 packets, with those after the last
      whole lane. Bit-identical to the per-packet recursion
      ``d = max(a, d_prev) + s`` with tail drop.
    - ``K < 96`` otherwise, and the rest of a piece on which lanes stop
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
    alone once reruns pass about 0.65 of the packets. One observed share,
    never K or the load, hands such a piece to the ring loop: once the
    repairs of its probe (about 2 ms side by side) have rerun more than 0.9
    of its packets, the ring loop runs the rest of the piece. The probe's
    reruns are ring work that the hand-over would do anyway. Each piece
    probes afresh, so a stream that leaves overload gets its lanes back.

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
    if np.any(arr[1:] < arr[:-1]):
        raise DomainError("arrival times must be non-decreasing")
    if np.any(srv < 0) or not np.all(np.isfinite(srv)) or not np.all(np.isfinite(arr)):
        raise DomainError("times must be finite and service times non-negative")

    if buffer_capacity is not None:
        _count(buffer_capacity, "buffer capacity", 1)
    elif not float(arr[-1]) - float(arr[0]) <= 2.0**1023:
        raise DomainError("the unbounded buffer takes arrivals spanning at most 2**1023 s")
    departures = np.empty(n)
    state, piece = _fcfs_seam(buffer_capacity, n)
    for lo in range(0, n, piece):
        hi = lo + piece
        state = _fcfs(arr[lo:hi], srv[lo:hi], buffer_capacity, departures[lo:hi], state)
    return departures, np.isnan(departures)


def _fcfs(arr, srv, buffer_capacity, departures, state):
    """The queue of ``fcfs_departures`` on arrays whose arrivals never
    decrease and whose service times are never negative, through a buffer
    of K packets (None: unbounded), from ``state`` into ``departures``; NaN
    marks a dropped packet. A stream starts from ``_fcfs_seam``'s state and
    is fed in its pieces, or in any others; an empty piece is valid.

    Raises DomainError where a non-empty piece's last arrival or largest
    service time is not finite: a NaN or an infinity among such times
    reaches one of the two, so they carry the checks that
    ``fcfs_departures`` makes on whole arrays.

    Returns the seam state: the queue after the last packet, from which a
    call on the packets that follow gives the bits of one call over both.
    K alone picks the path, so one stream keeps one kind of state: the
    unbounded pass's, the ring loop's ``(ring, pos, last)`` below 96 (the
    lanes take and return it too), or the block path's above.

    Raises DomainError where a departure passes the largest double. The
    path runs with numpy's overflow ignored; admitted departures never
    decrease, so an overflow reaches the last one, which the state or the
    order gives.
    """
    if arr.size and not (arr[-1] < math.inf and srv.max() < math.inf):
        raise DomainError("times must be finite and service times non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        if buffer_capacity is None:
            state = _fcfs_unbounded(arr, srv, departures, state)
            last = departures[-1] if arr.size else -math.inf
        elif buffer_capacity >= _BLOCK_MIN_BUFFER:
            state = _fcfs_blocks(arr, srv, departures, state)
            _, step, j, _, top, _ = state
            last = step[j - 1] if j else top
        else:
            state = (_fcfs_lanes(arr, srv, departures, state) if arr.size >= _LANE_MIN_PACKETS
                     else _ring_run(arr, srv, 0, arr.size, departures, state))
            last = state[2]
    if not last < math.inf:
        raise DomainError("a departure time passes the largest double")
    return state


def _fcfs_seam(buffer_capacity, n):
    """The empty queue's seam state for a stream of at most ``n`` packets
    through a buffer of K (None: unbounded), and the packets per piece that
    suit K's path: ``_CHUNK`` when unbounded and on the block path, and
    below it equal pieces of at most one probe and one group of lanes, with
    the packets after the group's last whole lane (1,057,791 packets at the
    real constants). The lanes then decide once per piece, and a stream
    that one piece holds is never split into two (lanes over shorter spans
    lose their edge).

    The queue never holds more packets than the stream has, so the block
    path's thresholds are min(K, n): one step then takes a stream no
    longer than K whole, as a step of K would.
    """
    if buffer_capacity is None:
        size = min(_CHUNK, n) + 1
        return (np.empty(size), np.empty(size), None, 0.0, -0.0, math.inf), _CHUNK
    if buffer_capacity >= _BLOCK_MIN_BUFFER:
        k = min(buffer_capacity, n)
        return (np.full(k, -math.inf), np.empty(k), 0, 0.0, -math.inf, 4 * k), _CHUNK
    most = _LANE_PROBE * _LANE_WARMUP + (_LANE_GROUP + 1) * _LANE_PACKETS - 1
    chunk = math.ceil(n / math.ceil(n / most)) if n else 1
    return ([-math.inf] * buffer_capacity, 0, -math.inf), chunk


def _fcfs_unbounded(arr, srv, departures, state):
    """Unbounded FCFS from ``state`` in chunks of ``_CHUNK`` packets, into
    ``departures``; returns the state after the last packet.

    The wait is the running sum of ``s[k] - (a[k+1] - a[k])`` minus its
    running minimum (the Lindley recursion in closed form). A state is two
    buffers of a chunk and one slot, and the last packet's arrival (None
    before the first packet), service time, running sum and running
    minimum. Slot 0 of a buffer holds the last running sum for ``cumsum``,
    then the last running minimum for ``fmin.accumulate`` (faster than
    ``minimum.accumulate``, and the same values here: ``_fcfs`` lets no NaN
    in, and a tie of -0.0 and +0.0 only signs a zero wait). Both are
    sequential, so every value is the same operation on the same operands
    as in one pass over the whole arrays, and the bits are the same. The
    first packet starts from a sum of -0.0 and an increment of -0.0 (adding
    -0.0 changes no bits), then gets the +0.0 sum of the whole-array form;
    the minimum starts at +inf. The last arrival and service time make the
    next packet's increment, so a caller may overwrite a piece's arrivals
    once it is queued.
    """
    prefix_buf, low_buf, last_arrival, last_service, last_prefix, last_low = state
    n = arr.size
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        a, s = arr[lo:hi], srv[lo:hi]
        prefix, low = prefix_buf[:hi - lo + 1], low_buf[:hi - lo + 1]
        prefix[0] = last_prefix
        prefix[1] = -0.0 if last_arrival is None else last_service - (a[0] - last_arrival)
        inc = prefix[2:]
        np.subtract(a[1:], a[:-1], out=inc)
        np.subtract(s[:-1], inc, out=inc)
        np.cumsum(prefix, out=prefix)
        if last_arrival is None:
            prefix[1] = 0.0
        prefix[0] = last_low
        np.fmin.accumulate(prefix, out=low)
        last_prefix, last_low = prefix[-1], low[-1]
        last_arrival, last_service = a[-1], s[-1]
        waits = np.subtract(prefix[1:], low[1:], out=low[1:])
        dep = departures[lo:hi]
        np.add(a, waits, out=dep)
        dep += s
    return prefix_buf, low_buf, last_arrival, last_service, last_prefix, last_low


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
    """Tail-drop FCFS from the ring ``state`` in lanes checked at shared
    idle instants, into ``departures``; NaN marks a dropped packet. Returns
    the state after the last packet. Bit-identical to ``_ring_run`` over the
    whole piece from that state.

    The piece is cut into lanes; each starts empty W packets before its
    first packet. A probe of ``_LANE_PROBE`` lanes of W packets comes
    first, then one group of lanes of L packets over the rest (the piece's
    length bounds it), and the packets after the last whole lane go to the
    ring loop. The probe and the group each run side by side
    (``_speculate``), then lane by lane:

    - Check: a lane is exact over its whole range when, at one of its first
      W arrivals, both it and the lane before it were idle, and that lane
      is exact from some packet on. The two then agree from that arrival,
      and the lane before agrees with the true queue from its own meeting
      point; both points come before the lane's first packet.
    - Repair: any other lane is rerun by the ring loop from the true end
      state of the lane before it, until an arrival at which the rerun and
      the lane are both idle; from there the lane's output stands. A lane
      never idle together with its rerun leaves the next one to a rerun.

    The first lane is repaired like any other, from ``state``: it stands
    from the first arrival at which it and the queue from ``state`` are
    both idle, which from the empty state is its first.

    A probe whose repairs reran more than ``_LANE_BUSY`` of its packets
    hands the rest of the piece to the ring loop.
    """
    n = arr.size
    warm = _LANE_WARMUP
    buffer_capacity = len(state[0])
    # The lane before the next one: its idle flags over the next lane's
    # warm-up, whether its output is exact from some packet on, and its true
    # end state (None: its speculative end state, the same when exact).
    prev_idle = np.ones(warm, dtype=bool)
    # Before the piece the queue is ``state``, not a lane: the first lane's
    # stand-in packets are no arrivals of it, so the first lane is repaired.
    exact = False
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
        # After the group no whole lane is left.
        m = 0 if rerun > _LANE_BUSY * (hi - lo) else (n - hi) // _LANE_PACKETS
        lo, lane = hi, _LANE_PACKETS
    return _ring_run(arr, srv, lo, n, departures, state)


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


def _fcfs_blocks(arr, srv, departures, state):
    """Tail-drop FCFS, K acceptances per step, from ``state`` into
    ``departures``; NaN marks a dropped packet. Returns the state after the
    last packet.

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

    A state is ``(thresholds, step, j, total, top, span)``: the step's K
    thresholds, its first j departures in ``step``, its running service sum
    ``total`` and running max ``top`` after them (at a step's start, 0.0
    and the last departure), and the window. A step whose admissions run
    past the last arrival stops there, and the next call goes on with it
    from its two running values, which are sequential: the step's sums are
    grouped as in one call over the whole stream, and keep their bits.
    Each arrival takes at most one admission, so a call searches for no
    more thresholds than it has arrivals left, and its work and buffers
    are sized by the shorter of K and its arrivals.
    """
    thresholds, step, j, total, top, span = state
    n = arr.size
    k = thresholds.size
    departures.fill(math.nan)
    offsets = np.arange(min(k, n))
    sums = np.empty(offsets.size + 1)
    next_free = 0               # first arrival index not yet considered
    while next_free < n:
        # The first i thresholds alone fix the first i admissions.
        wanted = thresholds[j:j + n - next_free]
        idx = arr[next_free:next_free + span].searchsorted(wanted, side="left")
        while idx[-1] == span and next_free + span < n:
            span *= 2
            idx = arr[next_free:next_free + span].searchsorted(wanted, side="left")
        steps = offsets[:idx.size]
        idx -= steps
        np.maximum.accumulate(idx, out=idx)
        idx += steps
        idx += next_free
        if idx[-1] >= n:
            idx = idx[:idx.searchsorted(n)]
            if not idx.size:
                break
        m = idx.size
        cs = sums[:m + 1]
        cs[0] = total
        cs[1:] = srv[idx]
        np.add.accumulate(cs, out=cs)
        dep = step[j:j + m]
        np.subtract(arr[idx], cs[:-1], out=dep)
        if top > dep[0]:
            dep[0] = top
        np.maximum.accumulate(dep, out=dep)
        top = dep[-1]
        dep += cs[1:]
        departures[idx] = dep
        j += m
        if j < k:
            total = cs[-1]      # the rest of the step lies past the arrivals
            break
        thresholds, step = step, thresholds
        next_free = int(idx[-1]) + 1
        j, total, top = 0, 0.0, dep[-1]
    return thresholds, step, j, total, top, span


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
    one such workspace per worker for all its runs. Its one whole column
    takes the interarrival draws, becomes the arrivals, and then, piece by
    piece, the sojourns (``_simulate``). Once the mean sojourn is taken,
    the window's tagged sojourns are compacted to its front and differenced
    there. The services go to a buffer of one piece (``_fcfs_seam``), the
    tagging uniforms and tagged flags to buffers of ``_CHUNK``. The
    departures go to a buffer of one piece when unbounded, 8 bytes a packet
    in all. A finite buffer keeps them in a whole column, which the summary
    reuses once it is spent to select the delivered sojourns and the
    unbroken |dT| pairs into (``_delivered``): 16 bytes a packet and one
    piece, which below K = 96 is up to one probe and one group of lanes.
    """

    def __init__(self, config: SimConfig, logged: bool):
        n = config.horizon_packets
        piece = min(_fcfs_seam(config.buffer_capacity, n)[1], n)
        chunk = min(_CHUNK, n)
        self.logged = logged
        self.arrivals = np.empty(n)
        self.sojourn = np.empty(n) if logged else self.arrivals
        self.services = np.empty(n if logged else piece)
        self.departures = np.empty(n if logged or config.buffer_capacity is not None
                                   else piece)
        self.tagged = np.empty(n if logged else chunk, dtype=bool)
        self.uniforms = np.empty(chunk)


def _simulate(config: SimConfig, ws: _Workspace) -> RunSummary:
    """Draw, queue and summarise one run in ``ws``.

    One loop over the pieces of ``_fcfs_seam`` runs either buffer. Each
    piece continues the ``cumsum`` of the arrivals from the last arrival
    before it, draws its service times, notes the window's start, queues
    from the seam state the piece before left (``_fcfs`` checks that the
    piece's times are finite), and writes its sojourns (a summary-only
    run's over its arrivals). Draws are never negative, so the arrivals
    never decrease.

    Draw order: all interarrivals, then the service times piece by piece,
    then the tagging uniforms (chunk by chunk after the mean sojourn is
    taken). Each stream is consumed in order, so the bits are those of one
    whole-array draw per stream, and the seam state gives those of one
    queue call over the whole stream. All tagged (a fraction of 1) takes no
    tagging draw: uniforms below 1 are all below it, and it is the last
    draw. Every mean is taken over the same values, contiguous and in the
    same order, in both forms of a run, so its bits are the same.
    """
    n = config.horizon_packets
    first = int(n * config.warmup_fraction)
    rng = np.random.default_rng(config.seed)
    arrivals, sojourn = ws.arrivals, ws.sojourn
    _exponential_into(rng, 1.0 / config.arrival_rate_lambda, arrivals)
    service = 1.0 / config.capacity_C
    state, piece = _fcfs_seam(config.buffer_capacity, n)
    t_start = last_arrival = 0.0
    for lo in range(0, n, piece):
        hi = min(lo + piece, n)
        a = arrivals[lo:hi]
        # lo in a whole column, 0 in a buffer of one piece
        s, dep = (column[lo % column.size:][:hi - lo] for column in (ws.services, ws.departures))
        if lo:
            a[0] += last_arrival
        with np.errstate(over="ignore"):    # an infinite arrival fails _fcfs's check
            np.cumsum(a, out=a)
        if config.service_distribution == SERVICE_EXPONENTIAL:
            _exponential_into(rng, service, s)
        else:
            s.fill(service)
        if lo < first <= hi:
            t_start = float(a[first - 1 - lo])
        last_arrival = a[-1]
        state = _fcfs(a, s, config.buffer_capacity, dep, state)
        np.subtract(dep, a, out=sojourn[lo:hi])

    finite = config.buffer_capacity is not None
    # a dropped packet's sojourn is NaN, and only a dropped one's
    delivered_sojourns = _delivered(sojourn[first:], ws) if finite else sojourn[first:]
    delivered = delivered_sojourns.size
    mean_sojourn = _mean(delivered_sojourns)

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

    window = float(last_arrival) - t_start
    offered = n - first
    # A few packets at a rate near the largest double can span less than
    # 1 / 1.8e308 s; delivered <= offered, so one check covers both rates.
    if not (window > 0 and offered / window < math.inf):
        raise DomainError(f"the measured packet rates over {n} packets pass the largest double")
    return RunSummary(
        mean_sojourn=mean_sojourn,
        empirical_jitter_J=_mean(samples),
        throughput_X=delivered / window,
        offered_lambda=offered / window,
        loss_B=(offered - delivered) / offered,
        n_jitter_samples=int(samples.size),
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

    Either buffer's queue runs piece by piece in one loop that also forms
    the arrivals and sojourns (``_simulate``). ``simulate_sweep`` makes the
    same runs without their logs.
    """
    ws = _Workspace(config, logged=True)
    summary = _simulate(config, ws)
    return PacketLog(ws.arrivals, ws.services, ws.departures, ws.sojourn, ws.tagged,
                     np.isnan(ws.departures)), summary


def _summarize_run(config: SimConfig) -> RunSummary:
    """``simulate_run(config)[1]`` without building the packet log."""
    return _simulate(config, _Workspace(config, logged=False))


def _usable_cores() -> int:
    """The cores this process may run on: its affinity set where the
    platform has one (Linux), else every core."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _at_point(rho, i: int, j: int, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its domain errors naming the sweep point."""
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        raise DomainError(f"rho={rho!r} (grid index {i}, seed index {j}): {exc}") from exc


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
    takes 16 bytes a packet and one piece of the queue's loop, which below
    K = 96 is up to one probe and one group of lanes (about 1M packets). The
    workers run under the caller's numpy error handling (``np.errstate``).
    """
    if vary not in ("arrival", "capacity"):
        raise DomainError(f"vary must be 'arrival' or 'capacity', got {vary!r}")
    _count(seeds_per_point, "seeds_per_point", 1)
    jobs = []
    for i, rho in enumerate(rho_grid):
        _real(rho, f"rho_grid[{i}]", gt=0)
        if vary == "arrival":
            load = {"arrival_rate_lambda": _at_point(rho, i, 0, _from_load, rho,
                                                     base_config.capacity_C)}
        else:
            load = {"capacity_C": _at_point(rho, i, 0, _from_load, rho,
                                            base_config.arrival_rate_lambda, "capacity")}
        for j in range(seeds_per_point):
            seed = child_seed(base_config.seed, i, j)
            jobs.append((rho, i, j, _at_point(rho, i, j, replace, base_config, **load,
                                              seed=seed)))
    if not jobs:
        return []
    local = threading.local()

    def run(job):
        rho, i, j, config = job
        if not hasattr(local, "ws"):
            local.ws = _Workspace(base_config, logged=False)
        return _at_point(rho, i, j, _simulate, config, local.ws)

    if base_config.buffer_capacity is None:
        workers = min(_usable_cores(), len(jobs))
    else:
        workers = 1
    with _worker_pool(workers) as pool:
        return list(pool.map(run, jobs))


#: Packets rendered per chunk by ``write_packet_trace``. The two word
#: matrices, the mask and the worker's scratch, made once per call, and
#: half a chunk's text peak at 3.3 MiB traced (2.5 MiB at 3,072 packets);
#: of 2,048-4,096 packets, 4,096 took the least time and CPU.
_DUMP_WRITE_PACKETS = 4_096

#: Bytes read per block by ``read_packet_trace``; each block is cut back to
#: whole lines. A block's temporaries and the parser's scratch, made once
#: per call, peak at 2.6 MiB traced; at 512 KiB a first read in a fresh
#: process took about 19k minor faults against 4k.
_DUMP_READ_BYTES = 384 << 10


def write_packet_trace(log: PacketLog, path) -> None:
    """Dump one packet per line; floats carry 17 significant digits so the
    file round-trips to the exact same doubles.

    After the header the bytes are those of
    ``"%d,%s,%.17g,%.17g,%.17g,%.17g,0"`` for a delivered packet and
    ``"%d,%s,%.17g,%.17g,,,1"`` for a dropped one, with the index and the
    flow ``tagged`` or ``background``, each line ended by a newline. Time
    columns of another dtype are written as their float64 values and flags
    by truth. ``_DUMP_WRITE_PACKETS`` lines at a time are rendered in numpy
    on two threads (``_dumptext.render_lines``) and written half a chunk
    per ``write``.

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
    with open(path, "wb") as fh:
        fh.write(PACKET_TRACE_HEADER.encode() + b"\n")
        for text in render_lines(_DUMP_WRITE_PACKETS, *columns):
            fh.write(text)


def _whole_lines(fh):
    """Blocks of whole lines of about ``_DUMP_READ_BYTES`` from ``fh``; once
    the file is read, a last line without its newline gets one."""
    tail = b""
    while data := fh.read(_DUMP_READ_BYTES) or tail and b"\n":
        cut = data.rfind(b"\n") + 1
        if cut:
            block, tail = tail + memoryview(data)[:cut], data[cut:]
            del data                    # one copy of the block while it is parsed
            yield block
        else:
            tail += data


def read_packet_trace(path) -> PacketLog:
    """Inverse of write_packet_trace.

    Reads the header line, then lines of the writer's seven fields, each
    ended by LF or CR LF (the last one may lack it). Two passes: the first
    counts lines so the six output arrays are allocated once (34 bytes a
    packet); the second parses blocks of whole lines of about
    ``_DUMP_READ_BYTES`` into the rest of the arrays
    (``_dumptext.parse_lines``). So memory is the output arrays plus one
    block's temporaries and the parser's scratch, about 7x its bytes, and
    no per-packet Python object outlives its block.

    Raises DomainError, naming the 1-based line, on a wrong header, a line
    without exactly 7 fields or with a NUL byte, a flow other than
    tagged/background, a dropped flag other than 0/1, or a time that is not
    a finite number (a delivered packet needs its departure and sojourn; a
    dropped one's are ignored), and on a file that changed while it was
    read.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8", "replace").rstrip("\r\n")
        if header != PACKET_TRACE_HEADER:
            raise DomainError(f"unexpected packet trace header: {header!r}")
        body = fh.tell()
        n = 0
        last = b"\n"
        while block := fh.read(_DUMP_READ_BYTES):
            # about 5x faster than bytes.count on a block of dump lines
            n += np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
            last = block[-1:]
        n += last != b"\n"
        fh.seek(body)
        tagged, dropped, *times = columns = (
            np.empty(n, dtype=bool), np.empty(n, dtype=bool), np.empty(n), np.empty(n),
            np.full(n, math.nan), np.full(n, math.nan))
        done = parse_lines(_whole_lines(fh), 2, *columns)
    if done != n:
        raise DomainError(f"packet trace changed while it was read: {path!r}")
    return PacketLog(*times, tagged, dropped)
