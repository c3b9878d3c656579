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
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from .errors import (
    DomainError,
    EmptyRunError,
    InconsistentGroupError,
    InstabilityError,
    _count,
    _real,
)
from .metrics import _abs_differences

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


#: Packets per chunk of the unbounded pass (see ``_fcfs_unbounded``): the
#: chunk's slices of its six arrays, about 1.5 MB, stay in a core's cache
#: from one step of the pass to the next.
_UNBOUNDED_CHUNK = 32_768

#: Buffer size from which the finite-buffer queue uses block-of-K acceptance
#: instead of the lanes and the ring loop (see ``fcfs_departures``).
_BLOCK_MIN_BUFFER = 96

#: Packets per ``tolist()`` conversion in the ring loop; bounds its Python
#: objects to a fixed size whatever the run length.
_RING_CHUNK = 32_768

#: Lanes of the small-buffer path (see ``_fcfs_lanes``): packets per lane,
#: packets each lane runs before its own to warm up, and the most lanes
#: advanced together by one numpy step. The first group is smaller: a numpy
#: step costs 5-8 us however few lanes it has, so a stream on which lanes do
#: not pay is found out for about 9 ms, some 4% of a 1M-packet ring loop.
_LANE_PACKETS = 1024
_LANE_WARMUP = 128
_LANE_GROUP = 1024
_LANE_PROBE = 32

#: The side-by-side run costs about 9 ms per group however few lanes it has,
#: so the lanes only pay on long inputs (the README gives the measured
#: break-even).
_LANE_MIN_PACKETS = 200_000

#: Lanes of W packets in the test for a queue that is seldom idle (see
#: ``_seldom_idle``), and the share of them without a shared idle arrival
#: above which the ring loop runs the whole stream.
_LANE_TEST = 64
_LANE_BUSY = 0.9

#: Steps per chunk of the side-by-side run; bounds its working memory.
_LANE_CHUNK = 64

#: Share of a group's packets that the ring loop had to rerun above which
#: the rest of the stream goes to the ring loop alone (see ``_fcfs_lanes``).
_LANE_FALLBACK = 0.5


def fcfs_departures(arrival_times, service_times, buffer_capacity: int | None = None):
    """Run the FCFS queue over explicit arrival and service times.

    This is the deterministic core of the simulator and doubles as a test
    hook for hand-built packet patterns. Returns ``(departures, dropped)``
    where departures holds NaN for dropped packets. A departure occurring
    exactly at an arrival instant frees its buffer slot first.

    The unbounded buffer uses the closed-form Lindley recursion. A finite
    buffer of K packets takes one of three paths:

    - ``K < 96``, at least 200,000 packets, unless the queue is seldom idle:
      lanes of 1,024 packets run side by side in numpy, then are checked
      and repaired (``_fcfs_lanes``). Bit-identical to the per-packet
      recursion ``d = max(a, d_prev) + s`` with tail drop.
    - ``K < 96`` otherwise, and the rest of a stream on which lanes stop
      paying: a sequential loop over a ring of the last K accepted
      departures (``_fcfs_ring``), bit-identical to the same recursion.
    - ``K >= 96``: K acceptances at a time (one ``searchsorted`` plus a
      block Lindley pass), so dropped packets cost nothing. The sums are
      taken in another order, so departures may differ from the recursion's
      in the last digits (the tests hold them to 1e-12 relative); they are
      bit-identical whenever the sums are exact, as with integer times.

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
    alone once reruns pass about 0.65 of the packets. Two observed shares,
    never K or the load, hand such a stream to the ring loop:

    - Before any lane runs, 64 lanes of 128 packets run side by side (about
      2 ms); if more than 0.9 of them share no idle arrival with the lane
      before, the ring loop runs the whole stream (``_seldom_idle``).
    - Otherwise the first group has 32 lanes, and once a group's reruns
      pass one half of its packets, the rest goes to the ring loop.

    On every path packet i is dropped exactly when the accepted packet K
    places before it has not departed by ``a_i``, so the drop set is the
    recursion's. On the block path the one exception would be an arrival
    falling between the two paths' roundings of that departure instant.

    The README gives the measurements behind the 200,000-packet cutoff
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
    if buffer_capacity >= _BLOCK_MIN_BUFFER:
        departures = _fcfs_blocks(arr, srv, buffer_capacity)
    elif n >= _LANE_MIN_PACKETS and not _seldom_idle(arr, srv, buffer_capacity):
        departures = _fcfs_lanes(arr, srv, buffer_capacity)
    else:
        departures = _fcfs_ring(arr, srv, buffer_capacity)
    return departures, np.isnan(departures)


def _fcfs_unbounded(arr, srv, departures, sojourn=None, draw=None):
    """Unbounded FCFS in chunks of ``_UNBOUNDED_CHUNK`` packets; departures
    go to ``departures`` and, when given, ``departure - arrival`` to
    ``sojourn``.

    The wait is the running sum of ``s[k] - (a[k+1] - a[k])`` minus its
    running minimum (the Lindley recursion in closed form). Slot 0 of the
    chunk's buffer holds the chunk before's last running sum for ``cumsum``,
    then its last running minimum for ``minimum.accumulate``. Both are
    sequential, so every value is the same operation on the same operands
    as in one pass over the whole arrays, and the bits are the same. The
    first chunk starts from a sum of -0.0 and an increment of -0.0 for
    packet 0 (adding -0.0 changes no bits), then gives packet 0 the +0.0
    sum of the whole-array form; the minimum starts at +inf.

    With ``draw``, the pass also makes the run: ``arr`` holds interarrival
    draws and becomes the arrivals in place, and ``draw(out)`` writes each
    chunk's service times, in packet order, ahead of the chunk's pass.
    Draws are never negative, so the arrivals never decrease and a NaN or
    an infinity stays to the end of its chunk: a chunk's last arrival and
    largest service time carry the checks that ``fcfs_departures`` makes on
    whole arrays.

    ``srv`` and ``departures`` are whole columns, or, for a run that keeps
    neither, chunk buffers: ``departures`` a chunk long, ``srv`` one slot
    longer, its slot 0 carrying the service time of the packet before the
    chunk, which the chunk's first increment needs. A run of one chunk
    uses its buffers as columns.
    """
    n = arr.size
    size = min(_UNBOUNDED_CHUNK, n) + 1
    whole = departures.size == n
    prefix_buf, low_buf = np.empty(size), np.empty(size)
    last_prefix, last_low = -0.0, math.inf
    for lo in range(0, n, _UNBOUNDED_CHUNK):
        hi = min(lo + _UNBOUNDED_CHUNK, n)
        k = max(lo, 1)
        a = arr[lo:hi]
        if whole:
            s, s_before, dep = srv[lo:hi], srv[k - 1:hi - 1], departures[lo:hi]
        else:
            # every chunk but the last is whole, so the last slot holds the
            # service time of the packet before this chunk
            srv[0] = srv[-1]
            s, s_before, dep = srv[1:hi - lo + 1], srv[k - lo:hi - lo], departures[:hi - lo]
        if draw is not None:
            if lo:
                a[0] += arr[lo - 1]
            np.cumsum(a, out=a)
            draw(s)
            if not (a[-1] < math.inf and s.max() < math.inf):
                raise DomainError("times must be finite and service times non-negative")
        prefix, low = prefix_buf[:hi - lo + 1], low_buf[:hi - lo + 1]
        prefix[0] = last_prefix
        inc = prefix[1 + k - lo:]
        np.subtract(arr[k:hi], arr[k - 1:hi - 1], out=inc)
        np.subtract(s_before, inc, out=inc)
        if not lo:
            prefix[1] = -0.0
        np.cumsum(prefix, out=prefix)
        if not lo:
            prefix[1] = 0.0
        prefix[0] = last_low
        np.minimum.accumulate(prefix, out=low)
        last_prefix, last_low = prefix[-1], low[-1]
        waits = np.subtract(prefix[1:], low[1:], out=low[1:])
        np.add(a, waits, out=dep)
        dep += s
        if sojourn is not None:
            np.subtract(dep, a, out=sojourn[lo:hi])


def _fcfs_ring(arr, srv, buffer_capacity):
    """Sequential tail-drop FCFS; NaN marks a dropped packet."""
    departures = np.empty(arr.size)
    _ring_run(arr, srv, 0, arr.size, departures,
              ([-math.inf] * buffer_capacity, 0, -math.inf))
    return departures


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
    for c0 in range(lo, hi, _RING_CHUNK):
        c1 = min(c0 + _RING_CHUNK, hi)
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


def _fcfs_lanes(arr, srv, buffer_capacity):
    """Tail-drop FCFS in lanes checked at shared idle instants; NaN marks a
    dropped packet. Bit-identical to ``_fcfs_ring``.

    The stream is cut into lanes of L packets; the packets after the last
    whole lane go to the ring loop. Lane j covers packets ``jL:(j+1)L`` and
    starts empty W packets earlier. Groups of lanes run side by side
    (``_speculate``), first ``_LANE_PROBE`` lanes, then the rest in equal
    groups of at most ``_LANE_GROUP``; then lane by lane:

    - Check: a lane is exact over its whole range when, at one of its first
      W arrivals, both it and the lane before it were idle, and that lane
      is exact from some packet on. The two then agree from that arrival,
      and the lane before agrees with the true queue from its own meeting
      point; both points come before the lane's first packet.
    - Repair: any other lane is rerun by the ring loop from the true end
      state of the lane before it, until an arrival at which the rerun and
      the lane are both idle; from there the lane's output stands. A lane
      never idle together with its rerun leaves the next one to a rerun.

    A group whose repairs reran more than ``_LANE_FALLBACK`` of its packets
    hands the rest of the stream to the ring loop.
    """
    n = arr.size
    lane, warm = _LANE_PACKETS, _LANE_WARMUP
    departures = np.empty(n)
    n_lanes = n // lane
    # The lane before the next one: its idle flags over the next lane's
    # warm-up, whether its output is exact from some packet on, and its true
    # end state (None: its speculative end state, the same when exact).
    prev_idle = np.ones(warm, dtype=bool)
    exact = True
    state = ([-math.inf] * buffer_capacity, 0, -math.inf)
    j0 = 0
    while j0 < n_lanes:
        if j0:
            rest = n_lanes - j0
            m = math.ceil(rest / math.ceil(rest / _LANE_GROUP))
        else:
            m = min(_LANE_PROBE, n_lanes)
        lo, hi = j0 * lane, (j0 + m) * lane
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
        j0 += m
        if rerun > _LANE_FALLBACK * (hi - lo):
            break
    _ring_run(arr, srv, j0 * lane, n, departures, state)
    return departures


def _seldom_idle(arr, srv, buffer_capacity):
    """Whether the queue is idle so seldom that lanes would almost all need
    a rerun (needs ``W * (_LANE_TEST + 1)`` packets).

    Runs ``_LANE_TEST`` lanes of just W packets side by side from packet W,
    which costs about 2 ms, and counts the lanes after the first without
    an idle arrival shared with the lane before in their W-packet overlap.
    The first lane starts empty at packet 0, as the true queue does.
    """
    warm, m = _LANE_WARMUP, _LANE_TEST
    idle, _, _ = _speculate(arr, srv, warm, m, warm, buffer_capacity,
                            np.empty(warm * (m + 1)))
    shared = (idle[:warm, 1:] & idle[warm:, :-1]).any(axis=0)
    return np.count_nonzero(~shared) > _LANE_BUSY * (m - 1)


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


def _fcfs_blocks(arr, srv, buffer_capacity):
    """Tail-drop FCFS, K acceptances per step; NaN marks a dropped packet.

    Accepted packet m needs ``a >= D[m-K]`` (D: departures of accepted
    packets, non-decreasing), so once K departures are known the next K
    admissions follow from them alone: the first arrival at or after each
    threshold (``side="left"``: a departure frees its slot first), pushed
    past the previous admission by a running max of ``x_j - j``. Their
    departures come from the Lindley recursion in closed form,
    ``D = cs + max.accumulate(max(a - cs_prev, D_prev))``. While fewer than
    K packets have been accepted every arrival is admitted.
    """
    n = arr.size
    departures = np.full(n, math.nan)
    k = min(buffer_capacity, n)
    steps = np.arange(k)
    thresholds = np.full(k, -math.inf)
    next_free = 0               # first arrival index not yet considered
    d_prev = -math.inf          # departure of the last accepted packet
    while True:
        idx = arr.searchsorted(thresholds, side="left")
        idx -= steps
        np.maximum.accumulate(idx, out=idx)
        np.maximum(idx, next_free, out=idx)
        idx += steps
        if idx[-1] >= n:
            idx = idx[: idx.searchsorted(n)]
            if idx.size == 0:
                break
        cs = np.zeros(idx.size + 1)
        np.add.accumulate(srv[idx], out=cs[1:])
        dep = arr[idx] - cs[:-1]
        dep[0] = max(dep[0], d_prev)
        np.maximum.accumulate(dep, out=dep)
        dep += cs[1:]
        departures[idx] = dep
        if dep.size < k:
            break
        thresholds = dep
        next_free = int(idx[-1]) + 1
        d_prev = float(dep[-1])
    return departures


def _jitter_pair_samples(sojourn, tagged_idx, dropped):
    """|sojourn difference| over adjacent tagged pairs with both ends delivered."""
    ok = ~dropped[tagged_idx[:-1]] & ~dropped[tagged_idx[1:]]
    return _abs_differences(sojourn[tagged_idx])[ok]


def _mean(values) -> float:
    """``values.mean()``, NaN when empty. Where the plain sum leaves the
    double range (tiny capacities near saturation), the mean is taken over
    the values scaled by a power of two near their largest and scaled back;
    every finite plain mean keeps its bits."""
    if not values.size:
        return math.nan
    with np.errstate(over="ignore"):
        mean = float(values.mean())
    if mean == math.inf:
        exponent = math.frexp(float(values.max()))[1]
        mean = math.ldexp(float(np.ldexp(values, -exponent).mean()), exponent)
    return mean


def _exponential_into(rng, scale: float, out) -> None:
    """``rng.exponential(scale, out.size)`` drawn into ``out``: the same
    bits, as numpy forms it as ``scale`` times a standard draw; like it, an
    overflowing product is infinite without a warning."""
    rng.standard_exponential(out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(out, scale, out=out)


class _Workspace:
    """The arrays one run is drawn, queued and summarised in, for a horizon
    of n packets.

    A logged run (``simulate_run``) gets a whole service column, and its
    departures a whole array, as its ``PacketLog`` keeps them. A
    summary-only run keeps the arrivals, the
    sojourns and the tagged flags (17 bytes a packet) and draws the services
    and the tagging uniforms into chunk buffers; a sweep reuses one such
    workspace for all its runs. A finite buffer needs whole service times:
    a summary-only run draws them into the sojourn column, which the
    sojourns overwrite once the queue has run.
    """

    def __init__(self, n: int, logged: bool):
        chunk = min(_UNBOUNDED_CHUNK, n)
        self.logged = logged
        self.arrivals = np.empty(n)
        self.sojourn = np.empty(n)
        self.tagged = np.empty(n, dtype=bool)
        self.services = np.empty(n if logged else chunk + 1)
        self.departures = np.empty(chunk)
        self.uniforms = np.empty(chunk)


def _simulate(config: SimConfig, ws: _Workspace):
    """Draw, queue and summarise one run in ``ws``; returns the summary,
    the departures and the drop flags (None when unbounded).

    Draw order: all interarrivals, then the service times (chunk by chunk
    inside the unbounded pass), then the tagging uniforms (chunk by chunk
    after it). Each stream is consumed in order, so the bits are those of
    one whole-array draw per stream. The unbounded queue drops nothing, so
    its summary needs no drop masks. All tagged (a fraction of 1) takes no
    tagging draw: uniforms below 1 are all below it, and it is the last
    draw. A summary-only all-tagged run forms its |dT| samples in the
    sojourn column once the mean sojourn is taken.
    """
    n = config.horizon_packets
    rng = np.random.default_rng(config.seed & _MASK64)
    arrivals, sojourn, tagged = ws.arrivals, ws.sojourn, ws.tagged
    _exponential_into(rng, 1.0 / config.arrival_rate_lambda, arrivals)
    service = 1.0 / config.capacity_C
    if config.service_distribution == SERVICE_EXPONENTIAL:
        def draw(out):
            _exponential_into(rng, service, out)
    else:
        def draw(out):
            out.fill(service)

    first = int(n * config.warmup_fraction)
    if config.buffer_capacity is None:
        departures = np.empty(n) if ws.logged else ws.departures
        _fcfs_unbounded(arrivals, ws.services, departures, sojourn, draw)
        dropped = None
        delivered = n - first
    else:
        services = ws.services if ws.logged else sojourn
        draw(services)
        np.cumsum(arrivals, out=arrivals)
        departures, dropped = fcfs_departures(arrivals, services, config.buffer_capacity)
        np.subtract(departures, arrivals, out=sojourn)
        delivered = int(np.count_nonzero(~dropped[first:]))
    all_tagged = config.tagged_fraction == 1
    if all_tagged:
        tagged.fill(True)
    else:
        for lo in range(0, n, ws.uniforms.size):
            u = ws.uniforms[:n - lo]
            rng.random(out=u)
            np.less(u, config.tagged_fraction, out=tagged[lo:lo + u.size])

    if dropped is None:
        mean_sojourn = _mean(sojourn[first:])
        pairs = sojourn[first:] if all_tagged else sojourn[first:][tagged[first:]]
        in_place = not (all_tagged and ws.logged)
        samples = _abs_differences(pairs, out=pairs[:-1] if in_place else None)
    else:
        mean_sojourn = _mean(sojourn[first:][~dropped[first:]])
        tagged_idx = np.flatnonzero(tagged[first:]) + first
        samples = _jitter_pair_samples(sojourn, tagged_idx, dropped)

    t_start = float(arrivals[first - 1]) if first > 0 else 0.0
    t_end = float(arrivals[-1])
    window = t_end - t_start
    offered = n - first
    summary = RunSummary(
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
    return summary, departures, dropped


def simulate_run(config: SimConfig) -> tuple[PacketLog, RunSummary]:
    """Generate, queue, and summarize one packet stream.

    The unbounded queue runs in one chunked pass that also forms the
    arrivals and sojourns (``_fcfs_unbounded``). ``simulate_sweep`` makes
    the same runs without their logs.
    """
    ws = _Workspace(config.horizon_packets, logged=True)
    summary, departures, dropped = _simulate(config, ws)
    if dropped is None:
        dropped = np.zeros(config.horizon_packets, dtype=bool)
    return PacketLog(ws.arrivals, ws.services, departures, ws.sojourn, ws.tagged, dropped), summary


def _summarize_run(config: SimConfig) -> RunSummary:
    """``simulate_run(config)[1]`` without building the packet log."""
    return _simulate(config, _Workspace(config.horizon_packets, logged=False))[0]


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

    Each summary equals ``simulate_run``'s for the same config, but no
    packet log is built: every run is drawn, queued and summarised in one
    reused workspace sized to the horizon.
    """
    if vary not in ("arrival", "capacity"):
        raise DomainError(f"vary must be 'arrival' or 'capacity', got {vary!r}")
    _count(seeds_per_point, "seeds_per_point", 1)
    summaries = []
    ws = None       # every run has the base config's horizon
    for i, rho in enumerate(rho_grid):
        _real(rho, f"rho_grid[{i}]", gt=0)
        for j in range(seeds_per_point):
            seed = child_seed(base_config.seed, i, j)
            try:
                if vary == "arrival":
                    cfg = replace(
                        base_config,
                        arrival_rate_lambda=rho * base_config.capacity_C,
                        seed=seed,
                    )
                else:
                    cfg = replace(
                        base_config,
                        capacity_C=base_config.arrival_rate_lambda / rho,
                        seed=seed,
                    )
                if ws is None:
                    ws = _Workspace(cfg.horizon_packets, logged=False)
                summary = _simulate(cfg, ws)[0]
            except (DomainError, InstabilityError) as exc:
                raise type(exc)(
                    f"rho={rho!r} (grid index {i}, seed index {j}): {exc}"
                ) from exc
            summaries.append(summary)
    return summaries


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
    scale = 2.0 ** math.frexp(float(np.abs(jitters).max()))[1]
    stderr = (float((jitters / scale).std(ddof=1) * scale / math.sqrt(len(group)))
              if len(group) >= 2 else None)
    return SweepAggregate(
        capacity_C=key[0],
        arrival_rate_lambda=key[1],
        load_rho=key[1] / key[0],
        buffer_capacity=key[2],
        service_distribution=key[3],
        n_runs=len(group),
        jitter_mean=float(jitters.mean()),
        jitter_stderr=stderr,
        throughput_mean=float(np.mean([s.throughput_X for s in group])),
        loss_mean=float(np.mean([s.loss_B for s in group])),
        mean_sojourn_mean=float(np.mean([s.mean_sojourn for s in group])),
    )


#: Packets formatted per ``write`` call by ``write_packet_trace``.
_DUMP_WRITE_PACKETS = 65_536

#: Bytes read per block by ``read_packet_trace``; each block is cut back to
#: whole lines, so this bounds the reader's working memory.
_DUMP_READ_BYTES = 4 << 20

_DELIVERED_LINE = "%d,%s,%.17g,%.17g,%.17g,%.17g,0\n"
_DROPPED_LINE = "%d,%s,%.17g,%.17g,,,1\n"


def write_packet_trace(log: PacketLog, path) -> None:
    """Dump one packet per line; floats carry 17 significant digits so the
    file round-trips to the exact same doubles.

    The log is written ``_DUMP_WRITE_PACKETS`` packets at a time: each
    chunk's columns become Python lists once, each line is one ``%``
    format, and each chunk is one write.
    """
    columns = [np.asarray(c) for c in (log.tagged, log.dropped, log.arrival_times,
                                       log.service_times, log.departure_times,
                                       log.sojourn_times)]
    n = len(log)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PACKET_TRACE_HEADER + "\n")
        for lo in range(0, n, _DUMP_WRITE_PACKETS):
            hi = min(lo + _DUMP_WRITE_PACKETS, n)
            rows = zip(range(lo, hi), *(c[lo:hi].tolist() for c in columns))
            fh.write("".join([
                _DROPPED_LINE % (i, "tagged" if tag else "background", arr, srv)
                if drop else
                _DELIVERED_LINE % (i, "tagged" if tag else "background", arr, srv, dep, soj)
                for i, tag, drop, arr, srv, dep, soj in rows
            ]))


def read_packet_trace(path) -> PacketLog:
    """Inverse of write_packet_trace.

    Two passes: the first counts lines so the six output arrays are
    allocated once; the second parses blocks of whole lines of about
    ``_DUMP_READ_BYTES``, so memory is the output arrays plus one block and
    no per-packet Python object outlives its block.

    Raises DomainError, naming the 1-based line, on a wrong header, a line
    without exactly 7 fields or with a NUL byte, a flow other than
    tagged/background, a dropped flag other than 0/1, or a time that is not
    a number (a delivered packet needs its departure and sojourn; a dropped
    one's are ignored).
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
        return np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
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
