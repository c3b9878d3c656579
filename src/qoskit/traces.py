"""Field-log schema, canonical CSV round-trip, and synthetic drive-test traces.

The log format is one row per second: timestamp, position (with an integrity
level), distance and speed, and the measured throughput, jitter, and loss
counters for that second. The trace generator reproduces three measurement
scenarios over a straight track served by one base station: a static point, a
constant-speed run, and a stepped variable-speed run. Link quality enters
only through a distance-to-rate map; the vehicle position is integrated each
second, the per-second rate feeds a single FCFS queue under a constant
offered load, and each second's deliveries are summarized into one row.

The queue carries its state across seconds, so a rate drop builds a backlog
whose drain is exactly the jitter mechanism visible in the logs. Internally
each packet carries an exponential unit-mean amount of work and the link
drains work at the current rate; mapping arrivals into cumulative-work
coordinates turns the varying-rate queue into the constant-rate FCFS engine,
and reduces to it exactly when the rate is constant. Seconds with zero rate
are outages: every packet arriving in one is dropped (no signal), while
packets already queued simply wait.

All defaults here (the rate map anchors, the speed schedule, the offered load
and buffer) are synthetic calibrations, chosen to be plausible for a short
suburban radio link; they are configurable through the scenario file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import attrgetter
from typing import Iterable

import numpy as np

from .errors import DomainError, TraceParseError, _count, _parse, _real, _seed
from .metrics import _abs_differences
from . import sim
from .sim import DEFAULT_SEED

KIND_STATIC = "static"
KIND_CONSTANT_SPEED = "constant_speed"
KIND_VARIABLE_SPEED = "variable_speed"
_KINDS = (KIND_STATIC, KIND_CONSTANT_SPEED, KIND_VARIABLE_SPEED)

_METERS_PER_DEGREE = 111_320.0


@dataclass(frozen=True)
class QosLogRow:
    """One per-second sample of a measurement log."""

    t_unix_s: int
    lat_deg: float
    lon_deg: float
    integrity: int
    dist_m: float
    speed_kmh: float
    tput_Bps: float
    jitter_ms: float
    lost_pkts: int
    total_pkts: int

    def __post_init__(self):
        _count(self.t_unix_s, "t_unix_s")
        _count(self.integrity, "integrity", 0)
        _real(self.lat_deg, "lat_deg")
        _real(self.lon_deg, "lon_deg")
        _real(self.dist_m, "dist_m", ge=0)
        _real(self.speed_kmh, "speed_kmh", ge=0)
        _real(self.tput_Bps, "tput_Bps", ge=0)
        _real(self.jitter_ms, "jitter_ms", ge=0)
        _count(self.lost_pkts, "lost_pkts", 0)
        _count(self.total_pkts, "total_pkts", self.lost_pkts)


def _number_fields(cls) -> tuple[tuple[str, type], ...]:
    """(name, int or float) for each field of ``cls`` declared ``int`` or
    ``float`` (``float | None`` counts as float), in declaration order. The
    annotations are strings here, as this module postpones their evaluation."""
    kinds = {"int": int, "float": float}
    return tuple((f.name, kinds[kind]) for f in fields(cls)
                 if (kind := f.type.split(" | ")[0]) in kinds)


#: The log's columns: every QosLogRow field, in declaration order.
_LOG_COLUMNS = _number_fields(QosLogRow)
LOG_HEADER = ",".join(name for name, _ in _LOG_COLUMNS)


def write_log(rows: Iterable[QosLogRow]) -> bytes:
    """Serialize rows to the canonical CSV: fixed column order, ints in
    decimal, floats with up to 9 significant digits, Unix newlines. Inverse
    of parse_log."""
    rows = list(rows)
    line = ",".join("{}" if kind is int else "{:.9g}" for _, kind in _LOG_COLUMNS)
    values = attrgetter(*(name for name, _ in _LOG_COLUMNS))
    out = [LOG_HEADER]
    prev_t = None
    for i, row in enumerate(rows):
        if not isinstance(row, QosLogRow):
            raise DomainError(f"rows[{i}] is not a QosLogRow")
        if prev_t is not None and row.t_unix_s <= prev_t:
            raise DomainError(
                f"rows[{i}]: timestamp {row.t_unix_s} does not increase over {prev_t}"
            )
        prev_t = row.t_unix_s
        out.append(line.format(*values(row)))
    return ("\n".join(out) + "\n").encode("utf-8")


def parse_log(data: bytes | str) -> list[QosLogRow]:
    """Parse and validate a canonical log. Rejections name the 1-based line."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceParseError(data.count(b"\n", 0, exc.start) + 1,
                                  "not UTF-8 text") from None
    else:
        text = data
    lines = text.splitlines()
    if not lines:
        raise TraceParseError(1, "empty file, expected the canonical header")
    if lines[0] != LOG_HEADER:
        raise TraceParseError(1, f"unexpected header {lines[0]!r}")
    names, kinds = zip(*_LOG_COLUMNS)
    rows: list[QosLogRow] = []
    prev_t = None
    for line_no, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise TraceParseError(line_no, f"expected {len(names)} fields, got {len(parts)}")
        try:
            row = QosLogRow(*map(_parse, parts, names, kinds))
        except DomainError as exc:
            raise TraceParseError(line_no, str(exc)) from None
        if prev_t is not None and row.t_unix_s <= prev_t:
            raise TraceParseError(
                line_no, f"timestamp {row.t_unix_s} does not increase over {prev_t}"
            )
        prev_t = row.t_unix_s
        rows.append(row)
    return rows


@dataclass(frozen=True)
class RateDistanceMap:
    """Distance-to-deliverable-rate calibration.

    Anchor rates must be non-increasing with distance; masked intervals force
    the rate to zero regardless of the anchors (shadowed areas with no
    signal), and so does any distance beyond the last anchor.
    """

    anchors: tuple[tuple[float, float], ...]
    interpolation: str = "linear"
    mask_zones: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not self.anchors:
            raise DomainError("a rate map needs at least one anchor")
        prev_d = -math.inf
        prev_r = math.inf
        for k, (d, r) in enumerate(self.anchors):
            _real(d, f"anchors[{k}] distance", gt=prev_d)
            _real(r, f"anchors[{k}] rate", ge=0, le=prev_r)
            prev_d, prev_r = d, r
        if self.interpolation not in ("step", "linear"):
            raise DomainError(f"interpolation must be 'step' or 'linear', got {self.interpolation!r}")
        for k, (lo, hi) in enumerate(self.mask_zones):
            _real(lo, f"mask_zones[{k}] start", ge=0)
            _real(hi, f"mask_zones[{k}] end", gt=lo)


def default_rate_map() -> RateDistanceMap:
    """Synthetic default calibration: about 1 MB/s up close, under a quarter
    of that at the far end of the track, fading to nothing past 2 km."""
    return RateDistanceMap(
        anchors=(
            (540.0, 1_000_000.0),
            (800.0, 820_000.0),
            (1200.0, 450_000.0),
            (1570.0, 230_000.0),
            (2000.0, 0.0),
        ),
        interpolation="linear",
    )


def rate_at_distance(rate_map: RateDistanceMap, dist_m: float) -> float:
    """Deliverable rate at a distance: 0 in mask zones and beyond the last
    anchor, clamped to the first anchor up close, interpolated between."""
    _real(dist_m, "distance", ge=0)
    return float(_rates(rate_map, np.array([dist_m], dtype=float))[0])


def _rates(rate_map: RateDistanceMap, dist: np.ndarray) -> np.ndarray:
    """``rate_at_distance`` at every distance of ``dist`` (none negative).

    The anchor at or before each distance is one ``searchsorted``; between
    two anchors the linear rate is ``r0 + (r1 - r0) * (d - d0) / (d1 - d0)``,
    evaluated in that order, which is exactly r0 at ``d == d0``.
    """
    anchor_d, anchor_r = np.array(rate_map.anchors, dtype=float).T
    top = anchor_d.size - 1
    i = np.searchsorted(anchor_d, dist, side="right") - 1
    at = np.clip(i, 0, top)
    rates = anchor_r[at]        # clamped up close, at an anchor, or a step
    if rate_map.interpolation == "linear":
        between = (i >= 0) & (i < top)
        j = at[between]
        d0, r0, d1, r1 = anchor_d[j], anchor_r[j], anchor_d[j + 1], anchor_r[j + 1]
        rates[between] = r0 + (r1 - r0) * (dist[between] - d0) / (d1 - d0)
    rates[dist > anchor_d[-1]] = 0.0
    for lo, hi in rate_map.mask_zones:
        rates[(lo <= dist) & (dist <= hi)] = 0.0
    return rates


#: Stepped speed schedule cycled by the default variable-speed scenario.
DEFAULT_SPEED_CYCLE_KMH = (10.0, 20.0, 30.0, 40.0, 50.0, 40.0, 30.0, 20.0)


def default_speed_profile(duration_s: int) -> tuple[tuple[float, float], ...]:
    """60-second steps cycling 10 - 20 - 30 - 40 - 50 - 40 - ... km/h."""
    steps = []
    t = 0.0
    k = 0
    while t < duration_s:
        steps.append((t, DEFAULT_SPEED_CYCLE_KMH[k % len(DEFAULT_SPEED_CYCLE_KMH)]))
        t += 60.0
        k += 1
    return tuple(steps) if steps else ((0.0, DEFAULT_SPEED_CYCLE_KMH[0]),)


@dataclass(frozen=True)
class MobilityScenario:
    """A synthetic measurement drive: geometry, motion, link map, traffic."""

    kind: str
    duration_s: int
    seed: int = DEFAULT_SEED
    static_dist_m: float = 1570.0
    speed_kmh: float = 50.0
    speed_profile: tuple[tuple[float, float], ...] | None = None
    track_min_m: float = 540.0
    track_max_m: float = 1570.0
    start_dist_m: float | None = None
    rate_map: RateDistanceMap = field(default_factory=default_rate_map)
    offered_Bps: float = 1_200_000.0
    packet_size_B: int = 1000
    buffer_pkts: int = 100
    t0_unix_s: int = 1_700_000_000
    base_lat_deg: float = 0.0
    base_lon_deg: float = 0.0
    track_bearing_deg: float = 90.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        _count(self.duration_s, "duration_s", 0)
        _seed(self.seed, "seed")
        _real(self.static_dist_m, "static_dist_m", ge=0)
        _real(self.speed_kmh, "speed_kmh", ge=0)
        _real(self.track_min_m, "track_min_m", gt=0)
        _real(self.track_max_m, "track_max_m", gt=self.track_min_m)
        if self.start_dist_m is None:
            object.__setattr__(self, "start_dist_m", self.track_min_m)
        _real(self.start_dist_m, "start_dist_m", ge=self.track_min_m, le=self.track_max_m)
        _real(self.offered_Bps, "offered_Bps", gt=0)
        _count(self.packet_size_B, "packet_size_B", 1)
        _count(self.buffer_pkts, "buffer_pkts", 1)
        _count(self.t0_unix_s, "t0_unix_s")
        _real(self.base_lat_deg, "base_lat_deg", ge=-90, le=90)
        _real(self.base_lon_deg, "base_lon_deg")
        _real(self.track_bearing_deg, "track_bearing_deg")
        if self.kind == KIND_VARIABLE_SPEED and self.speed_profile is None:
            object.__setattr__(self, "speed_profile", default_speed_profile(self.duration_s))
        prev_t = -math.inf
        for k, (t, v) in enumerate(self.speed_profile or ()):
            _real(t, f"speed_profile[{k}] start", gt=prev_t, le=math.inf if k else 0.0)
            _real(v, f"speed_profile[{k}] speed", ge=0)
            prev_t = t


def _per_second_kinematics(scenario: MobilityScenario):
    """Speed and track position at the start of every second.

    Positions fold the accumulated path length onto the track with a triangle
    wave, which is the reflecting round-trip motion between the bounds.
    """
    d = scenario.duration_s
    if scenario.kind == KIND_STATIC:
        speeds = np.zeros(d)
        positions = np.full(d, scenario.static_dist_m, dtype=float)
        return speeds, positions
    if scenario.kind == KIND_CONSTANT_SPEED:
        profile = ((0.0, scenario.speed_kmh),)
    else:
        profile = scenario.speed_profile
    # The scenario checked the profile: time-ordered, first step at t <= 0.
    starts, values = zip(*profile)
    step = np.searchsorted(starts, np.arange(d), side="right") - 1
    speeds = np.array(values, dtype=float)[step]
    increments = speeds / 3.6  # km/h -> m per one-second step
    path = np.concatenate(([0.0], np.cumsum(increments)))[:d]
    span = scenario.track_max_m - scenario.track_min_m
    phase = (scenario.start_dist_m - scenario.track_min_m + path) % (2.0 * span)
    positions = scenario.track_min_m + span - np.abs(span - phase)
    return speeds, positions


#: Most arrivals a trace may expect: 8 PB of arrival times, past any
#: machine's memory, yet far below the counts numpy cannot describe.
_MAX_ARRIVALS = 10**15


def _poisson_arrivals(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Arrival instants of a Poisson process on [0, horizon).

    Draws interarrival blocks until the horizon is covered (deterministic for
    a given generator state), then truncates. The first block is drawn and
    summed in place, one column; its draws have the bits of
    ``rng.exponential(1 / rate, block)``. An expected count above
    ``_MAX_ARRIVALS``, or one that overflows, raises DomainError.
    """
    expected = rate * horizon
    _real(expected, f"expected packet count at {rate!r} packets/s over {horizon!r} s",
          le=_MAX_ARRIVALS)
    block = int(expected + 6.0 * math.sqrt(expected) + 16.0)
    times = np.empty(block)
    sim._exponential_into(rng, 1.0 / rate, times)
    np.cumsum(times, out=times)
    while times[-1] < horizon:
        more = np.cumsum(rng.exponential(1.0 / rate, size=block)) + times[-1]
        times = np.concatenate((times, more))
    return times[:np.searchsorted(times, horizon)]


def synth_mobility_trace(scenario: MobilityScenario) -> list[QosLogRow]:
    """Generate one canonical log row per second of the scenario.

    Deterministic for a given scenario (including its seed). Packets still
    queued when the trace ends are neither delivered nor lost.

    The arrivals are one column; everything else is made and folded into
    the per-second columns one chunk of arrivals at a time, with the
    queue's seam state carried from chunk to chunk, and the bits are those
    of one pass over whole arrays. The queue's path sets the chunk
    (``sim._fcfs_seam``).
    """
    d = scenario.duration_s
    if d == 0:
        raise DomainError("zero-duration scenario produces no rows")
    speeds, positions = _per_second_kinematics(scenario)
    rates_pkts = _rates(scenario.rate_map, positions) / scenario.packet_size_B

    rng = np.random.default_rng(scenario.seed)
    lam = scenario.offered_Bps / scenario.packet_size_B
    arrivals = _poisson_arrivals(rng, lam, float(d))
    n = arrivals.size

    # The arrivals are sorted, so each second's arrivals are one range.
    seconds = np.arange(d + 1, dtype=float)
    bounds = arrivals.searchsorted(seconds)
    total_per_sec = np.diff(bounds)
    up = rates_pkts != 0.0
    # Work coordinate: breaks[k] is the work the link can have drained by the
    # start of second k; within a second the mapping is linear at that
    # second's rate. In this coordinate the varying-rate queue is the plain
    # unit-rate FCFS queue.
    breaks = np.concatenate(([0.0], np.cumsum(rates_pkts)))
    lost_per_sec = np.where(up, 0, total_per_sec)   # packets arriving in an outage
    delivered_per_sec = np.zeros(d, dtype=np.int64)
    gap_sums = np.zeros(d)

    k = scenario.buffer_pkts
    state, chunk = sim._fcfs_seam(k, n)
    work = np.empty(min(chunk, n))
    last_sojourn, last_sec = 0.0, -1    # the last delivery so far, if any
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # The work is drawn chunk by chunk, after all the arrivals; a
        # standard draw has the bits of ``rng.exponential(1.0)``.
        w = rng.standard_exponential(out=work[:hi - lo])
        t = arrivals[lo:hi]
        s0 = int(bounds.searchsorted(lo, side="right")) - 1     # the chunk's seconds
        s1 = int(bounds.searchsorted(hi - 1, side="right"))     # are s0 to s1 - 1
        per_sec = np.diff(np.clip(bounds[s0:s1 + 1], lo, hi))
        if not up[s0:s1].all():
            # Packets arriving in an outage are lost; only the rest are queued.
            live = np.repeat(up[s0:s1], per_sec)
            t, w = np.compress(live, t), np.compress(live, w)
            per_sec = np.where(up[s0:s1], per_sec, 0)
        if not t.size:
            continue
        a_w = np.repeat(seconds[s0:s1], per_sec)
        np.subtract(t, a_w, out=a_w)
        a_w *= np.repeat(rates_pkts[s0:s1], per_sec)
        a_w += np.repeat(breaks[s0:s1], per_sec)
        dep = np.empty(t.size)
        state = sim._fcfs(a_w, w, k, dep, state)
        del a_w         # the chunk's arrays die once spent; the work buffer stays

        # Lost in the queue, per second of arrival: the running drop count
        # at the ends of the seconds' ranges.
        dropped = np.isnan(dep)
        lost_per_sec[s0:s1] += np.diff(np.flatnonzero(dropped).searchsorted(np.cumsum(per_sec)),
                                       prepend=0)

        # FCFS delivers in arrival order, so the delivered departures are
        # sorted, and those by the horizon are a prefix. The ones in second s
        # of the work coordinate, breaks[s] < x <= breaks[s + 1], are a range
        # too (s = -1 only for a departure at work 0).
        np.logical_not(dropped, out=dropped)
        dep_t = np.compress(dropped, dep)
        sojourns = np.compress(dropped, t, out=work[:dep_t.size])
        del dep, dropped
        h = dep_t.searchsorted(breaks[-1], side="right")
        if not h:
            continue
        dep_t, sojourns = dep_t[:h], sojourns[:h]
        j0, j1 = breaks.searchsorted(dep_t[[0, -1]])
        segs = np.arange(j0 - 1, j1)
        per_seg = np.diff(dep_t.searchsorted(breaks[j0:j1 + 1], side="right"), prepend=0)
        dep_t -= np.repeat(breaks[segs], per_seg)
        dep_t /= np.repeat(rates_pkts[segs], per_seg)
        dep_t += np.repeat(segs.astype(float), per_seg)
        np.subtract(dep_t, sojourns, out=sojourns)
        # Departure times sort by whole second, and the ones at the exact
        # horizon edge count in the last second: the chunk's are q0 to q1.
        q0, q1 = seconds[1:d].searchsorted(dep_t[[0, -1]], side="right")
        cuts = dep_t.searchsorted(seconds[q0 + 1:q1 + 1])
        per_dep = np.diff(cuts, prepend=0, append=h)
        delivered_per_sec[q0:q1 + 1] += per_dep

        # Each second's jitter is the mean |dT| over its consecutive pairs; a
        # pair whose packets depart in different seconds belongs to neither,
        # so a second with fewer than two deliveries sums to 0.0. gaps[i] is
        # the pair that ends at delivery i; gaps[0] also carries the open
        # second's sum so far, so each second's sum is one sequential
        # addition however the chunks fall (0.0 + s == s).
        gaps = dep_t
        _abs_differences(sojourns, out=gaps[1:])
        gaps[cuts] = 0.0
        gaps[0] = gap_sums[q0] + (abs(sojourns[0] - last_sojourn) if q0 == last_sec else 0.0)
        gap_sums[q0:q1 + 1] = np.bincount(np.repeat(np.arange(q1 + 1 - q0), per_dep),
                                          weights=gaps, minlength=q1 + 1 - q0)
        last_sojourn, last_sec = sojourns[-1], q1
    jitter_ms = gap_sums / np.maximum(delivered_per_sec - 1, 1) * 1000.0

    theta = math.radians(scenario.track_bearing_deg)
    coslat = math.cos(math.radians(scenario.base_lat_deg))
    lat = scenario.base_lat_deg + positions * math.cos(theta) / _METERS_PER_DEGREE
    lon = scenario.base_lon_deg + positions * math.sin(theta) / (_METERS_PER_DEGREE * coslat)
    return list(map(QosLogRow, range(scenario.t0_unix_s, scenario.t0_unix_s + d),
                    lat.tolist(), lon.tolist(), repeat(1), positions.tolist(), speeds.tolist(),
                    (delivered_per_sec * scenario.packet_size_B).astype(float).tolist(),
                    jitter_ms.tolist(), lost_per_sec.tolist(), total_per_sec.tolist()))


# --- scenario files -------------------------------------------------------
#
# Flat "key = value" text, one key per line, '#' starts a comment. Keys
# mirror the MobilityScenario fields:
#
#   kind                static | constant_speed | variable_speed  (required)
#   duration_s          integer seconds                           (required)
#   seed                integer
#   static_dist_m       meters (static kind)
#   speed_kmh           km/h (constant_speed kind)
#   speed_profile       "start:speed, start:speed, ..." (variable_speed kind)
#   track_min_m / track_max_m / start_dist_m    meters
#   rate_anchors        "dist:rate_Bps, dist:rate_Bps, ..."
#   rate_interpolation  step | linear
#   mask_zones          "lo-hi; lo-hi; ..." meters, may be empty
#   offered_Bps / packet_size_B / buffer_pkts   traffic source
#   t0_unix_s / base_lat_deg / base_lon_deg / track_bearing_deg

def _parse_list(text: str, key: str) -> tuple[tuple[float, float], ...]:
    """The number pairs of a list key: "a:b, a:b, ..." with at least one
    pair, or for ``mask_zones`` "lo-hi; lo-hi; ...", which may be empty."""
    zones = key == "mask_zones"
    sep, mark, form, what = (";", "-", "lo-hi", "mask zone") if zones else (
        ",", ":", "a:b", f"{key} entry")
    pairs = []
    for item in text.split(sep):
        item = item.strip()
        if not item:
            continue
        try:
            a, b = item.split(mark)
            pairs.append((float(a), float(b)))
        except ValueError:
            raise DomainError(f"cannot parse {what} {item!r}, expected {form!r}") from None
    if not (pairs or zones):
        raise DomainError(f"{key} must contain at least one 'a:b' pair")
    return tuple(pairs)


def parse_scenario(text: str) -> MobilityScenario:
    """Parse the flat key/value scenario format documented above."""
    raw: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"scenario line {line_no}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise DomainError(f"scenario line {line_no}: duplicate key {key!r}")
        raw[key] = (value, line_no)

    if "kind" not in raw or "duration_s" not in raw:
        raise DomainError("a scenario needs at least 'kind' and 'duration_s'")

    kwargs: dict = {"kind": raw.pop("kind")[0]}
    numbers = dict(_number_fields(MobilityScenario))
    map_kwargs: dict = {}
    for key, (value, line_no) in raw.items():
        try:
            if key in numbers:
                kwargs[key] = _parse(value, f"key {key!r}", numbers[key])
            elif key == "speed_profile":
                kwargs["speed_profile"] = _parse_list(value, key)
            elif key == "rate_anchors":
                map_kwargs["anchors"] = _parse_list(value, key)
            elif key == "rate_interpolation":
                map_kwargs["interpolation"] = value
            elif key == "mask_zones":
                map_kwargs["mask_zones"] = _parse_list(value, key)
            else:
                raise DomainError(f"unknown scenario key {key!r}")
        except DomainError as exc:
            raise DomainError(f"scenario line {line_no}: {exc}") from None
    if map_kwargs:
        base = default_rate_map()
        kwargs["rate_map"] = RateDistanceMap(
            anchors=map_kwargs.get("anchors", base.anchors),
            interpolation=map_kwargs.get("interpolation", base.interpolation),
            mask_zones=map_kwargs.get("mask_zones", ()),
        )
    return MobilityScenario(**kwargs)


def load_scenario(path) -> MobilityScenario:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise DomainError(f"scenario line {line_no}: not UTF-8 text") from None
    return parse_scenario(text)
