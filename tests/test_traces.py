"""Log schema round-trips, the rate map, kinematics, and trace synthesis."""

import hashlib
import math
import tracemalloc
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qoskit import sim
from qoskit.errors import DomainError, TraceParseError
from qoskit.metrics import _abs_differences
from qoskit.sim import fcfs_departures
from qoskit.traces import (
    LOG_HEADER,
    MobilityScenario,
    QosLogRow,
    RateDistanceMap,
    default_rate_map,
    default_speed_profile,
    load_scenario,
    parse_log,
    parse_scenario,
    rate_at_distance,
    synth_mobility_trace,
    write_log,
    _per_second_kinematics,
    _poisson_arrivals,
    _rates,
)

_SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _row(t=1_700_000_000, **overrides):
    fields = dict(
        t_unix_s=t, lat_deg=0.01, lon_deg=0.02, integrity=1, dist_m=1000.0,
        speed_kmh=50.0, tput_Bps=230_000.0, jitter_ms=4.5, lost_pkts=10,
        total_pkts=100,
    )
    fields.update(overrides)
    return QosLogRow(**fields)


class TestLogRows:
    def test_lost_cannot_exceed_total(self):
        with pytest.raises(DomainError):
            _row(lost_pkts=5, total_pkts=3)

    def test_negative_fields_rejected(self):
        with pytest.raises(DomainError):
            _row(tput_Bps=-1.0)
        with pytest.raises(DomainError):
            _row(jitter_ms=-0.5)


class TestLogRoundTrip:
    def test_empty_list_is_header_only(self):
        assert write_log([]) == (LOG_HEADER + "\n").encode()

    def test_single_row_two_lines(self):
        data = write_log([_row()])
        assert data.decode().count("\n") == 2
        [row] = parse_log(data)
        assert row == _row()

    def test_well_formed_row_preserves_values(self):
        row = _row(lat_deg=43.1234567, tput_Bps=987654.0, jitter_ms=12.25)
        [back] = parse_log(write_log([row]))
        assert back == row

    def test_lost_exceeding_total_names_line(self):
        data = (
            LOG_HEADER + "\n"
            "1700000000,0,0,1,1000,50,230000,4.5,5,3\n"
        ).encode()
        with pytest.raises(TraceParseError, match="line 2"):
            parse_log(data)

    def test_malformed_field_names_line(self):
        good = write_log([_row()]).decode()
        bad = good + "1700000001,x,0,1,1000,50,230000,4.5,1,10\n"
        with pytest.raises(TraceParseError, match="line 3"):
            parse_log(bad)

    def test_non_monotone_timestamp_rejected(self):
        rows = [_row(t=100), _row(t=100)]
        with pytest.raises(DomainError, match=r"rows\[1\]"):
            write_log(rows)
        data = (
            LOG_HEADER + "\n"
            "100,0,0,1,1000,50,230000,4.5,1,10\n"
            "99,0,0,1,1000,50,230000,4.5,1,10\n"
        ).encode()
        with pytest.raises(TraceParseError, match="line 3"):
            parse_log(data)

    def test_wrong_header_rejected(self):
        with pytest.raises(TraceParseError, match="line 1"):
            parse_log(b"nope\n")

    def test_blank_lines_skipped(self):
        rows = [_row(t=100), _row(t=101)]
        data = write_log(rows).decode().replace("\n", "\n\n")
        assert parse_log(data) == rows

    def test_non_utf8_bytes_name_their_line(self):
        data = (LOG_HEADER + "\n100,0,0,1,1000,50,230000,4.5,1,10\n").encode() + b"\xff\n"
        with pytest.raises(TraceParseError, match="line 3: not UTF-8 text"):
            parse_log(data)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10_000),          # time gap
                st.floats(min_value=-89.0, max_value=89.0),          # lat
                st.floats(min_value=-179.0, max_value=179.0),        # lon
                st.integers(min_value=0, max_value=3),               # integrity
                st.floats(min_value=0, max_value=1e7),               # dist
                st.floats(min_value=0, max_value=300.0),             # speed
                st.floats(min_value=0, max_value=1e9),               # tput
                st.floats(min_value=0, max_value=1e5),               # jitter
                st.integers(min_value=0, max_value=10_000),          # delivered
                st.integers(min_value=0, max_value=10_000),          # extra lost
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60)
    def test_canonical_files_round_trip_byte_for_byte(self, specs):
        """write(parse(f)) == f for any canonically written file."""
        rows = []
        t = 1_600_000_000
        for gap, lat, lon, integ, dist, speed, tput, jit, delivered, lost in specs:
            t += gap
            rows.append(
                QosLogRow(t, lat, lon, integ, dist, speed, tput, jit,
                          lost, lost + delivered)
            )
        canonical = write_log(rows)
        assert write_log(parse_log(canonical)) == canonical


class TestRateMap:
    def test_anchor_point_exact(self):
        m = default_rate_map()
        assert rate_at_distance(m, 540.0) == 1_000_000.0
        assert rate_at_distance(m, 1570.0) == 230_000.0

    def test_default_map_matches_coverage_classes(self):
        m = default_rate_map()
        assert rate_at_distance(m, 540.0) >= 800_000.0
        assert 200_000.0 <= rate_at_distance(m, 1570.0) <= 800_000.0

    def test_mask_zone_is_dead(self):
        m = RateDistanceMap(
            anchors=((540.0, 1e6), (2000.0, 0.0)),
            mask_zones=((900.0, 950.0),),
        )
        assert rate_at_distance(m, 925.0) == 0.0
        assert rate_at_distance(m, 899.9) > 0.0

    def test_zero_beyond_last_anchor(self):
        assert rate_at_distance(default_rate_map(), 2000.1) == 0.0

    def test_clamped_before_first_anchor(self):
        assert rate_at_distance(default_rate_map(), 10.0) == 1_000_000.0

    def test_linear_interpolation_between_anchors(self):
        m = default_rate_map()
        mid = rate_at_distance(m, (540.0 + 800.0) / 2)
        assert mid == pytest.approx((1_000_000.0 + 820_000.0) / 2)

    def test_step_interpolation(self):
        m = RateDistanceMap(anchors=((100.0, 10.0), (200.0, 5.0)), interpolation="step")
        assert rate_at_distance(m, 150.0) == 10.0

    def test_increasing_rates_rejected(self):
        with pytest.raises(DomainError):
            RateDistanceMap(anchors=((100.0, 10.0), (200.0, 20.0)))

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            rate_at_distance(default_rate_map(), -1.0)

    @pytest.mark.parametrize("interpolation", ["linear", "step"])
    def test_array_form_matches_the_scalar_lookup(self, interpolation):
        """Exactly, at and next to the anchors and the mask-zone edges,
        up close, past the last anchor, and on a fine grid between."""
        m = RateDistanceMap(
            anchors=((540.0, 1e6), (800.0, 820_000.0), (1200.0, 450_000.0),
                     (1570.0, 230_000.0), (2000.0, 0.0)),
            interpolation=interpolation,
            mask_zones=((900.0, 950.0), (1570.0, 1600.0)),
        )
        edges = np.array([d for d, _ in m.anchors] + [x for zone in m.mask_zones for x in zone])
        dist = np.concatenate((
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [0.0, 1.0, 2000.1, 1e9], np.linspace(0.0, 2200.0, 2201) + 0.37,
        ))
        want = [_reference_rate(m, x) for x in dist.tolist()]
        assert _rates(m, dist).tolist() == want
        assert [rate_at_distance(m, x) for x in dist.tolist()] == want

    def test_array_form_with_one_anchor(self):
        m = RateDistanceMap(anchors=((100.0, 5.0),))
        dist = np.array([0.0, 100.0, np.nextafter(100.0, np.inf), 300.0])
        assert _rates(m, dist).tolist() == [5.0, 5.0, 0.0, 0.0]


class TestSpeedProfile:
    def test_single_step_covers_everything(self):
        speeds, _ = _per_second_kinematics(
            MobilityScenario("variable_speed", 1_000_001, speed_profile=((0.0, 50.0),)))
        assert np.all(speeds == 50.0)

    def test_step_boundaries(self):
        speeds, _ = _per_second_kinematics(MobilityScenario(
            "variable_speed", 101, speed_profile=((0.0, 10.0), (100.0, 50.0))))
        assert speeds[99] == 10.0
        assert speeds[100] == 50.0

    def test_fractional_step_start(self):
        """A step starting between whole seconds takes effect at the first
        second at or after its start."""
        speeds, _ = _per_second_kinematics(MobilityScenario(
            "variable_speed", 101, speed_profile=((0.0, 10.0), (99.5, 50.0))))
        assert speeds[99] == 10.0
        assert speeds[100] == 50.0

    def test_default_profile_cycles_within_bounds(self):
        profile = default_speed_profile(3600)
        speeds = [_reference_speed(profile, t) for t in range(0, 3600, 30)]
        assert min(speeds) == 10.0
        assert max(speeds) == 50.0
        assert {10.0, 20.0, 30.0, 40.0, 50.0} == set(speeds)


class TestScenario:
    def test_zero_duration_is_empty_trace(self):
        scenario = MobilityScenario("static", 0, static_dist_m=1000.0)
        with pytest.raises(DomainError, match="zero-duration scenario"):
            synth_mobility_trace(scenario)

    def test_bad_track_bounds(self):
        with pytest.raises(DomainError):
            MobilityScenario("constant_speed", 10, speed_kmh=50.0, track_min_m=200.0,
                             track_max_m=100.0)

    def test_parse_full_scenario(self):
        text = """
        # comment
        kind = constant_speed
        duration_s = 30
        speed_kmh = 40
        track_min_m = 500
        track_max_m = 1500
        seed = 9
        offered_Bps = 900000
        packet_size_B = 500
        buffer_pkts = 64
        rate_anchors = 500:900000, 1500:100000
        rate_interpolation = step
        mask_zones = 700-800
        """
        scenario = parse_scenario(text)
        assert scenario.kind == "constant_speed"
        assert scenario.duration_s == 30
        assert scenario.seed == 9
        assert scenario.packet_size_B == 500
        assert scenario.rate_map.interpolation == "step"
        assert scenario.rate_map.mask_zones == ((700.0, 800.0),)

    # Numeric scenario keys and their types, with a value of that type that
    # the scenario accepts.
    NUMERIC_KEYS = {
        "duration_s": (int, "7"),
        "seed": (int, "9"),
        "static_dist_m": (float, "1234.5"),
        "speed_kmh": (float, "42.5"),
        "track_min_m": (float, "600.5"),
        "track_max_m": (float, "1600.5"),
        "start_dist_m": (float, "700.25"),
        "offered_Bps": (float, "900000.5"),
        "packet_size_B": (int, "500"),
        "buffer_pkts": (int, "64"),
        "t0_unix_s": (int, "1600000000"),
        "base_lat_deg": (float, "43.625"),
        "base_lon_deg": (float, "1.375"),
        "track_bearing_deg": (float, "45.5"),
    }

    @staticmethod
    def _with_key(key, value):
        """A scenario text that sets ``key`` on line 3."""
        second = "duration_s = 5" if key != "duration_s" else "# duration on line 3"
        return f"kind = constant_speed\n{second}\n{key} = {value}\n"

    @pytest.mark.parametrize("key", sorted(NUMERIC_KEYS))
    def test_numeric_key_parses_to_its_field_and_type(self, key):
        kind, text = self.NUMERIC_KEYS[key]
        value = getattr(parse_scenario(self._with_key(key, text)), key)
        assert type(value) is kind
        assert value == kind(text)

    @pytest.mark.parametrize("key", sorted(k for k, (kind, _) in NUMERIC_KEYS.items()
                                           if kind is int))
    def test_int_key_rejects_a_fraction(self, key):
        with pytest.raises(DomainError) as info:
            parse_scenario(self._with_key(key, "1.5"))
        assert str(info.value) == f"scenario line 3: key {key!r}: cannot parse '1.5' as int"

    def test_speed_profile_starting_after_zero_rejected(self):
        """The first step must cover t = 0; one at 10 s used to stop the
        synthesis partway with an error about t."""
        with pytest.raises(DomainError, match=r"speed_profile\[0\] start must be a finite "
                                              r"number <= 0.0, got 10.0"):
            MobilityScenario("variable_speed", 30, speed_profile=((10.0, 50.0), (20.0, 30.0)))

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(DomainError, match="unknown scenario key"):
            parse_scenario("kind = static\nduration_s = 5\nbogus = 1\n")

    def test_empty_list_items_skipped(self):
        scenario = parse_scenario("kind = static\nduration_s = 5\n"
                                  "rate_anchors = 500:1000, ,800:10,\n"
                                  "mask_zones = ;100-200; ;\n")
        assert scenario.rate_map.anchors == ((500.0, 1000.0), (800.0, 10.0))
        assert scenario.rate_map.mask_zones == ((100.0, 200.0),)

    def test_parse_rejects_duplicate_key(self):
        with pytest.raises(DomainError, match="duplicate"):
            parse_scenario("kind = static\nkind = static\nduration_s = 5\n")

    def test_parse_requires_kind_and_duration(self):
        with pytest.raises(DomainError):
            parse_scenario("kind = static\n")

    def test_negative_seed_rejected(self):
        """numpy seeds are non-negative; -1 used to escape as a ValueError."""
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            parse_scenario("kind = static\nduration_s = 5\nseed = -1\n")

    def test_non_utf8_scenario_names_its_line(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_bytes(b"kind = static\nduration_s = 5 \xe9\n")
        with pytest.raises(DomainError, match="scenario line 2: not UTF-8 text"):
            load_scenario(path)


class TestSynthesis:
    def test_deterministic_bytes(self):
        scenario = MobilityScenario("constant_speed", 60, speed_kmh=50.0, seed=77)
        a = write_log(synth_mobility_trace(scenario))
        b = write_log(synth_mobility_trace(scenario))
        assert a == b

    @pytest.mark.parametrize("name, digest", [
        ("static_far", "7ebe4ad36427bc6b8ae56707309ca58ebfcad6505f6c42693f72239f9977dfca"),
        ("constant_50kmh", "1d331540c9bb5354296d5dfe3006eb2733e0fc588209ad7fcd2c0febacd91699"),
        ("variable_speed", "96fd8c99a9e4c863d7640a8a460da40517594e9fcc7597eba08f540c3d4040f4"),
    ])
    def test_committed_scenarios_log_bytes_are_pinned(self, name, digest):
        """The committed scenarios' logs keep their exact bytes, which are a
        fixed point of parse then write."""
        data = write_log(synth_mobility_trace(load_scenario(_SCENARIOS / f"{name}.scn")))
        assert hashlib.sha256(data).hexdigest() == digest
        assert write_log(parse_log(data)) == data

    def test_seed_changes_trace(self):
        rows_a = synth_mobility_trace(MobilityScenario("static", 30, static_dist_m=1000.0, seed=1))
        rows_b = synth_mobility_trace(MobilityScenario("static", 30, static_dist_m=1000.0, seed=2))
        assert rows_a != rows_b

    def test_one_row_per_second_and_parses_back(self):
        scenario = MobilityScenario("variable_speed", 120, seed=5)
        rows = synth_mobility_trace(scenario)
        assert len(rows) == 120
        assert [r.t_unix_s for r in rows] == list(
            range(scenario.t0_unix_s, scenario.t0_unix_s + 120)
        )
        # every emitted row passes log validation, and the canonical bytes
        # are a fixed point of parse/write
        canonical = write_log(rows)
        assert write_log(parse_log(canonical)) == canonical

    def test_reflection_keeps_positions_in_bounds(self):
        scenario = MobilityScenario(
            "constant_speed", 300, speed_kmh=120.0, track_min_m=540.0, track_max_m=700.0, seed=3)
        rows = synth_mobility_trace(scenario)
        dists = [r.dist_m for r in rows]
        assert min(dists) >= 540.0
        assert max(dists) <= 700.0
        assert max(dists) > 650.0  # it does traverse the track

    def test_path_length_matches_speed_integral(self):
        """Total distance walked equals the per-second speed sum, up to one
        step of discretization slack per track reflection."""
        scenario = MobilityScenario(
            "constant_speed", 240, speed_kmh=90.0, track_min_m=540.0, track_max_m=740.0, seed=3)
        rows = synth_mobility_trace(scenario)
        dists = np.array([r.dist_m for r in rows])
        step = 90.0 / 3.6
        walked = np.abs(np.diff(dists)).sum()
        nominal = step * (len(rows) - 1)
        bounces = nominal / (740.0 - 540.0) + 1
        assert walked <= nominal + 1e-9
        assert walked >= nominal - 2 * step * bounces

    def test_static_point_in_mask_zone_loses_everything(self):
        scenario = MobilityScenario(
            "static", 20, static_dist_m=925.0, seed=5,
            rate_map=RateDistanceMap(
                anchors=((540.0, 1e6), (2000.0, 0.0)),
                mask_zones=((900.0, 950.0),),
            ),
        )
        rows = synth_mobility_trace(scenario)
        assert all(r.tput_Bps == 0.0 for r in rows)
        assert all(r.jitter_ms == 0.0 for r in rows)
        assert all(r.total_pkts > 0 for r in rows)
        assert all(r.lost_pkts == r.total_pkts for r in rows)

    def test_speed_column_follows_profile(self):
        rows = synth_mobility_trace(MobilityScenario("variable_speed", 130, seed=4))
        assert rows[0].speed_kmh == 10.0
        assert rows[60].speed_kmh == 20.0
        assert rows[120].speed_kmh == 30.0

    @pytest.mark.parametrize("near,far", [(700.0, 1200.0), (800.0, 1570.0)])
    def test_farther_static_point_never_faster(self, near, far):
        """Monotone rate map: moving the static point out cannot raise the
        mean throughput (checked across 10 independent seeds)."""
        def mean_tput(dist, seed):
            rows = synth_mobility_trace(
                MobilityScenario("static", 30, static_dist_m=dist, seed=seed)
            )
            return np.mean([r.tput_Bps for r in rows])

        for seed in range(10):
            assert mean_tput(far, seed) <= mean_tput(near, seed)


def _reference_rate(rate_map, dist_m):
    """The scalar lookup that the array form ``_rates`` replaced, kept as
    its oracle: mask zones, beyond the last anchor, clamped up close, then a
    step or a linear lookup between the two anchors around the distance."""
    for lo, hi in rate_map.mask_zones:
        if lo <= dist_m <= hi:
            return 0.0
    anchors = rate_map.anchors
    if dist_m > anchors[-1][0]:
        return 0.0
    if dist_m <= anchors[0][0]:
        return anchors[0][1]
    i = bisect_right([a[0] for a in anchors], dist_m) - 1
    d0, r0 = anchors[i]
    if rate_map.interpolation == "step" or dist_m == d0:
        return r0
    d1, r1 = anchors[i + 1]
    return r0 + (r1 - r0) * (dist_m - d0) / (d1 - d0)


def _reference_speed(profile, t_s):
    """The per-second lookup that ``_per_second_kinematics``' one
    ``searchsorted`` replaced, kept as its oracle: the speed of the last step
    starting at or before ``t_s``."""
    return profile[bisect_right([step[0] for step in profile], t_s) - 1][1]


def _reference_trace(scenario):
    """The per-second loop the columnar synthesis replaced: speeds from one
    ``_reference_speed`` call per second and one row built per second. The
    oracle for ``synth_mobility_trace``."""
    d = scenario.duration_s
    if scenario.kind == "static":
        speeds = np.zeros(d)
        positions = np.full(d, float(scenario.static_dist_m))
    else:
        if scenario.kind == "constant_speed":
            profile = ((0.0, scenario.speed_kmh),)
        else:
            profile = scenario.speed_profile
        speeds = np.array([_reference_speed(profile, float(k)) for k in range(d)])
        path = np.concatenate(([0.0], np.cumsum(speeds / 3.6)))[:d]
        span = scenario.track_max_m - scenario.track_min_m
        phase = (scenario.start_dist_m - scenario.track_min_m + path) % (2.0 * span)
        positions = scenario.track_min_m + span - np.abs(span - phase)
    rates_pkts = np.array([_reference_rate(scenario.rate_map, p) for p in positions]
                          ) / scenario.packet_size_B

    rng = np.random.default_rng(scenario.seed)
    arrivals = _poisson_arrivals(rng, scenario.offered_Bps / scenario.packet_size_B, float(d))
    work = rng.exponential(1.0, size=arrivals.size)
    sec = np.floor(arrivals).astype(np.int64)
    outage = rates_pkts[sec] == 0.0
    breaks = np.concatenate(([0.0], np.cumsum(rates_pkts)))
    a_t = arrivals[~outage]
    a_sec = sec[~outage]
    a_w = breaks[a_sec] + rates_pkts[a_sec] * (a_t - a_sec)
    dep_w, dropped_q = fcfs_departures(a_w, work[~outage], scenario.buffer_pkts)
    dep_w_del = dep_w[~dropped_q]
    in_horizon = dep_w_del <= breaks[-1]
    dep_w_del = dep_w_del[in_horizon]
    seg = np.searchsorted(breaks, dep_w_del, side="left") - 1
    dep_t = seg + (dep_w_del - breaks[seg]) / rates_pkts[seg]
    sojourns = dep_t - a_t[~dropped_q][in_horizon]
    dep_sec = np.minimum(np.floor(dep_t).astype(np.int64), d - 1)

    total_per_sec = np.bincount(sec, minlength=d)
    lost_per_sec = (np.bincount(sec[outage], minlength=d)
                    + np.bincount(a_sec[dropped_q], minlength=d))
    delivered_per_sec = np.bincount(dep_sec, minlength=d)
    bounds = np.searchsorted(dep_sec, np.arange(d + 1))
    theta = math.radians(scenario.track_bearing_deg)
    coslat = math.cos(math.radians(scenario.base_lat_deg))
    rows = []
    for k in range(d):
        chunk = sojourns[bounds[k]:bounds[k + 1]]
        jitter_ms = float(np.abs(np.diff(chunk)).mean()) * 1000.0 if chunk.size >= 2 else 0.0
        dist = float(positions[k])
        rows.append(QosLogRow(
            t_unix_s=scenario.t0_unix_s + k,
            lat_deg=scenario.base_lat_deg + dist * math.cos(theta) / 111_320.0,
            lon_deg=scenario.base_lon_deg + dist * math.sin(theta) / (111_320.0 * coslat),
            integrity=1,
            dist_m=dist,
            speed_kmh=float(speeds[k]),
            tput_Bps=float(delivered_per_sec[k] * scenario.packet_size_B),
            jitter_ms=jitter_ms,
            lost_pkts=int(lost_per_sec[k]),
            total_pkts=int(total_per_sec[k]),
        ))
    return rows


@st.composite
def _speed_profiles(draw):
    """Time-ordered steps, the first at or before t = 0, at fractional
    starts as well as whole seconds."""
    start = draw(st.floats(-10.0, 0.0))
    steps = [(start, draw(st.floats(0.0, 150.0)))]
    for _ in range(draw(st.integers(0, 8))):
        start += draw(st.sampled_from([0.25, 1.0, 2.5, 7.0, 30.0]))
        steps.append((start, draw(st.floats(0.0, 150.0))))
    return tuple(steps)


@st.composite
def _rate_maps(draw):
    """Non-increasing anchors out to 2-2.5 km, now and then a zero-rate
    anchor, and up to two mask zones."""
    n = draw(st.integers(1, 4))
    distances = sorted(draw(st.lists(st.floats(0.0, 1999.0), min_size=n - 1,
                                     max_size=n - 1, unique=True)))
    distances.append(draw(st.floats(2000.0, 2500.0)))
    rates = [draw(st.floats(1e4, 2e6))]
    for _ in range(n - 1):
        rates.append(rates[-1] * draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])))
    zones = tuple((lo, lo + width) for lo, width in draw(st.lists(
        st.tuples(st.floats(0.0, 2000.0), st.floats(1.0, 300.0)), max_size=2)))
    return RateDistanceMap(
        anchors=tuple(zip(distances, rates)),
        interpolation=draw(st.sampled_from(["step", "linear"])),
        mask_zones=zones,
    )


@st.composite
def _scenarios(draw):
    track_min = draw(st.floats(1.0, 1500.0))
    track_max = track_min + draw(st.floats(1.0, 800.0))
    return MobilityScenario(
        kind=draw(st.sampled_from(["static", "constant_speed", "variable_speed"])),
        duration_s=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 2**32)),
        static_dist_m=draw(st.floats(0.0, 2200.0)),
        speed_kmh=draw(st.floats(0.0, 300.0)),
        speed_profile=draw(_speed_profiles()),
        track_min_m=track_min,
        track_max_m=track_max,
        start_dist_m=draw(st.floats(track_min, track_max)),
        rate_map=draw(_rate_maps()),
        # sparse seconds with 0 or 1 delivery, or a load that can overrun
        # the link and leave packets queued at the horizon
        offered_Bps=draw(st.one_of(st.floats(100.0, 3000.0), st.floats(2e5, 1.5e6))),
        packet_size_B=draw(st.integers(200, 2000)),
        buffer_pkts=draw(st.integers(1, 200)),
        base_lat_deg=draw(st.floats(-60.0, 60.0)),
        track_bearing_deg=draw(st.floats(0.0, 360.0)),
    )


def _assert_matches_reference(scenario):
    """Every field but jitter is exact; the per-second |dT| sums are taken
    in another order, so jitter agrees to rounding."""
    rows = synth_mobility_trace(scenario)
    expected = _reference_trace(scenario)
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        assert row == replace(ref, jitter_ms=row.jitter_ms)
        assert row.jitter_ms == pytest.approx(ref.jitter_ms, rel=1e-12, abs=0.0)
    return rows


def _whole_draw_arrivals(rng, rate, horizon):
    """``_poisson_arrivals`` as it was before it drew in place: the draw and
    its ``cumsum`` are two columns. The oracle of its bits."""
    expected = rate * horizon
    block = int(expected + 6.0 * math.sqrt(expected) + 16.0)
    times = np.cumsum(rng.exponential(1.0 / rate, size=block))
    while times[-1] < horizon:
        more = np.cumsum(rng.exponential(1.0 / rate, size=block)) + times[-1]
        times = np.concatenate((times, more))
    return times[:np.searchsorted(times, horizon)]


def _whole_array_trace(scenario):
    """The synthesis over whole arrays that the chunk loop replaced: every
    packet's work, work-coordinate arrival and departure at once, and one
    queue call. The oracle of ``synth_mobility_trace``."""
    d = scenario.duration_s
    speeds, positions = _per_second_kinematics(scenario)
    rates_pkts = _rates(scenario.rate_map, positions) / scenario.packet_size_B
    rng = np.random.default_rng(scenario.seed)
    lam = scenario.offered_Bps / scenario.packet_size_B
    arrivals = _whole_draw_arrivals(rng, lam, float(d))
    work = rng.exponential(1.0, size=arrivals.size)

    seconds = np.arange(d + 1, dtype=float)
    bounds = arrivals.searchsorted(seconds)
    total_per_sec = np.diff(bounds)
    up = rates_pkts != 0.0
    live_per_sec = total_per_sec
    if not up.all():
        live = np.repeat(up, total_per_sec)
        arrivals, work = np.compress(live, arrivals), np.compress(live, work)
        live_per_sec = np.where(up, total_per_sec, 0)
        bounds = np.concatenate(([0], np.cumsum(live_per_sec)))
    breaks = np.concatenate(([0.0], np.cumsum(rates_pkts)))
    a_w = arrivals - np.repeat(seconds[:-1], live_per_sec)
    a_w *= np.repeat(rates_pkts, live_per_sec)
    a_w += np.repeat(breaks[:-1], live_per_sec)
    departures, dropped = fcfs_departures(a_w, work, scenario.buffer_pkts)

    drop_counts = np.flatnonzero(dropped).searchsorted(bounds)
    lost_per_sec = total_per_sec - live_per_sec + np.diff(drop_counts)
    dep_t = np.compress(~dropped, departures)
    sojourns = np.compress(~dropped, arrivals)
    h = dep_t.searchsorted(breaks[-1], side="right")
    dep_t, sojourns = dep_t[:h], sojourns[:h]
    segs = np.arange(-1, d)
    per_seg = np.diff(dep_t.searchsorted(breaks, side="right"), prepend=0)
    dep_t -= np.repeat(breaks[segs], per_seg)
    dep_t /= np.repeat(rates_pkts[segs], per_seg)
    dep_t += np.repeat(segs.astype(float), per_seg)
    np.subtract(dep_t, sojourns, out=sojourns)
    dep_bounds = np.append(dep_t.searchsorted(seconds[:-1]), h)
    delivered_per_sec = np.diff(dep_bounds)
    gaps = _abs_differences(sojourns, out=sojourns[:-1])
    cuts = dep_bounds[1:-1]
    gaps[cuts[(cuts > 0) & (cuts < h)] - 1] = 0.0
    dep_sec = np.repeat(np.arange(d), delivered_per_sec)
    gap_sums = np.bincount(dep_sec[1:], weights=gaps, minlength=d)
    jitter_ms = gap_sums / np.maximum(delivered_per_sec - 1, 1) * 1000.0

    theta = math.radians(scenario.track_bearing_deg)
    coslat = math.cos(math.radians(scenario.base_lat_deg))
    lat = scenario.base_lat_deg + positions * math.cos(theta) / 111_320.0
    lon = scenario.base_lon_deg + positions * math.sin(theta) / (111_320.0 * coslat)
    return [QosLogRow(*row) for row in zip(
        range(scenario.t0_unix_s, scenario.t0_unix_s + d), lat.tolist(), lon.tolist(),
        [1] * d, positions.tolist(), speeds.tolist(),
        (delivered_per_sec * scenario.packet_size_B).astype(float).tolist(),
        jitter_ms.tolist(), lost_per_sec.tolist(), total_per_sec.tolist())]


def _arrivals(scenario):
    return _whole_draw_arrivals(np.random.default_rng(scenario.seed),
                                scenario.offered_Bps / scenario.packet_size_B,
                                float(scenario.duration_s))


#: Lane constants (see ``test_sim._LANE_CONSTANTS``) small enough that a
#: chunk below the block path, one probe and one group of lanes and the
#: packets after its last whole lane, is at most 55 packets.
_SMALL_LANES = {"_LANE_PACKETS": 8, "_LANE_WARMUP": 4, "_LANE_GROUP": 5, "_LANE_PROBE": 2,
                "_LANE_CHUNK": 5, "_LANE_MIN_PACKETS": 16}


def _assert_chunks_match_whole_arrays(scenario, chunk, lanes=None):
    """The chunked synthesis, at ``sim._CHUNK`` = ``chunk`` and the given
    lane constants, against the whole-array oracle (at the real constants):
    the same ``write_log`` bytes, and the same rows bit for bit, which the
    log's 9 significant digits would not show."""
    expected = _whole_array_trace(scenario)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_CHUNK", chunk)
        for name, value in (lanes or {}).items():
            mp.setattr(sim, name, value)
        rows = synth_mobility_trace(scenario)
    assert rows == expected
    assert write_log(rows) == write_log(expected)
    return rows


class TestChunkedSynthesis:
    """One pass over chunks of arrivals against one pass over whole arrays,
    byte for byte: the work drawn chunk by chunk, the queue resumed from its
    seam state, and each second's |dT| sum seeded with its running value."""

    @pytest.mark.parametrize("name", ["static_far", "constant_50kmh", "variable_speed"])
    def test_arrivals_are_bit_identical_to_one_whole_draw(self, name):
        """The arrivals drawn and summed in place keep their bits, and leave
        the generator where the work stream starts."""
        scenario = load_scenario(_SCENARIOS / f"{name}.scn")
        rate = scenario.offered_Bps / scenario.packet_size_B
        for horizon in (float(scenario.duration_s), 0.5, 1e-9):
            rng, oracle_rng = (np.random.default_rng(scenario.seed) for _ in range(2))
            got = _poisson_arrivals(rng, rate, horizon)
            assert np.array_equal(got, _whole_draw_arrivals(oracle_rng, rate, horizon))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_arrivals_past_the_first_block(self):
        """Draws a quarter of a real generator's leave the first block, 176
        arrivals for an expected 100, short of the horizon; the later
        blocks continue from its last arrival, as the oracle's do."""
        class Quartered:
            def __init__(self):
                self.rng, self.blocks = np.random.default_rng(11), 0

            def standard_exponential(self, out):
                self.rng.standard_exponential(out=out)
                out *= 0.25

            def exponential(self, scale, size):
                self.blocks += 1
                assert self.blocks < 10, "the arrivals never reach the horizon"
                return self.rng.exponential(scale, size) * 0.25

        got, oracle = Quartered(), Quartered()
        arrivals = _poisson_arrivals(got, 2.0, 50.0)
        assert got.blocks >= 2 and arrivals.size > 176
        assert np.array_equal(arrivals, _whole_draw_arrivals(oracle, 2.0, 50.0))

    @pytest.mark.parametrize("name", ["static_far", "constant_50kmh", "variable_speed"])
    @pytest.mark.parametrize("chunk", [1_000, 4_096, sim._CHUNK])
    def test_committed_scenarios(self, name, chunk):
        _assert_chunks_match_whole_arrays(load_scenario(_SCENARIOS / f"{name}.scn"), chunk)

    @pytest.mark.parametrize("chunk", [1, 7, 1_000])
    @settings(max_examples=40, deadline=None)
    @given(scenario=_scenarios(), lanes=st.sampled_from([None, _SMALL_LANES]))
    def test_any_chunk_matches_whole_arrays(self, chunk, scenario, lanes):
        # Keep about 3,000 arrivals a chunk of one: each chunk costs a few
        # dozen numpy calls.
        rate = scenario.offered_Bps / scenario.packet_size_B
        if chunk < 1_000 and rate * scenario.duration_s > 3_000 * chunk:
            scenario = replace(scenario, duration_s=max(1, int(3_000 * chunk / rate)))
        _assert_chunks_match_whole_arrays(scenario, chunk, lanes)

    @pytest.mark.parametrize("buffer_pkts, lanes", [(1, _SMALL_LANES), (10, _SMALL_LANES),
                                                    (100, None)])
    def test_outages_straddle_chunk_edges(self, buffer_pkts, lanes):
        """100 m/s from 500 m under 1,200 packets/s: each zone silences one
        or two seconds, each of more arrivals than a chunk of 1,000 (and
        than a group of small lanes), so chunk edges fall inside outages."""
        zones = ((790.0, 810.0), (1000.0, 1100.0), (1390.0, 1450.0))
        scenario = MobilityScenario(
            "constant_speed", 10, speed_kmh=360.0, seed=11, track_min_m=500.0, track_max_m=1500.0,
            rate_map=replace(default_rate_map(), mask_zones=zones), buffer_pkts=buffer_pkts)
        chunk = 1_000
        rows = _assert_chunks_match_whole_arrays(scenario, chunk, lanes)
        bounds = np.cumsum([0] + [r.total_pkts for r in rows])
        dead = [k for k, r in enumerate(rows) if any(lo <= r.dist_m <= hi for lo, hi in zones)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_CHUNK", chunk)
            for name, value in (lanes or {}).items():
                mp.setattr(sim, name, value)
            size = sim._fcfs_seam(buffer_pkts, int(bounds[-1]))[1]
        assert dead and all(bounds[k] // size < (bounds[k + 1] - 1) // size for k in dead)

    @pytest.mark.parametrize("buffer_pkts", [10, 100])
    def test_arrival_count_a_multiple_of_the_chunk(self, buffer_pkts):
        """24,035 arrivals in chunks of 1,045: on the block path a chunk of
        ``sim._CHUNK``, below it a probe of 2 lanes of 4 packets, a group of
        5 lanes of 173, and the 172 packets after its last whole lane."""
        scenario = MobilityScenario("variable_speed", 20, seed=9, buffer_pkts=buffer_pkts)
        n, chunk = _arrivals(scenario).size, 1_045
        lanes = {**_SMALL_LANES, "_LANE_PACKETS": 173}
        with pytest.MonkeyPatch.context() as mp:
            for name, value in {**lanes, "_CHUNK": chunk}.items():
                mp.setattr(sim, name, value)
            assert n % chunk == 0 and sim._fcfs_seam(buffer_pkts, n)[1] == chunk
        _assert_chunks_match_whole_arrays(scenario, chunk, lanes)

    @pytest.mark.parametrize("buffer_pkts, chunk, lanes",
                             [(10, 1, _SMALL_LANES), (100, 7, None), (100, 1_000, None)])
    def test_departures_past_the_horizon(self, buffer_pkts, chunk, lanes):
        """Overload to the end: the deliveries stop at the horizon inside a
        chunk, and the chunks after it deliver nothing by the horizon but
        still lose packets (at K = 100 and chunks of 7, the packets queued
        at the horizon span several chunks)."""
        scenario = MobilityScenario("static", 10, static_dist_m=1570.0, seed=3,
                                    offered_Bps=1_500_000.0, buffer_pkts=buffer_pkts)
        rows = _assert_chunks_match_whole_arrays(scenario, chunk, lanes)
        delivered = sum(r.tput_Bps for r in rows) / scenario.packet_size_B
        queued = sum(r.total_pkts - r.lost_pkts for r in rows) - delivered
        assert 0 < queued <= buffer_pkts and rows[-1].lost_pkts > 0
        if chunk == 7:
            assert queued > 2 * chunk

    @pytest.mark.parametrize("chunk", [7, 1_000])
    def test_buffer_beyond_the_stream(self, chunk):
        """A buffer of 10**12 packets in overload: nothing is lost in the
        queue, and the seam state is sized by the stream, not by K."""
        scenario = MobilityScenario("static", 10, static_dist_m=1570.0, seed=3,
                                    offered_Bps=1_500_000.0, buffer_pkts=10**12)
        rows = _assert_chunks_match_whole_arrays(scenario, chunk)
        assert sum(r.lost_pkts for r in rows) == 0
        assert sum(r.tput_Bps for r in rows) / scenario.packet_size_B < _arrivals(scenario).size


def _peak_traced(scenario):
    tracemalloc.start()
    try:
        synth_mobility_trace(scenario)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestColumnarSynthesis:
    @settings(max_examples=80, deadline=None)
    @given(scenario=_scenarios())
    def test_columns_match_the_per_second_loop(self, scenario):
        _assert_matches_reference(scenario)

    def test_seconds_with_zero_or_one_delivery(self):
        scenario = MobilityScenario("static", 30, static_dist_m=1570.0, seed=3, offered_Bps=1000.0)
        rows = _assert_matches_reference(scenario)
        assert {0.0, 1000.0} <= {r.tput_Bps for r in rows}
        assert all(r.jitter_ms == 0.0 for r in rows if r.tput_Bps <= 1000.0)

    def test_departures_clipped_at_the_horizon(self):
        scenario = MobilityScenario("static", 30, static_dist_m=1570.0, seed=3,
                                    offered_Bps=1_500_000.0)
        rows = _assert_matches_reference(scenario)
        delivered = sum(r.tput_Bps for r in rows) / scenario.packet_size_B
        assert delivered < sum(r.total_pkts - r.lost_pkts for r in rows)

    # 100 m/s from 500 m: second k is at 500 + 100k m, so each zone below
    # silences one or two seconds of the ten.
    @pytest.mark.parametrize("zones", [
        pytest.param(((500.0, 550.0),), id="at the start"),
        pytest.param(((790.0, 810.0), (1000.0, 1100.0)), id="in the middle"),
        pytest.param(((1390.0, 1450.0),), id="at the end"),
        pytest.param(((500.0, 550.0), (790.0, 810.0), (1390.0, 1450.0)), id="all three"),
        pytest.param(((0.0, 2000.0),), id="all outage"),
    ])
    @pytest.mark.parametrize("buffer_pkts", [1, 10, 100])
    def test_outages(self, zones, buffer_pkts):
        scenario = MobilityScenario(
            "constant_speed", 10, speed_kmh=360.0, seed=11, track_min_m=500.0, track_max_m=1500.0,
            rate_map=replace(default_rate_map(), mask_zones=zones), buffer_pkts=buffer_pkts)
        rows = _assert_matches_reference(scenario)
        dead = [r for r in rows if any(lo <= r.dist_m <= hi for lo, hi in zones)]
        assert dead and all(r.lost_pkts == r.total_pkts > 0 for r in dead)

    @pytest.mark.parametrize("buffer_pkts", [1, 10, 100])
    def test_static_outage_beyond_coverage(self, buffer_pkts):
        rows = _assert_matches_reference(
            MobilityScenario("static", 20, static_dist_m=2100.0, seed=4, buffer_pkts=buffer_pkts))
        assert all(r.lost_pkts == r.total_pkts > 0 and r.tput_Bps == 0.0 for r in rows)

    @pytest.mark.parametrize("buffer_pkts", [1, 10, 100])
    @pytest.mark.parametrize("zones", [(), ((700.0, 900.0),)])
    def test_seconds_with_no_arrival(self, buffer_pkts, zones):
        scenario = MobilityScenario(
            "constant_speed", 120, speed_kmh=50.0, seed=8, offered_Bps=400.0,
            buffer_pkts=buffer_pkts,
            rate_map=replace(default_rate_map(), mask_zones=zones))
        rows = _assert_matches_reference(scenario)
        assert any(r.total_pkts == 0 for r in rows)
        assert any(r.total_pkts > 0 for r in rows)

    def test_memory_per_arrival(self):
        """Synthesis of variable_speed.scn peaks at 9.4 traced bytes an
        arrival: the arrivals' column and one chunk's arrays. Over whole
        arrays, about four float columns at once, it peaked at 33.1, and
        with per-packet seconds, gathers and selections at 86.1."""
        scenario = load_scenario(_SCENARIOS / "variable_speed.scn")
        n = _arrivals(scenario).size
        assert _peak_traced(scenario) <= 10.4 * n

    def test_memory_below_the_block_path(self):
        """At K = 20 the 1.08M arrivals run in two chunks of 540,262, equal
        pieces of at most one probe and one group of lanes (1,057,791
        packets): the peak is the arrivals plus about 34.1 bytes a packet of
        one chunk, 25.0 bytes an arrival in all. Over whole arrays it was
        35.0."""
        scenario = replace(load_scenario(_SCENARIOS / "variable_speed.scn"), buffer_pkts=20)
        n = _arrivals(scenario).size
        chunk = sim._fcfs_seam(20, n)[1]
        assert chunk < n <= 2 * chunk
        assert _peak_traced(scenario) <= 8.1 * n + 37.5 * chunk

    @settings(max_examples=100, deadline=None)
    @given(profile=_speed_profiles(), duration_s=st.integers(1, 120))
    def test_speed_lookup_matches_speed_at(self, profile, duration_s):
        speeds, _ = _per_second_kinematics(
            MobilityScenario("variable_speed", duration_s, speed_profile=profile))
        assert speeds.tolist() == [_reference_speed(profile, k) for k in range(duration_s)]
