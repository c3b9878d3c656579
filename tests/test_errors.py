"""The argument contract: every bad value is a DomainError, every number
type the contract names is accepted."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qoskit.errors import DomainError, TraceParseError
from qoskit.metrics import correlate, mean_abs_jitter
from qoskit.model import LinkParams, invert_load_for_jitter, loss_from_throughput
from qoskit.sim import SimConfig, child_seed, fcfs_departures, simulate_run, simulate_sweep
from qoskit.traces import (LOG_HEADER, MobilityScenario, RateDistanceMap, parse_log,
                           parse_scenario, write_log)

_BASE = SimConfig(1000.0, 500.0, horizon_packets=10)

# Each call escaped as another exception type, or accepted junk, before the
# checks were shared.
_BAD_CALLS = {
    "tagged fraction a string": lambda: SimConfig(1.0, 0.5, tagged_fraction="x"),
    "warmup fraction None": lambda: SimConfig(1.0, 0.5, warmup_fraction=None),
    "capacity a string": lambda: invert_load_for_jitter("a", 1.0),
    "capacity None": lambda: LinkParams.from_rho(None, 0.5),
    "n_boot 0": lambda: mean_abs_jitter([1, 2, 3], n_boot=0),
    "n_boot -1": lambda: mean_abs_jitter([1, 2, 3], n_boot=-1),
    "n_boot 1.5": lambda: mean_abs_jitter([1, 2, 3], n_boot=1.5),
    "arrival rate nan": lambda: SimConfig(1.0, math.nan),
    "capacity inf": lambda: LinkParams.from_rho(math.inf, 0.5),
    "capacity a bool": lambda: SimConfig(True, 0.5),
    "arrival rate a bool": lambda: LinkParams(2.0, True),
    "seeds_per_point a bool": lambda: simulate_sweep(_BASE, [0.5], seeds_per_point=True),
    "horizon fractional": lambda: SimConfig(1.0, 0.5, horizon_packets=1.5),
    "horizon nan": lambda: SimConfig(1.0, 0.5, horizon_packets=math.nan),
    "buffer capacity fractional": lambda: SimConfig(1.0, 0.5, buffer_capacity=2.5),
    "seed fractional": lambda: SimConfig(1.0, 0.5, seed=1.5),
    "seed negative": lambda: SimConfig(1.0, 0.5, seed=-1),
    "seed 2**64": lambda: SimConfig(1.0, 0.5, seed=2**64),
    "warmup fraction inf": lambda: SimConfig(1.0, 0.5, warmup_fraction=math.inf),
    "load nan": lambda: LinkParams.from_rho(1.0, math.nan),
    "arrival rate inf": lambda: LinkParams(1.0, math.inf),
    "jitter budget nan": lambda: invert_load_for_jitter(1000.0, math.nan),
    "throughput nan": lambda: loss_from_throughput(1.0, math.nan),
    "speed profile speed nan": lambda: MobilityScenario(
        "variable_speed", 10, speed_profile=((0.0, math.nan),)),
    # child_seed masked both to 64 bits: -1 read as 2**64 - 1, 2**64 as 0.
    "child_seed base -1": lambda: child_seed(-1, 0),
    "child_seed index -1": lambda: child_seed(5, -1),
    "child_seed base 2**64": lambda: child_seed(2**64, 0),
    # numpy seeds any non-negative integer; the scenario now takes SimConfig's range.
    "scenario seed 2**64": lambda: MobilityScenario("static", 5, static_dist_m=100.0, seed=2**64),
}


@pytest.mark.parametrize("call", list(_BAD_CALLS.values()), ids=list(_BAD_CALLS))
def test_bad_value_is_a_domain_error(call):
    with pytest.raises(DomainError, match=r" must be .*, got "):
        call()


_SCENARIO = "kind = static\nduration_s = 5\n"

# Two packets at 9e307 per second: at seed 1729 they span less than
# 1 / 1.8e308 s, and so does a sweep's first run from base seed 6.
_RATES_PAST = SimConfig(1e308, 9e307, horizon_packets=2, warmup_fraction=0.0)

# Checks with a message of their own, each reached by no other test.
_REJECTED_CALLS = {
    "departures of unequal shapes": (
        lambda: fcfs_departures([0.0, 1.0], [1.0]), DomainError,
        "arrival and service times must be 1-D arrays of equal length"),
    "sweep varying neither": (
        lambda: simulate_sweep(_BASE, [0.5], vary="x"), DomainError,
        "vary must be 'arrival' or 'capacity', got 'x'"),
    "correlation of 2-D series": (
        lambda: correlate([[1.0, 2.0, 3.0]], [[1.0, 2.0, 4.0]]), DomainError,
        "series must be one-dimensional"),
    "correlation with a NaN": (
        lambda: correlate([1.0, 2.0, math.nan], [1.0, 2.0, 3.0]), DomainError,
        "series must be finite"),
    "bootstrap of 2**64 resamples": (
        lambda: mean_abs_jitter([1.0, 2.0, 3.0], n_boot=2 ** 64), DomainError,
        "n_boot must be at most 1,000,000, got 18446744073709551616"),
    "bootstrap of 10**12 resamples": (
        lambda: mean_abs_jitter([1.0, 2.0, 3.0], n_boot=10 ** 12), DomainError,
        "n_boot must be at most 1,000,000, got 1000000000000"),
    "jitter of a 2-D series": (
        lambda: mean_abs_jitter([[1.0, 2.0, 3.0]]), DomainError,
        "a delay series must be one-dimensional"),
    "log of a non-row": (
        lambda: write_log([1]), DomainError, "rows[0] is not a QosLogRow"),
    "log of no bytes": (
        lambda: parse_log(b""), TraceParseError,
        "line 1: empty file, expected the canonical header"),
    "log row one field short": (
        lambda: parse_log(LOG_HEADER + "\n100,0,0,1,1000,50,230000,4.5,1\n"), TraceParseError,
        "line 2: expected 10 fields, got 9"),
    "rate map without anchors": (
        lambda: RateDistanceMap(anchors=()), DomainError,
        "a rate map needs at least one anchor"),
    "scenario interpolation cubic": (
        lambda: parse_scenario(_SCENARIO + "rate_interpolation = cubic\n"), DomainError,
        "interpolation must be 'step' or 'linear', got 'cubic'"),
    "scenario kind foo": (
        lambda: parse_scenario("kind = foo\nduration_s = 5\n"), DomainError,
        "kind must be one of ('static', 'constant_speed', 'variable_speed'), got 'foo'"),
    "scenario line without '='": (
        lambda: parse_scenario("kind static\n"), DomainError,
        "scenario line 1: expected 'key = value', got 'kind static'"),
    "scenario anchors without a pair": (
        lambda: parse_scenario(_SCENARIO + "rate_anchors = ,\n"), DomainError,
        "scenario line 3: rate_anchors must contain at least one 'a:b' pair"),
    "scenario speed profile item without ':'": (
        lambda: parse_scenario("kind = variable_speed\nduration_s = 5\nspeed_profile = 0:10, x\n"),
        DomainError, "scenario line 3: cannot parse speed_profile entry 'x', expected 'a:b'"),
    "scenario mask zone without its end": (
        lambda: parse_scenario(_SCENARIO + "mask_zones = 1-2; 5-\n"), DomainError,
        "scenario line 3: cannot parse mask zone '5-', expected 'lo-hi'"),
    "run whose rates pass the largest double": (
        lambda: simulate_run(_RATES_PAST), DomainError,
        "the measured packet rates over 2 packets pass the largest double"),
    "sweep whose first run's rates pass the largest double": (
        lambda: simulate_sweep(replace(_RATES_PAST, seed=6), [0.9]), DomainError,
        "rho=0.9 (grid index 0, seed index 0): the measured packet rates over 2 packets "
        "pass the largest double"),
}


@pytest.mark.parametrize("call, kind, message", list(_REJECTED_CALLS.values()),
                         ids=list(_REJECTED_CALLS))
def test_rejection_names_its_cause(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def test_numpy_scalars_are_numbers():
    """A numpy integer seed was rejected while a numpy integer buffer was
    accepted; a float32 rate was rejected while a float64 one passed."""
    config = SimConfig(np.float32(1000.0), 500.0, buffer_capacity=np.int64(5),
                       horizon_packets=np.int64(50), seed=np.int64(3))
    assert config.seed == 3 and type(config.seed) is int
    _, summary = simulate_run(config)
    assert summary.config.seed == 3
