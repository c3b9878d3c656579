"""The argument contract: every bad value is a DomainError, every number
type the contract names is accepted."""

import math

import numpy as np
import pytest

from qoskit.errors import DomainError
from qoskit.metrics import mean_abs_jitter
from qoskit.model import LinkParams, invert_load_for_jitter, loss_from_throughput
from qoskit.sim import SimConfig, child_seed, simulate_run, simulate_sweep
from qoskit.traces import MobilityScenario

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
    "speed profile speed nan": lambda: MobilityScenario.variable_speed(
        10, speed_profile=((0.0, math.nan),)),
    # child_seed masked both to 64 bits: -1 read as 2**64 - 1, 2**64 as 0.
    "child_seed base -1": lambda: child_seed(-1, 0),
    "child_seed index -1": lambda: child_seed(5, -1),
    "child_seed base 2**64": lambda: child_seed(2**64, 0),
    # numpy seeds any non-negative integer; the scenario now takes SimConfig's range.
    "scenario seed 2**64": lambda: MobilityScenario.static(100.0, 5, seed=2**64),
}


@pytest.mark.parametrize("call", list(_BAD_CALLS.values()), ids=list(_BAD_CALLS))
def test_bad_value_is_a_domain_error(call):
    with pytest.raises(DomainError, match=r" must be .*, got "):
        call()


def test_numpy_scalars_are_numbers():
    """A numpy integer seed was rejected while a numpy integer buffer was
    accepted; a float32 rate was rejected while a float64 one passed."""
    config = SimConfig(np.float32(1000.0), 500.0, buffer_capacity=np.int64(5),
                       horizon_packets=np.int64(50), seed=np.int64(3))
    assert config.seed == 3 and type(config.seed) is int
    _, summary = simulate_run(config)
    assert summary.seed == 3
