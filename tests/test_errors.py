"""The argument contract: every bad value is a DomainError, every number
type the contract names is accepted."""

import math

import numpy as np
import pytest

from qoskit.errors import DomainError
from qoskit.metrics import loss_rate, mean_abs_jitter, windowed_throughput
from qoskit.model import LinkParams, invert_load_for_jitter, offered_load
from qoskit.sim import SimConfig, simulate_run, simulate_sweep

_BASE = SimConfig(1000.0, 500.0, horizon_packets=10)

# Each call escaped as another exception type, or accepted junk, before the
# checks were shared.
_BAD_CALLS = {
    "tagged fraction a string": lambda: SimConfig(1.0, 0.5, tagged_fraction="x"),
    "warmup fraction None": lambda: SimConfig(1.0, 0.5, warmup_fraction=None),
    "capacity a string": lambda: invert_load_for_jitter("a", 1.0),
    "capacity None": lambda: offered_load(None, 1.0),
    "n_boot 0": lambda: mean_abs_jitter([1, 2, 3], n_boot=0),
    "n_boot -1": lambda: mean_abs_jitter([1, 2, 3], n_boot=-1),
    "n_boot 1.5": lambda: mean_abs_jitter([1, 2, 3], n_boot=1.5),
    "t_end nan": lambda: windowed_throughput([(0, 1)], 1.0, t_end=math.nan),
    "t_end inf": lambda: windowed_throughput([(0, 1)], 1.0, t_end=math.inf),
    "t_start nan": lambda: windowed_throughput([(0, 1)], 1.0, t_start=math.nan),
    "window count 1e300": lambda: windowed_throughput([(0, 1)], 1.0, t_end=1e300),
    "window count overflows": lambda: windowed_throughput([], 1.0, t_start=-1e308,
                                                          t_end=1e308),
    "window count over the cap": lambda: windowed_throughput([(0, 1)], 1.0,
                                                             t_end=10_000_001.0),
    "window count to a late delivery": lambda: windowed_throughput([(1e300, 1)], 1.0),
    "capacity a bool": lambda: SimConfig(True, 0.5),
    "arrival rate a bool": lambda: LinkParams(2.0, True),
    "seeds_per_point a bool": lambda: simulate_sweep(_BASE, [0.5], seeds_per_point=True),
    "delivered count fractional": lambda: loss_rate(2, 1.5),
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
