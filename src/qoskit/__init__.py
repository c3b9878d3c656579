"""qoskit: delay-jitter modeling, FCFS queue simulation, and QoS trace analysis.

Four layers, importable separately:

- ``qoskit.model``: the closed-form jitter prediction for one loaded FCFS
  link, the loss/throughput identity, and numeric inversion for planning.
- ``qoskit.sim``: a seeded discrete-event FCFS queue (unbounded or finite
  buffer) used both as the model's ground-truth oracle and as a controlled
  generator of QoS time series.
- ``qoskit.metrics``: delay-variation and correlation estimators shared by
  simulation output and field logs.
- ``qoskit.traces``: the canonical per-second log format and a synthetic
  mobility-trace generator driving the queue through a distance-to-rate map.

The ``qoskit`` command line ties them together; see ``qoskit --help``.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import DomainError, InfeasibleBudgetError, QoskitError, TraceParseError
from .model import (
    DEFAULT_VARIANT,
    VARIANTS,
    InversionResult,
    LinkParams,
    analytical_jitter,
    invert_capacity_for_jitter,
    invert_load_for_jitter,
    loss_from_throughput,
)
from .sim import (
    DEFAULT_SEED,
    PacketLog,
    RunSummary,
    SimConfig,
    child_seed,
    fcfs_departures,
    read_packet_trace,
    simulate_run,
    simulate_sweep,
    write_packet_trace,
)
from .metrics import (
    JitterEstimate,
    SeriesStats,
    correlate,
    ipdv_series,
    mean_abs_jitter,
)
from .traces import (
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
)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
