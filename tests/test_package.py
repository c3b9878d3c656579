"""The package namespace: what ``from qoskit import *`` binds."""

from types import ModuleType

import pytest

import qoskit
import qoskit.errors


_PUBLIC_NAMES = (
    "DEFAULT_SEED", "DEFAULT_VARIANT", "DomainError", "InfeasibleBudgetError",
    "InversionResult", "JitterEstimate", "LinkParams", "MobilityScenario", "PacketLog",
    "QosLogRow", "QoskitError", "RateDistanceMap", "RunSummary", "SeriesStats", "SimConfig",
    "TraceParseError", "VARIANTS", "analytical_jitter",
    "child_seed", "correlate", "default_rate_map", "default_speed_profile",
    "fcfs_departures", "invert_capacity_for_jitter", "invert_load_for_jitter",
    "ipdv_series", "load_scenario", "loss_from_throughput", "mean_abs_jitter",
    "parse_log", "parse_scenario", "rate_at_distance", "read_packet_trace",
    "simulate_run", "simulate_sweep", "synth_mobility_trace", "write_log",
    "write_packet_trace",
)


def test_public_surface_is_pinned():
    """A name added to or dropped from the namespace changes this list."""
    assert tuple(qoskit.__all__) == _PUBLIC_NAMES


def test_every_error_class_is_exported():
    """``LinkParams(1.0, 0.0)`` raises ``DomainError``; every error the
    package raises is reachable from ``qoskit``, and there are four."""
    with pytest.raises(qoskit.DomainError, match="arrival rate is zero"):
        qoskit.LinkParams(1.0, 0.0)
    exported = {getattr(qoskit, name) for name in qoskit.__all__}
    errors = [value for value in vars(qoskit.errors).values()
              if isinstance(value, type) and issubclass(value, qoskit.QoskitError)]
    assert set(errors) <= exported
    assert sorted(error.__name__ for error in errors) == [
        "DomainError", "InfeasibleBudgetError", "QoskitError", "TraceParseError"]


def test_all_names_resolve_and_hold_no_module():
    for name in qoskit.__all__:
        assert not isinstance(getattr(qoskit, name), ModuleType), name
