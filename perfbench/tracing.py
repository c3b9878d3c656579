"""Spans and counters recorded around qoskit's public functions, from outside.

``install(tracer)`` wraps each function in ``TARGETS`` and rebinds the
wrapper at every attribute of every loaded ``qoskit`` module that holds the
original object. ``fcfs_departures`` is bound in both ``qoskit.sim`` and
``qoskit.traces``, and ``simulate_run`` / ``run_validation`` are also bound
in ``qoskit.cli``, so wrapping only the defining module would miss calls.
Nothing under ``src/`` is changed.

A span is ``[span_id, op_id, parent_id, name, start_ns, end_ns, counts]``.
``op_id`` is the workload operation (one CLI command or library call made by
the benchmark) the span belongs to; the parent is the innermost span open
when it started. Counts are recorded on the span that produced them. Spans
stay in memory until ``layer_metrics`` reduces them at the end of the pass.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time

_PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = 0
        self._stack: list[int] = []
        self.peak_alloc_mb = 0.0

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), self.op_id, parent, name, time.perf_counter_ns(), 0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack.pop()

    def peak_alloc(self, fn):
        """Wrap fn to record how far a call raised the process's resident
        high-water mark above its resident size at entry, in MiB. Only calls
        that raise the mark are measured; in a fresh process the first large
        simulate_run does."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss0 = _rss_kib()
            high0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result = fn(*args, **kwargs)
            high1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if high1 > high0:
                self.peak_alloc_mb = max(self.peak_alloc_mb, (high1 - rss0) / 1024.0)
            return result

        return wrapper


def _rss_kib() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE_KIB


def _traced(tracer: Tracer, fn, name, counts=None):
    """Wrap fn in a span; ``name`` may be a function of the call's arguments,
    ``counts`` a function of (result, args, kwargs) returning a dict."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name(*args, **kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counts is not None:
            span[6] = counts(result, args, kwargs)
        return result

    return wrapper


def _fcfs_name(arrival_times, service_times, buffer_capacity=None):
    return "sim.fcfs_unbounded" if buffer_capacity is None else "sim.fcfs_finite"


def _fcfs_counts(result, args, kwargs):
    departures, dropped = result
    return {"pkts": int(departures.size), "drops": int(dropped.sum())}


def _simulate_run_counts(result, args, kwargs):
    return {"jitter_pairs": result[1].n_jitter_samples}


def _file_bytes(result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


#: (defining module, attribute, span name, counts) for every wrapped function;
#: ``counts`` of None records a span only.
TARGETS = (
    ("qoskit.sim", "fcfs_departures", _fcfs_name, _fcfs_counts),
    ("qoskit.sim", "simulate_run", "sim.simulate_run", _simulate_run_counts),
    ("qoskit.sim", "write_packet_trace", "sim.write_packet_trace", _file_bytes),
    ("qoskit.sim", "read_packet_trace", "sim.read_packet_trace", None),
    ("qoskit.metrics", "mean_abs_jitter", "metrics.mean_abs_jitter",
     lambda r, a, k: {"samples": r.n_samples}),
    ("qoskit.metrics", "correlate", "metrics.correlate", None),
    ("qoskit.traces", "synth_mobility_trace", "traces.synth_mobility_trace",
     lambda r, a, k: {"rows": len(r)}),
    ("qoskit.traces", "write_log", "traces.write_log",
     lambda r, a, k: {"bytes": len(r)}),
    ("qoskit.traces", "parse_log", "traces.parse_log", None),
    ("qoskit.reporting", "analyze_rows", "reporting.analyze_rows", None),
    ("qoskit.reporting", "run_validation", "reporting.run_validation", None),
    ("qoskit.reporting", "write_validation_report", "reporting.write", None),
    ("qoskit.reporting", "write_xy", "reporting.write", None),
    ("qoskit.model", "analytical_jitter", "model.analytical_jitter", None),
    ("qoskit.model", "invert_load_for_jitter", "model.invert", None),
    ("qoskit.model", "invert_capacity_for_jitter", "model.invert", None),
    ("qoskit.cli", "main", "cli.main", None),
)


def install(tracer: Tracer) -> None:
    """Rebind every TARGETS function at each qoskit module attribute holding it."""
    modules = [m for n, m in sys.modules.items()
               if (n == "qoskit" or n.startswith("qoskit.")) and m is not None]
    for home, attr, name, counts in TARGETS:
        original = getattr(sys.modules[home], attr)
        wrapper = _traced(tracer, original, name, counts)
        if attr == "simulate_run":
            wrapper = tracer.peak_alloc(wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _self_times(spans: list[list]) -> list[int]:
    child_ns = [0] * len(spans)
    for span in spans:
        if span[2] >= 0:
            child_ns[span[2]] += span[5] - span[4]
    return [span[5] - span[4] - child_ns[span[0]] for span in spans]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce one pass's spans to the per-layer metrics of BENCHMARK.json
    (all but trace.overhead_frac, which compares passes)."""
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for span, own in zip(spans, _self_times(spans)):
        name = span[3]
        total_ns[name] = total_ns.get(name, 0) + span[5] - span[4]
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span[6] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def s(name):
        return total_ns.get(name, 0) / 1e9

    def self_s(name):
        return self_ns.get(name, 0) / 1e9

    finite_pkts = counts.get("sim.fcfs_finite.pkts", 0)
    return {
        "sim.fcfs_finite.s": s("sim.fcfs_finite"),
        "sim.fcfs_finite.pkts": finite_pkts,
        "sim.fcfs_finite.drop_frac":
            counts.get("sim.fcfs_finite.drops", 0) / finite_pkts if finite_pkts else 0.0,
        "sim.fcfs_unbounded.s": s("sim.fcfs_unbounded"),
        "sim.fcfs_unbounded.pkts": counts.get("sim.fcfs_unbounded.pkts", 0),
        "sim.simulate_run.calls": calls.get("sim.simulate_run", 0),
        "sim.simulate_run.self_s": self_s("sim.simulate_run"),
        "sim.jitter_pairs": counts.get("sim.simulate_run.jitter_pairs", 0),
        "sim.write_packet_trace.s": s("sim.write_packet_trace"),
        "sim.write_packet_trace.bytes": counts.get("sim.write_packet_trace.bytes", 0),
        "sim.read_packet_trace.s": s("sim.read_packet_trace"),
        "metrics.mean_abs_jitter.s": s("metrics.mean_abs_jitter"),
        "metrics.mean_abs_jitter.samples": counts.get("metrics.mean_abs_jitter.samples", 0),
        "traces.synth_mobility_trace.s": s("traces.synth_mobility_trace"),
        "traces.synth_mobility_trace.self_s": self_s("traces.synth_mobility_trace"),
        "traces.rows": counts.get("traces.synth_mobility_trace.rows", 0),
        "traces.write_log.s": s("traces.write_log"),
        "traces.parse_log.s": s("traces.parse_log"),
        "traces.log_bytes": counts.get("traces.write_log.bytes", 0),
        "reporting.analyze_rows.self_s": self_s("reporting.analyze_rows"),
        "metrics.correlate.calls": calls.get("metrics.correlate", 0),
        "metrics.correlate.s": s("metrics.correlate"),
        "reporting.run_validation.self_s": self_s("reporting.run_validation"),
        "reporting.write.s": s("reporting.write"),
        "model.analytical_jitter.calls": calls.get("model.analytical_jitter", 0),
        "model.invert.calls": calls.get("model.invert", 0),
        "model.invert.s": s("model.invert"),
        "cli.main.self_s": self_s("cli.main"),
    }
