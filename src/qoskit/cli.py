"""Command-line front end.

Subcommands: model, invert, simulate, validate, synth, analyze. Exit codes:
0 on success, 1 on usage or domain errors, 2 when a validation run exceeds
its disagreement threshold (the report is still written in that case).

Every randomized command takes --seed and falls back to a fixed documented
constant, never the clock, so any invocation can be replayed exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys

from . import __version__
from .errors import DomainError, QoskitError, _real
from .model import (
    DEFAULT_VARIANT,
    VARIANTS,
    LinkParams,
    _from_load,
    analytical_jitter,
    invert_capacity_for_jitter,
    invert_load_for_jitter,
)
from .reporting import (
    DEFAULT_VALIDATION_THRESHOLD,
    analyze_rows,
    run_validation,
    write_validation_report,
    write_xy,
)
from .sim import (
    DEFAULT_SEED,
    SERVICE_DETERMINISTIC,
    SERVICE_EXPONENTIAL,
    SimConfig,
    _MAX_SWEEP_RUNS,
    _summarize_run,
    simulate_run,
    write_packet_trace,
)
from .traces import load_scenario, parse_log, synth_mobility_trace, write_log


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this toolkit reserves 2 for
    validation failures, so usage errors are rerouted to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise _UsageError(message)


def _add_link_args(p):
    p.add_argument("--capacity", type=float, required=True, help="link capacity C, packets/s")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="total arrival rate, packets/s")
    group.add_argument("--rho", type=float, help="load factor; lambda = rho * C")


def _unreadable(what: str, path: str, exc: OSError) -> QoskitError:
    return QoskitError(f"cannot read {what} {path!r}: {exc.strerror or exc}")


@contextlib.contextmanager
def _writing(path: str):
    """Report a failure to write ``path`` (or a file under it) as an error
    naming the file, not a traceback."""
    try:
        yield
    except OSError as exc:
        raise QoskitError(
            f"cannot write {exc.filename or path!r}: {exc.strerror or exc}") from None


def _typed_rate(args, stable: bool) -> float:
    """``--lambda``, or the rate ``--rho`` forms, the load checked as typed:
    first as a load, then, where the queue must be ``stable``, below 1."""
    if args.lam is not None:
        return args.lam
    rate = _from_load(args.rho, args.capacity, gt=0)
    if stable:
        _real(args.rho, "load", gt=0, lt=1)
    return rate


def _typed_link(args) -> str:
    """The link as typed: ``C = 1000.0, rho = 0.5`` or ``C = ..., lambda = ...``."""
    load = f"rho = {args.rho!r}" if args.rho is not None else f"lambda = {args.lam!r}"
    return f"C = {args.capacity!r}, {load}"


#: Most points a start:stop:step grid may have; its size is checked
#: before any point is built.
_MAX_GRID_POINTS = 100_000


def _parse_grid(text: str) -> list[float]:
    """Comma list ('0.2,0.3') or start:stop:step range ('0.2:0.8:0.1'),
    stop inclusive up to a half-step, of at most ``_MAX_GRID_POINTS``."""
    text = text.strip()
    if ":" in text:
        try:
            start, stop, step = (float(v) for v in text.split(":"))
        except ValueError:
            raise QoskitError(f"cannot parse grid {text!r}; expected start:stop:step") from None
        _real(start, "grid start")
        _real(step, "grid step", gt=0)
        _real(stop, "grid stop", ge=start)
        # the grid has round((stop - start) / step) + 1 points
        if not (stop - start) / step < _MAX_GRID_POINTS - 0.5:
            raise QoskitError(f"grid {text!r} has more than {_MAX_GRID_POINTS:,} points")
        n = int(round((stop - start) / step)) + 1
        return [round(start + k * step, 12) for k in range(n) if start + k * step <= stop + step / 2]
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise QoskitError(f"cannot parse grid {text!r}; expected comma-separated loads") from None
    return grid


def _json_safe(value):
    """JSON has no NaN or infinity: a non-finite float (an undefined
    estimate) becomes null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _print_json(payload: dict) -> None:
    print(json.dumps(_json_safe(payload), allow_nan=False))


def _emit(payload: dict, as_json: bool):
    """Print ``payload`` as JSON or as ``key: value`` lines; both forms
    write an undefined estimate as null."""
    if as_json:
        _print_json(payload)
    else:
        for key, value in _json_safe(payload).items():
            print(f"{key}: {'null' if value is None else value}")


def _cmd_model(args) -> int:
    params = LinkParams(args.capacity, _typed_rate(args, stable=True))
    jitter = math.inf
    # params and variant are checked, so the only error left is the
    # prediction's overflow, which the message below names as typed
    with contextlib.suppress(DomainError):
        jitter = analytical_jitter(params, args.variant)
    if not math.isfinite(jitter * 1e3):
        raise DomainError(f"the predicted jitter at {_typed_link(args)} overflows in ms")
    if jitter < 0:
        sys.stderr.write(
            "=" * 66 + "\n"
            f"WARNING: variant {args.variant!r} evaluates to a negative value.\n"
            "A mean absolute delay variation cannot be negative; this reading\n"
            "is kept for documentation only. Use the default 'nonneg-v1'.\n"
            + "=" * 66 + "\n"
        )
    payload = {
        "capacity_C": params.capacity_C,
        "arrival_rate_lambda": params.arrival_rate_lambda,
        "load_rho": params.load_rho,
        "formula_variant": args.variant,
        "jitter_seconds": jitter,
        "jitter_ms": jitter * 1e3,
    }
    _emit(payload, args.json)
    return 0


def _cmd_invert(args) -> int:
    if (args.capacity is None) == (args.lam is None):
        raise QoskitError("give exactly one of --capacity (solve for load) "
                          "or --lambda (solve for capacity)")
    if args.capacity is not None:
        res = invert_load_for_jitter(args.capacity, args.budget, args.variant)
        payload = {
            "solved_for": "arrival_rate_lambda",
            "capacity_C": args.capacity,
            "arrival_rate_lambda_max": res.value,
            "load_rho": res.value / args.capacity,
        }
    else:
        res = invert_capacity_for_jitter(args.lam, args.budget, args.variant)
        payload = {
            "solved_for": "capacity_C",
            "arrival_rate_lambda": args.lam,
            "capacity_C_min": res.value,
            "load_rho": args.lam / res.value,
        }
    payload.update(
        {
            "jitter_budget_seconds": args.budget,
            "jitter_at_solution_seconds": res.jitter_seconds,
            "constrained": res.constrained,
            "formula_variant": args.variant,
        }
    )
    if not res.constrained and not args.json:
        print("note: the jitter budget does not bind here (unconstrained); "
              "the returned value is the search-bracket endpoint")
    _emit(payload, args.json)
    return 0


def _config_from_args(args) -> SimConfig:
    return SimConfig(
        capacity_C=args.capacity,
        arrival_rate_lambda=_typed_rate(args, stable=args.buffer is None),
        tagged_fraction=args.tagged_fraction,
        buffer_capacity=args.buffer,
        horizon_packets=args.packets,
        warmup_fraction=args.warmup,
        seed=args.seed,
        service_distribution=args.service,
    )


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    log, summary = simulate_run(config) if args.trace_out else (None, _summarize_run(config))
    if log is not None:
        with _writing(args.trace_out):
            write_packet_trace(log, args.trace_out)
    payload = {
        "mean_sojourn_s": summary.mean_sojourn,
        "empirical_jitter_J_s": summary.empirical_jitter_J,
        "throughput_X_pps": summary.throughput_X,
        "offered_lambda_pps": summary.offered_lambda,
        "loss_B": summary.loss_B,
        "n_jitter_samples": summary.n_jitter_samples,
        "offered_count": summary.offered_count,
        "delivered_count": summary.delivered_count,
        "seed": config.seed,
    }
    if args.json:
        payload["config"] = dataclasses.asdict(config)
    _emit(payload, args.json)
    return 0


def _cmd_validate(args) -> int:
    _real(args.threshold, "--threshold", ge=0)
    report = run_validation(
        args.capacity,
        _parse_grid(args.rho_grid),
        args.packets,
        args.seeds,
        base_seed=args.seed,
        variant=args.variant,
        tagged_fraction=args.tagged_fraction,
    )
    report_path = os.path.join(args.out, "validation.csv")
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
        write_validation_report(report, report_path)
        rhos = [r.load_rho for r in report.rows]
        for curve, jitters in (("model", [r.jitter_model for r in report.rows]),
                               ("sim", [r.jitter_sim_mean for r in report.rows])):
            write_xy(os.path.join(args.out, f"validation_{curve}.dat"), rhos, jitters)
    print(f"# wrote {report_path}")
    print("rho    J_model_s      J_sim_mean_s   rel_err   verdict")
    for r in report.rows:
        verdict = "pass" if r.relative_error <= args.threshold else "FAIL"
        print(
            f"{r.load_rho:<5.3g}  {r.jitter_model:<13.6g}  {r.jitter_sim_mean:<13.6g}"
            f"  {r.relative_error:<8.4f}  {verdict}"
        )
    if report.passed(args.threshold):
        print(f"all points within {args.threshold:.0%}")
        return 0
    print(
        f"threshold {args.threshold:.0%} exceeded "
        f"(worst {report.max_relative_error:.1%}); report written"
    )
    return 2


def _cmd_synth(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        raise _unreadable("scenario file", args.scenario, exc) from None
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    rows = synth_mobility_trace(scenario)
    data = write_log(rows)
    with _writing(args.output), open(args.output, "wb") as fh:
        fh.write(data)
    print(f"# wrote {args.output}: {len(rows)} rows "
          f"({scenario.kind}, {scenario.duration_s} s, seed {scenario.seed})")
    return 0


def _print_correlations(correlations: dict, indent: str) -> None:
    """One line per pair; the warnings printed with them say why a pair is
    undefined."""
    for key, s in correlations.items():
        value = ("undefined" if s is None else
                 f"{s['pearson_r']:+.3f} / {s['spearman_rho']:+.3f}  (n={s['n']})")
        print(f"{indent}{key}: {value}")


def _cmd_analyze(args) -> int:
    try:
        with open(args.log, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _unreadable("log file", args.log, exc) from None
    rows = parse_log(data)
    report = analyze_rows(
        rows, by_speed=args.by_speed, speed_bin_width_kmh=args.speed_bin_width
    )
    if args.out:
        times = [r.t_unix_s - rows[0].t_unix_s for r in rows]
        with _writing(args.out):
            os.makedirs(args.out, exist_ok=True)
            for curve, field in (("throughput", "tput_Bps"), ("jitter", "jitter_ms"),
                                 ("speed", "speed_kmh")):
                write_xy(os.path.join(args.out, f"{curve}_vs_time.dat"),
                         times, [getattr(r, field) for r in rows])

    if args.json:
        _print_json(report)
        return 0

    print(f"rows: {report['n_rows']}   span: {report['duration_s']} s")
    for name, s in report["columns"].items():
        print(f"{name:>13}: mean {s['mean']:.6g}   min {s['min']:.6g}   max {s['max']:.6g}")
    print("correlations (pearson / spearman):")
    _print_correlations(report["correlations"], "  ")
    for warning in report["warnings"]:
        print(f"warning: {warning}")
    if "speed_bins" in report:
        print("per-speed bins:")
        for b in report["speed_bins"]:
            print(f"  [{b['lo_kmh']:g}, {b['hi_kmh']:g}) km/h  n={b['n']}")
            for name, mean in b["means"].items():
                print(f"      mean {name}: {mean:.6g}")
            _print_correlations(b["correlations"], "      ")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: every parse makes its own
    namespace and leaves the parser as it found it."""
    parser = _Parser(prog="qoskit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qoskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="evaluate the closed-form jitter prediction")
    _add_link_args(p)
    p.add_argument("--variant", choices=VARIANTS, default=DEFAULT_VARIANT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("invert", help="solve the jitter curve for planning")
    p.add_argument("--capacity", type=float, help="fixed capacity: solve for the max load")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="fixed arrival rate: solve for the min capacity")
    p.add_argument("--budget", type=float, required=True, help="jitter budget, seconds")
    p.add_argument("--variant", choices=VARIANTS, default=DEFAULT_VARIANT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("simulate", help="run the FCFS queue simulator once")
    _add_link_args(p)
    p.add_argument("--packets", type=int, default=100_000, help="arrivals to generate")
    p.add_argument("--tagged-fraction", type=float, default=0.1)
    p.add_argument("--buffer", type=int, default=None,
                   help="buffer capacity incl. the packet in service; omit for unbounded")
    p.add_argument("--warmup", type=float, default=0.1,
                   help="fraction of arrivals excluded from statistics")
    p.add_argument("--service", choices=[SERVICE_EXPONENTIAL, SERVICE_DETERMINISTIC],
                   default=SERVICE_EXPONENTIAL)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trace-out", help="write the per-packet CSV here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="compare the model against simulation over a load grid")
    p.add_argument("--capacity", type=float, required=True)
    p.add_argument("--rho-grid", default="0.2:0.8:0.1",
                   help="comma list or start:stop:step range of loads "
                        f"(a range has at most {_MAX_GRID_POINTS:,} points)")
    p.add_argument("--packets", type=int, default=1_000_000)
    p.add_argument("--seeds", type=int, default=5, help="independent runs per grid point "
                   f"(grid points x seeds: at most {_MAX_SWEEP_RUNS:,} runs)")
    p.add_argument("--threshold", type=float, default=DEFAULT_VALIDATION_THRESHOLD,
                   help="max tolerated relative error (exit 2 beyond it)")
    p.add_argument("--variant", choices=VARIANTS, default=DEFAULT_VARIANT)
    p.add_argument("--tagged-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=".", help="directory for the report and plot data")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic per-second measurement log")
    p.add_argument("--scenario", required=True, help="scenario file (key = value lines)")
    p.add_argument("--output", required=True, help="log CSV destination")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("analyze", help="summarize and correlate a measurement log")
    p.add_argument("--log", required=True, help="canonical log CSV")
    p.add_argument("--by-speed", action="store_true", help="break the analysis down by speed bin")
    p.add_argument("--speed-bin-width", type=float, default=10.0, help="bin width, km/h")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None, help="directory for plot data files")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError:
        return 1
    except QoskitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 1


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout left early (``| head``): stop without a
        # traceback, and keep the exit-time flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
