"""Validation and analysis reports with reproducible metadata.

Reports are plain CSV preceded by a ``# key=value`` metadata block; the
metadata is everything needed to regenerate the report byte for byte
(capacity, grid, packet horizon, seeds, estimator settings, tool version).
Plot data is written as two-column whitespace-separated text, one file per
curve, so any plotting tool can consume it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

from . import __version__
from .errors import DomainError, _real
from .metrics import _mean, _unit_scaled, correlate
from .model import DEFAULT_VARIANT, LinkParams, _from_load, analytical_jitter
from .sim import SimConfig, _at_point, simulate_sweep
from .traces import QosLogRow

#: Relative disagreement between model and simulation tolerated by default.
DEFAULT_VALIDATION_THRESHOLD = 0.15


def _fmt(value: float) -> str:
    """Stable float formatting for report bodies (12 significant digits)."""
    return f"{value:.12g}"


@dataclass(frozen=True)
class ValidationRow:
    """Model-versus-simulation comparison at one load point."""

    load_rho: float
    arrival_rate_lambda: float
    jitter_model: float
    jitter_sim_mean: float
    jitter_sim_stderr: float | None
    relative_error: float


@dataclass(frozen=True)
class ValidationReport:
    """All rows of a validation sweep plus the metadata to reproduce them."""

    rows: tuple[ValidationRow, ...]
    metadata: tuple[tuple[str, str], ...]

    @property
    def max_relative_error(self) -> float:
        return max(r.relative_error for r in self.rows)

    def passed(self, threshold: float) -> bool:
        return self.max_relative_error <= threshold


def run_validation(
    capacity_C: float,
    rho_grid,
    packets: int,
    seeds_per_point: int,
    *,
    base_seed: int,
    variant: str = DEFAULT_VARIANT,
    tagged_fraction: float = 0.1,
) -> ValidationReport:
    """Rerun the model-versus-simulation comparison over a load grid.

    Per grid point, ``seeds_per_point`` independent runs of ``packets``
    arrivals each are simulated at lambda = rho * C with an unbounded buffer,
    their measured mean-absolute delay variation is averaged and given its
    standard error across seeds (None for one seed), and the closed form is
    evaluated at the same (C, lambda).
    """
    grid = [float(r) for r in rho_grid]
    if not grid:
        raise DomainError("the validation grid must not be empty")
    # The sweep sets lambda = rho * C at each point and names a bad point. The
    # points are checked here first, as the sweep checks them, so an error
    # names a load typed; the base, at the first point's rate, then fails only
    # on a field that every point shares, named without a point.
    _real(capacity_C, "capacity", gt=0)
    rates = []
    for i, rho in enumerate(grid):
        _real(rho, f"rho_grid[{i}]", gt=0)
        rates.append(_at_point(rho, i, 0, _from_load, rho, capacity_C))
        _at_point(rho, i, 0, SimConfig, capacity_C, rates[-1])     # lambda < C
    base = SimConfig(
        capacity_C=capacity_C,
        arrival_rate_lambda=rates[0],
        tagged_fraction=tagged_fraction,
        buffer_capacity=None,
        horizon_packets=packets,
        seed=base_seed,
    )
    summaries = simulate_sweep(base, grid, seeds_per_point, vary="arrival")
    rows = []
    for i, rho in enumerate(grid):
        # Reduced in seed order, the order the committed reports were made
        # in; the sweep's order moves the last bit (not the printed digits)
        # of 4 of their 14 points.
        group = sorted(summaries[i * seeds_per_point:(i + 1) * seeds_per_point],
                       key=lambda s: s.config.seed)
        short = sum(1 for s in group if s.n_jitter_samples == 0)
        if short:
            raise DomainError(
                f"load point rho={rho:.12g}: {short} of {len(group)} runs have no pair of "
                f"consecutive delivered tagged packets after warm-up; "
                f"raise the packet count or the tagged fraction"
            )
        jitters = np.array([s.empirical_jitter_J for s in group])
        mean = _mean(jitters)
        stderr = None
        if len(group) > 1:
            # std squares the jitters, which leaves the double range at
            # extreme capacities; scaling by a power of two first is exact.
            scaled, exponent = _unit_scaled(jitters)
            stderr = math.ldexp(float(scaled.std(ddof=1)), exponent) / math.sqrt(len(group))
        jitter = analytical_jitter(LinkParams.from_rho(capacity_C, rho), variant)
        rows.append(
            ValidationRow(
                load_rho=rho,
                arrival_rate_lambda=group[0].config.arrival_rate_lambda,
                jitter_model=jitter,
                jitter_sim_mean=mean,
                jitter_sim_stderr=stderr,
                relative_error=abs(jitter - mean) / mean,
            )
        )
    metadata = (
        ("tool", "qoskit"),
        ("version", __version__),
        ("capacity_C", _fmt(capacity_C)),
        ("rho_grid", ",".join(_fmt(r) for r in grid)),
        ("packets_per_run", str(packets)),
        ("seeds_per_point", str(seeds_per_point)),
        ("base_seed", str(base_seed)),
        ("seed_derivation", "child_seed(base_seed, rho_index, seed_index) [splitmix64]"),
        ("formula_variant", variant),
        ("tagged_fraction", _fmt(tagged_fraction)),
        ("warmup_fraction", _fmt(base.warmup_fraction)),
        ("service_distribution", base.service_distribution),
        ("buffer", "unbounded"),
    )
    return ValidationReport(rows=tuple(rows), metadata=metadata)


#: Header of the validation CSV: one name per ValidationRow field, in order.
VALIDATION_COLUMNS = "rho,lambda,J_model_s,J_sim_mean_s,J_sim_stderr_s,relative_error"


def write_validation_report(report: ValidationReport, path) -> None:
    """The ``# key=value`` metadata lines, the header and one line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in report.metadata:
            fh.write(f"# {key}={value}\n")
        fh.write(VALIDATION_COLUMNS + "\n")
        for r in report.rows:
            fh.write(",".join("" if v is None else _fmt(v) for v in astuple(r)) + "\n")


def write_xy(path, xs, ys) -> None:
    """Two-column whitespace-separated plot data, one point per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{_fmt(x)} {_fmt(y)}\n")


# --- trace analysis --------------------------------------------------------

#: Per-second columns the analysis correlates.
ANALYSIS_COLUMNS = ("tput_Bps", "jitter_ms", "loss_fraction")


def _column_arrays(rows: list[QosLogRow]) -> dict[str, np.ndarray]:
    total = np.array([r.total_pkts for r in rows], dtype=float)
    lost = np.array([r.lost_pkts for r in rows], dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        loss_fraction = np.where(total > 0, lost / np.maximum(total, 1), 0.0)
    return {
        "tput_Bps": np.array([r.tput_Bps for r in rows]),
        "jitter_ms": np.array([r.jitter_ms for r in rows]),
        "loss_fraction": loss_fraction,
    }


def _pairwise(columns: dict[str, np.ndarray], warnings: list[str], context: str = "") -> dict:
    """Each pair's ``{"pearson_r", "spearman_rho", "n"}``, keyed ``"a~b"``;
    None, with a warning, where the pair is undefined."""
    out = {}
    names = list(columns)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            key = f"{a}~{b}"
            # The columns are 1-D, of one length and finite (QosLogRow checks
            # each field), so a constant or short series is all that can fail.
            try:
                out[key] = asdict(correlate(columns[a], columns[b]))
            except DomainError as exc:
                warnings.append(f"{context}{key}: {exc}")
                out[key] = None
    return out


def analyze_rows(
    rows: list[QosLogRow],
    *,
    by_speed: bool = False,
    speed_bin_width_kmh: float = 10.0,
) -> dict:
    """Summarize one log: column statistics and the pairwise correlation
    matrix over ANALYSIS_COLUMNS; optionally the same means and
    correlations within speed bins.

    Returns the payload ``qoskit analyze --json`` prints: ``n_rows``,
    ``duration_s``, ``columns`` (each column's mean, min and max),
    ``correlation_columns``, ``pearson_matrix`` (symmetric, unit diagonal),
    ``correlations``, ``warnings`` and, with ``by_speed``, ``speed_bins``
    (each bin's bounds, row count, column means and correlations). A
    constant column makes its correlations undefined; those pairs are None
    with a warning and the rest of the analysis proceeds.
    """
    if not rows:
        raise DomainError("cannot analyze an empty log")
    columns = _column_arrays(rows)
    warnings: list[str] = []
    correlations = _pairwise(columns, warnings)
    pearson = {tuple(key.split("~")): None if s is None else s["pearson_r"]
               for key, s in correlations.items()}
    report = {
        "n_rows": len(rows),
        "duration_s": rows[-1].t_unix_s - rows[0].t_unix_s + 1,
        "columns": {name: {"mean": _mean(vals), "min": float(vals.min()),
                           "max": float(vals.max())}
                    for name, vals in columns.items()},
        "correlation_columns": list(ANALYSIS_COLUMNS),
        "pearson_matrix": [[1.0 if a == b else pearson.get((a, b), pearson.get((b, a)))
                            for b in ANALYSIS_COLUMNS] for a in ANALYSIS_COLUMNS],
        "correlations": correlations,
        "warnings": warnings,
    }
    if by_speed:
        _real(speed_bin_width_kmh, "speed bin width", gt=0)
        speeds = np.array([r.speed_kmh for r in rows])
        bins = np.floor(speeds / speed_bin_width_kmh)
        if not np.all(np.abs(bins) < 2**53):
            raise DomainError(f"speed bin width {speed_bin_width_kmh!r} km/h gives more "
                              f"bins than can be counted")
        bins = bins.astype(int)
        report["speed_bins"] = []
        for b in sorted(set(bins.tolist())):
            mask = bins == b
            sub = {name: vals[mask] for name, vals in columns.items()}
            lo, hi = b * speed_bin_width_kmh, (b + 1) * speed_bin_width_kmh
            report["speed_bins"].append({
                "lo_kmh": lo,
                "hi_kmh": hi,
                "n": int(mask.sum()),
                "means": {name: _mean(vals) for name, vals in sub.items()},
                "correlations": _pairwise(sub, warnings,
                                          context=f"speed bin [{lo:g}, {hi:g}) km/h: "),
            })
    return report
