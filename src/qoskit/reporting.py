"""Validation and analysis reports with reproducible metadata.

Reports are plain CSV preceded by a ``# key=value`` metadata block; the
metadata is everything needed to regenerate the report byte for byte
(capacity, grid, packet horizon, seeds, estimator settings, tool version).
Plot data is written as two-column whitespace-separated text, one file per
curve, so any plotting tool can consume it.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import __version__
from .errors import ConstantSeriesError, DomainError, InsufficientDataError, _real
from .metrics import SeriesStats, correlate
from .model import DEFAULT_VARIANT, LinkParams, analytical_jitter
from .sim import SimConfig, merge_summaries, simulate_sweep
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
    their measured mean-absolute delay variation is averaged, and the closed
    form is evaluated at the same (C, lambda).
    """
    grid = [float(r) for r in rho_grid]
    if not grid:
        raise DomainError("the validation grid must not be empty")
    # The sweep sets lambda = rho * C at each point and names a bad point.
    base = SimConfig(
        capacity_C=capacity_C,
        arrival_rate_lambda=capacity_C / 2,
        tagged_fraction=tagged_fraction,
        buffer_capacity=None,
        horizon_packets=packets,
        seed=base_seed,
    )
    summaries = simulate_sweep(base, grid, seeds_per_point, vary="arrival")
    rows = []
    for i, rho in enumerate(grid):
        group = summaries[i * seeds_per_point:(i + 1) * seeds_per_point]
        short = sum(1 for s in group if s.n_jitter_samples == 0)
        if short:
            raise InsufficientDataError(
                f"load point rho={rho:.12g}: {short} of {len(group)} runs have no pair of "
                f"consecutive delivered tagged packets after warm-up; "
                f"raise the packet count or the tagged fraction"
            )
        agg = merge_summaries(group)
        pred = analytical_jitter(LinkParams.from_rho(capacity_C, rho), variant)
        rel = abs(pred.jitter_seconds - agg.jitter_mean) / agg.jitter_mean
        rows.append(
            ValidationRow(
                load_rho=rho,
                arrival_rate_lambda=agg.arrival_rate_lambda,
                jitter_model=pred.jitter_seconds,
                jitter_sim_mean=agg.jitter_mean,
                jitter_sim_stderr=agg.jitter_stderr,
                relative_error=rel,
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


def format_validation_csv(report: ValidationReport) -> str:
    lines = [f"# {key}={value}" for key, value in report.metadata]
    lines.append(VALIDATION_COLUMNS)
    for r in report.rows:
        lines.append(",".join("" if v is None else _fmt(v) for v in astuple(r)))
    return "\n".join(lines) + "\n"


def write_validation_report(report: ValidationReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_validation_csv(report))


def write_xy(path, xs, ys) -> None:
    """Two-column whitespace-separated plot data, one point per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{x:.12g} {y:.12g}\n")


# --- trace analysis --------------------------------------------------------

#: Per-second columns the analysis correlates.
ANALYSIS_COLUMNS = ("tput_Bps", "jitter_ms", "loss_fraction")


@dataclass(frozen=True)
class ColumnSummary:
    mean: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class SpeedBin:
    """Rows grouped by speed: per-column means and in-bin correlations."""

    lo_kmh: float
    hi_kmh: float
    n: int
    means: tuple[tuple[str, float], ...]
    correlations: tuple[tuple[str, SeriesStats | None], ...]


@dataclass(frozen=True)
class AnalysisReport:
    """Summary, correlation matrix, and optional per-speed breakdown."""

    n_rows: int
    duration_s: int
    summaries: tuple[tuple[str, ColumnSummary], ...]
    correlations: tuple[tuple[str, SeriesStats | None], ...]
    warnings: tuple[str, ...]
    speed_bins: tuple[SpeedBin, ...] | None


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


def _pairwise(columns: dict[str, np.ndarray], warnings: list[str], context: str = ""):
    out = []
    names = list(columns)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            key = f"{a}~{b}"
            try:
                stats = correlate(columns[a], columns[b])
            except (ConstantSeriesError, InsufficientDataError) as exc:
                warnings.append(f"{context}{key}: {exc}")
                stats = None
            out.append((key, stats))
    return tuple(out)


def analyze_rows(
    rows: list[QosLogRow],
    *,
    by_speed: bool = False,
    speed_bin_width_kmh: float = 10.0,
) -> AnalysisReport:
    """Summarize one log: column statistics and the pairwise correlation
    matrix over {throughput, jitter, loss fraction}; optionally the same
    means and correlations within speed bins.

    A constant column makes its correlations undefined; those pairs are
    reported as missing with a warning and the rest of the analysis proceeds.
    """
    if not rows:
        raise DomainError("cannot analyze an empty log")
    columns = _column_arrays(rows)
    warnings: list[str] = []
    summaries = tuple(
        (name, ColumnSummary(float(vals.mean()), float(vals.min()), float(vals.max())))
        for name, vals in columns.items()
    )
    correlations = _pairwise(columns, warnings)

    speed_bins = None
    if by_speed:
        _real(speed_bin_width_kmh, "speed bin width", gt=0)
        speeds = np.array([r.speed_kmh for r in rows])
        bins = np.floor(speeds / speed_bin_width_kmh)
        if not np.all(np.abs(bins) < 2**53):
            raise DomainError(f"speed bin width {speed_bin_width_kmh!r} km/h gives more "
                              f"bins than can be counted")
        bins = bins.astype(int)
        out = []
        for b in sorted(set(bins.tolist())):
            mask = bins == b
            sub = {name: vals[mask] for name, vals in columns.items()}
            means = tuple((name, float(vals.mean())) for name, vals in sub.items())
            corr = _pairwise(
                sub, warnings, context=f"speed bin [{b * speed_bin_width_kmh:g}, "
                f"{(b + 1) * speed_bin_width_kmh:g}) km/h: "
            )
            out.append(
                SpeedBin(
                    lo_kmh=b * speed_bin_width_kmh,
                    hi_kmh=(b + 1) * speed_bin_width_kmh,
                    n=int(mask.sum()),
                    means=means,
                    correlations=corr,
                )
            )
        speed_bins = tuple(out)

    return AnalysisReport(
        n_rows=len(rows),
        duration_s=rows[-1].t_unix_s - rows[0].t_unix_s + 1,
        summaries=summaries,
        correlations=correlations,
        warnings=tuple(warnings),
        speed_bins=speed_bins,
    )


def correlation_matrix(report: AnalysisReport) -> list[list[float | None]]:
    """Full symmetric matrix with unit diagonal over ANALYSIS_COLUMNS,
    None where a pair was undefined."""
    names = list(ANALYSIS_COLUMNS)
    lookup = dict(report.correlations)
    size = len(names)
    matrix: list[list[float | None]] = [[None] * size for _ in range(size)]
    for i in range(size):
        matrix[i][i] = 1.0
        for j in range(i + 1, size):
            stats = lookup.get(f"{names[i]}~{names[j]}")
            value = stats.pearson_r if stats is not None else None
            matrix[i][j] = value
            matrix[j][i] = value
    return matrix
