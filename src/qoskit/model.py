"""Closed-form delay-jitter model for a single FCFS link with Poisson traffic.

The model predicts the mean absolute difference between the transit delays of
consecutive packets of a flow multiplexed through one FCFS queue, from three
quantities only: the link capacity C (packets/s), the total arrival rate
lambda (packets/s), and the load rho = lambda / C.

With x = (1 - rho) / rho, the default reading of the closed form is

    J = (1 - x * exp(-x) - exp(-2x)) / (C - lambda)        ("nonneg-v1")

which is positive on 0 < rho < 1 and tends to 1/C at both ends of the load
range. The low-load limit is forced physically: with an empty queue the delay
of each packet is its own service time, and the mean absolute difference of
two independent exponential service times with mean 1/C is exactly 1/C.

The expression is often printed with a trailing e^{+x} inside the bracket,

    J = (1 - exp(-x) * (x + exp(x))) / (C - lambda)        ("printed-literal")

which simplifies to -x * exp(-x) / (C - lambda) and is negative on the whole
stable range, impossible for a mean absolute value. That reading is kept,
behind the name "printed-literal", for documentation and comparison only.

Besides forward evaluation the module provides the loss/throughput identity
B = (lambda - X) / lambda and numeric inversion of the jitter curve for
planning: the largest sustainable load under a jitter budget at fixed
capacity, and the smallest capacity under a budget at fixed arrival rate.
Everything is in packets/s: a bit rate gives C as ``bandwidth / packet_bits``,
and ``LinkParams(C, lambda).load_rho`` is the load.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import (
    DomainError,
    AccountingError,
    InfeasibleBudgetError,
    InstabilityError,
    UndefinedJitterError,
    _real,
)

#: Default algebraic reading of the jitter formula.
DEFAULT_VARIANT = "nonneg-v1"

#: All supported readings.
VARIANTS = ("nonneg-v1", "printed-literal")

# Root-search configuration: robustness over speed, the curve is smooth and
# cheap to evaluate on the whole bracket.
_GRID_POINTS = 256
_REL_TOL = 1e-9
_MAX_ITER = 200
_LOAD_EPS = 1e-6          # lambda bracket: [eps * C, (1 - eps) * C]
_CAPACITY_EPS = 1e-6      # capacity bracket floor: (1 + eps) * lambda
_CAPACITY_CEILING = 1e6   # capacity bracket ceiling: 1e6 * lambda


@dataclass(frozen=True)
class LinkParams:
    """The (C, lambda, rho) triple describing one loaded link.

    Requires strict stability: 0 < lambda < C. The load is derived, never
    supplied.
    """

    capacity_C: float
    arrival_rate_lambda: float
    load_rho: float = field(init=False)

    def __post_init__(self):
        c = self.capacity_C
        lam = self.arrival_rate_lambda
        # The arrival rate first: a zero rate leaves jitter undefined at any
        # capacity, and the capacity inversion relies on that error.
        _real(lam, "arrival rate", ge=0)
        if lam == 0:
            raise UndefinedJitterError(
                "arrival rate is zero: no consecutive packets exist, jitter undefined"
            )
        _real(c, "capacity", gt=0)
        if lam >= c:
            raise InstabilityError(
                f"load {lam / c:.6g} >= 1: the queue is unstable, jitter diverges"
            )
        object.__setattr__(self, "load_rho", lam / c)

    @classmethod
    def from_rho(cls, capacity_C: float, load_rho: float) -> "LinkParams":
        """Build params from a load factor instead of an arrival rate."""
        return cls(capacity_C, _from_load(load_rho, capacity_C))


def _from_load(load_rho, given, solve_for: str = "arrival rate", **load_bounds) -> float:
    """The arrival rate lambda = rho * C from a capacity ``given`` or, with
    ``solve_for="capacity"``, the capacity C = lambda / rho from an arrival
    rate. Both values are checked first, the load within ``load_bounds``.
    A nonzero load whose result leaves the range of a double (rounds to 0
    or to infinity) is an error naming the two values typed; any other
    result is returned for its user to check."""
    _real(load_rho, "load", **load_bounds)
    to_rate = solve_for == "arrival rate"
    _real(given, "capacity" if to_rate else "arrival rate", gt=0)
    value = load_rho * given if to_rate else given / load_rho
    if math.isfinite(value) and (value != 0 or load_rho == 0):
        return value
    formed = (f"load {load_rho!r} times capacity {given!r}" if to_rate else
              f"arrival rate {given!r} over load {load_rho!r}")
    raise DomainError(f"{formed} {'underflows' if value == 0 else 'overflows'} the {solve_for}")


@dataclass(frozen=True)
class JitterPrediction:
    """Predicted mean absolute delay variation, in seconds."""

    jitter_seconds: float
    params: LinkParams
    formula_variant: str


@dataclass(frozen=True)
class InversionResult:
    """Outcome of a planning inversion.

    ``constrained`` is False when the budget does not bind at the returned
    bracket endpoint (the jitter there is already at or below the budget).
    """

    value: float
    jitter_seconds: float
    constrained: bool


def _shape_factor(x: float, variant: str) -> float:
    """Dimensionless bracket of the jitter formula, as a function of x = (1-rho)/rho."""
    if variant == "nonneg-v1":
        # 1 - exp(-2x) as -expm1(-2x): near rho -> 1 both terms tend to 0
        # and the subtraction from 1 would cancel most of their digits.
        return -math.expm1(-2.0 * x) - x * math.exp(-x)
    if variant == "printed-literal":
        # The literal bracket 1 - exp(-x) * (x + exp(x)) simplifies exactly to
        # -x * exp(-x); evaluating the simplification avoids overflowing the
        # e^{+x} term at low load while producing the same value.
        return -x * math.exp(-x)
    raise DomainError(f"unknown formula variant {variant!r}; expected one of {VARIANTS}")


def analytical_jitter(params: LinkParams, variant: str = DEFAULT_VARIANT) -> JitterPrediction:
    """Predict the mean absolute delay variation for one link.

    The result depends on traffic only through (C, lambda, rho) and scales
    as 1/C at fixed load. Raises DomainError, naming C and lambda, where the
    prediction is beyond the largest float (C - lambda below about 1e-308).
    """
    c, lam = params.capacity_C, params.arrival_rate_lambda
    # (C - lambda) is exact near saturation; 1 - rho would round rho first.
    # At loads below about 1e-308 the ratio overflows; the largest double
    # gives the same bracket, 1, without an inf * 0.
    x = min((c - lam) / lam, sys.float_info.max)
    jitter = _shape_factor(x, variant) / (c - lam)
    if not math.isfinite(jitter):
        raise DomainError(f"the predicted jitter at C = {c!r}, lambda = {lam!r} overflows")
    return JitterPrediction(jitter_seconds=jitter, params=params, formula_variant=variant)


def loss_from_throughput(arrival_rate_lambda: float, throughput_X: float) -> float:
    """Loss probability B = (lambda - X) / lambda."""
    _real(arrival_rate_lambda, "arrival rate", gt=0)
    _real(throughput_X, "throughput", ge=0)
    if throughput_X > arrival_rate_lambda:
        raise AccountingError(
            f"throughput {throughput_X!r} exceeds the arrival rate {arrival_rate_lambda!r}"
        )
    return (arrival_rate_lambda - throughput_X) / arrival_rate_lambda


def _jitter_at_load(capacity_C: float, lam: float, variant: str) -> float:
    return analytical_jitter(LinkParams(capacity_C, lam), variant).jitter_seconds


def invert_load_for_jitter(
    capacity_C: float, jitter_budget_seconds: float, variant: str = DEFAULT_VARIANT
) -> InversionResult:
    """Largest arrival rate in (0, C) whose predicted jitter meets the budget.

    The jitter curve over load is not monotone (it has an interior peak and an
    interior minimum), so the bracket is first sampled on a 256-point grid to
    locate the global minimum and the rightmost crossing. When the budget is
    met at the bracket ceiling the result carries constrained=False; when even
    the grid minimum exceeds the budget the inversion is infeasible.
    """
    _real(capacity_C, "capacity", gt=0)
    _real(jitter_budget_seconds, "jitter budget", gt=0)

    lo = _LOAD_EPS * capacity_C
    hi = (1.0 - _LOAD_EPS) * capacity_C
    grid = [lo + (hi - lo) * k / (_GRID_POINTS - 1) for k in range(_GRID_POINTS)]
    values = [_jitter_at_load(capacity_C, lam, variant) for lam in grid]

    if values[-1] <= jitter_budget_seconds:
        return InversionResult(hi, values[-1], constrained=False)

    j_min = min(values)
    if jitter_budget_seconds < j_min:
        k_min = values.index(j_min)
        raise InfeasibleBudgetError(
            f"budget {jitter_budget_seconds:.6g} s is below the attainable minimum "
            f"{j_min:.6g} s (at lambda = {grid[k_min]:.6g})",
            attained_min=j_min,
            at_value=grid[k_min],
        )

    # Rightmost grid point still within budget; the curve rises through the
    # budget somewhere in the next interval.
    k = max(i for i, v in enumerate(values) if v <= jitter_budget_seconds)
    lam_lo, lam_hi = grid[k], grid[k + 1]
    lam, jit = _bisect_to_budget(
        lambda lam: _jitter_at_load(capacity_C, lam, variant),
        lam_lo,
        lam_hi,
        jitter_budget_seconds,
    )
    return InversionResult(lam, jit, constrained=True)


def invert_capacity_for_jitter(
    arrival_rate_lambda: float, jitter_budget_seconds: float, variant: str = DEFAULT_VARIANT
) -> InversionResult:
    """Smallest capacity above lambda whose predicted jitter meets the budget.

    At fixed arrival rate the prediction decreases in capacity (the 1/(C -
    lambda) prefactor dominates the mild shape variation), so a plain
    bisection over C in ((1 + eps) * lambda, 1e6 * lambda] converges. A zero
    arrival rate raises UndefinedJitterError from the first evaluation.
    """
    _real(arrival_rate_lambda, "arrival rate", ge=0)
    _real(jitter_budget_seconds, "jitter budget", gt=0)

    lo = (1.0 + _CAPACITY_EPS) * arrival_rate_lambda
    hi = _CAPACITY_CEILING * arrival_rate_lambda
    j_hi = _jitter_at_load(hi, arrival_rate_lambda, variant)
    if j_hi > jitter_budget_seconds:
        raise InfeasibleBudgetError(
            f"budget {jitter_budget_seconds:.6g} s is below the attainable minimum "
            f"{j_hi:.6g} s (at capacity = {hi:.6g})",
            attained_min=j_hi,
            at_value=hi,
        )
    j_lo = _jitter_at_load(lo, arrival_rate_lambda, variant)
    if j_lo <= jitter_budget_seconds:
        return InversionResult(lo, j_lo, constrained=False)

    cap, jit = _bisect_to_budget(
        lambda c: _jitter_at_load(c, arrival_rate_lambda, variant),
        lo,
        hi,
        jitter_budget_seconds,
        feasible_side="hi",
    )
    return InversionResult(cap, jit, constrained=True)


def _bisect_to_budget(func, lo, hi, budget, feasible_side="lo"):
    """Bisect func(v) = budget on [lo, hi].

    One endpoint satisfies func <= budget (named by ``feasible_side``), the
    other exceeds it. Stops when a value within budget matches it to _REL_TOL
    or the interval collapses; returns (v, func(v)) with func(v) <= budget.
    """
    f_lo = func(lo)
    f_hi = func(hi)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if f_mid <= budget and budget - f_mid <= _REL_TOL * budget:
            return mid, f_mid
        if (f_mid <= budget) == (feasible_side == "lo"):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        if hi - lo <= _REL_TOL * max(abs(lo), abs(hi)):
            break
    if feasible_side == "lo":
        return lo, f_lo
    return hi, f_hi
