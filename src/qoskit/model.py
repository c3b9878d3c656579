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

import functools
import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError, InfeasibleBudgetError, _real

#: Default algebraic reading of the jitter formula.
DEFAULT_VARIANT = "nonneg-v1"

#: All supported readings.
VARIANTS = ("nonneg-v1", "printed-literal")

# Root-search configuration: robustness over speed, the curve is smooth and
# cheap to evaluate on the whole bracket.
_GRID_POINTS = 256
_REL_TOL = 1e-9
_MAX_ITER = 200
_LOAD_EPS = 1e-6  # load bracket: [eps, 1 - eps] at fixed C, [eps, 1 / (1 + eps)] at fixed lambda


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
        # capacity.
        _arrival_rate(lam)
        _real(c, "capacity", gt=0)
        _require_stable(c, lam)
        object.__setattr__(self, "load_rho", lam / c)

    @classmethod
    def from_rho(cls, capacity_C: float, load_rho: float) -> "LinkParams":
        """Build params from a load factor instead of an arrival rate."""
        return cls(capacity_C, _from_load(load_rho, capacity_C))


def _arrival_rate(lam) -> None:
    """Raise DomainError unless ``lam`` is a finite rate > 0; a zero rate
    has its own message, as jitter is undefined without traffic."""
    _real(lam, "arrival rate", ge=0)
    if lam == 0:
        raise DomainError("arrival rate is zero: no consecutive packets exist, jitter undefined")


def _require_stable(capacity_C, arrival_rate_lambda) -> None:
    """Raise DomainError unless lambda < C, naming both as given."""
    if arrival_rate_lambda >= capacity_C:
        raise DomainError(f"arrival rate {arrival_rate_lambda!r} >= capacity "
                          f"{capacity_C!r}: an unbounded queue is unstable")


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


def analytical_jitter(params: LinkParams, variant: str = DEFAULT_VARIANT) -> float:
    """Predict the mean absolute delay variation for one link, in seconds.

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
    return jitter


def loss_from_throughput(arrival_rate_lambda: float, throughput_X: float) -> float:
    """Loss probability B = (lambda - X) / lambda."""
    _real(arrival_rate_lambda, "arrival rate", gt=0)
    _real(throughput_X, "throughput", ge=0)
    if throughput_X > arrival_rate_lambda:
        raise DomainError(f"throughput {throughput_X!r} exceeds the arrival rate "
                          f"{arrival_rate_lambda!r}")
    return (arrival_rate_lambda - throughput_X) / arrival_rate_lambda


def _load_curve(rho: float, variant: str, per_rate: bool) -> float:
    """The jitter times the fixed value, as a function of the load alone:
    C * J = h(rho) = shape(x) / (1 - rho) at a fixed capacity, and
    lambda * J = rho * h(rho) = shape(x) / x at a fixed arrival rate, with
    x = (1 - rho) / rho."""
    x = (1.0 - rho) / rho
    return _shape_factor(x, variant) / (x if per_rate else 1.0 - rho)


@functools.cache
def _grid(variant: str, per_rate: bool) -> tuple:
    """The load bracket's 256-point grid and the curve on it; neither
    depends on C or lambda, so each is built once a process."""
    hi = 1.0 / (1.0 + _LOAD_EPS) if per_rate else 1.0 - _LOAD_EPS
    rhos = tuple(_LOAD_EPS + (hi - _LOAD_EPS) * k / (_GRID_POINTS - 1)
                 for k in range(_GRID_POINTS))
    return rhos, tuple(_load_curve(rho, variant, per_rate) for rho in rhos)


def _invert(fixed: float, budget: float, variant: str, per_rate: bool) -> InversionResult:
    """The largest load on the grid's bracket whose curve value stays within
    budget * fixed, and the answer it forms: lambda = rho * C at a fixed
    capacity, C = lambda / rho at a fixed arrival rate (``per_rate``).

    The grid locates the global minimum and the rightmost crossing, which a
    bisection then narrows. The jitter returned is ``analytical_jitter`` at
    the answer. It can round a few ulps above the scaled curve, so when it
    exceeds the budget the search runs again one ulp lower.
    """
    rhos, curve = _grid(variant, per_rate)
    target = budget * fixed
    while True:
        k = max((k for k, g in enumerate(curve) if g <= target), default=None)
        if k is None:
            j_min = min(curve) / fixed
            at = f"at {'arrival rate' if per_rate else 'capacity'} {fixed!r}"
            raise InfeasibleBudgetError(
                f"budget {budget!r} s is below the attainable minimum "
                + (f"{j_min:.6g} s {at}" if math.isfinite(j_min)
                   else f"{at}, which passes the largest double"),
                attained_min=j_min,
            )
        rho = rhos[k]
        if k < _GRID_POINTS - 1:
            rho, _ = _bisect_to_budget(lambda r: _load_curve(r, variant, per_rate),
                                       rho, rhos[k + 1], target)
        value = fixed / rho if per_rate else _from_load(rho, fixed)
        if value == math.inf:
            raise DomainError(f"the smallest capacity for arrival rate {fixed!r} within "
                              f"budget {budget!r} s passes the largest double")
        c, lam = (value, fixed) if per_rate else (fixed, value)
        jitter = analytical_jitter(LinkParams(c, lam), variant)
        if jitter <= budget:
            return InversionResult(value, jitter, constrained=k < _GRID_POINTS - 1)
        target = math.nextafter(target, 0.0)


def invert_load_for_jitter(
    capacity_C: float, jitter_budget_seconds: float, variant: str = DEFAULT_VARIANT
) -> InversionResult:
    """Largest arrival rate in (0, C) whose predicted jitter meets the budget.

    C * J = h(rho) is a fixed curve of the load, searched on the bracket
    [1e-6, 1 - 1e-6]. It is not monotone (it has an interior peak and an
    interior minimum), so a 256-point grid first locates the global minimum
    and the rightmost crossing. When the budget is met at the bracket ceiling
    the result carries constrained=False; when even the grid minimum exceeds
    the budget the inversion is infeasible.
    """
    _real(capacity_C, "capacity", gt=0)
    _real(jitter_budget_seconds, "jitter budget", gt=0)
    return _invert(capacity_C, jitter_budget_seconds, variant, per_rate=False)


def invert_capacity_for_jitter(
    arrival_rate_lambda: float, jitter_budget_seconds: float, variant: str = DEFAULT_VARIANT
) -> InversionResult:
    """Smallest capacity above lambda whose predicted jitter meets the budget.

    lambda * J = rho * h(rho) is a fixed curve of the load, rising from about
    1e-6 to 1 on the bracket [1e-6, 1 / (1 + 1e-6)]; the largest load within
    budget * lambda gives C = lambda / rho. A zero arrival rate raises
    DomainError: jitter is undefined there.
    """
    _arrival_rate(arrival_rate_lambda)
    _real(jitter_budget_seconds, "jitter budget", gt=0)
    return _invert(arrival_rate_lambda, jitter_budget_seconds, variant, per_rate=True)


def _bisect_to_budget(func, lo, hi, budget):
    """Bisect func(v) = budget on [lo, hi], where func(lo) <= budget < func(hi).

    Stops when a value within budget matches it to _REL_TOL or the interval
    collapses; returns (v, func(v)) with func(v) <= budget.
    """
    f_lo = func(lo)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if f_mid <= budget and budget - f_mid <= _REL_TOL * budget:
            return mid, f_mid
        if f_mid <= budget:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= _REL_TOL * max(abs(lo), abs(hi)):
            break
    return lo, f_lo
