"""Closed-form model: frozen oracle values, identities, and inversions."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from qoskit import model
from qoskit.errors import DomainError, InfeasibleBudgetError, QoskitError
from qoskit.model import (
    LinkParams,
    analytical_jitter,
    invert_capacity_for_jitter,
    invert_load_for_jitter,
    loss_from_throughput,
)
from qoskit.sim import SimConfig


class TestOfferedLoad:
    """The simulator's offered load ``SimConfig.rho``, which unlike
    ``LinkParams.load_rho`` may reach and pass 1 behind a finite buffer."""

    def test_direct_ratio(self):
        assert SimConfig(1000.0, 500.0).rho == 0.5
        assert SimConfig(1000.0, 500.0).rho == LinkParams(1000.0, 500.0).load_rho

    def test_no_traffic(self):
        with pytest.raises(DomainError, match="arrival rate"):
            SimConfig(1000.0, 0.0)

    def test_saturation_boundary(self):
        assert SimConfig(800.0, 800.0, buffer_capacity=10).rho == 1.0
        with pytest.raises(DomainError, match="an unbounded queue is unstable"):
            SimConfig(800.0, 800.0)

    def test_overload_behind_a_finite_buffer(self):
        assert SimConfig(800.0, 1600.0, buffer_capacity=10).rho == 2.0

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(0.0, 10.0)
        with pytest.raises(DomainError):
            SimConfig(-5.0, 10.0)


class TestLinkParams:
    def test_rho_is_derived(self):
        p = LinkParams(1000.0, 250.0)
        assert p.load_rho == 0.25
        assert LinkParams.from_rho(1000.0, 0.5).arrival_rate_lambda == 500.0

    def test_zero_arrivals_undefined_jitter(self):
        with pytest.raises(DomainError, match="arrival rate is zero"):
            LinkParams(1000.0, 0.0)

    def test_saturation_unstable(self):
        with pytest.raises(DomainError, match="an unbounded queue is unstable"):
            LinkParams(1000.0, 1000.0)
        with pytest.raises(DomainError, match="an unbounded queue is unstable"):
            LinkParams.from_rho(1000.0, 1.0)

    def test_bad_capacity(self):
        with pytest.raises(DomainError):
            LinkParams(0.0, 10.0)


class TestAnalyticalJitter:
    def test_half_load_frozen_value(self):
        """At rho = 0.5 the shape argument is x = 1, so the prediction is
        (1 - e^-1 - e^-2) / (C - lambda); evaluated independently here."""
        oracle = (1.0 - math.exp(-1.0) - math.exp(-2.0)) / 500.0
        jitter = analytical_jitter(LinkParams(1000.0, 500.0))
        assert jitter == pytest.approx(oracle, rel=1e-14)
        assert jitter == pytest.approx(9.9357055118389e-4, rel=1e-12)

    def test_low_load_limit_is_service_scale(self):
        """Near zero load consecutive packets see an empty queue, so the
        delay difference is the difference of two independent exponential
        service times, whose mean absolute value is exactly 1/C."""
        jitter = analytical_jitter(LinkParams(1000.0, 1e-3))
        assert jitter == pytest.approx(1.0e-3, rel=1e-5)

    def test_near_saturation_finite_positive(self):
        jitter = analytical_jitter(LinkParams(1000.0, 999.0))
        assert math.isfinite(jitter)
        assert jitter > 0

    @pytest.mark.parametrize("rho", [0.99, 0.999, 0.9999, 0.99999, 0.999999])
    def test_accurate_near_saturation(self, rho):
        """Against a 200-bit evaluation of the same inputs: near rho -> 1
        the bracket's terms cancel, and 1 - rho would round rho first."""
        mpmath = pytest.importorskip("mpmath")
        params = LinkParams.from_rho(1000.0, rho)
        with mpmath.workprec(200):
            c = mpmath.mpf(params.capacity_C)
            lam = mpmath.mpf(params.arrival_rate_lambda)
            x = (c - lam) / lam
            exact = (1 - x * mpmath.exp(-x) - mpmath.exp(-2 * x)) / (c - lam)
            error = abs((analytical_jitter(params) - exact) / exact)
        assert error <= 1e-15

    def test_vanishing_load_reaches_the_low_load_limit(self):
        """lambda / C underflows to 0 here and (C - lambda) / lambda to inf;
        the bracket is then 1, so J = 1/C rather than NaN."""
        params = LinkParams(1e300, 1e-300)
        assert analytical_jitter(params) == 1.0 / 1e300
        assert analytical_jitter(params, "printed-literal") == 0.0

    @pytest.mark.parametrize("rho", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999])
    def test_positive_on_stable_range(self, rho):
        jitter = analytical_jitter(LinkParams.from_rho(1000.0, rho))
        assert jitter > 0
        assert math.isfinite(jitter)

    def test_printed_literal_is_negative(self):
        """The literal reading simplifies to -x e^-x / (C - lambda): negative
        everywhere on the stable range, kept for documentation only."""
        jitter = analytical_jitter(LinkParams(1000.0, 500.0), "printed-literal")
        assert jitter == pytest.approx(-math.exp(-1.0) / 500.0, rel=1e-14)
        assert jitter < 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            analytical_jitter(LinkParams(1000.0, 500.0), "no-such-variant")

    @given(
        rho=st.floats(min_value=1e-3, max_value=0.999),
        capacity=st.floats(min_value=1e-3, max_value=1e9),
        k=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_scale_covariance(self, rho, capacity, k):
        """At fixed load the prediction scales as 1/C: J(kC, k*lambda) = J(C, lambda)/k."""
        j1 = analytical_jitter(LinkParams.from_rho(capacity, rho))
        j2 = analytical_jitter(LinkParams.from_rho(k * capacity, rho))
        assert j2 * k == pytest.approx(j1, rel=1e-9)


class TestLossThroughputIdentity:
    def test_direct_substitution(self):
        assert loss_from_throughput(100, 90) == pytest.approx(0.10, abs=0)

    def test_lossless(self):
        assert loss_from_throughput(100, 100) == 0.0

    def test_total_loss(self):
        assert loss_from_throughput(100, 0) == 1.0

    def test_throughput_above_arrivals_inconsistent(self):
        with pytest.raises(DomainError, match="exceeds the arrival rate"):
            loss_from_throughput(100, 101)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            loss_from_throughput(0, 0)

    @given(
        lam=st.floats(min_value=1e-6, max_value=1e12),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip_identity(self, lam, frac):
        """The throughput lambda * (1 - B) of the loss B computed from a
        throughput X is X to 1e-12 relative."""
        x = lam * frac
        loss = loss_from_throughput(lam, x)
        assert lam * (1.0 - loss) == pytest.approx(x, rel=1e-12, abs=1e-12 * lam)


class TestLoadGrid:
    """A model curve over a load grid is one ``LinkParams.from_rho`` and one
    ``analytical_jitter`` per point."""

    def test_single_point_matches_forward_evaluation(self):
        params = LinkParams.from_rho(1000.0, 0.5)
        oracle = (1.0 - math.exp(-1.0) - math.exp(-2.0)) / 500.0
        assert analytical_jitter(params) == pytest.approx(oracle, rel=1e-14)
        assert params.arrival_rate_lambda == 500.0

    def test_nine_point_grid_all_positive(self):
        grid = [round(0.1 * k, 1) for k in range(1, 10)]
        points = [LinkParams.from_rho(1000.0, rho) for rho in grid]
        assert [p.load_rho for p in points] == grid
        assert all(analytical_jitter(p) > 0 for p in points)

    def test_out_of_range_load_rejected(self):
        with pytest.raises(DomainError, match="arrival rate is zero"):
            LinkParams.from_rho(1000.0, 0.0)
        with pytest.raises(DomainError, match="an unbounded queue is unstable"):
            LinkParams.from_rho(1000.0, 1.5)
        with pytest.raises(DomainError, match="arrival rate"):
            LinkParams.from_rho(1000.0, -0.1)


class TestInvertLoad:
    def test_huge_budget_unconstrained(self):
        res = invert_load_for_jitter(1000.0, 10.0)
        assert not res.constrained
        assert res.value == pytest.approx(1000.0, rel=1e-5)

    def test_tiny_budget_infeasible_reports_minimum(self):
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            invert_load_for_jitter(1000.0, 1e-9)
        # the attainable minimum of J over the bracket is just under 1/C
        assert 0.9e-3 < excinfo.value.attained_min < 1.0e-3

    @pytest.mark.parametrize("rho", [0.65, 0.7, 0.8, 0.9])
    def test_round_trip_on_monotone_segment(self, rho):
        """Forward then backward recovers the load on the rising tail of the
        curve, and the jitter at the solution matches the budget to 1e-9."""
        capacity = 1000.0
        budget = analytical_jitter(LinkParams.from_rho(capacity, rho))
        res = invert_load_for_jitter(capacity, budget)
        assert res.constrained
        achieved = analytical_jitter(LinkParams(capacity, res.value))
        assert abs(achieved - budget) <= 1e-9 * budget
        assert res.value == pytest.approx(rho * capacity, rel=1e-6)

    def test_returns_largest_feasible_load(self):
        """With a budget above the curve's tail value the constraint cannot
        bind anywhere to the right, so the bracket ceiling is the answer."""
        capacity = 1000.0
        budget = analytical_jitter(LinkParams.from_rho(capacity, 0.3))
        res = invert_load_for_jitter(capacity, budget)
        assert not res.constrained
        assert res.value > 0.99 * capacity
        assert res.jitter_seconds <= budget

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            invert_load_for_jitter(-1.0, 1e-3)
        with pytest.raises(DomainError):
            invert_load_for_jitter(1000.0, 0.0)


@pytest.mark.parametrize(
    "invert,fixed,budgets",
    [
        (invert_load_for_jitter, 1000.0, [0.00099 + 0.00001 * k for k in range(24)]),
        (invert_capacity_for_jitter, 600.0, [0.0002 * 1.2**k for k in range(24)]),
    ],
)
def test_inversion_never_exceeds_budget(invert, fixed, budgets):
    """The bisection may stop within 1e-9 of the budget, but only from the
    feasible side: the jitter at the solution is at most the budget itself."""
    for budget in budgets:
        res = invert(fixed, budget)
        assert res.jitter_seconds <= budget, (budget, res)


def test_bisection_stops_when_the_interval_collapses():
    """A function that jumps over the budget: no value within budget comes
    within 1e-9 of it, so the bisection stops once the interval shrinks to
    1e-9 of its ends, about 32 halvings of [0, 3] rather than all 200, and
    returns the end on the feasible side."""
    calls = []

    def jump(v):
        calls.append(v)
        return 0.5 if v <= 1.0 else 2.0

    v, f = model._bisect_to_budget(jump, 0.0, 3.0, 1.0)
    assert f == 0.5 and v <= 1.0
    assert v == pytest.approx(1.0, rel=2e-9)
    assert len(calls) < 40


def test_answer_within_budget_where_the_prediction_rounds_above_the_curve():
    """Here the budget is one ulp below the prediction at the load ceiling,
    yet the scaled curve there, C * J = h(rho), is within budget * C: the
    two round apart by a few ulps. The search runs again one ulp lower and
    answers below the ceiling, within budget."""
    capacity, budget = 870457.6567946738, 1.1488209589449524e-06
    ceiling = analytical_jitter(LinkParams.from_rho(capacity, 1 - 1e-6))
    assert math.nextafter(ceiling, 0.0) == budget
    assert model._load_curve(1 - 1e-6, "nonneg-v1", False) <= budget * capacity
    res = invert_load_for_jitter(capacity, budget)
    assert res.constrained and res.value < (1 - 1e-6) * capacity
    assert res.jitter_seconds <= budget


@pytest.mark.parametrize("target", [0.99, 0.995, 2.0], ids=["low", "high", "free"])
@pytest.mark.parametrize("k", [-1000, -500, -1, 1, 500, 1000])
def test_load_answer_scales_with_capacity(target, k):
    """J depends on C and lambda only through rho, with a 1/C scale, so
    scaling C by 2**k and the budget by 2**-k scales the answer by exactly
    2**k, out to C = 2**1020 and 2**-980."""
    capacity = 2.0 ** 20
    budget = target / capacity
    base = invert_load_for_jitter(capacity, budget)
    scaled = invert_load_for_jitter(math.ldexp(capacity, k), math.ldexp(budget, -k))
    assert scaled.value == math.ldexp(base.value, k)
    assert scaled.jitter_seconds == math.ldexp(base.jitter_seconds, -k)
    assert scaled.constrained == base.constrained == (target < 1)


@settings(max_examples=300)
@given(load=st.booleans(), fixed=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
       budget=st.floats(min_value=1e-320, max_value=1e308))
def test_inversion_across_the_double_range(load, fixed, budget):
    """Any finite C or lambda and any budget: either an answer whose jitter
    is the prediction at it and within budget, or an error that prints no
    value beyond the range of a double."""
    invert = invert_load_for_jitter if load else invert_capacity_for_jitter
    try:
        res = invert(fixed, budget)
    except QoskitError as exc:
        assert not re.search(r"\b(inf|nan)\b", str(exc), re.IGNORECASE), str(exc)
        return
    params = LinkParams(fixed, res.value) if load else LinkParams(res.value, fixed)
    assert res.jitter_seconds == analytical_jitter(params) <= budget


class TestInvertCapacity:
    @pytest.mark.parametrize("lam,capacity", [(600.0, 1000.0), (50.0, 500.0), (900.0, 2000.0)])
    def test_round_trip(self, lam, capacity):
        budget = analytical_jitter(LinkParams(capacity, lam))
        res = invert_capacity_for_jitter(lam, budget)
        assert res.constrained
        assert res.value == pytest.approx(capacity, rel=1e-4)
        assert abs(res.jitter_seconds - budget) <= 1e-9 * budget

    def test_self_consistency(self):
        budget = analytical_jitter(LinkParams(1000.0, 600.0))
        res = invert_capacity_for_jitter(600.0, budget)
        achieved = analytical_jitter(LinkParams(res.value, 600.0))
        assert achieved <= budget * (1 + 1e-9)

    def test_zero_arrivals_propagates_undefined_jitter(self):
        with pytest.raises(DomainError, match="arrival rate is zero"):
            invert_capacity_for_jitter(0.0, 1e-3)

    def test_unattainable_budget_infeasible(self):
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            invert_capacity_for_jitter(1000.0, 1e-15)
        assert excinfo.value.attained_min > 0

    def test_monotone_decreasing_in_capacity(self):
        """The bisection relies on J falling as capacity grows at fixed lambda."""
        lam = 700.0
        capacities = [lam * f for f in (1.001, 1.01, 1.1, 1.5, 2, 5, 10, 100, 1e4)]
        jitters = [analytical_jitter(LinkParams(c, lam)) for c in capacities]
        assert all(a > b for a, b in zip(jitters, jitters[1:]))
