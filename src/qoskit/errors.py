"""Exception types shared across the toolkit.

Everything derives from QoskitError, which the CLI catches. A bad argument,
or an operation undefined on its input, raises DomainError, whose message
says which. Two classes carry a value a caller can act on:
InfeasibleBudgetError the attainable minimum, TraceParseError the line.

The same module holds the one definition of a valid argument, used by every
public constructor and function: a number is an ``int``, a ``float`` or a
numpy integer or floating scalar, never a ``bool``, and it is finite and in
range. A value that is not raises DomainError, worded
``"{what} must be ..., got {value!r}"``.
"""

import numpy as np


class QoskitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(QoskitError, ValueError):
    """An argument is outside the domain an operation is defined on: a bad
    value, an unstable load, an undefined jitter or correlation, too few
    samples, counters that disagree, or nothing to simulate."""


class InfeasibleBudgetError(QoskitError, ValueError):
    """No point in the search bracket satisfies the jitter budget.

    Carries the best (smallest) jitter attainable on the bracket, in seconds.
    """

    def __init__(self, message: str, attained_min: float):
        super().__init__(message)
        self.attained_min = attained_min


class TraceParseError(QoskitError, ValueError):
    """A log file failed validation. Carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


_REALS = (int, float, np.integer, np.floating)
_INTEGERS = (int, np.integer)
_INF = float("inf")


def _real(value, what: str, *, gt=-_INF, ge=-_INF, lt=_INF, le=_INF) -> None:
    """Raise DomainError unless ``value`` is a finite number with
    ``gt < value < lt`` and ``ge <= value <= le``.

    The infinite defaults make the strict pair the finiteness test, which a
    NaN fails too.
    """
    if ((type(value) is float or isinstance(value, _REALS) and not isinstance(value, bool))
            and gt < value < lt and ge <= value <= le):
        return
    bounds = [f"{op} {bound}" for op, bound in ((">", gt), (">=", ge), ("<", lt), ("<=", le))
              if bound not in (_INF, -_INF)]
    raise DomainError(f"{what} must be a finite number {' and '.join(bounds)}".rstrip()
                      + f", got {value!r}")


def _count(value, what: str, minimum=None) -> None:
    """Raise DomainError unless ``value`` is an integer, at least ``minimum``
    when one is given."""
    if ((type(value) is int or isinstance(value, _INTEGERS) and not isinstance(value, bool))
            and (minimum is None or value >= minimum)):
        return
    kind = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}.get(
        minimum, f"an integer >= {minimum}")
    raise DomainError(f"{what} must be {kind}, got {value!r}")


def _seed(value, what: str) -> int:
    """``value`` as an ``int``, raising DomainError unless it is an integer
    in [0, 2**64), the range every seed and seed index of qoskit takes."""
    _count(value, what, 0)
    if int(value) >= 1 << 64:
        raise DomainError(f"{what} must be below 2**64, got {value!r}")
    return int(value)


def _parse(text: str, what: str, kind=float):
    """``kind(text)``, raising DomainError that names ``what`` when the
    text is not a number of that kind."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"{what}: cannot parse {text!r} as {kind.__name__}") from None
