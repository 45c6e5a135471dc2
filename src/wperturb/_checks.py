"""Operand rules, one helper per rule, used by every module of the package.

The helpers are ``_require_same_points`` (one point set), ``_float_array``
(a new float array of a shape, all finite), ``_check_unit``, ``_check_C``,
``_check_V_mean``, ``_check_nonnegative``, ``_check_positive``,
``_check_count``, ``_check_index``, ``_check_horizon``, ``_check_roots``
and ``_check_samples``; the README tabulates each rule with its message.
The scalar rules run on every bound: each is one plain comparison that
NaN fails, and no message is formatted before a failure.
"""
import math
import sys

import numpy as np

from .errors import SpaceMismatchError


def _require_same_points(**operands) -> None:
    """Raise SpaceMismatchError unless every operand lives on the point set
    of the first.  Each operand is a FiniteMetricSpace or has a ``.space``;
    operands that are None are skipped.  The keywords name the operands in
    the message."""
    items = iter(operands.items())
    first, ref = next(items)
    ref = getattr(ref, "space", ref)
    for name, x in items:
        if x is not None and not ref.same_points(getattr(x, "space", x)):
            raise SpaceMismatchError(f"{name} lives on another point set than {first}")


def _float_array(values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a new float array; ValueError unless it has ``shape``
    and every entry is finite.  ``what`` names the values in the message."""
    out = np.array(values, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, not {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    return out


def _check_unit(**values: float) -> None:
    for name, value in values.items():
        if not (0.0 <= value < 1.0):
            raise ValueError(f"{name} must lie in [0, 1)")


def _check_C(C: float) -> None:
    if not 1.0 <= C < math.inf:
        raise ValueError("C must be at least 1 and finite, since tau(P^0) = 1")


def _check_V_mean(**values: float) -> None:
    for name, value in values.items():
        if not 1.0 - 1e-12 <= value < math.inf:
            raise ValueError(f"{name} must be at least 1 and finite, since V >= 1")


def _check_nonnegative(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite")


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")


def _check_count(lo: int, **values) -> None:
    for name, value in values.items():
        # a bool is an int to Python, but no count
        if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                and value >= lo):
            kind = {0: "a nonnegative integer", 1: "a positive integer"}
            raise ValueError(f"{name} must be {kind.get(lo, f'an integer >= {lo}')}")


def _check_index(size: int, **values) -> None:
    """Raise ValueError unless each value indexes one of ``size`` points."""
    _check_count(0, **values)
    for name, value in values.items():
        if not value < size:
            raise ValueError(f"{name} must be below {size}, the number of points")


def _check_horizon(n) -> None:
    if n != math.inf and not (n >= 0 and int(n) == n):
        raise ValueError("n must be a nonnegative integer or math.inf")
    if n != math.inf and n > sys.float_info.max:  # rho ** n would overflow
        raise ValueError("n past the float range must be math.inf")


def _check_roots(**values: float) -> None:
    for name, value in values.items():
        if not abs(value) < 1.0:
            raise ValueError(f"|{name}| must be < 1, got {value}")


def _check_samples(*samples: np.ndarray) -> None:
    if not all(np.isfinite(x).all() for x in samples):
        raise ValueError("samples must be finite")
