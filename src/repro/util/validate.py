"""Small argument-validation helpers used across the package.

Each helper returns the validated value so call sites can validate and
assign in one expression::

    self.rate_bps = check_positive("rate_bps", rate_bps)
"""

from __future__ import annotations

import math
from typing import Optional

from repro.util.errors import ValidationError


def _check_finite_number(name: str, value: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def check_int(name: str, value: int, minimum: Optional[int] = None) -> int:
    """Require an int (not a bool) of at least *minimum*; return it.

    A bool is an int to Python, and a float count would only fail later,
    deep inside ``range`` or ``np.linspace``, with a raw ``TypeError``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it as a float."""
    value = _check_finite_number(name, value)
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it as a float."""
    value = _check_finite_number(name, value)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 < value < 1`` (an open-interval fraction); return it."""
    value = _check_finite_number(name, value)
    if not 0 < value < 1:
        raise ValidationError(f"{name} must be in (0, 1), got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it as a float."""
    value = _check_finite_number(name, value)
    if not 0 <= value <= 1:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def check_range(name: str, value: float, low: float, high: float,
                *, inclusive: bool = True) -> float:
    """Require *value* to lie in ``[low, high]`` (or ``(low, high)``)."""
    value = _check_finite_number(name, value)
    if inclusive:
        if not low <= value <= high:
            raise ValidationError(f"{name} must be in [{low}, {high}], got {value}")
    else:
        if not low < value < high:
            raise ValidationError(f"{name} must be in ({low}, {high}), got {value}")
    return value
