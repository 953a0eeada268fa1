"""Uniform parsing of the ``REPRO_*`` environment variables.

Every knob the package reads from the environment goes through one of
these helpers, so the failure mode is uniform: a
:class:`~repro.util.errors.ValidationError` that names the variable and
the offending value, never a bare ``ValueError`` or a silently-ignored
typo.  The full catalogue of recognized variables is tabulated in the
README ("Environment variables").

Conventions:

* Unset variables -- and variables set to whitespace only -- mean "use
  the default"; values are stripped before parsing.
* Boolean flags accept ``1/true/yes/on`` and ``0/false/no/off``
  (case-insensitive).  Anything else is an error: ``REPRO_FULL=ture``
  should fail loudly, not silently run the scaled-down sweeps.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.util.errors import ValidationError

__all__ = ["env_raw", "env_flag", "env_int", "env_float", "env_str",
           "TRUTHY", "FALSY"]

#: Accepted spellings for boolean environment flags.
TRUTHY: Tuple[str, ...] = ("1", "true", "yes", "on")
FALSY: Tuple[str, ...] = ("0", "false", "no", "off")


def env_raw(name: str) -> Optional[str]:
    """The stripped value of *name*, or ``None`` when unset/blank."""
    value = os.environ.get(name)
    if value is None:
        return None
    value = value.strip()
    return value or None


def env_str(name: str, default: Optional[str] = None) -> Optional[str]:
    """A free-form string variable (paths, labels); blank means default."""
    value = env_raw(name)
    return default if value is None else value


def env_flag(name: str, default: bool = False) -> bool:
    """A boolean flag variable (see :data:`TRUTHY` / :data:`FALSY`)."""
    raw = env_raw(name)
    if raw is None:
        return default
    value = raw.lower()
    if value in TRUTHY:
        return True
    if value in FALSY:
        return False
    raise ValidationError(
        f"environment variable {name} must be a boolean flag "
        f"({'/'.join(TRUTHY)} or {'/'.join(FALSY)}), got {raw!r}"
    )


def env_int(name: str, default: int,
            minimum: Optional[int] = None) -> int:
    """An integer variable, optionally bounded below by *minimum*."""
    raw = env_raw(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        bound = f" >= {minimum}" if minimum is not None else ""
        raise ValidationError(
            f"environment variable {name} must be an integer{bound}, "
            f"got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ValidationError(
            f"environment variable {name} must be >= {minimum}, got {value}"
        )
    return value


def env_float(name: str, default: float,
              minimum: Optional[float] = None) -> float:
    """A float variable, optionally bounded below by *minimum*."""
    raw = env_raw(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(
            f"environment variable {name} must be a number, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ValidationError(
            f"environment variable {name} must be >= {minimum}, got {value}"
        )
    return value
