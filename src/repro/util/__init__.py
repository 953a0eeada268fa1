"""Shared utilities: unit helpers, error types, and validation helpers.

Everything in :mod:`repro` works in SI base units internally -- seconds for
time, bits per second for rates, and bytes for packet/queue sizes.  The
helpers here make the unit conventions explicit at API boundaries, so a
caller can write ``mbps(15)`` instead of ``15_000_000`` and ``ms(50)``
instead of ``0.05``.
"""

from repro.util.env import (
    env_flag,
    env_float,
    env_int,
    env_str,
)
from repro.util.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    ValidationError,
)
from repro.util.units import (
    BITS_PER_BYTE,
    Gbps,
    Mbps,
    bits_to_bytes,
    bytes_to_bits,
    gbps,
    kbps,
    mbps,
    ms,
    seconds_to_ms,
    transmission_delay,
    us,
)
from repro.util.validate import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
    check_range,
)

__all__ = [
    "BITS_PER_BYTE",
    "ConfigurationError",
    "Gbps",
    "Mbps",
    "ReproError",
    "SimulationError",
    "ValidationError",
    "bits_to_bytes",
    "bytes_to_bits",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_range",
    "env_flag",
    "env_float",
    "env_int",
    "env_str",
    "gbps",
    "kbps",
    "mbps",
    "ms",
    "seconds_to_ms",
    "transmission_delay",
    "us",
]
