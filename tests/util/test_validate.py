"""Argument validation helpers."""

import math

import pytest

from repro.util.errors import ValidationError
from repro.util.validate import (
    check_fraction,
    check_int,
    check_non_negative,
    check_positive,
    check_probability,
    check_range,
)


class TestCheckInt:
    def test_accepts_int_at_minimum(self):
        assert check_int("n", 3, 3) == 3
        assert check_int("n", -7) == -7

    @pytest.mark.parametrize("value", [2.0, 2.5, True, None, "3"])
    def test_rejects_non_int(self, value):
        with pytest.raises(ValidationError, match="n must be an int"):
            check_int("n", value)

    def test_rejects_below_minimum(self):
        with pytest.raises(ValidationError, match="n must be >= 3, got 2"):
            check_int("n", 2, 3)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    def test_returns_float(self):
        assert isinstance(check_positive("x", 3), float)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError, match="x"):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive("x", -1)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive("x", math.nan)

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            check_positive("x", math.inf)

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive("x", True)

    def test_rejects_string(self):
        with pytest.raises(ValidationError):
            check_positive("x", "5")  # type: ignore[arg-type]


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_accepts_positive(self):
        assert check_non_negative("x", 7) == 7.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative("x", -0.001)


class TestCheckFraction:
    def test_accepts_interior(self):
        assert check_fraction("x", 0.5) == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_fraction("x", 0.0)

    def test_rejects_one(self):
        with pytest.raises(ValidationError):
            check_fraction("x", 1.0)

    def test_rejects_above_one(self):
        with pytest.raises(ValidationError):
            check_fraction("x", 1.5)


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0

    def test_rejects_above(self):
        with pytest.raises(ValidationError):
            check_probability("p", 1.0001)

    def test_rejects_below(self):
        with pytest.raises(ValidationError):
            check_probability("p", -0.0001)


class TestCheckRange:
    def test_inclusive_bounds(self):
        assert check_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_exclusive_bounds_rejected(self):
        with pytest.raises(ValidationError):
            check_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_exclusive_interior_accepted(self):
        assert check_range("x", 1.5, 1.0, 2.0, inclusive=False) == 1.5

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            check_range("x", 3.0, 1.0, 2.0)

    def test_error_message_names_argument(self):
        with pytest.raises(ValidationError, match="myarg"):
            check_range("myarg", 3.0, 1.0, 2.0)


class TestErrorHierarchy:
    def test_validation_error_is_value_error(self):
        from repro.util.errors import ReproError

        assert issubclass(ValidationError, ValueError)
        assert issubclass(ValidationError, ReproError)

    def test_all_errors_share_base(self):
        from repro.util.errors import (
            ConfigurationError,
            ReproError,
            SimulationError,
        )

        for exc in (ConfigurationError, SimulationError, ValidationError):
            assert issubclass(exc, ReproError)
