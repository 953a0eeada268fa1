"""The consolidated REPRO_* environment-variable parsers.

Every knob the package reads from the environment goes through
``repro.util.env``; the contract under test is uniform failure:
a :class:`ValidationError` that names the variable and the offending
value, and "unset or blank means default" everywhere.
"""

import pathlib
import re

import pytest

import repro
from repro.util.env import (
    FALSY,
    TRUTHY,
    env_flag,
    env_float,
    env_int,
    env_raw,
    env_str,
)
from repro.util.errors import ValidationError

VAR = "REPRO_TEST_KNOB"


class TestEnvRaw:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert env_raw(VAR) is None

    @pytest.mark.parametrize("blank", ["", "   ", "\t\n"])
    def test_blank_is_none(self, monkeypatch, blank):
        monkeypatch.setenv(VAR, blank)
        assert env_raw(VAR) is None

    def test_value_is_stripped(self, monkeypatch):
        monkeypatch.setenv(VAR, "  value  ")
        assert env_raw(VAR) == "value"


class TestEnvStr:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert env_str(VAR) is None
        assert env_str(VAR, "fallback") == "fallback"

    def test_value_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(VAR, "/some/path")
        assert env_str(VAR, "fallback") == "/some/path"


class TestEnvFlag:
    @pytest.mark.parametrize("raw", list(TRUTHY) + ["TRUE", " Yes ", "ON"])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(VAR, raw)
        assert env_flag(VAR) is True

    @pytest.mark.parametrize("raw", list(FALSY) + ["False", " off "])
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(VAR, raw)
        assert env_flag(VAR, default=True) is False

    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert env_flag(VAR) is False
        assert env_flag(VAR, default=True) is True

    def test_garbage_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv(VAR, "ture")
        with pytest.raises(ValidationError, match=rf"{VAR}.*'ture'"):
            env_flag(VAR)


class TestEnvInt:
    def test_parses_and_strips(self, monkeypatch):
        monkeypatch.setenv(VAR, " 42 ")
        assert env_int(VAR, 1) == 42

    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert env_int(VAR, 7) == 7

    def test_non_integer_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv(VAR, "two")
        with pytest.raises(ValidationError, match=rf"{VAR}.*'two'"):
            env_int(VAR, 1)

    def test_minimum_in_message(self, monkeypatch):
        monkeypatch.setenv(VAR, "0")
        with pytest.raises(ValidationError, match=rf"{VAR} must be >= 1"):
            env_int(VAR, 1, minimum=1)

    def test_minimum_boundary_accepted(self, monkeypatch):
        monkeypatch.setenv(VAR, "1")
        assert env_int(VAR, 5, minimum=1) == 1


class TestEnvFloat:
    def test_parses(self, monkeypatch):
        monkeypatch.setenv(VAR, "2.5")
        assert env_float(VAR, 0.0) == 2.5

    def test_non_number_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv(VAR, "fast")
        with pytest.raises(ValidationError, match=rf"{VAR}.*'fast'"):
            env_float(VAR, 0.0)

    def test_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv(VAR, "-1.0")
        with pytest.raises(ValidationError, match=rf"{VAR} must be >= 0"):
            env_float(VAR, 0.0, minimum=0.0)


class TestConsumersRouteThroughHelpers:
    """Spot checks that the scattered parsers now share one failure mode."""

    def test_repro_jobs_message_format_preserved(self, monkeypatch):
        from repro.runner import get_default_runner, set_default_runner

        set_default_runner(None)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(
            ValidationError,
            match=r"environment variable REPRO_JOBS must be an integer"
                  r" >= 1, got 'many'",
        ):
            get_default_runner()

    def test_repro_full_garbage_rejected(self, monkeypatch):
        from repro.experiments.base import full_scale

        monkeypatch.setenv("REPRO_FULL", "2")
        with pytest.raises(ValidationError, match="REPRO_FULL"):
            full_scale()


class TestReadmeTable:
    def test_table_lists_exactly_the_variables_read(self):
        # Every REPRO_* name a repro.util.env parser reads in the
        # package is a row of README's "Environment variables" table,
        # and every row is read somewhere.
        package = pathlib.Path(repro.__file__).resolve().parent
        read = set()
        for path in package.rglob("*.py"):
            read.update(re.findall(
                r'env_(?:flag|int|float|str|raw)\(\s*"(REPRO_\w+)"',
                path.read_text()))
        readme = (package.parents[1] / "README.md").read_text()
        section = readme.split("### Environment variables", 1)[1]
        section = section.split("\n#", 1)[0]
        rows = set(re.findall(r"^\| `(REPRO_\w+)` \|", section, re.M))
        assert read
        assert rows == read
