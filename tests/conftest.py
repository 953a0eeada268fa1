"""Shared fixtures for the repro test suite."""

import random

import pytest

from repro.sim import engine
from repro.sim.engine import Simulator
from tests.backends import PINNED_DEPTH


@pytest.fixture
def sim() -> Simulator:
    """A fresh event engine."""
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for queue disciplines."""
    return random.Random(1234)


@pytest.fixture
def pin_backend(monkeypatch):
    """Pin the scheduler backend of simulators still on the heap.

    The pin applies to every such ``Simulator`` at its next
    ``schedule()`` or ``run()``, including ones built before the call
    and their forks: ``pin_backend("calendar")`` migrates a heap
    simulator to the calendar queue, and ``pin_backend("heap")`` keeps
    it on the heap.  A migrated simulator stays on the calendar queue.
    So a test must finish each backend's runs before it re-pins.
    Scenario builders take no backend choice; this is how a test runs
    one scenario on each backend.
    """
    def pin(scheduler: str) -> None:
        monkeypatch.setattr(engine, "AUTO_CALENDAR_DEPTH", PINNED_DEPTH[scheduler])
    return pin


@pytest.fixture
def make_sim(pin_backend):
    """Build a simulator already on the named backend.

    Pins the backend for every simulator in the test, so a test
    finishes one backend's scheduling before it makes the other's.
    """
    def make(scheduler: str) -> Simulator:
        pin_backend(scheduler)
        sim = Simulator()
        sim.run()  # an empty run applies the pin
        assert sim.scheduler == scheduler
        return sim
    return make


@pytest.fixture(autouse=True)
def _reset_default_runner():
    """Keep the process-wide default runner from leaking between tests."""
    yield
    from repro.runner import set_default_runner

    set_default_runner(None)
