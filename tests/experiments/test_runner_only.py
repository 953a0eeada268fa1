"""Every experiment measures through runner cells.

An AST scan of the driver modules under ``repro.experiments``: none may
import a scenario builder, the mice workload, the engine, the test-bed
or the flight recorder, nor call a network's ``build``, ``run``,
``start_flows`` or ``add_attack``.  Then every simulation an experiment
needs is a cell, so it is cached, stored, planned by a dry run and
replayed warm.  Config types such as ``repro.sim.tcp.TCPConfig`` stay
importable.
"""

import ast
import importlib
import pathlib

import pytest

import repro.experiments

FORBIDDEN_MODULES = ("repro.sim.topology", "repro.sim.workload",
                     "repro.sim.engine", "repro.testbed",
                     "repro.obs.recorder")
FORBIDDEN_CALLS = ("build", "run", "start_flows", "add_attack")

DRIVERS = sorted(
    pathlib.Path(repro.experiments.__file__).parent.glob("*.py"))


def _forbidden(module: str) -> bool:
    return any(module == name or module.startswith(name + ".")
               for name in FORBIDDEN_MODULES)


def _imported(node) -> list:
    """The modules an import node loads, and those its names come from.

    ``from repro.sim import build_dumbbell`` counts as importing
    ``repro.sim.topology``, where the re-exported name is defined.
    """
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = node.module or ""
    found = [module]
    for alias in node.names:
        found.append(f"{module}.{alias.name}")
        try:
            value = getattr(importlib.import_module(module), alias.name)
        except (ImportError, AttributeError):
            continue
        defined_in = getattr(value, "__module__", None)
        if isinstance(defined_in, str):
            found.append(defined_in)
    return found


def violations(source: str) -> list:
    """``(line, what)`` for each forbidden import or call in *source*."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, f"imports {module}")
                      for module in _imported(node) if _forbidden(module)]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in FORBIDDEN_CALLS):
            found.append((node.lineno, f"calls .{node.func.attr}()"))
    return found


@pytest.mark.parametrize("path", DRIVERS, ids=lambda path: path.name)
def test_driver_measures_only_through_cells(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "from repro.sim.topology import DumbbellConfig",
    "from repro.sim import build_dumbbell",
    "import repro.sim.engine",
    "from repro.testbed.dummynet import build_testbed",
    "from repro.obs import recorder",
    "from repro.sim.workload import ShortFlowWorkload",
    "net = platform.build()",
    "net.run(until=3.0)",
    "net.start_flows()",
    "net.add_attack(train).start()",
])
def test_scan_flags(source):
    assert violations(source)


def test_scan_allows_config_types():
    assert violations("from repro.sim.tcp import TCPConfig, TCPVariant\n"
                      "from repro.sim.packet import FULL_PACKET_BYTES") == []
