"""Persistent on-disk result cache keyed by scenario content hashes.

A cache key is the SHA-256 of the cell's full serialized identity --
platform config (topology kind, flow count, queue discipline, TCP
stack), pulse train or deployment, warmup, window, seed, and detector
settings -- combined with a *code-version fingerprint*: a hash over the
source of every module the measurement depends on (``repro.sim``,
``repro.testbed``, ``repro.core``, ``repro.detection``, and the cell
executor itself).  Editing any simulation code therefore invalidates
prior entries automatically; there is no manual versioning to forget.

Entries are one small JSON file each, sharded two levels deep by key
prefix, written atomically (temp file + rename) so concurrent workers
and concurrent sweep invocations can share one cache directory.
Floats survive the JSON round trip bit-exactly (``repr``-based shortest
round-trip encoding), so replayed results equal executed ones.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Optional

from repro.runner.cells import Cell, CellResult
from repro.util.env import env_str

__all__ = ["ResultCache", "cell_key", "code_version", "default_cache_dir"]

#: Packages/modules whose source participates in the version fingerprint.
_VERSIONED = (
    "sim",
    "testbed",
    "core",
    "detection",
    "runner/cells.py",
)

#: The fluid (ODE) backend lives in one module the packet executor
#: never imports (``execute_cell`` loads it lazily).  Packet cells
#: exclude it from their fingerprint, so recalibrating the fluid model
#: cannot invalidate expensive packet-level results; fluid cells
#: include it, so a calibration edit re-runs exactly the fluid entries.
_FLUID_MODULE = "sim/fluid.py"


@functools.lru_cache(maxsize=None)
def code_version(backend: str = "packet") -> str:
    """Fingerprint of the source tree *backend* measurements depend on."""
    import repro

    base = pathlib.Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for entry in _VERSIONED:
        target = base / entry
        if target.is_dir():
            files = sorted(target.rglob("*.py"))
        else:
            files = [target]
        for path in files:
            relative = str(path.relative_to(base))
            if backend == "packet" and relative == _FLUID_MODULE:
                continue
            digest.update(relative.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cell_key(cell: Cell, version: Optional[str] = None) -> str:
    """The cache key of *cell*: content hash of scenario + code version."""
    payload = {
        "cell": cell.describe(),
        "code": version if version is not None else code_version(cell.backend),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-pdos``."""
    env = env_str("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = env_str("XDG_CACHE_HOME")
    root = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return root / "repro-pdos"


def _floats(values) -> Optional[tuple]:
    """A cached JSON list back as the result's tuple of floats."""
    return None if values is None else tuple(float(v) for v in values)


class ResultCache:
    """A directory of cached :class:`CellResult` entries."""

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[CellResult]:
        """The cached result, or ``None`` on miss (or a corrupt entry)."""
        try:
            payload = json.loads(self._path(key).read_text())
            flagged = payload["flagged_sources"]
            converged = payload.get("converged_at")
            return CellResult(
                goodput_bytes=float(payload["goodput_bytes"]),
                flagged_sources=None if flagged is None else int(flagged),
                converged_at=None if converged is None else float(converged),
                flow_goodput_bytes=_floats(payload.get("flow_goodput_bytes")),
                arrival_bytes=_floats(payload.get("arrival_bytes")),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, result: CellResult,
            meta: Optional[dict] = None) -> None:
        """Store *result* atomically; *meta* rides along for inspection."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "goodput_bytes": result.goodput_bytes,
            "flagged_sources": result.flagged_sources,
            "converged_at": result.converged_at,
            "flow_goodput_bytes": result.flow_goodput_bytes,
            "arrival_bytes": result.arrival_bytes,
        }
        if meta:
            payload["meta"] = meta
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, suffix=".tmp", delete=False,
        )
        try:
            with handle:
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("??/*.json"))
