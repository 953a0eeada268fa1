"""Cache keys, the version fingerprint, and the on-disk store."""

import dataclasses

import pytest

from repro.core.attack import PulseTrain
from repro.runner import (
    Cell,
    CellResult,
    PlatformSpec,
    ResultCache,
    cell_key,
    code_version,
    default_cache_dir,
)
from repro.sim.tcp import TCPConfig, TCPVariant
from repro.util.units import mbps, ms


def cell(**overrides):
    fields = dict(
        platform=PlatformSpec(kind="dumbbell", n_flows=5, seed=1),
        warmup=2.0,
        window=10.0,
        train=PulseTrain.from_gamma(
            gamma=0.5, rate_bps=mbps(30), extent=ms(100),
            bottleneck_bps=mbps(15), n_pulses=3,
        ),
    )
    fields.update(overrides)
    return Cell(**fields)


class TestCellKey:
    def test_stable_for_equal_cells(self):
        assert cell_key(cell()) == cell_key(cell())

    def test_distinguishes_seed(self):
        other = cell(platform=PlatformSpec(kind="dumbbell", n_flows=5, seed=2))
        assert cell_key(cell()) != cell_key(other)

    def test_distinguishes_platform_config(self):
        droptail = cell(platform=PlatformSpec(
            kind="dumbbell", n_flows=5, seed=1, queue="droptail",
        ))
        sack = cell(platform=PlatformSpec(
            kind="dumbbell", n_flows=5, seed=1,
            tcp=TCPConfig(variant=TCPVariant.SACK),
        ))
        keys = {cell_key(cell()), cell_key(droptail), cell_key(sack)}
        assert len(keys) == 3

    def test_distinguishes_train(self):
        shorter = cell(train=PulseTrain.from_gamma(
            gamma=0.5, rate_bps=mbps(30), extent=ms(50),
            bottleneck_bps=mbps(15), n_pulses=3,
        ))
        assert cell_key(cell()) != cell_key(shorter)

    def test_distinguishes_window_and_warmup(self):
        keys = {
            cell_key(cell()),
            cell_key(cell(window=20.0)),
            cell_key(cell(warmup=4.0)),
        }
        assert len(keys) == 3

    def test_distinguishes_code_version(self):
        assert (cell_key(cell(), version="aaaa")
                != cell_key(cell(), version="bbbb"))

    def test_default_version_is_the_fingerprint(self):
        assert cell_key(cell()) == cell_key(cell(), version=code_version())

    def test_distinguishes_backend(self):
        # Fluid and packet measurements of the same scenario must never
        # collide in the cache.
        packet = cell()
        fluid = dataclasses.replace(packet, backend="fluid")
        assert cell_key(packet) != cell_key(fluid)
        # Default packet cells keep their historical identity: no
        # backend key appears in their description.
        assert "backend" not in packet.describe()
        assert fluid.describe()["backend"] == "fluid"

    def test_distinguishes_fluid_integration_step(self):
        # A coarsely integrated pre-pass result must never answer for a
        # full-fidelity fluid measurement (or vice versa).
        fluid = dataclasses.replace(cell(), backend="fluid")
        coarse = dataclasses.replace(fluid, fluid_max_step=0.05)
        assert cell_key(fluid) != cell_key(coarse)
        assert "fluid_max_step" not in fluid.describe()
        assert coarse.describe()["fluid_max_step"] == 0.05

    def test_backend_round_trips_through_the_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        packet = cell()
        fluid = dataclasses.replace(packet, backend="fluid")
        cache.put(cell_key(packet), CellResult(goodput_bytes=1.0),
                  meta={"cell": packet.describe()})
        cache.put(cell_key(fluid), CellResult(goodput_bytes=2.0),
                  meta={"cell": fluid.describe()})
        assert cache.get(cell_key(packet)).goodput_bytes == 1.0
        assert cache.get(cell_key(fluid)).goodput_bytes == 2.0


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro-pdos"


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key(cell())
        cache.put(key, CellResult(goodput_bytes=12345.5, flagged_sources=2))
        hit = cache.get(key)
        assert hit == CellResult(goodput_bytes=12345.5, flagged_sources=2)

    def test_series_fields_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = CellResult(goodput_bytes=3.0,
                            flow_goodput_bytes=(1.0, 0.1 + 0.2),
                            arrival_bytes=(0.0, 1500.0, 40.0))
        cache.put("ab" + "0" * 62, result)
        assert cache.get("ab" + "0" * 62) == result

    def test_cwnd_and_mice_fields_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = CellResult(goodput_bytes=3.0,
                            cwnd_rows=((8.0, 0, 12.5), (8.1, 0, 0.1 + 0.2)),
                            mice_launched=7, mice_fcts=(0.25, 1 / 3))
        cache.put("cd" + "0" * 62, result)
        hit = cache.get("cd" + "0" * 62)
        assert hit == result
        assert [type(v) for v in hit.cwnd_rows[1]] == [float, int, float]
        assert type(hit.mice_launched) is int

    def test_floats_survive_bit_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = 0.1 + 0.2  # not representable exactly; repr round-trips
        cache.put("ab" + "0" * 62, CellResult(goodput_bytes=value))
        assert cache.get("ab" + "0" * 62).goodput_bytes == value

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("ff" + "0" * 62) is None

    def test_corrupt_entry_tolerated(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        cache.put(key, CellResult(goodput_bytes=1.0))
        (tmp_path / key[:2] / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put("ab" + "0" * 62, CellResult(goodput_bytes=1.0))
        cache.put("cd" + "0" * 62, CellResult(goodput_bytes=2.0))
        assert len(cache) == 2

    def test_meta_rides_along_without_affecting_get(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, CellResult(goodput_bytes=3.0),
                  meta={"cell": {"window": 10.0}, "elapsed": 1.5})
        payload = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())
        assert payload["meta"]["elapsed"] == 1.5
        assert cache.get(key).goodput_bytes == 3.0


class TestCodeVersion:
    def test_stable_within_a_process(self):
        assert code_version() == code_version()

    def test_is_a_short_hex_digest(self):
        version = code_version()
        assert len(version) == 16
        int(version, 16)  # raises if not hex

    def test_backends_have_distinct_fingerprints(self):
        # The packet fingerprint excludes the fluid module (the packet
        # executor never imports it), so recalibrating the fluid model
        # cannot invalidate packet-level cache entries.
        assert code_version("packet") != code_version("fluid")
