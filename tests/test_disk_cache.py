"""Tests for the persistent disk cache tier and the tiered composition.

Covers the tentpole guarantees:

* round-trip of dataset values through the framed/checksummed payload format,
* LRU eviction order under the size bound (touching an entry protects it),
* recovery from corrupted/truncated/foreign cache files (counted, discarded,
  never fatal),
* concurrent writers through separate ``DiskCache`` instances sharing one
  root (coordination purely via the filesystem, as between processes),
* the headline incremental property: a second run of an unchanged pipeline
  against a warm disk cache executes **zero** filter nodes, including through
  the script executor (``ExecutionResult.nodes_executed``).
"""

import threading

import pytest

from repro.datamodel import CachePayloadError, dumps_payload, loads_payload
from repro.engine import (
    DiskCache,
    Engine,
    Pipeline,
    ResultCache,
    TieredCache,
    configure_shared_cache,
    shared_cache,
)
from repro.pvsim import state


@pytest.fixture(autouse=True)
def _fresh_session():
    state.reset_session()
    yield
    state.reset_session()
    configure_shared_cache(None)  # never leak a disk tier into other tests


SMALL_EXTENT = [-4, 4, -4, 4, -4, 4]


def build_chain(pipeline: Pipeline, isovalue: float = 120.0):
    src = pipeline.source("Wavelet", WholeExtent=list(SMALL_EXTENT))
    sliced = src.then("Slice", SliceType={"Origin": [0.0, 0.0, 0.0], "Normal": [1.0, 0.0, 0.0]})
    return sliced.then("Contour", ContourBy=["POINTS", "RTData"], Isosurfaces=[isovalue])


# --------------------------------------------------------------------------- #
# payload framing
# --------------------------------------------------------------------------- #
class TestPayloadFormat:
    def test_round_trip_dataset(self):
        from repro.data import generate_marschner_lobb

        dataset = generate_marschner_lobb(6)
        restored = loads_payload(dumps_payload(dataset))
        assert restored is not dataset
        assert restored.content_fingerprint() == dataset.content_fingerprint()

    def test_equal_content_serializes_identically(self):
        """Fingerprint memoization must not leak into the bytes."""
        from repro.data import generate_marschner_lobb

        a = generate_marschner_lobb(5)
        b = generate_marschner_lobb(5)
        a.content_fingerprint()  # memoize on one of them only
        assert dumps_payload(a) == dumps_payload(b)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda data: data[: len(data) // 2],  # truncated
            lambda data: b"XXXX" + data[4:],  # wrong magic
            lambda data: data[:-8] + b"\x00" * 8,  # scribbled payload
            lambda data: b"",  # empty file
        ],
    )
    def test_corrupt_payloads_raise_one_error_type(self, mutate):
        data = dumps_payload({"x": 1})
        with pytest.raises(CachePayloadError):
            loads_payload(mutate(data))


# --------------------------------------------------------------------------- #
# disk tier
# --------------------------------------------------------------------------- #
class TestDiskCache:
    def test_round_trip_and_stats(self, tmp_path):
        cache = DiskCache(tmp_path)
        found, _ = cache.get("k1")
        assert not found
        cache.put("k1", {"table": [1, 2, 3]})
        found, value = cache.get("k1")
        assert found and value == {"table": [1, 2, 3]}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert len(cache) == 1 and cache.total_bytes() > 0

    def test_eviction_is_lru_and_touch_protects(self, tmp_path):
        payload = b"x" * 1000  # each entry ≈ 1 KiB + framing
        entry_size = len(dumps_payload(payload))
        cache = DiskCache(tmp_path, max_bytes=3 * entry_size)
        cache.put("aa1", payload)
        cache.put("bb2", payload)
        cache.put("cc3", payload)
        assert len(cache) == 3
        found, _ = cache.get("aa1")  # touch: aa1 becomes most-recent
        assert found
        cache.put("dd4", payload)  # overflows: oldest untouched entry goes
        assert "bb2" not in cache
        assert "aa1" in cache and "cc3" in cache and "dd4" in cache
        assert cache.stats.evictions == 1

    def test_eviction_order_is_strict_lru(self, tmp_path):
        payload = b"y" * 500
        entry_size = len(dumps_payload(payload))
        cache = DiskCache(tmp_path, max_bytes=2 * entry_size)
        for key in ("k1", "k2", "k3", "k4"):
            cache.put(key, payload)
        # capacity two: only the two most recent survive, evicted in put order
        assert "k1" not in cache and "k2" not in cache
        assert "k3" in cache and "k4" in cache
        assert cache.stats.evictions == 2

    def test_failed_unlink_is_not_counted_as_eviction(self, tmp_path, monkeypatch):
        """An entry whose shard directory is read-only cannot be unlinked; it
        is still on disk, so it must not count as evicted and the store must
        evict the *next* candidate to actually get back under budget."""
        from pathlib import Path

        payload = b"z" * 800
        entry_size = len(dumps_payload(payload))
        cache = DiskCache(tmp_path, max_bytes=2 * entry_size)
        cache.put("aa1", payload)
        cache.put("bb2", payload)

        shard = tmp_path / "aa"
        shard.chmod(0o500)  # read-only entry directory: unlink denied
        real_unlink = Path.unlink

        def _guarded(self, *args, **kwargs):
            # root bypasses directory permission bits; enforce the read-only
            # scenario explicitly so the test holds under any uid
            if self.parent == shard:
                raise PermissionError(13, "Permission denied", str(self))
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", _guarded)
        try:
            cache.put("cc3", payload)  # overflow: LRU wants to evict aa1 first
        finally:
            monkeypatch.undo()
            shard.chmod(0o700)

        assert "aa1" in cache  # the stuck entry never left the disk
        assert "bb2" not in cache  # the next-oldest was evicted instead
        assert cache.stats.evictions == 1  # only the entry actually removed
        assert cache.total_bytes() <= 2 * entry_size + entry_size // 2  # fits

    def test_corrupted_entry_is_discarded_not_fatal(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("victim", [1, 2, 3])
        (path,) = list(tmp_path.glob("*/victim.bin"))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])  # truncate

        found, _ = cache.get("victim")
        assert not found
        assert cache.stats.corruptions == 1
        assert not path.exists()  # bad file removed so the slot heals
        cache.put("victim", [4, 5, 6])  # and the key is writable again
        assert cache.get("victim") == (True, [4, 5, 6])

    def test_foreign_file_is_treated_as_corrupt(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", "value")
        (path,) = list(tmp_path.glob("*/k.bin"))
        path.write_bytes(b"not a cache payload at all")
        found, _ = cache.get("k")
        assert not found and cache.stats.corruptions == 1

    def test_previous_payload_version_is_a_miss(self, tmp_path):
        # a version-1 entry pickles grids in the old per-cell layout: it must
        # be discarded as a miss, not unpickled into a broken grid
        import hashlib
        import pickle

        from repro.datamodel.serialization import MAGIC, VERSION

        assert VERSION == 2
        cache = DiskCache(tmp_path)
        cache.put("old", "value")
        (path,) = list(tmp_path.glob("*/old.bin"))
        payload = pickle.dumps("value", protocol=4)
        path.write_bytes(MAGIC + bytes([1]) + hashlib.sha1(payload).digest() + payload)
        assert cache.get("old") == (False, None)
        assert cache.stats.corruptions == 1

    def test_unpicklable_value_is_skipped(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("bad", lambda: None)  # lambdas don't pickle
        assert "bad" not in cache
        assert len(cache) == 0

    def test_clear_empties_the_store(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(5):
            cache.put(f"key{i}", i)
        cache.clear()
        assert len(cache) == 0 and cache.total_bytes() == 0

    def test_concurrent_writers_share_one_root(self, tmp_path):
        """Separate instances on one root coordinate purely via the files
        (the cross-process situation); every read sees a miss or an intact
        value — never an exception, never a torn entry."""
        keys = [f"key{i:02d}" for i in range(8)]
        payload = {key: list(range(200)) for key in keys}
        writers = [DiskCache(tmp_path, max_bytes=1 << 20) for _ in range(4)]
        errors = []

        def hammer(cache: DiskCache, seed: int):
            try:
                for round_no in range(15):
                    key = keys[(seed + round_no) % len(keys)]
                    cache.put(key, payload[key])
                    found, value = cache.get(keys[(seed * 3 + round_no) % len(keys)])
                    if found:
                        assert value == payload[keys[(seed * 3 + round_no) % len(keys)]]
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(cache, i)) for i, cache in enumerate(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        verifier = DiskCache(tmp_path)
        for key in keys:
            found, value = verifier.get(key)
            assert found and value == payload[key]
        assert verifier.stats.corruptions == 0

    def test_concurrent_writers_with_eviction_churn(self, tmp_path):
        """Eviction racing writers must never corrupt surviving entries."""
        payload = b"z" * 2000
        entry_size = len(dumps_payload(payload))
        writers = [DiskCache(tmp_path, max_bytes=3 * entry_size) for _ in range(3)]
        errors = []

        def churn(cache: DiskCache, seed: int):
            try:
                for i in range(20):
                    cache.put(f"churn-{seed}-{i}", payload)
                    cache.get(f"churn-{(seed + 1) % 3}-{i}")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(c, i)) for i, c in enumerate(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        verifier = DiskCache(tmp_path)
        for path in tmp_path.glob("*/*.bin"):
            key = path.stem
            found, value = verifier.get(key)
            assert found and value == payload
        assert verifier.stats.corruptions == 0


# --------------------------------------------------------------------------- #
# tiered composition
# --------------------------------------------------------------------------- #
class TestTieredCache:
    def test_disk_hit_promotes_to_memory(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.put("k", [1, 2])
        tiered = TieredCache(ResultCache(), disk)
        found, first = tiered.get("k")
        assert found
        found, second = tiered.get("k")
        assert found and second is first  # second hit is the memory tier
        assert disk.stats.hits == 1

    def test_put_writes_through_both_tiers(self, tmp_path):
        disk = DiskCache(tmp_path)
        tiered = TieredCache(ResultCache(), disk)
        tiered.put("k", "v")
        assert "k" in tiered.memory and "k" in disk

    def test_effective_stats_count_disk_hits_once(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.put("k", 1)
        tiered = TieredCache(ResultCache(), disk)
        tiered.get("k")  # memory miss + disk hit = one effective hit
        tiered.get("missing")  # one effective miss
        assert tiered.stats.hits == 1
        assert tiered.stats.misses == 1

    def test_warm_disk_cache_executes_zero_nodes(self, tmp_path):
        """The acceptance property: an unchanged pipeline over a warm disk
        cache executes nothing, in a brand-new engine with empty memory."""
        cold_engine = Engine(cache=TieredCache(ResultCache(), DiskCache(tmp_path)))
        result_cold = build_chain(Pipeline(cold_engine)).evaluate()
        assert cold_engine.last_report.n_executed == 3

        warm_engine = Engine(cache=TieredCache(ResultCache(), DiskCache(tmp_path)))
        result_warm = build_chain(Pipeline(warm_engine)).evaluate()
        assert warm_engine.last_report.n_executed == 0
        assert warm_engine.last_report.hit_ratio == 1.0
        assert warm_engine.cache.stats.hits >= 1
        assert result_warm.content_fingerprint() == result_cold.content_fingerprint()

    def test_changed_property_invalidates_only_downstream(self, tmp_path):
        cold_engine = Engine(cache=TieredCache(ResultCache(), DiskCache(tmp_path)))
        build_chain(Pipeline(cold_engine), isovalue=110.0).evaluate()

        warm_engine = Engine(cache=TieredCache(ResultCache(), DiskCache(tmp_path)))
        build_chain(Pipeline(warm_engine), isovalue=115.0).evaluate()
        # only the contour differs; its upstream slice comes off the disk
        assert warm_engine.last_report.executed == ["Contour1"]
        assert warm_engine.last_report.cached == ["Slice1"]


# --------------------------------------------------------------------------- #
# shared-cache wiring
# --------------------------------------------------------------------------- #
class TestSharedCacheConfiguration:
    def test_configure_reaches_existing_engines(self, tmp_path):
        """Engines hold the facade, so attaching a disk tier later takes
        effect without rebuilding them (the pvsim module engine relies on
        this)."""
        engine = Engine()  # defaults to the shared facade
        assert engine.cache is shared_cache()
        configure_shared_cache(tmp_path)
        assert shared_cache().disk is not None
        assert engine.cache.disk is not None
        configure_shared_cache(None)
        assert engine.cache.disk is None

    def test_executor_counts_zero_executions_on_warm_disk(self, tmp_path):
        """A re-run script against a warm disk tier reports zero executed
        nodes through ExecutionResult — the end-to-end incremental signal."""
        from repro.core.tasks import prepare_task_data
        from repro.pvsim.executor import PvPythonExecutor

        configure_shared_cache(tmp_path / "cache")
        script = (
            "from paraview.simple import *\n"
            "reader = LegacyVTKReader(FileNames=['ml-100.vtk'])\n"
            "contour = Contour(Input=reader, ContourBy=['POINTS', 'var0'], "
            "Isosurfaces=[0.4567])\n"
            "view = GetActiveViewOrCreate('RenderView')\n"
            "view.ViewSize = [64, 48]\n"
            "Show(contour, view)\n"
            "ResetCamera(view)\n"
            "SaveScreenshot('out.png', view, ImageResolution=[64, 48])\n"
        )
        work = tmp_path / "work"
        prepare_task_data("isosurface", work, small=True)
        cold = PvPythonExecutor(working_dir=work).run(script)
        assert cold.success and cold.nodes_executed > 0

        # drop the in-memory tier: everything must now come from disk
        shared_cache().memory.clear()
        warm = PvPythonExecutor(working_dir=work).run(script)
        assert warm.success
        assert warm.nodes_executed == 0
        assert warm.nodes_cached >= 1

    def test_identical_data_in_different_directories_shares_entries(self, tmp_path):
        """Reader tokens are content-based, so every Table II cell preparing
        its own copy of the same data maps to one cache entry — the property
        that lets workers and repeated runs reuse each other's results."""
        from repro.core.tasks import prepare_task_data
        from repro.pvsim.executor import PvPythonExecutor

        configure_shared_cache(tmp_path / "cache")
        script = (
            "from paraview.simple import *\n"
            "reader = LegacyVTKReader(FileNames=['ml-100.vtk'])\n"
            "contour = Contour(Input=reader, ContourBy=['POINTS', 'var0'], "
            "Isosurfaces=[0.4568])\n"
            "contour.UpdatePipeline()\n"
        )
        prepare_task_data("isosurface", tmp_path / "work_a", small=True)
        first = PvPythonExecutor(working_dir=tmp_path / "work_a").run(script)
        assert first.success and first.nodes_executed > 0

        # a different session directory with its own (identical) data copy
        prepare_task_data("isosurface", tmp_path / "work_b", small=True)
        shared_cache().memory.clear()  # force the disk tier to serve it
        second = PvPythonExecutor(working_dir=tmp_path / "work_b").run(script)
        assert second.success
        assert second.nodes_executed == 0
