"""Disk store contract: persistence, sharing, bounding, resilience.

These run against :class:`IndexedArtifactStore`, the one on-disk
implementation of the :class:`repro.pipeline.StageStore` protocol;
``test_index.py`` covers what its SQLite index adds (exact LRU, gc,
rebuilding the index over an existing tree, concurrent eviction).
"""

import pickle
import time

import pytest

from repro.circuits import build
from repro.pipeline import (
    ArtifactCache,
    FlowConfig,
    IndexedArtifactStore,
    Pipeline,
    StageStore,
    graph_fingerprint,
)

CACHEABLE = ("analyze", "power_manage", "schedule", "allocate", "elaborate")


@pytest.fixture
def store(tmp_path):
    return IndexedArtifactStore(tmp_path / "store")


def test_memory_and_disk_stores_implement_the_protocol(store):
    assert isinstance(store, StageStore)
    assert isinstance(ArtifactCache(), StageStore)


class TestContract:
    def test_miss_then_hit(self, store):
        key = ("stage", "fp", ("n_steps=7",))
        assert store.lookup(key) is None
        store.store(key, {"x": 1, "y": [2, 3]})
        assert store.lookup(key) == {"x": 1, "y": [2, 3]}
        assert store.stats.misses == 1 and store.stats.hits == 1
        assert key in store and len(store) == 1

    def test_entries_are_sharded_by_digest(self, store):
        key = ("stage", "fp", ())
        store.store(key, {"x": 1})
        path = store.path_for(key)
        assert path.exists()
        assert path.parent.parent == store.root
        assert len(path.parent.name) == 2  # 2-hex-char shard directory

    def test_distinct_keys_do_not_collide(self, store):
        store.store(("a", "fp", ()), {"v": 1})
        store.store(("b", "fp", ()), {"v": 2})
        assert store.lookup(("a", "fp", ()))["v"] == 1
        assert store.lookup(("b", "fp", ()))["v"] == 2

    def test_clear(self, store):
        store.store(("a",), {"v": 1})
        store.lookup(("a",))
        store.clear()
        assert len(store) == 0
        assert store.stats.lookups == 0
        assert store.lookup(("a",)) is None

    def test_clear_is_seen_by_every_instance(self, tmp_path):
        first = IndexedArtifactStore(tmp_path / "s")
        second = IndexedArtifactStore(tmp_path / "s")
        first.store(("a",), {"v": 1})
        assert len(second) == 1
        second.clear()
        assert len(first) == 0
        assert first.lookup(("a",)) is None

    def test_bad_max_entries_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            IndexedArtifactStore(tmp_path, max_entries=0)


class TestPersistence:
    def test_survives_reopening(self, tmp_path):
        first = IndexedArtifactStore(tmp_path / "s")
        first.store(("k",), {"v": 41})
        second = IndexedArtifactStore(tmp_path / "s")
        assert second.lookup(("k",)) == {"v": 41}
        assert second.stats.hits == 1

    def test_pipeline_runs_warm_across_store_instances(self, tmp_path,
                                                       gcd_graph):
        cold = Pipeline(cache=IndexedArtifactStore(tmp_path / "s"))
        first = cold.run_context(gcd_graph, FlowConfig(n_steps=7))
        assert first.cache_misses == list(CACHEABLE)

        warm = Pipeline(cache=IndexedArtifactStore(tmp_path / "s"))
        second = warm.run_context(gcd_graph, FlowConfig(n_steps=7))
        assert second.cache_hits == list(CACHEABLE)
        assert second.cache_misses == []
        assert first.result.design.summary() == \
            second.result.design.summary()

    def test_warm_run_is_faster(self, tmp_path):
        graph = build("vender")
        config = FlowConfig(n_steps=6)

        start = time.perf_counter()
        Pipeline(cache=IndexedArtifactStore(tmp_path / "s")).run(graph,
                                                                 config)
        cold_s = time.perf_counter() - start

        # Best-of-two so a one-off scheduler hiccup can't flake the pin.
        warm_s = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            Pipeline(cache=IndexedArtifactStore(tmp_path / "s")).run(
                graph, config)
            warm_s = min(warm_s, time.perf_counter() - start)
        assert warm_s < cold_s

    def test_content_addressing_spans_equal_graphs(self, tmp_path):
        """Two independently built but identical graphs share entries."""
        store = IndexedArtifactStore(tmp_path / "s")
        Pipeline(cache=store).run(build("gcd"), FlowConfig(n_steps=7))
        ctx = Pipeline(cache=store).run_context(build("gcd"),
                                                FlowConfig(n_steps=7))
        assert ctx.cache_hits == list(CACHEABLE)

    def test_digest_is_stable_across_processes(self):
        # sha256 over the key repr — not Python's salted hash().
        key = ("analyze", graph_fingerprint(build("gcd")), ("width=8",))
        assert IndexedArtifactStore.digest(key) == \
            IndexedArtifactStore.digest(key)
        assert len(IndexedArtifactStore.digest(key)) == 64


class TestResilience:
    def test_corrupt_entry_is_a_miss_and_removed(self, store):
        key = ("stage", "fp", ())
        store.store(key, {"v": 1})
        store.path_for(key).write_bytes(b"not a pickle")
        assert store.lookup(key) is None
        assert not store.path_for(key).exists()
        # The slot is usable again.
        store.store(key, {"v": 2})
        assert store.lookup(key) == {"v": 2}

    def test_truncated_entry_is_a_miss(self, store):
        key = ("stage", "fp", ())
        store.store(key, {"v": list(range(1000))})
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:20])  # torn write
        assert store.lookup(key) is None

    def test_no_temp_files_left_behind(self, store):
        for k in range(10):
            store.store((f"k{k}",), {"v": k})
        leftovers = [p for p in store.root.rglob(".tmp-*")]
        assert leftovers == []


class TestBounding:
    def test_lru_prunes_oldest_entries(self, tmp_path):
        store = IndexedArtifactStore(tmp_path / "s", max_entries=3)
        for k in range(3):
            store.store((f"k{k}",), {"v": k})
        store.store(("k3",), {"v": 3})
        assert len(store) == 3
        assert store.stats.evictions == 1
        assert ("k0",) not in store  # oldest went
        assert all((f"k{k}",) in store for k in (1, 2, 3))

    def test_lookup_refreshes_recency(self, tmp_path):
        store = IndexedArtifactStore(tmp_path / "s", max_entries=2)
        store.store(("a",), {"v": 1})
        store.store(("b",), {"v": 2})
        assert store.lookup(("a",)) is not None  # a hit refreshes recency
        store.store(("c",), {"v": 3})
        assert ("a",) in store
        assert ("b",) not in store

    def test_restore_of_existing_key_does_not_grow(self, tmp_path):
        store = IndexedArtifactStore(tmp_path / "s", max_entries=2)
        for _ in range(5):
            store.store(("same",), {"v": 1})
        assert len(store) == 1
        assert store.stats.evictions == 0


class TestWorkerShipping:
    def test_pickle_round_trip_shares_the_directory(self, store):
        store.store(("k",), {"v": 7})
        store.lookup(("k",))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.max_entries == store.max_entries
        assert clone.stats.lookups == 0  # stats are per-process
        assert clone.lookup(("k",)) == {"v": 7}
