"""IndexedArtifactStore specifics: exact LRU, the SQLite index, gc,
rebuilding the index over an existing tree, concurrent eviction.

The shared store contract (miss/hit, persistence, corruption, pickling)
runs against this class too — see ``test_store.py``; here live only the
behaviors the index adds.
"""

import concurrent.futures
import sqlite3

import pytest

from repro.pipeline import IndexedArtifactStore
from repro.pipeline.store import INDEX_NAME


@pytest.fixture
def store(tmp_path):
    return IndexedArtifactStore(tmp_path / "store")


class TestExactEviction:
    def test_evicts_exactly_to_the_bound(self, tmp_path):
        """No amortized batches: the store holds len() == max_entries
        after every overflow."""
        store = IndexedArtifactStore(tmp_path / "s", max_entries=32)
        for k in range(40):
            store.store((f"k{k}",), {"v": k})
            assert len(store) <= 32
        assert len(store) == 32
        assert store.stats.evictions == 8
        # Exactly the 8 oldest went, in insertion (= seq) order.
        assert all((f"k{k}",) not in store for k in range(8))
        assert all((f"k{k}",) in store for k in range(8, 40))

    def test_recency_is_call_order_not_mtime(self, tmp_path):
        """The index sequences recency; touching file mtimes changes
        nothing."""
        import os
        import time

        store = IndexedArtifactStore(tmp_path / "s", max_entries=2)
        store.store(("old",), {"v": 1})
        store.store(("new",), {"v": 2})
        # Make "new" look ancient on disk; the index still knows better.
        ancient = time.time() - 10_000
        os.utime(store.path_for(("new",)), (ancient, ancient))
        store.store(("c",), {"v": 3})
        assert ("old",) not in store
        assert ("new",) in store

    def test_just_written_entry_is_never_the_victim(self, tmp_path):
        store = IndexedArtifactStore(tmp_path / "s", max_entries=1)
        for k in range(5):
            store.store((f"k{k}",), {"v": k})
            assert store.lookup((f"k{k}",)) == {"v": k}
        assert len(store) == 1


class TestIndex:
    def test_index_file_lives_in_the_root(self, store):
        store.store(("k",), {"v": 1})
        assert (store.root / INDEX_NAME).exists()

    def test_len_matches_count_without_scanning(self, store):
        for k in range(10):
            store.store((f"k{k}",), {"v": k})
        assert len(store) == 10

    def test_total_bytes_tracks_entry_sizes(self, store):
        assert store.total_bytes() == 0
        store.store(("k",), {"v": list(range(100))})
        size = store.path_for(("k",)).stat().st_size
        assert store.total_bytes() == size

    def test_lookup_of_vanished_file_drops_the_row(self, store):
        store.store(("k",), {"v": 1})
        store.path_for(("k",)).unlink()
        assert store.lookup(("k",)) is None
        assert len(store) == 0

    def test_format_mismatch_rebuilds_the_index(self, tmp_path):
        store = IndexedArtifactStore(tmp_path / "s")
        store.store(("k",), {"v": 1})
        store.close()
        with sqlite3.connect(store.index_path) as conn:
            conn.execute("UPDATE meta SET v = 999 WHERE k='format'")
        reopened = IndexedArtifactStore(tmp_path / "s")
        # The index was dropped and rebuilt from the tree, the truth.
        assert len(reopened) == 1
        assert reopened.total_bytes() > 0
        assert reopened.gc()["adopted"] == 0
        assert reopened.lookup(("k",)) == {"v": 1}

    def test_new_index_over_a_full_tree_keeps_the_bound(self, tmp_path):
        """A lost index.db is rebuilt from the entries already on disk,
        so the bound still counts them: the tree never outgrows len()."""
        store = IndexedArtifactStore(tmp_path / "s", max_entries=4)
        for k in range(4):
            store.store((f"old{k}",), {"v": k})
        store.close()
        for leftover in (tmp_path / "s").glob(INDEX_NAME + "*"):
            leftover.unlink()
        reopened = IndexedArtifactStore(tmp_path / "s", max_entries=4)
        assert len(reopened) == 4
        for k in range(4):
            reopened.store((f"new{k}",), {"v": k})
        on_disk = list((tmp_path / "s").glob("??/*.pkl"))
        assert len(on_disk) == len(reopened) == 4
        assert reopened.stats.evictions == 4
        assert all((f"new{k}",) in reopened for k in range(4))
        assert reopened.gc() == {"entries": 4, "adopted": 0,
                                 "dropped": 0, "evicted": 0}

    def test_adopted_entries_age_out_oldest_mtime_first(self, tmp_path):
        import os

        store = IndexedArtifactStore(tmp_path / "s")
        for k in range(3):
            store.store((f"k{k}",), {"v": k})
            stamp = 1_000_000 + k
            os.utime(store.path_for((f"k{k}",)), (stamp, stamp))
        store.close()
        (tmp_path / "s" / INDEX_NAME).unlink()
        reopened = IndexedArtifactStore(tmp_path / "s", max_entries=3)
        reopened.store(("k3",), {"v": 3})
        assert ("k0",) not in reopened
        assert all((f"k{k}",) in reopened for k in (1, 2, 3))

    def test_close_is_idempotent_and_reopens_lazily(self, store):
        store.store(("k",), {"v": 1})
        store.close()
        store.close()
        assert store.lookup(("k",)) == {"v": 1}


class TestGC:
    def test_adopts_entries_the_index_lost(self, tmp_path):
        # A writer killed between its file rename and its index commit
        # leaves entries on disk that the index does not know.
        store = IndexedArtifactStore(tmp_path / "s")
        store.store(("a",), {"v": 1})
        store.store(("b",), {"v": 2})
        with sqlite3.connect(store.index_path) as conn:
            conn.execute("DELETE FROM entries")
        assert len(store) == 0         # index knows nothing now
        assert ("a",) in store         # but membership is file-based
        outcome = store.gc()
        assert outcome["adopted"] == 2
        assert len(store) == 2
        assert store.total_bytes() > 0
        assert store.lookup(("a",)) == {"v": 1}

    def test_hit_on_a_lost_row_reindexes_it_with_its_size(self, store):
        store.store(("a",), {"v": list(range(50))})
        size = store.total_bytes()
        with sqlite3.connect(store.index_path) as conn:
            conn.execute("DELETE FROM entries")
        assert store.lookup(("a",)) == {"v": list(range(50))}
        assert len(store) == 1
        assert store.total_bytes() == size

    def test_drops_rows_for_vanished_files(self, store):
        store.store(("a",), {"v": 1})
        store.store(("b",), {"v": 2})
        store.path_for(("a",)).unlink()
        outcome = store.gc()
        assert outcome["dropped"] == 1
        assert outcome["entries"] == 1

    def test_reapplies_the_bound(self, tmp_path):
        # A writer with a larger bound overfills the tree; gc under the
        # smaller bound brings it back.
        roomy = IndexedArtifactStore(tmp_path / "s", max_entries=100)
        for k in range(10):
            roomy.store((f"k{k}",), {"v": k})
        store = IndexedArtifactStore(tmp_path / "s", max_entries=4)
        outcome = store.gc()
        assert outcome["adopted"] == 0
        assert outcome["evicted"] == 6
        assert len(store) == 4
        assert all((f"k{k}",) in store for k in range(6, 10))

    def test_noop_on_clean_store(self, store):
        store.store(("k",), {"v": 1})
        assert store.gc() == {"entries": 1, "adopted": 0,
                              "dropped": 0, "evicted": 0}


class TestConcurrency:
    def test_concurrent_writers_evict_disjoint_victims(self, tmp_path):
        """Hammer one bounded store from many threads: the claim-then-
        unlink protocol keeps the index exact (the mtime scan this
        replaces could double-count or over-evict here)."""
        root = tmp_path / "s"
        writers = [IndexedArtifactStore(root, max_entries=16)
                   for _ in range(4)]

        def hammer(writer, base):
            for k in range(40):
                writer.store((f"w{base}-{k}",), {"v": k})
            return writer.stats.evictions

        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            evictions = list(pool.map(hammer, writers, range(4)))
        fresh = IndexedArtifactStore(root, max_entries=16)
        assert len(fresh) == 16
        # Every over-bound store evicted exactly once in aggregate:
        # 160 stores into 16 slots -> 144 evictions, no double counts.
        assert sum(evictions) == 144
        assert fresh.gc()["dropped"] == 0  # index and tree agree

    def test_concurrent_openers_of_a_new_index_adopt_once(self, tmp_path):
        root = tmp_path / "s"
        seed = IndexedArtifactStore(root)
        for k in range(20):
            seed.store((f"k{k}",), {"v": k})
        seed.close()
        (root / INDEX_NAME).unlink()

        def open_and_count(_):
            store = IndexedArtifactStore(root)
            try:
                return len(store)
            finally:
                store.close()

        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            assert list(pool.map(open_and_count, range(4))) == [20] * 4
        assert IndexedArtifactStore(root).gc() == {
            "entries": 20, "adopted": 0, "dropped": 0, "evicted": 0}

    def test_forked_worker_opens_its_own_connection(self, tmp_path):
        import multiprocessing

        store = IndexedArtifactStore(tmp_path / "s", max_entries=8)
        store.store(("parent",), {"v": 0})  # parent connection is open
        context = multiprocessing.get_context("fork")
        child = context.Process(
            target=store.store, args=(("child",), {"v": 1}))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert len(store) == 2  # the parent's connection sees the row
        assert store.lookup(("child",)) == {"v": 1}

    def test_eviction_tolerates_prestolen_files(self, tmp_path):
        # Simulate a racing evictor having already unlinked the victim.
        store = IndexedArtifactStore(tmp_path / "s", max_entries=2)
        store.store(("a",), {"v": 1})
        store.store(("b",), {"v": 2})
        store.path_for(("a",)).unlink()
        store.store(("c",), {"v": 3})  # evicts "a": row gone, file gone
        assert len(store) == 2
        assert store.lookup(("c",)) == {"v": 3}
