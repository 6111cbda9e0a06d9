"""IndexedArtifactStore specifics: exact LRU, the SQLite database, gc,
crash atomicity, concurrent eviction.

The shared store contract (miss/hit, persistence, corruption, pickling)
runs against this class too — see ``test_store.py``; here live only the
behaviors the database adds.
"""

import concurrent.futures
import multiprocessing
import os
import pickle
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
        assert store.total_evictions() == 8
        # Exactly the 8 oldest went, in insertion (= seq) order.
        assert all((f"k{k}",) not in store for k in range(8))
        assert all((f"k{k}",) in store for k in range(8, 40))

    def test_recency_is_call_order(self, tmp_path):
        """Re-storing a key makes it the newest, as a hit does."""
        store = IndexedArtifactStore(tmp_path / "s", max_entries=2)
        store.store(("old",), {"v": 1})
        store.store(("new",), {"v": 2})
        store.store(("old",), {"v": 3})
        store.store(("c",), {"v": 4})
        assert ("new",) not in store
        assert store.lookup(("old",)) == {"v": 3}

    def test_just_written_entry_is_never_the_victim(self, tmp_path):
        store = IndexedArtifactStore(tmp_path / "s", max_entries=1)
        for k in range(5):
            store.store((f"k{k}",), {"v": k})
            assert store.lookup((f"k{k}",)) == {"v": k}
        assert len(store) == 1

    def test_store_over_a_fuller_root_evicts_to_its_bound(self, tmp_path):
        """A root overfilled by a writer with a larger bound is brought
        back to this store's bound by its first write, oldest first."""
        roomy = IndexedArtifactStore(tmp_path / "s", max_entries=100)
        for k in range(10):
            roomy.store((f"k{k}",), {"v": k})
        store = IndexedArtifactStore(tmp_path / "s", max_entries=4)
        store.store(("new",), {"v": 10})
        assert len(store) == 4
        assert store.stats.evictions == 7
        assert store.total_evictions() == 7
        assert all((f"k{k}",) not in store for k in range(7))
        assert all((f"k{k}",) in store for k in range(7, 10))
        assert ("new",) in store


class TestDatabase:
    def test_database_lives_in_the_root(self, store):
        store.store(("k",), {"v": 1})
        assert (store.root / INDEX_NAME).exists()

    def test_len_counts_rows(self, store):
        for k in range(10):
            store.store((f"k{k}",), {"v": k})
        assert len(store) == 10

    def test_total_bytes_is_the_blob_sizes(self, store):
        assert store.total_bytes() == 0
        artifacts = {"v": list(range(100))}
        store.store(("k",), artifacts)
        assert store.total_bytes() == len(
            pickle.dumps(artifacts, protocol=pickle.HIGHEST_PROTOCOL))

    def test_a_miss_writes_nothing(self, store):
        store.store(("k",), {"v": 1})
        conn = store._db()
        before = conn.total_changes
        statements = []
        conn.set_trace_callback(statements.append)
        try:
            assert store.lookup(("absent",)) is None
        finally:
            conn.set_trace_callback(None)
        assert conn.total_changes == before
        assert [sql.split()[0] for sql in statements] == ["SELECT"]
        assert store.lookup(("k",)) == {"v": 1}  # a hit bumps recency
        assert conn.total_changes == before + 1

    def test_format_mismatch_recreates_the_database(self, tmp_path):
        store = IndexedArtifactStore(tmp_path / "s")
        store.store(("k",), {"v": 1})
        store.close()
        with sqlite3.connect(store.index_path) as conn:
            conn.execute("UPDATE meta SET v = 999 WHERE k='format'")
        reopened = IndexedArtifactStore(tmp_path / "s")
        assert len(reopened) == 0
        assert reopened.lookup(("k",)) is None
        reopened.store(("k",), {"v": 2})
        assert reopened.lookup(("k",)) == {"v": 2}

    def test_an_index_of_the_file_tree_is_replaced(self, tmp_path):
        """A root last used by the file-tree store (format 1: rows of
        digest, size and seq) opens empty; its entry files are never
        read."""
        root = tmp_path / "s"
        root.mkdir()
        with sqlite3.connect(root / INDEX_NAME) as conn:
            conn.execute("CREATE TABLE entries (digest TEXT PRIMARY KEY,"
                         " size INTEGER NOT NULL, seq INTEGER NOT NULL)")
            conn.execute("CREATE TABLE meta (k TEXT PRIMARY KEY,"
                         " v INTEGER NOT NULL)")
            conn.execute("INSERT INTO meta VALUES ('format', 1)")
            conn.execute("INSERT INTO entries VALUES ('ab', 10, 1)")
        store = IndexedArtifactStore(root)
        assert len(store) == 0
        store.store(("k",), {"v": 1})
        assert store.lookup(("k",)) == {"v": 1}

    def test_close_is_idempotent_and_reopens_lazily(self, store):
        store.store(("k",), {"v": 1})
        store.close()
        store.close()
        assert store.lookup(("k",)) == {"v": 1}


def _die_inside_the_transaction(store):
    store._evict = lambda conn: os._exit(3)  # after the upsert, pre-commit
    store.store(("torn",), {"v": 1})


class TestCrash:
    def test_killed_writer_leaves_no_row(self, tmp_path):
        store = IndexedArtifactStore(tmp_path / "s", max_entries=8)
        for k in range(3):
            store.store((f"k{k}",), {"v": k})
        child = multiprocessing.get_context("fork").Process(
            target=_die_inside_the_transaction, args=(store,))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 3
        reopened = IndexedArtifactStore(tmp_path / "s", max_entries=8)
        assert len(reopened) == 3
        assert ("torn",) not in reopened
        assert reopened.lookup(("torn",)) is None
        reopened.store(("after",), {"v": 4})  # no lock was left held
        assert len(reopened) == 4


class TestGC:
    def test_reapplies_the_bound(self, tmp_path):
        # A writer with a larger bound overfills the store; gc under the
        # smaller bound brings it back.
        roomy = IndexedArtifactStore(tmp_path / "s", max_entries=100)
        for k in range(10):
            roomy.store((f"k{k}",), {"v": k})
        store = IndexedArtifactStore(tmp_path / "s", max_entries=4)
        outcome = store.gc()
        assert outcome == {"entries": 4, "evicted": 6}
        assert len(store) == 4
        assert all((f"k{k}",) in store for k in range(6, 10))
        assert store.total_evictions() == 6

    def test_noop_on_clean_store_and_checkpoints(self, store):
        store.store(("k",), {"v": 1})
        assert store.gc() == {"entries": 1, "evicted": 0}
        wal = store.root / f"{INDEX_NAME}-wal"
        assert not wal.exists() or wal.stat().st_size == 0


class TestConcurrency:
    def test_concurrent_writers_evict_disjoint_victims(self, tmp_path):
        """Hammer one bounded store from many threads: eviction inside
        each write's transaction keeps the bound exact."""
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
        assert fresh.total_evictions() == 144
        assert fresh.gc() == {"entries": 16, "evicted": 0}

    def test_concurrent_openers_of_a_new_root(self, tmp_path):
        root = tmp_path / "s"

        def open_and_store(k):
            store = IndexedArtifactStore(root)
            try:
                store.store((f"k{k}",), {"v": k})
            finally:
                store.close()

        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            list(pool.map(open_and_store, range(4)))
        assert len(IndexedArtifactStore(root)) == 4

    def test_recency_is_shared_across_writers(self, tmp_path):
        """A hit through one instance makes the row the newest for every
        writer of the root, so another writer evicts around it."""
        reader = IndexedArtifactStore(tmp_path / "s", max_entries=2)
        writer = IndexedArtifactStore(tmp_path / "s", max_entries=2)
        writer.store(("a",), {"v": 1})
        writer.store(("b",), {"v": 2})
        assert reader.lookup(("a",)) == {"v": 1}
        writer.store(("c",), {"v": 3})
        assert ("b",) not in writer
        assert writer.lookup(("a",)) == {"v": 1}

    def test_lookup_of_a_row_another_writer_evicted_is_a_miss(self, tmp_path):
        first = IndexedArtifactStore(tmp_path / "s", max_entries=1)
        second = IndexedArtifactStore(tmp_path / "s", max_entries=1)
        first.store(("a",), {"v": 1})
        assert ("a",) in first  # first's connection has read the row
        second.store(("b",), {"v": 2})
        assert first.lookup(("a",)) is None
        assert first.stats.misses == 1
        assert first.lookup(("b",)) == {"v": 2}
        assert len(first) == 1

    def test_forked_worker_opens_its_own_connection(self, tmp_path):
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
