"""compact_journal: dedup, garbage removal, atomicity, meta handling.

Plus the :class:`JournalWriter` durability policies: per-record fsync
("record") versus group commit ("batch") with its record-count and
wall-clock triggers, and the close/context-manager drain guarantee.
"""

import json

import pytest

from repro import durable
from repro.durable import (
    BATCH_RECORDS,
    BATCH_SECONDS,
    DURABILITY_LEVELS,
    JOURNAL_FORMAT,
    CompactionResult,
    JournalWriter,
    compact_journal,
    load_journal,
    open_journal,
)


@pytest.fixture
def journal(tmp_path):
    return tmp_path / "j.jsonl"


def lines(path):
    return path.read_text().splitlines()


class TestDurability:
    def test_levels_and_defaults(self):
        assert DURABILITY_LEVELS == ("record", "batch")
        assert BATCH_RECORDS >= 1
        assert BATCH_SECONDS > 0

    def test_unknown_durability_is_rejected(self, journal):
        with pytest.raises(ValueError, match="eventually"):
            open_journal(journal, "test", durability="eventually")

    def test_record_mode_never_leaves_a_pending_batch(self, journal):
        handle = open_journal(journal, "test", durability="record")
        for i in range(5):
            handle.append(f"k{i}", {"v": i})
            assert handle.pending == 0
        handle.close()
        assert len(load_journal(journal)) == 5

    def test_batch_mode_accumulates_then_group_commits(self, journal,
                                                      monkeypatch):
        monkeypatch.setattr(durable, "BATCH_RECORDS", 4)
        monkeypatch.setattr(durable, "BATCH_SECONDS", 3600.0)
        handle = open_journal(journal, "test", durability="batch")
        for i in range(3):
            handle.append(f"k{i}", {"v": i})
        assert handle.pending == 3  # under both triggers: still buffered
        handle.append("k3", {"v": 3})
        assert handle.pending == 0  # record-count trigger fired
        # Flushed-but-unsynced records are still readable: batch mode
        # only defers the fsync, not the write.
        handle.append("k4", {"v": 4})
        assert handle.pending == 1
        assert len(load_journal(journal)) == 5
        handle.close()

    def test_wall_clock_trigger(self, journal, monkeypatch):
        # BATCH_SECONDS=0 makes every append exceed the clock budget, so
        # batch mode degenerates to per-record sync — deterministically.
        monkeypatch.setattr(durable, "BATCH_RECORDS", 10_000)
        monkeypatch.setattr(durable, "BATCH_SECONDS", 0.0)
        handle = open_journal(journal, "test", durability="batch")
        handle.append("a", {"v": 1})
        assert handle.pending == 0
        handle.close()

    def test_close_drains_the_pending_batch(self, journal, monkeypatch):
        monkeypatch.setattr(durable, "BATCH_RECORDS", 10_000)
        monkeypatch.setattr(durable, "BATCH_SECONDS", 3600.0)
        handle = open_journal(journal, "test", durability="batch")
        handle.append("a", {"v": 1})
        assert handle.pending == 1
        handle.close()
        assert handle.closed
        handle.close()  # idempotent
        assert load_journal(journal)["a"]["v"] == 1

    def test_context_manager_drains_too(self, journal, monkeypatch):
        monkeypatch.setattr(durable, "BATCH_RECORDS", 10_000)
        monkeypatch.setattr(durable, "BATCH_SECONDS", 3600.0)
        with open_journal(journal, "test", durability="batch") as handle:
            handle.append("a", {"v": 1})
            assert handle.pending == 1
        assert handle.closed

    def test_writer_wraps_any_handle(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        with open(path, "w", encoding="utf-8") as raw:
            writer = JournalWriter(raw, durability="record")
            writer.append("a", {"v": 1})
            assert writer.fileno() == raw.fileno()
        assert load_journal(path)["a"]["v"] == 1


class TestCompaction:
    def test_keeps_last_record_per_key(self, journal):
        handle = open_journal(journal, "test")
        handle.append("a", {"v": 1})
        handle.append("b", {"v": 2})
        handle.append("a", {"v": 3})  # supersedes the first "a"
        handle.close()
        outcome = compact_journal(journal)
        assert outcome.kept == 2
        assert outcome.dropped == 1
        assert outcome.bytes_after < outcome.bytes_before
        assert outcome.changed
        records = load_journal(journal)
        assert records["a"]["v"] == 3
        assert records["b"]["v"] == 2

    def test_drops_torn_tail_and_garbage(self, journal):
        handle = open_journal(journal, "test")
        handle.append("a", {"v": 1})
        handle.close()
        with open(journal, "a") as raw:
            raw.write("not json at all\n")
            raw.write('{"key": "b", "v"')  # torn write, no newline
        outcome = compact_journal(journal)
        assert outcome.kept == 1
        assert outcome.dropped == 2
        assert load_journal(journal) == {"a": {"key": "a", "v": 1}}

    def test_counts_keyless_non_meta_objects_as_dropped(self, journal):
        # e.g. a progress-sidecar line that leaked into a journal.
        journal.write_text('{"format": 1, "kind": "test"}\n'
                           '{"step": 0, "score": 1.5}\n'
                           '{"key": "a", "v": 1}\n')
        outcome = compact_journal(journal)
        assert outcome.kept == 1
        assert outcome.dropped == 1

    def test_preserves_meta_kind(self, journal):
        handle = open_journal(journal, "sweep-points")
        handle.append("a", {"v": 1})
        handle.close()
        compact_journal(journal)
        meta = json.loads(lines(journal)[0])
        assert meta == {"format": JOURNAL_FORMAT, "kind": "sweep-points"}

    def test_kind_override_and_missing_meta(self, journal):
        # A headerless journal gains a meta line; kind= wins over none.
        journal.write_text('{"key": "a", "v": 1}\n')
        compact_journal(journal, kind="adopted")
        meta = json.loads(lines(journal)[0])
        assert meta["kind"] == "adopted"
        assert load_journal(journal)["a"]["v"] == 1

    def test_missing_journal_is_a_noop(self, tmp_path):
        outcome = compact_journal(tmp_path / "absent.jsonl")
        assert outcome == CompactionResult(0, 0, 0, 0)
        assert not outcome.changed
        assert not (tmp_path / "absent.jsonl").exists()

    def test_append_after_compaction_continues_the_journal(self, journal):
        handle = open_journal(journal, "test")
        handle.append("a", {"v": 1})
        handle.append("a", {"v": 2})
        handle.close()
        compact_journal(journal)
        handle = open_journal(journal, "test")
        handle.append("b", {"v": 3})
        handle.close()
        records = load_journal(journal)
        assert records["a"]["v"] == 2 and records["b"]["v"] == 3
        # Still exactly one meta line.
        metas = [line for line in lines(journal) if "format" in line]
        assert len(metas) == 1

    def test_no_temp_files_left_behind(self, journal):
        handle = open_journal(journal, "test")
        handle.append("a", {"v": 1})
        handle.close()
        compact_journal(journal)
        leftovers = list(journal.parent.glob(".tmp-*"))
        assert leftovers == []

    def test_open_handle_writes_would_be_stranded(self, journal):
        """Document the inode hazard the serve maintenance pass guards
        against: appends through a handle opened before compaction land
        on the replaced inode and are lost."""
        handle = open_journal(journal, "test")
        handle.append("a", {"v": 1})
        compact_journal(journal)          # replaces the inode
        handle.append("b", {"v": 2})  # lands on the old inode
        handle.close()
        assert "b" not in load_journal(journal)
