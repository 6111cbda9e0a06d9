"""The shared durable-I/O primitives in :mod:`repro.durable`.

Covers the pieces the artifact store, the lease queue and the journals
now share: concurrent first opens of a WAL database, the atomic
rename writer, the JSONL line parser and the progress-sidecar reader
built on it, and durability validation before anything is created.
"""

import gc
import multiprocessing
import warnings

import pytest

from repro.durable import atomic_write, open_journal, parse_line, wal_connect
from repro.pipeline.explore import explore
from repro.serve.work import read_progress


def _open_and_close(path, barrier):
    barrier.wait()
    wal_connect(path).close()  # an exception exits the child nonzero


class TestWalConnect:
    def test_concurrent_first_opens_all_succeed(self, tmp_path):
        """Switching a new database to WAL fails a racing opener at once
        in SQLite itself; wal_connect must wait instead of raising."""
        context = multiprocessing.get_context("fork")
        for trial in range(12):
            path = tmp_path / f"race-{trial}.db"
            barrier = context.Barrier(4)
            openers = [context.Process(target=_open_and_close,
                                       args=(path, barrier))
                       for _ in range(4)]
            for opener in openers:
                opener.start()
            for opener in openers:
                opener.join(timeout=60)
            assert [opener.exitcode for opener in openers] == [0] * 4

    def test_connection_is_wal(self, tmp_path):
        conn = wal_connect(tmp_path / "x.db")
        try:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        finally:
            conn.close()
        assert mode == "wal"


class TestAtomicWrite:
    def test_replaces_and_reports_size(self, tmp_path):
        target = tmp_path / "sub" / "f.bin"
        assert atomic_write(target, lambda out: out.write(b"abc")) == 3
        assert atomic_write(target, lambda out: out.write(b"hello")) == 5
        assert target.read_bytes() == b"hello"
        assert [p.name for p in target.parent.iterdir()] == ["f.bin"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "f.bin"
        target.write_bytes(b"old")

        def explode(out):
            out.write(b"partial")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            atomic_write(target, explode)
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]


class TestParseLine:
    @pytest.mark.parametrize("line", [
        "", "\n", "not json\n", '{"key": "a"', "[1, 2]\n", "3\n",
        b"\xff\xfe{}\n",
    ])
    def test_blank_torn_and_garbage_lines_are_none(self, line):
        assert parse_line(line) is None

    def test_objects_parse_from_text_and_bytes(self):
        assert parse_line('{"key": "a", "v": 1}\n') == {"key": "a", "v": 1}
        assert parse_line(b'{"type":"best"}') == {"type": "best"}


class TestReadProgress:
    def test_consumes_only_complete_lines_at_exact_offsets(self, tmp_path):
        path = tmp_path / "p.progress.jsonl"
        assert read_progress(path, 0) == ([], 0)  # not created yet
        first = b'{"type":"best","step":0}\n'
        torn = b'{"type":"best","st'
        path.write_bytes(first + torn)
        records, offset = read_progress(path, 0)
        assert records == [{"type": "best", "step": 0}]
        assert offset == len(first)  # the torn tail is not consumed
        assert read_progress(path, offset) == ([], offset)
        garbage = b"not json\n"
        rest = b'ep":1}\n'
        with open(path, "ab") as handle:
            handle.write(rest + garbage)
        records, offset = read_progress(path, offset)
        assert records == [{"type": "best", "step": 1}]
        assert offset == len(first + torn + rest + garbage)
        assert offset == path.stat().st_size


def _assert_rejected_cleanly(call, path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="bogus"):
            call()
        gc.collect()
    assert not path.exists()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


class TestDurabilityValidation:
    def test_open_journal_creates_nothing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _assert_rejected_cleanly(
            lambda: open_journal(path, "k", durability="bogus"), path)

    def test_explore_resume_creates_nothing(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _assert_rejected_cleanly(
            lambda: explore(["gcd"], [4], resume=path, durability="bogus"),
            path)
