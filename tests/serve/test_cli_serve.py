"""The serve-facing CLI: serve, submit, jobs, journal compact."""

import threading

import pytest

from repro.cli import main
from repro.durable import load_journal, open_journal
from repro.serve import ServeClient, start_in_thread


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    handle = start_in_thread(tmp_path_factory.mktemp("cli-serve"),
                             workers=1)
    yield handle
    handle.stop()


def submit(handle, *argv):
    return main(["submit", *argv, "--port", str(handle.port)])


class TestSubmit:
    def test_explore_watch_streams_to_stdout(self, served, capsys):
        assert submit(served, "explore", "gcd", "--budgets", "6,7",
                      "--watch") == 0
        out = capsys.readouterr().out
        assert "queued" in out
        assert out.count("point  gcd") == 2
        assert "pareto" in out
        assert "-> done" in out
        assert "pareto 2/2" in out  # final summary line

    def test_optimize_watch_reports_best(self, served, capsys):
        assert submit(served, "optimize", "gcd", "--budgets", "6",
                      "--search", "random", "--iters", "5",
                      "--sim-vectors", "16", "--watch") == 0
        out = capsys.readouterr().out
        assert "best" in out and "best score" in out

    def test_submit_without_watch_returns_immediately(self, served,
                                                      capsys):
        assert submit(served, "explore", "gcd", "--budgets", "6") == 0
        out = capsys.readouterr().out
        assert "job j-" in out
        job_id = out.split()[1]
        ServeClient(port=served.port).wait(job_id, timeout=120)

    def test_optimize_needs_exactly_one_circuit(self, served):
        with pytest.raises(SystemExit, match="exactly one"):
            submit(served, "optimize", "gcd", "dealer",
                   "--budgets", "6")

    def test_bad_budgets_is_a_clean_error(self, served):
        with pytest.raises(SystemExit, match="budgets"):
            submit(served, "explore", "gcd", "--budgets", "x,y")

    def test_unreachable_server_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="error"):
            main(["submit", "explore", "gcd", "--budgets", "6",
                  "--port", "1", "--timeout", "2"])


class TestJobs:
    def test_list_and_inspect(self, served, capsys):
        submit(served, "explore", "dealer", "--budgets", "6", "--watch")
        capsys.readouterr()
        assert main(["jobs", "--port", str(served.port)]) == 0
        out = capsys.readouterr().out
        assert "explore" in out and "done" in out
        job_id = next(line.split()[0] for line in out.splitlines()
                      if "dealer" in line or "explore" in line)
        assert main(["jobs", job_id, "--events",
                     "--port", str(served.port)]) == 0
        detail = capsys.readouterr().out
        assert job_id in detail
        assert "point" in detail  # event feed printed

    def test_empty_server_says_no_jobs(self, tmp_path, capsys):
        handle = start_in_thread(tmp_path / "state", workers=1)
        try:
            assert main(["jobs", "--port", str(handle.port)]) == 0
            assert "no jobs" in capsys.readouterr().out
        finally:
            handle.stop()

    def test_unknown_job_is_a_clean_error(self, served):
        with pytest.raises(SystemExit, match="unknown job"):
            main(["jobs", "j-999-deadbeef", "--port", str(served.port)])


class TestClientLifetime:
    @pytest.mark.parametrize("argv", [
        ["jobs"],
        ["jobs", "j-999-deadbeef"],  # an error exit closes it too
        ["submit", "explore", "gcd", "--budgets", "5"],
    ])
    def test_command_closes_its_client(self, served, monkeypatch, argv):
        closed = []
        close = ServeClient.close

        def recording_close(client):
            closed.append(client)
            close(client)

        monkeypatch.setattr(ServeClient, "close", recording_close)
        try:
            main([*argv, "--port", str(served.port)])
        except SystemExit:
            pass
        assert closed and closed[-1]._local.conn is None


class TestServeCommand:
    def test_serve_runs_until_shutdown(self, tmp_path, capsys):
        status: dict[str, int] = {}

        def run() -> None:
            status["exit"] = main(["serve", "--state",
                                   str(tmp_path / "state"),
                                   "--port", "0"])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        # The ephemeral port is only printed, so read it from stdout.
        import re
        import time

        port = None
        deadline = time.monotonic() + 30
        while port is None and time.monotonic() < deadline:
            match = re.search(r"http://127\.0\.0\.1:(\d+)",
                              capsys.readouterr().out)
            if match:
                port = int(match.group(1))
            else:
                time.sleep(0.05)
        assert port is not None, "serve never printed its address"
        client = ServeClient(port=port)
        assert client.health()["ok"] is True
        client.shutdown()
        thread.join(timeout=30)
        assert status.get("exit") == 0


class TestJournalCompact:
    def test_compacts_and_reports(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        handle = open_journal(journal, "test")
        handle.append("a", {"v": 1})
        handle.append("a", {"v": 2})
        handle.close()
        assert main(["journal", "compact", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "kept 1" in out and "dropped 1" in out
        assert load_journal(journal)["a"]["v"] == 2

    def test_missing_file_fails_but_continues(self, tmp_path, capsys):
        journal = tmp_path / "real.jsonl"
        handle = open_journal(journal, "test")
        handle.append("a", {"v": 1})
        handle.close()
        assert main(["journal", "compact", str(tmp_path / "nope.jsonl"),
                     str(journal)]) == 1
        captured = capsys.readouterr()
        assert "missing" in captured.err
        assert "kept 1" in captured.out  # the real one still compacted
