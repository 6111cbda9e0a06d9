"""Content keys, the queue row's lifecycle, and a server's record of a
claimed job, made the way the server makes it: from a claimed
:class:`LeaseStore` row."""

import pytest

from repro.serve import jobs as jobs_module
from repro.serve.jobs import (
    MAX_EVENTS,
    Job,
    JobError,
    JobState,
    LeaseStore,
    job_content_key,
)

PARAMS = {"circuits": ["gcd"], "budgets": [6, 7]}


@pytest.fixture
def queue(tmp_path):
    store = LeaseStore(tmp_path / "queue.sqlite")
    yield store
    store.close()


def claim(queue, kind="explore", params=PARAMS):
    """Submit and claim one job and make its record, as a server's claim
    loop does."""
    queue.submit(kind, params)
    return Job.claimed(queue.claim("srv-test"))


class TestContentKey:
    def test_deterministic(self):
        assert job_content_key("explore", PARAMS) == \
            job_content_key("explore", dict(PARAMS))

    def test_order_insensitive(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert job_content_key("explore", a) == job_content_key("explore", b)

    def test_kind_and_params_matter(self):
        assert job_content_key("explore", PARAMS) != \
            job_content_key("optimize", PARAMS)
        assert job_content_key("explore", PARAMS) != \
            job_content_key("explore", {**PARAMS, "budgets": [6]})


class TestRow:
    def test_finish_records_state_error_and_result(self, queue):
        job = claim(queue)
        assert queue.finish(job.id, "srv-test", JobState.FAILED,
                            error="boom", result={"points": 0})
        row = queue.get(job.id)
        assert row.terminal
        assert (row.state, row.error, row.result) == \
            ("failed", "boom", {"points": 0})
        assert row.snapshot()["error"] == "boom"

    def test_terminal_states_are_final(self, queue):
        job = claim(queue)
        with pytest.raises(ValueError, match="terminal state"):
            queue.finish(job.id, "srv-test", JobState.RUNNING)
        assert queue.finish(job.id, "srv-test", JobState.DONE)
        for state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED):
            assert not queue.finish(job.id, "srv-test", state)
        assert queue.get(job.id).state == "done"

    def test_row_snapshot_has_an_empty_feed(self, queue):
        row, _ = queue.submit("explore", PARAMS)
        view = row.snapshot(since=0)
        assert view["state"] == "queued"
        assert (view["events"], view["last_seq"],
                view["events_dropped"]) == ([], 0, 0)
        assert "events" not in row.snapshot()  # no since -> no feed

    def test_unknown_kind_rejected(self, queue):
        with pytest.raises(JobError, match="unknown job kind"):
            queue.submit("frobnicate", PARAMS)

    def test_unknown_job_id(self, queue):
        assert queue.get("j-999-deadbeef") is None


class TestRecord:
    def test_claimed_record_mirrors_its_row(self, queue):
        row, _ = queue.submit("explore", PARAMS)
        job = Job.claimed(queue.claim("srv-test"))
        assert (job.id, job.kind, job.key) == (row.id, "explore", row.key)
        assert job.params == PARAMS
        assert job.task is None and not job.submitted
        assert not job.abandoned and not job.cancel_requested

    def test_claimed_record_carries_cancel_flag_and_feed_high_water(
            self, queue):
        row, _ = queue.submit("explore", PARAMS)
        claimed = queue.claim("srv-a", now=100.0)
        assert queue.request_cancel(row.id) == "cooperative"
        assert queue.heartbeat("srv-a", {row.id: 17}, now=101.0) == [row.id]
        job = Job.claimed(queue.get(row.id))
        assert job.cancel_requested
        assert job.last_seq == 17
        assert claimed.last_seq == 0

    def test_each_claim_makes_a_fresh_record(self, queue):
        # A server that lost a job's lease and later re-claims it starts
        # a fresh record: the abandoned one's feed is not reused.
        first = claim(queue)
        first.push({"type": "point"})
        first.abandoned = True
        queue.release("srv-test")
        again = Job.claimed(queue.claim("srv-test"))
        assert again is not first and again.id == first.id
        assert not again.abandoned and list(again.events) == []

    def test_lay_over_keeps_the_row_lifecycle(self, queue):
        job = claim(queue)
        job.total, job.completed, job.resumed = 2, 1, 1
        job.push({"type": "point"})
        assert queue.finish(job.id, "srv-test", JobState.DONE,
                            result={"points": 2})
        view = job.lay_over(queue.get(job.id).snapshot(), since=0)
        assert (view["state"], view["result"]) == ("done", {"points": 2})
        assert (view["total"], view["completed"], view["resumed"]) == \
            (2, 1, 1)
        assert [e["seq"] for e in view["events"]] == [1]
        assert view["last_seq"] == 1

    def test_seq_is_monotonic_and_filterable(self, queue):
        job = claim(queue)
        for k in range(5):
            assert job.push({"type": "point", "k": k}) == k + 1
        row = queue.get(job.id)
        view = job.lay_over(row.snapshot(since=3), since=3)
        assert [e["seq"] for e in view["events"]] == [4, 5]
        assert job.lay_over(row.snapshot())["last_seq"] == 5
        assert "events" not in job.lay_over(row.snapshot())

    def test_feed_is_bounded(self, queue):
        job = claim(queue)
        for k in range(MAX_EVENTS + 10):
            job.push({"type": "point", "k": k})
        assert len(job.events) == MAX_EVENTS
        assert job.events_dropped == 10
        assert job.last_seq == MAX_EVENTS + 10  # seq never rewinds

    def test_events_since_reports_the_aged_out_gap(self, queue,
                                                   monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_EVENTS", 3)
        job = claim(queue)
        for k in range(5):
            job.push({"type": "point", "k": k})
        events, dropped = job.events_since(0)
        assert [e["seq"] for e in events] == [3, 4, 5]
        assert dropped == 2
        assert job.events_since(4) == ([events[-1]], 0)


class TestDedup:
    def test_identical_inflight_submissions_share_one_job(self, queue):
        first, created = queue.submit("explore", PARAMS)
        second, again = queue.submit("explore", dict(PARAMS))
        assert created and not again
        assert first.id == second.id

    def test_terminal_job_does_not_absorb_resubmission(self, queue):
        first = claim(queue)
        assert queue.finish(first.id, "srv-test", JobState.DONE)
        second, created = queue.submit("explore", PARAMS)
        assert created and second.id != first.id
        assert second.key == first.key  # same journal -> warm rerun
