"""Job state machine, content keys and event feed of the per-server
registry, driven the way the server drives it: every local job is
adopted from a claimed :class:`LeaseStore` row."""

import pytest

from repro.serve.jobs import (
    MAX_EVENTS,
    JobError,
    JobRegistry,
    JobState,
    JobStateError,
    LeaseStore,
    UnknownJobError,
    job_content_key,
)

PARAMS = {"circuits": ["gcd"], "budgets": [6, 7]}


@pytest.fixture
def queue(tmp_path):
    store = LeaseStore(tmp_path / "queue.sqlite")
    yield store
    store.close()


@pytest.fixture
def registry():
    return JobRegistry()


def claim(registry, queue, kind="explore", params=PARAMS):
    """Submit, claim and adopt one job, as a server's claim loop does."""
    queue.submit(kind, params)
    return registry.adopt(queue.claim("srv-test"))


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


class TestAdopt:
    def test_adopted_job_mirrors_its_row(self, registry, queue):
        row, _ = queue.submit("explore", PARAMS)
        job = registry.adopt(queue.claim("srv-test"))
        assert (job.id, job.kind, job.key) == (row.id, "explore", row.key)
        assert job.params == PARAMS
        assert job.state is JobState.QUEUED  # the server moves it on
        assert registry.get(job.id) is job
        assert registry.find(job.id) is job
        assert registry.jobs() == [job]

    def test_adopt_carries_cancel_flag_and_feed_high_water(self, registry,
                                                           queue):
        row, _ = queue.submit("explore", PARAMS)
        claimed = queue.claim("srv-a", now=100.0)
        assert queue.request_cancel(row.id) == "cooperative"
        assert queue.heartbeat("srv-a", {row.id: 17}, now=101.0) == [row.id]
        job = registry.adopt(queue.get(row.id))
        assert job.cancel_requested
        assert job.last_seq == 17
        assert claimed.last_seq == 0

    def test_readopting_replaces_the_stale_local_copy(self, registry,
                                                     queue):
        # A server that lost a job's lease and later re-claims it starts
        # a fresh local job: the abandoned copy's feed is not reused.
        first = claim(registry, queue)
        registry.transition(first, JobState.RUNNING)
        first.abandoned = True
        queue.release("srv-test")
        again = registry.adopt(queue.claim("srv-test"))
        assert again is not first and again.id == first.id
        assert again.state is JobState.QUEUED and not again.abandoned
        assert registry.find(first.id) is again
        assert registry.jobs() == [again]


class TestStateMachine:
    def test_happy_path(self, registry, queue):
        job = claim(registry, queue)
        assert job.state is JobState.QUEUED
        registry.transition(job, JobState.RUNNING)
        registry.transition(job, JobState.DONE, result={"points": 4})
        assert job.state.terminal
        assert job.result == {"points": 4}

    @pytest.mark.parametrize("terminal", [JobState.DONE, JobState.FAILED,
                                          JobState.CANCELLED])
    def test_terminal_states_are_final(self, registry, queue, terminal):
        job = claim(registry, queue)
        registry.transition(job, JobState.RUNNING)
        registry.transition(job, terminal)
        for to in JobState:
            with pytest.raises(JobStateError):
                registry.transition(job, to)

    def test_queued_cannot_jump_to_done(self, registry, queue):
        job = claim(registry, queue)
        with pytest.raises(JobStateError):
            registry.transition(job, JobState.DONE)

    def test_failed_records_the_error(self, registry, queue):
        job = claim(registry, queue)
        registry.transition(job, JobState.RUNNING)
        registry.transition(job, JobState.FAILED, error="boom")
        assert job.error == "boom"
        assert job.snapshot()["error"] == "boom"

    def test_unknown_kind_rejected(self, queue):
        with pytest.raises(JobError, match="unknown job kind"):
            queue.submit("frobnicate", PARAMS)

    def test_unknown_job_id(self, registry):
        with pytest.raises(UnknownJobError):
            registry.get("j-999-deadbeef")
        assert registry.find("j-999-deadbeef") is None


class TestDedup:
    def test_identical_inflight_submissions_share_one_job(self, queue):
        first, created = queue.submit("explore", PARAMS)
        second, again = queue.submit("explore", dict(PARAMS))
        assert created and not again
        assert first.id == second.id

    def test_terminal_job_does_not_absorb_resubmission(self, registry,
                                                       queue):
        first = claim(registry, queue)
        registry.transition(first, JobState.RUNNING)
        registry.transition(first, JobState.DONE)
        assert queue.finish(first.id, "srv-test", JobState.DONE)
        second, created = queue.submit("explore", PARAMS)
        assert created and second.id != first.id
        assert second.key == first.key  # same journal -> warm rerun


class TestCancel:
    def test_queued_cancel_is_immediate(self, registry, queue):
        job = claim(registry, queue)
        assert registry.request_cancel(job) is True
        assert job.state is JobState.CANCELLED

    def test_running_cancel_is_cooperative(self, registry, queue):
        job = claim(registry, queue)
        registry.transition(job, JobState.RUNNING)
        assert registry.request_cancel(job) is False
        assert job.cancel_requested
        assert job.state is JobState.RUNNING

    def test_terminal_cancel_is_a_noop(self, registry, queue):
        job = claim(registry, queue)
        registry.transition(job, JobState.RUNNING)
        registry.transition(job, JobState.DONE)
        assert registry.request_cancel(job) is False
        assert not job.cancel_requested


class TestEventFeed:
    def test_seq_is_monotonic_and_filterable(self, registry, queue):
        job = claim(registry, queue)
        for k in range(5):
            registry.push(job, {"type": "point", "k": k})
        snapshot = job.snapshot(since=3)
        assert [e["seq"] for e in snapshot["events"]] == [4, 5]
        assert job.snapshot()["last_seq"] == 5
        assert "events" not in job.snapshot()  # no since -> no feed

    def test_feed_is_bounded(self, registry, queue):
        job = claim(registry, queue)
        for k in range(MAX_EVENTS + 10):
            registry.push(job, {"type": "point", "k": k})
        assert len(job.events) == MAX_EVENTS
        assert job.events_dropped == 10
        assert job.last_seq == MAX_EVENTS + 10  # seq never rewinds

    def test_events_since_reports_the_aged_out_gap(self, queue):
        registry = JobRegistry(max_events=3)
        job = claim(registry, queue)
        for k in range(5):
            registry.push(job, {"type": "point", "k": k})
        events, dropped = registry.events_since(job, 0)
        assert [e["seq"] for e in events] == [3, 4, 5]
        assert dropped == 2

    def test_every_push_and_transition_notifies(self, queue):
        seen = []
        registry = JobRegistry(on_event=seen.append)
        job = claim(registry, queue)
        registry.transition(job, JobState.RUNNING)
        registry.push(job, {"type": "point"})
        assert seen == [job, job]
