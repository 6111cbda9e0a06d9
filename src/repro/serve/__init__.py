"""Long-running multi-tenant exploration/optimization serving.

The :mod:`repro.serve` package promotes the batch-shaped explorer and
optimizer into an always-on service:

* :class:`JobServer` — asyncio HTTP/JSON server multiplexing explore
  and optimize jobs from many clients over one persistent process pool
  and one SQLite-indexed artifact store;
* :class:`ServeClient` — the stdlib client the CLI and tests drive it
  with;
* :class:`LeaseStore` — the shared SQLite job queue every server on
  one state directory drains;
* :class:`JobRow` / :class:`JobState` — a job's queue row, its only
  lifecycle state; :class:`Job` — the claiming server's record of it:
  the task running it, live counters and the event feed;
* :func:`start_in_thread` — run a server on a background thread (tests,
  benches, notebooks).

See ``docs/serving.md`` for the API and operational knobs.
"""

from repro.serve.client import (
    EventGapError,
    JobFailed,
    ServeClient,
    ServeError,
)
from repro.serve.jobs import (
    Job,
    JobError,
    JobRow,
    JobState,
    LeaseStore,
    UnknownJobError,
    job_content_key,
)
from repro.serve.server import JobServer, ServerHandle, start_in_thread

__all__ = [
    "EventGapError",
    "Job",
    "JobError",
    "JobFailed",
    "JobRow",
    "JobServer",
    "JobState",
    "LeaseStore",
    "ServeClient",
    "ServeError",
    "ServerHandle",
    "UnknownJobError",
    "job_content_key",
    "start_in_thread",
]
