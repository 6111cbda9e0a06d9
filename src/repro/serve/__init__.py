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
* :class:`JobRegistry` / :class:`Job` / :class:`JobState` — one
  server's table of the jobs it claimed, their event feeds and the
  lifecycle state machine;
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
    JobRegistry,
    JobRow,
    JobState,
    JobStateError,
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
    "JobRegistry",
    "JobRow",
    "JobServer",
    "JobState",
    "JobStateError",
    "LeaseStore",
    "ServeClient",
    "ServeError",
    "ServerHandle",
    "UnknownJobError",
    "job_content_key",
    "start_in_thread",
]
