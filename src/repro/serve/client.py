"""Stdlib HTTP client for a :class:`~repro.serve.server.JobServer`.

``ServeClient`` is the programmatic face the CLI (``repro submit``,
``repro jobs``) and the tests use.  Plain calls ride one persistent
keep-alive connection per thread (reopened transparently when the
server closes it); :meth:`stream` follows a job's events live over the
server's SSE endpoint, reconnecting with ``Last-Event-ID`` after a
drop.

    >>> client = ServeClient(port=8642)
    >>> job = client.submit("explore", circuits=["gcd"], budgets=[6, 7])
    >>> for event in client.stream(job["id"]):
    ...     print(event["type"])
    >>> client.job(job["id"])["state"]
    'done'
"""

from __future__ import annotations

import http.client
import json
import threading
import time

TERMINAL = ("done", "failed", "cancelled")

#: Reopen rather than reuse a keep-alive connection idle this long.
#: The server drops idle connections at 75 s; a POST racing that close
#: would fail after it was fully sent — exactly the failure that must
#: NOT be retried — so the client stays clear of the window.
MAX_CONN_IDLE_S = 60.0


class ServeError(RuntimeError):
    """An HTTP-level error response from the server."""

    def __init__(self, status: int, payload: dict) -> None:
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(f"server returned {status}: "
                         f"{message or payload!r}")
        self.status = status
        self.payload = payload


class JobFailed(ServeError):
    """A waited-on job finished in ``failed`` state."""

    def __init__(self, snapshot: dict) -> None:
        RuntimeError.__init__(
            self, f"job {snapshot.get('id')} failed: "
                  f"{snapshot.get('error') or 'unknown error'}")
        self.status = 0
        self.payload = snapshot


class EventGapError(ServeError):
    """The server's bounded event ring aged events out before this
    client saw them (raised only when the caller asked to be strict)."""

    def __init__(self, job_id: str, dropped: int) -> None:
        RuntimeError.__init__(
            self, f"job {job_id}: {dropped} event(s) dropped before "
                  "they could be streamed")
        self.status = 0
        self.payload = {"job_id": job_id, "dropped": dropped}
        self.dropped = dropped


class ServeClient:
    """Thin JSON-over-HTTP client with per-thread keep-alive."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    # -- connection management -------------------------------------------

    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        idle = time.monotonic() - getattr(self._local, "used_at", 0.0)
        if conn is not None and idle > MAX_CONN_IDLE_S:
            self.close()  # probably reaped server-side: don't race it
            conn = None
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
            self._local.conn = conn
            self._local.used_at = time.monotonic()
        return conn

    def close(self) -> None:
        """Drop this thread's persistent connection (if any)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> dict:
        payload = json.dumps(body) if body is not None else None
        for attempt in (0, 1):
            conn = self._conn()
            try:
                conn.request(method, path, body=payload, headers={
                    "Content-Type": "application/json"})
            except (http.client.HTTPException, ConnectionError, OSError):
                # The send itself failed, so no complete request
                # reached the server and a retry cannot double-apply
                # it — a keep-alive connection the server closed
                # between requests dies exactly here.
                self.close()
                if attempt:
                    raise
                continue
            try:
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, ConnectionError, OSError):
                # The request was fully sent and may have been acted
                # on before the connection died; replaying it could
                # apply a POST twice, so only idempotent GETs retry
                # past this point.
                self.close()
                if attempt or method != "GET":
                    raise
                continue
            self._local.used_at = time.monotonic()
            if response.will_close:
                self.close()
            try:
                data = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                data = {"error": raw.decode("utf-8", "replace")}
            if response.status >= 400:
                raise ServeError(response.status, data)
            return data
        raise AssertionError("unreachable")

    # -- endpoints -------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/health")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def submit(self, kind: str, **params) -> dict:
        """Submit one job; returns its snapshot (which may be an
        already-running job when an identical request is in flight
        anywhere in the cluster)."""
        return self._request("POST", "/jobs",
                             {"kind": kind, "params": params})

    def job(self, job_id: str, since: int | None = None) -> dict:
        path = f"/jobs/{job_id}"
        if since is not None:
            path += f"?since={since}"
        return self._request("GET", path)

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def maintenance(self) -> dict:
        return self._request("POST", "/maintenance")

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")

    # -- following jobs --------------------------------------------------

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.05, raise_on_failure: bool = True) -> dict:
        """Block until the job reaches a terminal state; returns the
        final snapshot.  Works against any server in the cluster."""
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.job(job_id)
            if snapshot["state"] in TERMINAL:
                if snapshot["state"] == "failed" and raise_on_failure:
                    raise JobFailed(snapshot)
                return snapshot
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} after "
                    f"{timeout:.0f}s")
            time.sleep(poll)

    def stream(self, job_id: str, timeout: float = 300.0, since: int = 0,
               raise_on_gap: bool = False):
        """Yield the job's events incrementally until it terminates.

        Holds the server's ``/jobs/<id>/events`` stream open and yields
        events the moment the server pushes them, resuming with
        ``Last-Event-ID`` if the connection drops.  Events carry a
        monotonic ``seq`` and are never yielded twice; events that aged
        out of the server's bounded ring before they could be seen
        surface as an explicit ``{"type": "gap", "dropped": n}`` event —
        or as :class:`EventGapError` with ``raise_on_gap=True`` —
        instead of being silently skipped.
        """
        deadline = time.monotonic() + timeout
        while True:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
            terminal = False
            try:
                headers = {"Accept": "text/event-stream"}
                if since:
                    headers["Last-Event-ID"] = str(since)
                conn.request("GET", f"/jobs/{job_id}/events",
                             headers=headers)
                response = conn.getresponse()
                if response.status >= 400:
                    raw = response.read()
                    try:
                        data = json.loads(raw) if raw else {}
                    except json.JSONDecodeError:
                        data = {"error": raw.decode("utf-8", "replace")}
                    raise ServeError(response.status, data)
                for event, eid in self._parse_sse(response, deadline,
                                                  job_id):
                    if event.get("type") == "gap" and raise_on_gap:
                        raise EventGapError(job_id,
                                            int(event.get("dropped", 0)))
                    if eid is not None:
                        since = max(since, eid)
                    yield event
                    if event.get("type") == "state" \
                            and event.get("state") in TERMINAL:
                        terminal = True
            finally:
                conn.close()
            if terminal:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still streaming after {timeout:.0f}s")
            time.sleep(0.2)  # dropped mid-stream: resume via Last-Event-ID

    @staticmethod
    def _parse_sse(response, deadline: float, job_id: str):
        """Decode ``id:``/``event:``/``data:`` frames off one response;
        ends (for the caller to reconnect) when the connection drops."""
        eid: int | None = None
        etype: str | None = None
        data_lines: list[str] = []
        while True:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still streaming past its deadline")
            try:
                line = response.readline()
            except (http.client.HTTPException, ConnectionError, OSError):
                return
            if not line:
                return  # server closed the stream
            text = line.decode("utf-8", "replace").rstrip("\r\n")
            if not text:
                if data_lines:
                    try:
                        payload = json.loads("\n".join(data_lines))
                    except json.JSONDecodeError:
                        payload = None
                    if isinstance(payload, dict):
                        if etype and "type" not in payload:
                            payload["type"] = etype
                        yield payload, eid
                eid, etype, data_lines = None, None, []
                continue
            if text.startswith(":"):
                continue  # keep-alive comment
            name, _, value = text.partition(":")
            if value.startswith(" "):
                value = value[1:]
            if name == "id":
                try:
                    eid = int(value)
                except ValueError:
                    eid = None
            elif name == "event":
                etype = value
            elif name == "data":
                data_lines.append(value)
