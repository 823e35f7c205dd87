"""``python -m repro serve``: the always-available scenario service over HTTP.

A deliberately minimal HTTP/1.1 layer (stdlib ``asyncio`` streams only -- no
framework dependency) in front of :class:`~repro.scenarios.jobs.JobManager`.
Requests are parsed by hand, every response closes its connection, and
progress streams use chunked transfer encoding with one JSON object per line
(NDJSON), so any stock HTTP client -- ``curl``, :mod:`http.client`,
``urllib`` -- can drive it.

API surface (see ``docs/service.md`` for the full contract):

========================  =====================================================
``GET  /healthz``          liveness: ``{"ok": true}`` once the loop is serving
``GET  /stats``            queue depth, dedup counters, job states, store stats
``POST /v1/jobs``          submit ``{"suite": ...}`` or ``{"scenario": ...}``
                           (+ ``{"options": {"jobs": N, "prebuild": bool}}``);
                           responds with the job descriptor plus its dedup
                           disposition (``new`` / ``inflight`` / ``cached``)
``GET  /v1/jobs``          all job descriptors (newest last)
``GET  /v1/jobs/ID``         one job descriptor (poll this for state)
``GET  /v1/jobs/ID/events``  NDJSON progress stream until the job is terminal
``GET  /v1/jobs/ID/report``  the persisted SuiteReport JSON, byte-for-byte
                           identical for every client of the fingerprint
``POST /v1/jobs/ID/cancel``  cooperative cancellation
========================  =====================================================

Errors are JSON bodies ``{"error": {"code", "message"}}``; submission
validation failures surface the underlying spec error message (unknown keys,
bad types, missing fields) so a client can fix its payload without reading
server logs.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.scenarios.jobs import FaultPlan, Job, JobManager, JobRejected, parse_submission

#: Submission bodies above this size are rejected with 413 (a suite manifest
#: of hundreds of inline scenarios fits comfortably under it).
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """An error response: status + machine code + human message."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


def _json_bytes(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode() + body


def _error_response(error: HttpError) -> bytes:
    return _response(
        error.status,
        _json_bytes({"error": {"code": error.code, "message": error.message}}),
    )


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request: (method, path, headers, body)."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        raise HttpError(400, "bad-request", "unreadable request line") from None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, "bad-request", f"malformed request line: {parts!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = b""
    if method in ("POST", "PUT"):
        length_text = headers.get("content-length")
        if length_text is None:
            raise HttpError(411, "length-required", "POST needs a Content-Length header")
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, "bad-request", f"bad Content-Length: {length_text!r}") from None
        if length > MAX_BODY_BYTES:
            raise HttpError(
                413, "too-large", f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(length)
    # Strip query strings; the API is purely path-addressed.
    path = target.split("?", 1)[0]
    return method, path, headers, body


class ScenarioService:
    """The asyncio HTTP server in front of one :class:`JobManager`."""

    def __init__(
        self, manager: JobManager, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.manager.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.shutdown()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, _headers, body = await _read_request(reader)
                await self._route(method, path, body, writer)
            except HttpError as error:
                writer.write(_error_response(error))
            except (ConnectionError, asyncio.IncompleteReadError):
                return  # client went away mid-request; nothing to answer
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                writer.write(
                    _error_response(
                        HttpError(500, "internal", f"{type(exc).__name__}: {exc}")
                    )
                )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _route(
        self, method: str, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        segments = [part for part in path.split("/") if part]
        if path == "/healthz":
            self._require(method, "GET", path)
            writer.write(_response(200, _json_bytes({"ok": True, "service": "repro"})))
            return
        if path == "/stats":
            self._require(method, "GET", path)
            writer.write(_response(200, _json_bytes(self.manager.stats())))
            return
        if segments[:2] == ["v1", "jobs"]:
            if len(segments) == 2:
                if method == "POST":
                    self._submit(body, writer)
                    return
                self._require(method, "GET", path)
                writer.write(
                    _response(
                        200,
                        _json_bytes(
                            {"jobs": [job.describe() for job in self.manager.jobs.values()]}
                        ),
                    )
                )
                return
            job = self._job_or_404(segments[2])
            if len(segments) == 3:
                self._require(method, "GET", path)
                writer.write(_response(200, _json_bytes({"job": job.describe()})))
                return
            if len(segments) == 4:
                action = segments[3]
                if action == "report":
                    self._require(method, "GET", path)
                    self._report(job, writer)
                    return
                if action == "events":
                    self._require(method, "GET", path)
                    await self._stream_events(job, writer)
                    return
                if action == "cancel":
                    self._require(method, "POST", path)
                    live = self.manager.cancel(job)
                    writer.write(
                        _response(
                            200,
                            _json_bytes({"job": job.describe(), "cancelled": live}),
                        )
                    )
                    return
        raise HttpError(404, "not-found", f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise HttpError(
                405, "method-not-allowed", f"{path} supports {expected}, not {method}"
            )

    def _job_or_404(self, job_id: str) -> Job:
        job = self.manager.get(job_id)
        if job is None:
            raise HttpError(404, "unknown-job", f"no job {job_id!r}")
        return job

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, "bad-json", f"body is not valid JSON: {exc}") from None
        try:
            suite, options = parse_submission(payload)
            job, disposition = self.manager.submit(suite, options)
        except JobRejected as exc:
            raise HttpError(400, "rejected", str(exc)) from None
        if disposition == "rejected":
            # Queue-depth backpressure: the job descriptor (terminal state
            # "rejected", error explaining the bound) still comes back, so a
            # client can inspect what it hit and retry later.
            status = 429
        elif disposition == "new":
            status = 201
        else:
            status = 200
        writer.write(
            _response(
                status,
                _json_bytes({"job": job.describe(), "dedup": disposition}),
            )
        )

    def _report(self, job: Job, writer: asyncio.StreamWriter) -> None:
        if job.state == "failed":
            raise HttpError(409, "job-failed", job.error or "job failed")
        if job.state == "cancelled":
            raise HttpError(409, "job-cancelled", "job was cancelled before completing")
        data = self.manager.report_bytes(job)
        if data is None:
            raise HttpError(
                409,
                "not-finished",
                f"job {job.id} is {job.state}; poll /v1/jobs/{job.id} or stream "
                f"/v1/jobs/{job.id}/events until it is done",
            )
        writer.write(_response(200, data))

    async def _stream_events(self, job: Job, writer: asyncio.StreamWriter) -> None:
        """Chunked NDJSON: snapshot first, then live events until terminal."""
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode()
        )

        def chunk(payload: Mapping[str, Any]) -> bytes:
            data = _json_bytes(payload)
            return f"{len(data):x}\r\n".encode() + data + b"\r\n"

        # Subscribe *before* the snapshot: every event after the snapshot's
        # state lands in the queue, so the stream never misses a transition.
        queue = self.manager.subscribe(job)
        try:
            writer.write(chunk({"event": "snapshot", **job.describe()}))
            await writer.drain()
            while not job.terminal:
                event = await queue.get()
                writer.write(chunk(event))
                await writer.drain()
                if event.get("event") == "state" and event.get("state") in (
                    "done",
                    "failed",
                    "cancelled",
                ):
                    break
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            self.manager.unsubscribe(job, queue)


# ----------------------------------------------------------------------
# embedding + CLI entry points
# ----------------------------------------------------------------------
class ThreadedService:
    """Run a :class:`ScenarioService` on a background thread (tests, examples).

    ``start()`` blocks until the server is accepting connections and returns
    the base URL; ``stop()`` performs the same graceful shutdown as SIGTERM
    (in-flight suites stop at a task boundary with their finished trials in
    the store, and their jobs stay journaled).
    """

    def __init__(self, manager_kwargs: Dict[str, Any], host: str = "127.0.0.1") -> None:
        self.manager_kwargs = manager_kwargs
        self.host = host
        self.url: Optional[str] = None
        self.manager: Optional[JobManager] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> str:
        self._thread = threading.Thread(target=self._run, name="repro-service", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        assert self.url is not None
        return self.url

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self.manager = JobManager(**self.manager_kwargs)
            service = ScenarioService(self.manager, host=self.host, port=0)
            await service.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._ready.set()
            return
        self.url = service.url
        self._ready.set()
        await self._stop_event.wait()
        await service.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop closed between the check and the call
                pass
        if self._thread is not None:
            self._thread.join(timeout=60)


async def _serve_async(
    host: str,
    port: int,
    manager: JobManager,
    quiet: bool = False,
) -> int:
    service = ScenarioService(manager, host=host, port=port)
    await service.start()
    recovered = [job for job in manager.jobs.values() if not job.terminal]
    # The ready line is part of the interface: the test harness and the CI
    # smoke job parse the URL (the OS picks the port under --port 0).
    print(f"repro service listening on {service.url}", flush=True)
    if not quiet:
        print(
            f"store {manager.store.root} | {manager.workers} worker(s) | "
            f"{len(recovered)} job(s) recovered from the journal",
            flush=True,
        )
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass
    await stop_event.wait()
    if not quiet:
        print("shutting down: stopping in-flight jobs at a task boundary", flush=True)
    await service.stop()
    return 0


def serve_main(
    host: str = "127.0.0.1",
    port: int = 8653,
    store: str = "repro-store",
    workers: int = 2,
    jobs: int = 1,
    prebuild: bool = False,
    retries: int = 2,
    backoff_s: float = 0.25,
    timeout_s: Optional[float] = None,
    quiet: bool = False,
    max_pending_tasks: Optional[int] = None,
) -> int:
    """The blocking ``python -m repro serve`` entry point."""
    fault_plan = FaultPlan.from_env(os.environ.get("REPRO_SERVICE_FAULT"))
    manager = JobManager(
        store=store,
        workers=workers,
        retries=retries,
        backoff_s=backoff_s,
        timeout_s=timeout_s,
        default_jobs=jobs,
        default_prebuild=prebuild,
        fault_plan=fault_plan,
        max_pending_tasks=max_pending_tasks,
    )
    try:
        return asyncio.run(_serve_async(host, port, manager, quiet=quiet))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C without handler
        return 130
