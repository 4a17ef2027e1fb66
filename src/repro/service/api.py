"""JSON-over-HTTP front end for the simulation service.

A deliberately small, dependency-free asyncio HTTP/1.1 server (the
container bakes in no web framework) exposing the synchronous
:class:`~repro.service.core.SimulationService` core:

========  ==========================  ====================================
method    path                        semantics
========  ==========================  ====================================
GET       /healthz                    liveness + job-table counts
POST      /v1/jobs                    submit one job request (202;
                                      deduped submissions return the
                                      existing job id)
GET       /v1/jobs                    every known job's status document
GET       /v1/jobs/{id}               one job's status document
GET       /v1/jobs/{id}/result        settled result: digest, manifest,
                                      metrics (``?wait=SECONDS`` blocks)
GET       /v1/jobs/{id}/stream        the job's event feed as JSONL,
                                      replay then live, until settled
========  ==========================  ====================================

Execution runs on a small thread pool driving the synchronous core —
the service serialises engine access internally, so extra threads buy
admission and streaming concurrency, not parallel engine batches.
Admission is bounded: more than ``max_pending`` unsettled jobs returns
429 rather than queueing without limit.  A client disconnecting from
``/stream`` merely unsubscribes from the job's feed; the job itself
keeps running (single-flight tickets may have other consumers).
Shutdown is graceful: the listener closes first, then in-flight jobs
drain up to a timeout.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional, Tuple

from repro.engine.jobs import JobRequest
from repro.obs.subscribe import FEED_CLOSED
from repro.service.core import JobTicket, SimulationService

#: Upper bound on request head + body sizes (a spec document is small).
MAX_HEAD_BYTES = 64 * 1024
MAX_BODY_BYTES = 1024 * 1024

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            504: "Gateway Timeout"}


class ApiError(Exception):
    """An HTTP-mappable request failure."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def result_document(ticket: JobTicket) -> Dict[str, object]:
    """The settled-result payload: status + digest + provenance.

    The digest is the same canonical sha256 the golden identity suite
    pins (:mod:`repro.core.digest`), so a client can compare a served
    result against a local ``repro run`` without shipping the pickle.
    """
    doc = ticket.snapshot()
    doc["digest"] = ticket.digest()
    outcome = ticket.outcome
    if outcome is not None:
        doc["manifest"] = dataclasses.asdict(outcome.manifest)
        if outcome.result is not None:
            doc["cycles"] = outcome.result.cycles
            doc["metrics"] = outcome.result.metrics
    return doc


class ServiceAPI:
    """One HTTP listener over one :class:`SimulationService`.

    Args:
        service: The synchronous core to expose.
        host/port: Bind address; port 0 picks a free port (read the
            resolved one from :attr:`port` after :meth:`start`).
        max_pending: Admission bound — submissions past this many
            unsettled jobs get 429.
        workers: Executor threads driving the synchronous core.
    """

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 0,
                 max_pending: int = 64, workers: int = 4) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service")
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> int:
        """Bind and start serving; returns the resolved port."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self) -> None:
        """Accept connections until cancelled (``start()`` first)."""
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain_timeout: float = 30.0) -> bool:
        """Graceful shutdown: stop accepting, then drain in-flight jobs.

        Returns False when the drain timed out (jobs may still settle
        afterwards; their tickets remain readable until process exit).
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None, lambda: self.service.drain(drain_timeout))
        self._executor.shutdown(wait=False, cancel_futures=True)
        return drained

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, query, body = await self._read_request(reader)
                await self._route(method, path, query, body, writer)
            except ApiError as exc:
                await self._respond(writer, exc.status,
                                    {"error": exc.message})
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            except Exception as exc:  # pragma: no cover - defensive
                try:
                    await self._respond(writer, 500,
                                        {"error": f"{type(exc).__name__}: "
                                                  f"{exc}"})
                except Exception:
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            ) -> Tuple[str, str, Dict[str, str], bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            # The stream's buffer limit (64 KiB, as MAX_HEAD_BYTES) ran
            # out before the head ended.
            raise ApiError(413, "request head too large")
        if len(head) > MAX_HEAD_BYTES:
            raise ApiError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise ApiError(400, f"malformed request line {lines[0]!r}")
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise ApiError(400, "Content-Length must be an integer >= 0, "
                                f"got {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise ApiError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        path, _, query_string = target.partition("?")
        query: Dict[str, str] = {}
        for pair in query_string.split("&"):
            if "=" in pair:
                key, _, value = pair.partition("=")
                query[key] = value
        return method.upper(), path, query, body

    async def _route(self, method: str, path: str,
                     query: Dict[str, str], body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, self._health())
            return
        if path == "/v1/jobs":
            if method == "POST":
                await self._submit(body, writer)
                return
            if method == "GET":
                await self._respond(writer, 200, {
                    "jobs": [t.snapshot()
                             for t in self.service.tickets()]})
                return
            raise ApiError(405, f"{method} not allowed on {path}")
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            job_id, _, sub = rest.partition("/")
            ticket = self.service.get(job_id)
            if ticket is None:
                raise ApiError(404, f"unknown job {job_id!r}")
            if sub == "":
                await self._respond(writer, 200, ticket.snapshot())
            elif sub == "result":
                await self._result(ticket, query, writer)
            elif sub == "stream":
                await self._stream(ticket, writer)
            else:
                raise ApiError(404, f"unknown endpoint {path!r}")
            return
        raise ApiError(404, f"unknown endpoint {path!r}")

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def _health(self) -> Dict[str, object]:
        tickets = self.service.tickets()
        pending = sum(1 for t in tickets if not t.done)
        return {"ok": True, "draining": self._draining,
                "jobs": len(tickets), "pending": pending}

    async def _submit(self, body: bytes,
                      writer: asyncio.StreamWriter) -> None:
        if self._draining:
            raise ApiError(429, "server is draining")
        try:
            doc = json.loads(body.decode("utf-8") or "null")
        except ValueError:
            raise ApiError(400, "request body is not valid JSON")
        try:
            request = JobRequest.from_dict(doc)
        except ValueError as exc:
            raise ApiError(400, str(exc))
        pending = sum(1 for t in self.service.tickets() if not t.done)
        if pending >= self.max_pending:
            raise ApiError(429,
                           f"{pending} jobs pending (cap "
                           f"{self.max_pending}); retry later")
        ticket, created = self.service.submit(request)
        if created:
            # Drive the synchronous core off-loop; errors settle the
            # ticket (the HTTP response for them is the job state).
            self._executor.submit(self._execute_quietly, ticket)
        doc = ticket.snapshot()
        doc["deduped"] = not created
        await self._respond(writer, 202, doc)

    def _execute_quietly(self, ticket: JobTicket) -> None:
        try:
            self.service.execute(ticket)
        except Exception:
            # An engine exception already settled the ticket (state
            # "failed", error in the feed); nothing to re-raise into.
            pass

    async def _result(self, ticket: JobTicket, query: Dict[str, str],
                      writer: asyncio.StreamWriter) -> None:
        raw_wait = query.get("wait", "0") or "0"
        try:
            wait = float(raw_wait)
        except ValueError:
            wait = -1.0
        # NaN fails both comparisons; a wait beyond TIMEOUT_MAX would
        # overflow the ticket's Event.wait.
        if not 0 <= wait <= threading.TIMEOUT_MAX:
            raise ApiError(400, "'wait' must be a number of seconds in "
                                f"0..{threading.TIMEOUT_MAX:g}, got "
                                f"{raw_wait!r}")
        if not ticket.done and wait > 0:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None,
                                       lambda: ticket.wait(wait))
        if not ticket.done:
            raise ApiError(408 if wait > 0 else 404,
                           f"job {ticket.job_id} has not settled "
                           f"(state {ticket.state.value})")
        loop = asyncio.get_running_loop()
        # Digesting a large result is CPU work; keep it off the loop.
        doc = await loop.run_in_executor(None, result_document, ticket)
        await self._respond(writer, 200, doc)

    async def _stream(self, ticket: JobTicket,
                      writer: asyncio.StreamWriter) -> None:
        """Serve the ticket feed as a JSONL stream, replay then live.

        The feed delivers on producer threads; items hop onto the loop
        via ``call_soon_threadsafe``.  Disconnects only unsubscribe —
        the producing job is never cancelled by a lost consumer.
        """
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[object]" = asyncio.Queue()

        def relay(item: object) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, item)

        unsubscribe = ticket.feed.subscribe(relay)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/jsonl\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        try:
            while True:
                item = await queue.get()
                if item is FEED_CLOSED:
                    return
                writer.write(json.dumps(item, default=str).encode("utf-8")
                             + b"\n")
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            return  # client went away; the job keeps running
        finally:
            unsubscribe()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Dict[str, object]) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def serve(service: SimulationService, host: str = "127.0.0.1",
                port: int = 0, max_pending: int = 64,
                ready: Optional[Callable[[int], None]] = None) -> None:
    """Run one API server until cancelled (the ``repro serve`` body).

    ``ready`` is called with the resolved port once the listener is
    bound — the CLI prints it, tests grab it.
    """
    api = ServiceAPI(service, host=host, port=port,
                     max_pending=max_pending)
    resolved = await api.start()
    if ready is not None:
        ready(resolved)
    try:
        await api.serve_forever()
    except asyncio.CancelledError:
        await api.stop()
        raise


__all__ = ["ApiError", "ServiceAPI", "result_document", "serve"]
