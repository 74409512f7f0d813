"""The asyncio JSON-lines experiment server.

One :class:`ExperimentServer` listens on loopback TCP and (optionally)
a Unix-domain socket, multiplexing any number of clients over one
:class:`~repro.service.scheduler.ExperimentScheduler`.

Per-client machinery:

* **Rate limiting** — a token bucket (:data:`RATE` messages/s,
  :data:`BURST` burst) gates message *reads*: when a client exhausts
  its burst, the server simply stops reading its socket until tokens
  refill, so backpressure propagates to the client through
  TCP/SO_SNDBUF instead of through unbounded server queues.
* **Bounded event queue** — replies flow through one
  ``asyncio.Queue(maxsize=QUEUE_SIZE)`` per client drained by a
  writer task.  Acknowledgements (``accepted``, ``pong``,
  ``draining``, ...) are droppable (a slow reader loses them, never
  correctness; drops are counted and reported on ``bye``); results and
  errors are *critical* — enqueueing them awaits space, so a slow
  client slows only its own deliveries.
* **Graceful drain** — on SIGTERM/SIGINT (or :meth:`shutdown`), the
  listeners close, new submissions are refused with ``draining``, the
  scheduler drains every accepted job, all pending result deliveries
  flush, and only then do connections close.  No accepted job is lost.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import signal
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Set

from repro.service import protocol
from repro.service.protocol import JobSpec, ProtocolError
from repro.service.scheduler import (
    DrainingError,
    ExperimentScheduler,
    Job,
    JobStatus,
)

logger = logging.getLogger(__name__)

#: Per-client token bucket: sustained messages/second + burst.
RATE = 200.0
BURST = 64
#: Per-client reply-queue bound.
QUEUE_SIZE = 256


class TokenBucket:
    """Classic token bucket; ``acquire`` sleeps until a token exists."""

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._last is not None:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
        self._last = now

    async def acquire(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            self._refill(loop.time())
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            await asyncio.sleep((1.0 - self._tokens) / self.rate)


class _ClientSession:
    """Per-connection state: reply queue, writer task, rate limiter."""

    def __init__(self, server: "ExperimentServer", writer) -> None:
        self.server = server
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=QUEUE_SIZE)
        self.bucket = TokenBucket(RATE, BURST)
        self.dropped_progress = 0
        self.closed = False

    def post(self, message: Dict[str, object]) -> None:
        """Best-effort enqueue (acknowledgements; droppable)."""
        if self.closed:
            return
        try:
            self.queue.put_nowait(message)
        except asyncio.QueueFull:
            self.dropped_progress += 1

    async def post_critical(self, message: Dict[str, object]) -> None:
        """Guaranteed enqueue (results/errors; awaits queue space)."""
        if self.closed:
            return
        await self.queue.put(message)

    async def drain_writer(self) -> None:
        """Sentinel-close the queue so the writer flushes and exits.

        The session counts as closed from here on: a post landing
        behind the sentinel would never be consumed, and a shutdown
        waiting for this queue to flush would stall until its timeout.
        """
        self.closed = True
        await self.queue.put(None)


class ExperimentServer:
    """Serve experiment jobs over loopback TCP and a Unix socket."""

    def __init__(
        self,
        scheduler: ExperimentScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        fleet_db: Optional[str] = None,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.unix_path = unix_path
        #: Fleet results database served read-only by ``report`` frames
        #: (None = $REPRO_FLEET_DB / the default cache path).
        self.fleet_db = fleet_db
        self._servers: list = []
        self._sessions: Set[_ClientSession] = set()
        self._deliveries: Set[asyncio.Task] = set()
        self._draining = False
        self._stopped = asyncio.Event()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listeners (TCP always; Unix when a path was given).

        The stream limit is raised to the protocol's frame bound: the
        asyncio default (64 KiB) would make ``readline`` raise on any
        legal frame above it, killing the session task — the protocol
        promises a typed ``oversized`` error up to 1 MiB instead.
        """
        limit = protocol.MAX_LINE_BYTES + 1024
        tcp = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port, limit=limit
        )
        self._servers.append(tcp)
        self.port = tcp.sockets[0].getsockname()[1]
        if self.unix_path:
            unix = await asyncio.start_unix_server(
                self._handle_client, path=self.unix_path, limit=limit
            )
            self._servers.append(unix)

    async def serve_until_stopped(self) -> None:
        await self._stopped.wait()

    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        session = _ClientSession(self, writer)
        self._sessions.add(session)
        writer_task = asyncio.create_task(self._writer_loop(session))
        session.post(
            {
                "type": "hello",
                "version": protocol.PROTOCOL_VERSION,
                "draining": self._draining,
            }
        )
        try:
            while True:
                await session.bucket.acquire()
                try:
                    line = await reader.readline()
                except (ConnectionResetError, BrokenPipeError):
                    break
                except ValueError:
                    # readline() converts LimitOverrunError to
                    # ValueError when a line exceeds the stream limit:
                    # an oversized frame gets a typed reply, never an
                    # unhandled session-task death.
                    session.post(
                        {
                            "type": "error",
                            "code": "oversized",
                            "message": "line too long",
                        }
                    )
                    break
                if not line:
                    break
                if len(line) > protocol.MAX_LINE_BYTES:
                    session.post(
                        {
                            "type": "error",
                            "code": "oversized",
                            "message": "line too long",
                        }
                    )
                    break
                done = await self._handle_message(session, line)
                if done:
                    break
        finally:
            await session.drain_writer()
            await writer_task
            self._sessions.discard(session)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_message(self, session: _ClientSession, line: bytes) -> bool:
        """Dispatch one frame; returns True when the session should end.

        Every failure mode of a hostile frame — garbage bytes, bad
        types inside a structurally valid message, anything a fuzzer
        invents — must come back as a typed ``error`` reply.  The
        final catch-all is deliberate: an unhandled exception here
        would kill the session task and silently drop every job the
        connection still has in flight.
        """
        try:
            message = protocol.decode_message(line)
        except ProtocolError as exc:
            session.post(
                {"type": "error", "code": "protocol", "message": str(exc)}
            )
            return False
        kind = message.get("type")
        try:
            if kind == "ping":
                session.post({"type": "pong"})
                return False
            if kind == "health":
                session.post(self._health_frame())
                return False
            if kind == "stats":
                session.post({"type": "stats", **self.scheduler.stats()})
                return False
            if kind == "bye":
                session.post(
                    {
                        "type": "bye",
                        "dropped_progress": session.dropped_progress,
                    }
                )
                return True
            if kind == "submit":
                await self._handle_submit(session, message)
                return False
            if kind == "report":
                await self._handle_report(session, message)
                return False
        except Exception as exc:
            logger.warning(
                "experiment service: %r frame raised unexpectedly",
                kind,
                exc_info=True,
            )
            session.post(
                {
                    "type": "error",
                    "id": protocol.sanitize_request_id(message),
                    "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            )
            return False
        session.post(
            {
                "type": "error",
                "code": "unknown-type",
                "message": f"unknown message type {kind!r}",
            }
        )
        return False

    def _health_frame(self) -> Dict[str, object]:
        """The supervision heartbeat reply: cheap, no event snapshot."""
        return {
            "type": "health",
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "in_flight": self.scheduler.in_flight,
            "completed": self.scheduler.completed,
            "failed": self.scheduler.failed,
        }

    async def _handle_submit(
        self, session: _ClientSession, message: Dict[str, object]
    ) -> None:
        request_id = protocol.sanitize_request_id(message)
        try:
            spec = JobSpec.from_wire(message.get("job"))
        except ProtocolError as exc:
            await session.post_critical(
                {
                    "type": "error",
                    "id": request_id,
                    "code": "bad-job",
                    "message": str(exc),
                }
            )
            return
        try:
            job = await self.scheduler.submit(spec)
        except DrainingError as exc:
            await session.post_critical(
                {
                    "type": "error",
                    "id": request_id,
                    "code": "draining",
                    "message": str(exc),
                }
            )
            return
        dedup = "new"
        if job.cached:
            dedup = "cached"
        elif job.spec is not spec:
            dedup = "inflight"
        session.post(
            {
                "type": "accepted",
                "id": request_id,
                "key": job.key,
                "dedup": dedup,
                "state": job.status.value,
            }
        )
        task = asyncio.create_task(
            self._deliver_result(session, request_id, job)
        )
        self._deliveries.add(task)
        task.add_done_callback(self._deliveries.discard)

    async def _handle_report(
        self, session: _ClientSession, message: Dict[str, object]
    ) -> None:
        """Serve a fleet experiment report, read-only, over the wire.

        ``{"type": "report", "experiment": <id>, "format": "json"|"html"}``
        — the db is opened fresh per request in read-only mode, so a
        concurrently-running dispatcher (separate process, WAL) is never
        blocked by the service.
        """
        from repro.fleet.db import FleetDB
        from repro.fleet.report import build_report, render_html
        from repro.harness.trace_store import ResultStoreError

        request_id = protocol.sanitize_request_id(message)
        experiment = message.get("experiment")
        fmt = message.get("format", "json")
        baseline = message.get("baseline") or None
        if not experiment or fmt not in ("json", "html"):
            await session.post_critical(
                {
                    "type": "error",
                    "id": request_id,
                    "code": "bad-report",
                    "message": "report needs an experiment id and a "
                    "format of json or html",
                }
            )
            return

        def build() -> Dict[str, object]:
            db = FleetDB(self.fleet_db, readonly=True)
            try:
                report = build_report(db, str(experiment), baseline=baseline)
            finally:
                db.close()
            reply: Dict[str, object] = {
                "type": "report",
                "id": request_id,
                "experiment": experiment,
                "format": fmt,
            }
            if fmt == "html":
                reply["html"] = render_html(report)
            else:
                reply["report"] = report
            return reply

        try:
            reply = await asyncio.to_thread(build)
        except ResultStoreError as exc:
            await session.post_critical(
                {
                    "type": "error",
                    "id": request_id,
                    "code": "no-report",
                    "message": str(exc),
                }
            )
            return
        await session.post_critical(reply)

    async def _deliver_result(
        self, session: _ClientSession, request_id, job: Job
    ) -> None:
        if not job.finished:
            await asyncio.shield(job.done)
        if session.closed:
            return
        if job.status is JobStatus.DONE:
            await session.post_critical(
                {
                    "type": "result",
                    "id": request_id,
                    "key": job.key,
                    "payload": job.payload,
                    "digest": job.digest,
                    "cached": job.cached,
                    "degraded": job.degraded,
                }
            )
        else:
            await session.post_critical(
                {
                    "type": "error",
                    "id": request_id,
                    "key": job.key,
                    "code": "job-failed",
                    "message": job.error or "job failed",
                }
            )

    async def _writer_loop(self, session: _ClientSession) -> None:
        while True:
            message = await session.queue.get()
            if message is None:
                session.queue.task_done()
                break
            try:
                try:
                    data = protocol.encode_message(message)
                except ProtocolError:
                    # A reply that itself exceeds the frame bound
                    # (e.g. an error echoing pathological input) must
                    # not kill the writer; degrade to a minimal frame.
                    data = protocol.encode_message(
                        {
                            "type": "error",
                            "code": "oversized-reply",
                            "message": "reply exceeded the frame bound",
                        }
                    )
                session.writer.write(data)
                await session.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                session.closed = True
            finally:
                session.queue.task_done()

    # ------------------------------------------------------------------
    async def shutdown(self) -> None:
        """Graceful drain: finish accepted jobs, flush, then stop."""
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for session in list(self._sessions):
            session.post({"type": "draining"})
        await self.scheduler.drain()
        if self._deliveries:
            await asyncio.gather(*list(self._deliveries), return_exceptions=True)
        # Every reply is enqueued; wait (bounded) for writers to flush
        # them onto the sockets before the process goes away.
        flushes = [
            session.queue.join()
            for session in list(self._sessions)
            if not session.closed
        ]
        if flushes:
            try:
                await asyncio.wait_for(asyncio.gather(*flushes), timeout=15.0)
            except asyncio.TimeoutError:
                pass  # a reader stopped reading; its loss, not a hang
        await self.scheduler.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                # Shutdown proceeds regardless, but a listener that
                # errors while closing should leave a trace for the
                # operator instead of vanishing.
                logger.debug(
                    "experiment service: listener on %s failed to close "
                    "cleanly during drain",
                    ", ".join(
                        str(sock.getsockname())
                        for sock in (server.sockets or [])
                    ) or "<no socket>",
                    exc_info=True,
                )
        self._stopped.set()


# ----------------------------------------------------------------------
# CLI: python -m repro.harness serve
# ----------------------------------------------------------------------
async def _amain(args) -> int:
    scheduler = ExperimentScheduler(jobs=args.jobs)
    server = ExperimentServer(
        scheduler,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        fleet_db=args.fleet_db,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.shutdown())
            )
        except NotImplementedError:  # non-Unix event loops
            pass
    endpoints = {"host": server.host, "port": server.port, "unix": args.unix}
    if args.ready_file:
        ready = Path(args.ready_file)
        ready.parent.mkdir(parents=True, exist_ok=True)
        tmp = ready.with_suffix(".tmp")
        tmp.write_text(json.dumps(endpoints))
        tmp.replace(ready)
    print(f"[serve] listening {json.dumps(endpoints)}", flush=True)
    await server.serve_until_stopped()
    stats = scheduler.stats()
    print(f"[serve] drained: {json.dumps(stats)}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness serve",
        description="Long-lived experiment service (JSON lines over "
        "loopback TCP and an optional Unix socket).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument("--unix", default=None, help="Unix socket path")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="simulation workers (>=2 uses a warm process pool; "
        "0 = all cores)",
    )
    parser.add_argument(
        "--ready-file",
        default=None,
        help="write the bound endpoints as JSON here once listening",
    )
    parser.add_argument(
        "--fleet-db",
        default=None,
        help="fleet results database served read-only by 'report' "
        "frames (default: $REPRO_FLEET_DB)",
    )
    args = parser.parse_args(argv)
    if args.jobs <= 0:
        import os

        args.jobs = os.cpu_count() or 1
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
