"""Blocking JSON-lines client for the experiment service.

Used by ``python -m repro.harness submit``, the smoke harness, and the
soak test.  Deliberately synchronous (plain sockets, one connection):
each *client* is simple, and concurrency is exercised by running many
of them — exactly how the smoke and soak tests drive the server.

**Resilience** — jobs are deduplicated server-side by unit key, so a
``submit`` frame is idempotent: re-sending it after a dropped or
garbled connection can at worst hit the dedup path.  (A ``result``
frame whose payload does not match its ``digest`` counts as garbled.)
``submit``/``submit_many`` therefore retry (``attempts`` tries, four
by default, with jittered exponential backoff from 50 ms capped at
1 s): transport failures reconnect and re-send the outstanding specs,
and only after the last attempt does the caller see a typed
:class:`ServiceUnavailable` instead of a raw ``socket.error``.  Typed
server replies (``error`` frames) are never retried — they are
answers, not outages.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import socket
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.harness.tables import render_table
from repro.matrix import CONTROLLER_MATRIX
from repro.service import protocol
from repro.service.protocol import JobSpec, ProtocolError, parse_overrides

Address = Union[Tuple[str, int], str]


class ServiceError(RuntimeError):
    """The server answered with an ``error`` frame."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class ServiceUnavailable(ServiceError):
    """The server stayed unreachable through every retry attempt."""

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__("unavailable", message)
        self.attempts = attempts


#: Transport-level failures worth a reconnect: dropped connections,
#: socket timeouts (``TimeoutError``/``OSError``), and garbled frames
#: from a hostile or chaos-proxied wire (``ProtocolError``).
_RETRYABLE = (ConnectionError, ProtocolError, OSError)

#: Reconnect backoff before retry ``n`` (0-based): ``RETRY_BASE_DELAY
#: * 2**n`` seconds, capped at ``RETRY_MAX_DELAY``, then scaled by a
#: uniform factor in ``1 ± RETRY_JITTER`` so clients that lost one
#: server together do not redial in lockstep.
RETRY_BASE_DELAY = 0.05
RETRY_MAX_DELAY = 1.0
RETRY_JITTER = 0.25


class ServiceClient:
    """One (re-dialable) connection to a running experiment server."""

    def __init__(
        self,
        address: Address,
        timeout: float = 300.0,
        attempts: int = 4,
    ) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.address = address
        self.timeout = timeout
        #: Tries per ``submit_many`` (the first plus the retries).
        self.attempts = attempts
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._ids = itertools.count(1)
        #: Non-reply frames (``accepted``, ``draining``, ...) observed
        #: while waiting for results.
        self.progress: List[dict] = []
        #: Transport retries performed (supervision evidence).
        self.retries = 0
        #: ``on_retry(attempt, exc)`` fires before each backoff sleep.
        self.on_retry: Optional[Callable[[int, BaseException], None]] = None
        self.hello = self._dial()  # the greeting frame

    # ------------------------------------------------------------------
    def _dial(self) -> dict:
        """(Re)connect and read the greeting; returns the hello frame."""
        self._teardown()
        if isinstance(self.address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.address)
        else:
            sock = socket.create_connection(
                self.address, timeout=self.timeout
            )
        self._sock = sock
        self._file = sock.makefile("rwb")
        self.hello = self._read()
        return self.hello

    def _teardown(self) -> None:
        """Drop the current socket (before a re-dial or on close)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # ------------------------------------------------------------------
    def _send(self, message: dict) -> None:
        if self._file is None:
            raise ConnectionError("client connection is closed")
        self._file.write(protocol.encode_message(message))
        self._file.flush()

    def _read(self) -> dict:
        if self._file is None:
            raise ConnectionError("client connection is closed")
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        frame = protocol.decode_message(line)
        if frame["type"] == "result":
            # A result whose payload no longer matches its digest was
            # damaged in transit: as untrustworthy as undecodable bytes.
            payload = frame.get("payload")
            if not (
                isinstance(payload, dict)
                and frame.get("digest") == protocol.result_digest(payload)
            ):
                raise ProtocolError("result payload does not match its digest")
        return frame

    # -- low-level frame API (smoke/soak drive these directly) ----------
    def post(self, spec: JobSpec) -> str:
        """Fire one submit frame without waiting; returns its request id."""
        request_id = f"q{next(self._ids)}"
        self._send({"type": "submit", "id": request_id, "job": spec.to_wire()})
        return request_id

    def read(self) -> dict:
        """Read the next frame (blocking)."""
        return self._read()

    def collect(self, request_ids: Iterable[str]) -> Dict[str, dict]:
        """Read frames until a result/error arrived for every id."""
        outstanding = set(request_ids)
        frames: Dict[str, dict] = {}
        while outstanding:
            frame = self._read()
            kind = frame.get("type")
            if kind in ("result", "error") and frame.get("id") in outstanding:
                frames[frame["id"]] = frame
                outstanding.discard(frame["id"])
            else:
                self.progress.append(frame)
        return frames

    # ------------------------------------------------------------------
    def ping(self) -> dict:
        self._send({"type": "ping"})
        return self._wait_for({"pong"})

    def stats(self) -> dict:
        self._send({"type": "stats"})
        return self._wait_for({"stats"})

    def health(self) -> dict:
        """One supervision heartbeat probe (single-shot, no retry)."""
        self._send({"type": "health"})
        return self._wait_for({"health"})

    def submit(self, spec: JobSpec) -> dict:
        """Submit one job and block until its result frame arrives."""
        return self.submit_many([spec])[0]

    def report(
        self, experiment_id: str, fmt: str = "json", baseline: str = ""
    ) -> dict:
        """Fetch a fleet experiment report from the server, read-only."""
        request_id = f"q{next(self._ids)}"
        frame: Dict[str, object] = {
            "type": "report",
            "id": request_id,
            "experiment": experiment_id,
            "format": fmt,
        }
        if baseline:
            frame["baseline"] = baseline
        self._send(frame)
        while True:
            reply = self._read()
            kind = reply.get("type")
            if kind == "report" and reply.get("id") == request_id:
                return reply
            if kind == "error" and reply.get("id") == request_id:
                raise ServiceError(
                    str(reply.get("code")), str(reply.get("message"))
                )
            self.progress.append(reply)

    def submit_many(self, specs: Iterable[JobSpec]) -> List[dict]:
        """Pipeline many jobs on this connection; results in spec order.

        The server may complete deduplicated jobs in any order; replies
        are matched back to requests by ``id``.  Transport failures
        (drop, timeout, garbled frame) reconnect with backoff and
        re-send only the specs still outstanding — submits are
        idempotent end to end (unit-key dedup) — until the retry
        last of ``attempts`` tries fails, at which point a typed
        :class:`ServiceUnavailable` is raised.
        """
        specs = list(specs)
        results: List[Optional[dict]] = [None] * len(specs)
        attempt = 0
        while True:
            try:
                if self._file is None:
                    self._dial()
                self._pump_submissions(specs, results)
                return results  # type: ignore[return-value]
            except ServiceUnavailable:
                raise
            except ServiceError:
                raise  # a typed server answer, not an outage
            except _RETRYABLE as exc:
                self._teardown()
                attempt += 1
                if attempt >= self.attempts:
                    raise ServiceUnavailable(
                        f"server at {self.address!r} unreachable after "
                        f"{attempt} attempt(s): {type(exc).__name__}: {exc}",
                        attempts=attempt,
                    ) from exc
                self.retries += 1
                if self.on_retry is not None:
                    self.on_retry(attempt, exc)
                delay = min(
                    RETRY_MAX_DELAY, RETRY_BASE_DELAY * 2 ** (attempt - 1)
                )
                time.sleep(
                    delay * random.uniform(1 - RETRY_JITTER, 1 + RETRY_JITTER)
                )

    def _pump_submissions(
        self, specs: List[JobSpec], results: List[Optional[dict]]
    ) -> None:
        """Send every unresolved spec and collect until all land."""
        wanted: Dict[str, int] = {}
        for index, spec in enumerate(specs):
            if results[index] is not None:
                continue
            request_id = f"q{next(self._ids)}"
            wanted[request_id] = index
            self._send(
                {"type": "submit", "id": request_id, "job": spec.to_wire()}
            )
        outstanding = set(wanted)
        while outstanding:
            frame = self._read()
            kind = frame.get("type")
            if kind == "result":
                index = wanted.get(frame.get("id"))
                if index is not None:
                    results[index] = frame
                    outstanding.discard(frame["id"])
            elif kind == "error":
                request_id = frame.get("id")
                if request_id in outstanding:
                    raise ServiceError(
                        str(frame.get("code")), str(frame.get("message"))
                    )
                self.progress.append(frame)
            elif kind in ("accepted", "draining"):
                self.progress.append(frame)
            # hello/pong/stats frames interleaved here are ignorable

    def close(self) -> None:
        try:
            self._send({"type": "bye"})
        except (OSError, ValueError):
            pass
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _wait_for(self, kinds) -> dict:
        while True:
            frame = self._read()
            if frame.get("type") in kinds:
                return frame
            self.progress.append(frame)


# ----------------------------------------------------------------------
# CLI: python -m repro.harness submit
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness submit",
        description="Submit experiment jobs to a running service "
        "(python -m repro.harness serve).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--unix", default=None, help="Unix socket path")
    parser.add_argument("--workload", default="hashmap")
    parser.add_argument(
        "--design",
        default="dolos-partial",
        help=f"one of {', '.join(CONTROLLER_MATRIX)}, or 'matrix' "
        f"for all {len(CONTROLLER_MATRIX)}",
    )
    parser.add_argument("--transactions", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--experiment", default="", dest="experiment_id")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override (transaction_size, adr_budget, "
        "wpq_coalescing, persist_model); repeatable",
    )
    parser.add_argument(
        "--json", action="store_true", help="print raw result frames"
    )
    args = parser.parse_args(argv)
    if args.port is None and args.unix is None:
        parser.error("one of --port or --unix is required")
    address: Address = args.unix if args.unix else (args.host, args.port)

    designs = (
        list(CONTROLLER_MATRIX) if args.design == "matrix" else [args.design]
    )
    try:
        overrides = parse_overrides(args.override)
        specs = [
            JobSpec(
                workload=args.workload,
                design=design,
                transactions=args.transactions,
                seed=args.seed,
                experiment_id=args.experiment_id,
                overrides=overrides,
            ).validate()
            for design in designs
        ]
    except ProtocolError as exc:
        print(f"invalid job: {exc}", file=sys.stderr)
        return 2

    with ServiceClient(address) as client:
        frames = client.submit_many(specs)
        stats = client.stats()

    if args.json:
        for frame in frames:
            print(json.dumps(frame, sort_keys=True))
        return 0
    rows = []
    for spec, frame in zip(specs, frames):
        payload = frame["payload"]
        rows.append(
            [
                spec.design,
                payload["workload"],
                payload["cycles"],
                payload["instructions"],
                f"{payload['cycles'] / max(1, payload['instructions']):.3f}",
                "cached" if frame.get("cached") else "ran",
                frame["digest"],
            ]
        )
    print(
        render_table(
            ["design", "workload", "cycles", "instr", "cpi", "source",
             "digest"],
            rows,
            title=f"{args.workload} x{args.transactions} seed {args.seed}",
        )
    )
    print(
        f"server: {stats['completed']} completed, "
        f"dedup hit-rate {stats['dedup_hit_rate']:.2f} "
        f"({stats['dedup_hits']}/{stats['submitted']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
