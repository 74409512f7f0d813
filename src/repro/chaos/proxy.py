"""A fault-injecting Unix-socket proxy for the fleet wire protocol.

The dispatcher normally dials a worker's socket directly; under chaos
it dials a :class:`ChaosProxy` instead, which relays newline-delimited
frames to the real worker while consulting a :class:`WireSchedule` for
each one.  Faults are applied per frame *ordinal* — the Nth frame this
worker's wire ever carried in a direction, counted across client
reconnects — so a seeded plan deterministically picks which frames
suffer.

The supervision plane never goes through a proxy: heartbeat probes
dial the worker's own socket, so hang detection keeps working while
the data path is being tortured (that separation is the point — a
supervisor that shares the faulted channel cannot tell a hung worker
from its own broken wire).

Faults:

* ``conn-reset`` — drop the frame and slam both sides shut.
* ``frame-truncate`` — forward a prefix (no newline), then reset: the
  peer sees a torn frame followed by EOF.
* ``frame-garble`` — flip one bit mid-frame, forward, then reset.  The
  reset matters: without it a client that receives garbage it cannot
  correlate to a request would wait out its full socket timeout.
* ``frame-dup`` — forward the frame twice (duplicate delivery).
* ``stall`` / ``ack-delay`` — sleep ``param`` seconds before
  forwarding (slow-loris on the request / delayed ack on the reply).

An optional ``frame_filter(direction, line) -> keep`` hook sees every
frame before fault processing; returning False swallows the frame and
resets the connection.  The orchestrator uses it for kill-mid-result:
the worker dies at the exact moment its result frame crosses the wire,
and the dispatcher never sees that result.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional

from repro.chaos.plan import ChaosFault, WireSchedule, record_injection
from repro.instrumentation import EventLog

logger = logging.getLogger(__name__)

__all__ = ["ChaosProxy", "garble"]


def garble(line: bytes, ordinal: int) -> bytes:
    """Flip one bit at a deterministic position, preserving framing."""
    if len(line) <= 1:
        return line
    position = ordinal % (len(line) - 1)  # never the trailing newline
    flipped = line[position] ^ 0x20
    if flipped == 0x0A:  # must not fabricate a frame boundary
        flipped ^= 0x01
    return line[:position] + bytes([flipped]) + line[position + 1:]


class _Relay:
    """One client connection and its upstream twin."""

    def __init__(self, client: socket.socket, upstream: socket.socket):
        self.client = client
        self.upstream = upstream
        self._lock = threading.Lock()
        self._closed = False

    def reset(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """Relay ``listen_path`` -> ``upstream_path`` under a wire schedule."""

    def __init__(
        self,
        listen_path: str,
        upstream_path: str,
        schedule: WireSchedule,
        events: EventLog,
        frame_filter: Optional[Callable[[str, bytes], bool]] = None,
    ) -> None:
        self.listen_path = str(listen_path)
        self.upstream_path = str(upstream_path)
        self.schedule = schedule
        self.events = events
        self.frame_filter = frame_filter
        self._listener: Optional[socket.socket] = None
        self._relays: List[_Relay] = []
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._closing = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        Path(self.listen_path).unlink(missing_ok=True)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.listen_path)
        self._listener.listen(16)
        accept = threading.Thread(
            target=self._accept_loop,
            name=f"chaos-proxy-{Path(self.listen_path).name}",
            daemon=True,
        )
        accept.start()
        self._threads.append(accept)

    def close(self) -> None:
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            relays = list(self._relays)
        for relay in relays:
            relay.reset()
        Path(self.listen_path).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            upstream = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                upstream.connect(self.upstream_path)
            except OSError:
                # Worker gone (killed by a process fault): refuse the
                # dial so the client's retry path sees it immediately.
                client.close()
                upstream.close()
                continue
            relay = _Relay(client, upstream)
            with self._lock:
                self._relays.append(relay)
            for direction, src, dst in (
                ("c2s", client, upstream),
                ("s2c", upstream, client),
            ):
                thread = threading.Thread(
                    target=self._pump,
                    args=(relay, src, dst, direction),
                    name=f"chaos-{direction}-{self.schedule.worker_id}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def _pump(
        self,
        relay: _Relay,
        src: socket.socket,
        dst: socket.socket,
        direction: str,
    ) -> None:
        try:
            reader = src.makefile("rb")
        except OSError:
            relay.reset()
            return
        try:
            while True:
                try:
                    line = reader.readline()
                except (OSError, ValueError):
                    return
                if not line:
                    return
                if self.frame_filter is not None and not self.frame_filter(
                    direction, line
                ):
                    return  # swallowed; filter owns the consequences
                ordinal = self.schedule.next_ordinal(direction)
                fault = self.schedule.action(direction, ordinal)
                try:
                    if fault is None:
                        dst.sendall(line)
                    elif self._apply(fault, ordinal, line, dst):
                        return  # fault tore the connection down
                except OSError:
                    return
        finally:
            relay.reset()

    def _apply(
        self,
        fault: ChaosFault,
        ordinal: int,
        line: bytes,
        dst: socket.socket,
    ) -> bool:
        """Inject ``fault`` on ``line``; True = connection is dead."""
        if fault.kind == "conn-reset":
            record_injection(
                self.events, fault, f"frame of {len(line)} bytes dropped"
            )
            return True
        if fault.kind == "frame-truncate":
            cut = max(1, len(line) // 2)
            record_injection(
                self.events, fault, f"forwarded {cut}/{len(line)} bytes"
            )
            dst.sendall(line[:cut])
            return True
        if fault.kind == "frame-garble":
            record_injection(
                self.events, fault,
                f"bit flipped at offset {ordinal % len(line)}",
            )
            dst.sendall(garble(line, ordinal))
            return True
        if fault.kind == "frame-dup":
            record_injection(self.events, fault, "frame delivered twice")
            dst.sendall(line)
            dst.sendall(line)
            return False
        if fault.kind in ("stall", "ack-delay"):
            record_injection(self.events, fault, f"held {fault.param}s")
            time.sleep(fault.param)
            dst.sendall(line)
            return False
        logger.warning("unknown wire fault kind %r ignored", fault.kind)
        dst.sendall(line)
        return False
