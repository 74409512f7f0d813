"""Tier-1 tests for the hardened wire surface.

Two halves:

* **hostile bytes** — the protocol decoder and the live asyncio server
  must turn every fuzzer-shaped frame (invalid UTF-8, pathological
  nesting, missing ``type``, oversized lines) into a typed ``error``
  reply on a connection that keeps working, never a dead session task.
* **client resilience** — :class:`ServiceClient` must reconnect with
  backoff through transport drops and results that fail their digest
  (submits are idempotent end to end) and surface a typed
  :class:`ServiceUnavailable` only after its last attempt.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from types import SimpleNamespace

import pytest

from repro.service import client as client_mod
from repro.service import protocol as proto
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.protocol import JobSpec, ProtocolError
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer

SPEC = JobSpec(
    workload="hashmap", design="dolos-partial", transactions=4, seed=1
)


# ======================================================================
# Protocol-level fuzzing (pure functions)
# ======================================================================
class TestDecodeHostileBytes:
    def test_invalid_utf8_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            proto.decode_message(b'\xff\xfe{"type":"ping"}\n')

    def test_malformed_json_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            proto.decode_message(b'{"type": \n')

    def test_deep_nesting_never_escapes_as_recursion_error(self):
        hostile = b"[" * 100_000 + b"\n"
        with pytest.raises(ProtocolError):
            proto.decode_message(hostile)
        balanced = b"[" * 50_000 + b"]" * 50_000 + b"\n"
        with pytest.raises(ProtocolError):
            proto.decode_message(balanced)

    def test_missing_type_and_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            proto.decode_message(b'{"id": "r1"}\n')
        with pytest.raises(ProtocolError):
            proto.decode_message(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            proto.decode_message(b'"just a string"\n')

    def test_oversized_line_rejected(self):
        line = b'{"type":"x","pad":"' + b"a" * proto.MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ProtocolError):
            proto.decode_message(line)

    def test_legal_messages_still_decode(self):
        assert proto.decode_message(b'{"type":"ping"}\n') == {"type": "ping"}


class TestSanitizeRequestId:
    @pytest.mark.parametrize("request_id", ["r1", 7, 1.5, True, None])
    def test_scalars_pass_through(self, request_id):
        message = {"type": "submit", "id": request_id}
        assert proto.sanitize_request_id(message) == request_id

    def test_huge_string_ids_are_truncated(self):
        message = {"type": "submit", "id": "x" * 10_000}
        assert proto.sanitize_request_id(message) == "x" * 256

    @pytest.mark.parametrize(
        "request_id", [{"nested": "dict"}, ["list"], [[[[[]]]]]]
    )
    def test_structured_ids_echo_as_none(self, request_id):
        message = {"type": "submit", "id": request_id}
        assert proto.sanitize_request_id(message) is None


class TestHostileJobSpecs:
    def test_unhashable_workload_is_a_protocol_error(self):
        wire = dict(SPEC.to_wire(), workload={"evil": True})
        with pytest.raises(ProtocolError):
            JobSpec.from_wire(wire)

    def test_unhashable_design_is_a_protocol_error(self):
        wire = dict(SPEC.to_wire(), design=["dolos-partial"])
        with pytest.raises(ProtocolError):
            JobSpec.from_wire(wire)

    def test_bool_transactions_rejected(self):
        wire = dict(SPEC.to_wire(), transactions=True)
        with pytest.raises(ProtocolError):
            JobSpec.from_wire(wire)

    def test_non_mapping_overrides_rejected(self):
        wire = dict(SPEC.to_wire(), overrides=[1, 2])
        with pytest.raises(ProtocolError):
            JobSpec.from_wire(wire)

    def test_non_mapping_job_rejected(self):
        with pytest.raises(ProtocolError):
            JobSpec.from_wire("not an object")


# ======================================================================
# Live server under hostile bytes
# ======================================================================
def _run_async(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _with_server(handler):
    scheduler = ExperimentScheduler(jobs=1)
    server = ExperimentServer(scheduler, port=0)
    await server.start()
    try:
        return await handler(server)
    finally:
        await server.shutdown()


class _RawClient:
    """Sends raw bytes — below the framing layer the server trusts."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, server) -> "_RawClient":
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        client = cls(reader, writer)
        hello = await client.read()
        assert hello["type"] == "hello"
        return client

    async def send_raw(self, data: bytes) -> None:
        self.writer.write(data)
        await self.writer.drain()

    async def read(self) -> dict:
        line = await self.reader.readline()
        assert line, "server closed the connection"
        return json.loads(line.decode("utf-8"))

    async def ping_ok(self) -> None:
        await self.send_raw(proto.encode_message({"type": "ping"}))
        assert (await self.read())["type"] == "pong"

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class TestServerSurvivesHostileBytes:
    def test_garbage_gets_typed_error_and_session_survives(self):
        async def scenario(server):
            client = await _RawClient.connect(server)
            await client.send_raw(b"\xff\xfe total garbage \xff\n")
            error = await client.read()
            assert (error["type"], error["code"]) == ("error", "protocol")
            await client.ping_ok()  # the session is still alive
            await client.close()

        _run_async(_with_server(scenario))

    def test_deep_nesting_gets_typed_error(self):
        async def scenario(server):
            client = await _RawClient.connect(server)
            await client.send_raw(b"[" * 200_000 + b"\n")
            error = await client.read()
            assert (error["type"], error["code"]) == ("error", "protocol")
            await client.ping_ok()
            await client.close()

        _run_async(_with_server(scenario))

    def test_missing_type_gets_typed_error(self):
        async def scenario(server):
            client = await _RawClient.connect(server)
            await client.send_raw(b'{"id": "r1"}\n')
            error = await client.read()
            assert (error["type"], error["code"]) == ("error", "protocol")
            await client.ping_ok()
            await client.close()

        _run_async(_with_server(scenario))

    def test_large_legal_frame_survives_the_asyncio_default_limit(self):
        # 100 KiB is legal under the 1 MiB protocol bound but larger
        # than asyncio's 64 KiB default stream limit — the server must
        # raise its limit, not kill the session with a ValueError.
        async def scenario(server):
            client = await _RawClient.connect(server)
            frame = {"type": "nope", "pad": "a" * (100 * 1024)}
            await client.send_raw(proto.encode_message(frame))
            error = await client.read()
            assert (error["type"], error["code"]) == ("error", "unknown-type")
            await client.ping_ok()
            await client.close()

        _run_async(_with_server(scenario))

    def test_oversized_line_gets_typed_error(self):
        async def scenario(server):
            client = await _RawClient.connect(server)
            await client.send_raw(
                b'{"type":"x","pad":"'
                + b"a" * (proto.MAX_LINE_BYTES + 1024)
                + b'"}\n'
            )
            error = await client.read()
            assert (error["type"], error["code"]) == ("error", "oversized")
            await client.close()

        _run_async(_with_server(scenario))

    def test_structured_id_is_not_echoed_back(self):
        async def scenario(server):
            client = await _RawClient.connect(server)
            bad = dict(SPEC.to_wire(), workload="no-such-workload")
            frame = {
                "type": "submit",
                "id": {"huge": ["nested", "id"]},
                "job": bad,
            }
            await client.send_raw(proto.encode_message(frame))
            error = await client.read()
            assert error["type"] == "error"
            assert error.get("id") is None
            await client.close()

        _run_async(_with_server(scenario))


# ======================================================================
# Client reconnect-with-backoff (scripted threaded server)
# ======================================================================
_HELLO = proto.encode_message(
    {"type": "hello", "version": proto.PROTOCOL_VERSION, "draining": False}
)


def _drop_after_submit(conn: socket.socket) -> None:
    """Greet, swallow one frame, hang up — a mid-flight transport drop."""
    conn.sendall(_HELLO)
    conn.makefile("rb").readline()


_PAYLOAD = {"workload": "hashmap", "cycles": 123}


def _result_frame(request_id) -> bytes:
    return proto.encode_message(
        {
            "type": "result",
            "id": request_id,
            "key": "k",
            "payload": _PAYLOAD,
            "digest": proto.result_digest(_PAYLOAD),
            "cached": False,
        }
    )


def _serve_result(conn: socket.socket) -> None:
    """Greet, then answer every submit with a result frame."""
    conn.sendall(_HELLO)
    reader = conn.makefile("rb")
    while True:
        line = reader.readline()
        if not line:
            return
        message = json.loads(line.decode("utf-8"))
        if message.get("type") != "submit":
            return
        conn.sendall(_result_frame(message["id"]))


def _serve_garbled_result(conn: socket.socket) -> None:
    """Greet, then answer the submit with one bit flipped in the payload.

    The frame still decodes and its id still matches: only the digest
    it carries shows the damage.
    """
    conn.sendall(_HELLO)
    message = json.loads(conn.makefile("rb").readline().decode("utf-8"))
    frame = _result_frame(message["id"])
    garbled = frame.replace(b'"hashmap"', b'"Hashmap"')  # 0x68 ^ 0x20
    assert garbled != frame
    conn.sendall(garbled)


class _ScriptedServer:
    """Unix-socket server that runs one behavior per connection.

    The last behavior repeats for any further connections, so a retry
    loop can redial more often than the script is long.
    """

    def __init__(self, path: str, behaviors) -> None:
        self.path = path
        self.behaviors = list(behaviors)
        self.connections = 0
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(8)
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            index = min(self.connections, len(self.behaviors) - 1)
            self.connections += 1
            try:
                self.behaviors[index](conn)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


class TestClientReconnect:
    def test_submit_survives_one_transport_drop(self, tmp_path):
        path = str(tmp_path / "svc.sock")
        server = _ScriptedServer(path, [_drop_after_submit, _serve_result])
        try:
            client = ServiceClient(path, timeout=5.0, attempts=3)
            seen = []
            client.on_retry = lambda attempt, exc: seen.append(
                (attempt, type(exc).__name__)
            )
            frame = client.submit(SPEC)
            client.close()
        finally:
            server.close()
        assert frame["type"] == "result"
        assert frame["payload"] == _PAYLOAD
        assert client.retries == 1
        assert seen and seen[0][0] == 1
        assert server.connections == 2

    def test_result_that_fails_its_digest_is_resent(self, tmp_path):
        path = str(tmp_path / "svc.sock")
        server = _ScriptedServer(path, [_serve_garbled_result, _serve_result])
        try:
            client = ServiceClient(path, timeout=5.0, attempts=3)
            seen = []
            client.on_retry = lambda attempt, exc: seen.append(type(exc))
            frame = client.submit(SPEC)
            client.close()
        finally:
            server.close()
        assert frame["payload"] == _PAYLOAD
        assert seen == [ProtocolError]
        assert server.connections == 2

    def test_permanent_outage_raises_typed_unavailable(self, tmp_path):
        path = str(tmp_path / "svc.sock")
        server = _ScriptedServer(path, [_drop_after_submit])
        try:
            client = ServiceClient(path, timeout=5.0, attempts=2)
            with pytest.raises(ServiceUnavailable) as excinfo:
                client.submit(SPEC)
            client.close()
        finally:
            server.close()
        assert excinfo.value.attempts == 2
        assert excinfo.value.code == "unavailable"
        assert isinstance(excinfo.value, ServiceError)

    def test_typed_server_errors_are_answers_not_outages(self, tmp_path):
        def serve_error(conn: socket.socket) -> None:
            conn.sendall(_HELLO)
            reader = conn.makefile("rb")
            line = reader.readline()
            message = json.loads(line.decode("utf-8"))
            conn.sendall(
                proto.encode_message(
                    {
                        "type": "error",
                        "id": message["id"],
                        "code": "bad-job",
                        "message": "rejected",
                    }
                )
            )
            reader.readline()

        path = str(tmp_path / "svc.sock")
        server = _ScriptedServer(path, [serve_error])
        try:
            client = ServiceClient(path, timeout=5.0, attempts=4)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(SPEC)
            client.close()
        finally:
            server.close()
        assert excinfo.value.code == "bad-job"
        assert client.retries == 0  # no pointless reconnects
        assert server.connections == 1

    def test_backoff_is_exponential_capped_and_jittered(
        self, tmp_path, monkeypatch
    ):
        """Retry n sleeps min(1 s, 50 ms * 2**n), scaled by 1 +- 25 %."""
        sleeps = []
        monkeypatch.setattr(
            client_mod, "time", SimpleNamespace(sleep=sleeps.append)
        )
        path = str(tmp_path / "svc.sock")
        server = _ScriptedServer(path, [_drop_after_submit])
        try:
            client = ServiceClient(path, timeout=5.0, attempts=8)
            with pytest.raises(ServiceUnavailable):
                client.submit(SPEC)
            client.close()
        finally:
            server.close()
        raw = [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]
        assert len(sleeps) == len(raw)
        for delay, base in zip(sleeps, raw):
            assert 0.75 * base <= delay <= 1.25 * base
        assert sleeps != raw  # jittered

    def test_attempts_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ServiceClient(str(tmp_path / "never-dialed.sock"), attempts=0)

    def test_garbled_greeting_fails_fast_at_construction(self, tmp_path):
        # Construction is deliberately single-shot: a garbled hello is
        # visible immediately, and the *caller's* retry loop (e.g.
        # submit_many after a respawn) owns the redial policy.
        def garbled_hello(conn: socket.socket) -> None:
            conn.sendall(b"\xff not json \xff\n")

        path = str(tmp_path / "svc.sock")
        server = _ScriptedServer(path, [garbled_hello])
        with pytest.raises(ProtocolError):
            ServiceClient(path, timeout=5.0, attempts=2)
        server.close()
