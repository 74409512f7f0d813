"""Shared fixtures for the test suite."""

import hashlib
import threading

import pytest

from repro.config import SimConfig
from repro.core.registers import PersistentRegisters
from repro.crypto.keys import KeyStore
from repro.engine import Simulator
from repro.mem.nvm import NVMDevice


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def bounded():
    """Run ``fn()`` on a daemon thread; fail, not hang, if it blocks.

    For tests of code that must not hang (a killed worker, a drain):
    ``bounded(fn, timeout)`` returns ``fn()``'s value or re-raises its
    exception, and fails once ``timeout`` seconds pass.
    """

    def run(fn, timeout: float = 60.0):
        outcome = {}

        def target():
            try:
                outcome["value"] = fn()
            except BaseException as exc:  # re-raised on the test thread
                outcome["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout)
        assert not thread.is_alive(), f"still blocked after {timeout}s"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]

    return run


@pytest.fixture
def record_read():
    """Issue a demand read and collect its latency.

    ``controller.read`` returns the latency when it is known at issue
    and otherwise calls its ``done`` with it; ``record_read(controller,
    address, latencies)`` appends the latency to ``latencies`` either
    way (at once, or at the read's completion).
    """

    def issue(controller, address, latencies):
        latency = controller.read(address, done=latencies.append)
        if latency is not None:
            latencies.append(latency)

    return issue


@pytest.fixture
def persist():
    """Submit a PERSIST write and call ``then(cycle)`` once it persisted.

    ``persist(controller, request, then)`` passes the controller a
    completion callback that hands ``then`` the cycle of completion.
    """

    def submit(controller, request, then):
        sim = controller.sim
        controller.submit_write(request, lambda: then(sim.now))

    return submit


@pytest.fixture(scope="session")
def tier1_metrics():
    """Every golden-snapshot headline metric, recomputed once per session.

    Shared by the golden-result suite and the characterization tests so
    the (deterministic) tier-1 experiment bundle runs a single time.
    """
    from repro.harness import golden

    return golden.compute_metrics()


@pytest.fixture
def config():
    return SimConfig()


@pytest.fixture
def keys():
    return KeyStore(0xBEEF)


@pytest.fixture
def registers():
    return PersistentRegisters()


@pytest.fixture
def nvm():
    return NVMDevice()


def deterministic_line(tag: str) -> bytes:
    """A unique, reproducible 64-byte payload for ``tag``."""
    return hashlib.blake2b(tag.encode(), digest_size=32).digest() * 2


@pytest.fixture
def line_factory():
    return deterministic_line
