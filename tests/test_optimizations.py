"""Tests for the composable back-end optimizations and secure eADR."""

import pytest

from repro.config import ControllerKind, SecurityConfig, SimConfig
from repro.core.controller import (
    DolosController,
    EADRSecureController,
    make_controller,
)
from repro.core.masu import DEDUP_MAP_REGION, MajorSecurityUnit
from repro.core.registers import PersistentRegisters
from repro.core.requests import WriteKind, WriteRequest
from repro.crypto.keys import KeyStore
from repro.engine import Simulator
from repro.mem.nvm import NVMDevice
from repro.security.optimizations import (
    DedupDetector,
    DeuceTracker,
    MorphableCounterModel,
    content_hash,
)

HEAP = 0x1_0000_0000


def build_masu(**security_changes):
    config = SimConfig().with_(security=SecurityConfig(**security_changes))
    return MajorSecurityUnit(
        config, KeyStore(5), PersistentRegisters(), NVMDevice(config.nvm)
    )


class TestDedupDetector:
    def test_duplicate_found(self, line_factory):
        dedup = DedupDetector()
        data = line_factory("same")
        dedup.record_write(0x1000, data)
        assert dedup.check(0x2000, data) == 0x1000

    def test_same_address_not_a_duplicate(self, line_factory):
        dedup = DedupDetector()
        data = line_factory("same")
        dedup.record_write(0x1000, data)
        assert dedup.check(0x1000, data) is None

    def test_different_content_no_hit(self, line_factory):
        dedup = DedupDetector()
        dedup.record_write(0x1000, line_factory("a"))
        assert dedup.check(0x2000, line_factory("b")) is None

    def test_resolve_follows_mapping(self, line_factory):
        dedup = DedupDetector()
        dedup.record_duplicate(0x2000, 0x1000)
        assert dedup.resolve(0x2000) == 0x1000
        assert dedup.resolve(0x3000) == 0x3000

    def test_real_write_drops_stale_mapping(self, line_factory):
        dedup = DedupDetector()
        dedup.record_duplicate(0x2000, 0x1000)
        dedup.record_write(0x2000, line_factory("fresh"))
        assert dedup.resolve(0x2000) == 0x2000

    def test_content_hash_deterministic(self, line_factory):
        data = line_factory("x")
        assert content_hash(data) == content_hash(data)


class TestDedupInMaSU:
    def test_duplicate_write_cancelled(self, line_factory):
        masu = build_masu(enable_dedup=True)
        data = line_factory("dup")
        masu.secure_write(HEAP, data)
        masu.secure_write(HEAP + 64, data)  # identical content
        assert masu.dedup_cancelled_writes == 1
        assert masu.nvm.read_line(HEAP + 64) is None  # no second copy
        assert masu.nvm.region_read(DEDUP_MAP_REGION, HEAP + 64) is not None

    def test_deduped_read_returns_content(self, line_factory):
        masu = build_masu(enable_dedup=True)
        data = line_factory("dup")
        masu.secure_write(HEAP, data)
        masu.secure_write(HEAP + 64, data)
        assert masu.secure_read(HEAP + 64) == data

    def test_distinct_content_unaffected(self, line_factory):
        masu = build_masu(enable_dedup=True)
        a, b = line_factory("a"), line_factory("b")
        masu.secure_write(HEAP, a)
        masu.secure_write(HEAP + 64, b)
        assert masu.dedup_cancelled_writes == 0
        assert masu.secure_read(HEAP + 64) == b

    def test_disabled_by_default(self, line_factory):
        masu = build_masu()
        assert masu.dedup is None


class TestDeuce:
    def test_first_write_full_reencrypt(self, line_factory):
        deuce = DeuceTracker()
        assert deuce.observe_write(HEAP, line_factory("v")) == 8

    def test_partial_write_counts_changed_words(self, line_factory):
        deuce = DeuceTracker(epoch_interval=100)
        base = bytearray(line_factory("v"))
        deuce.observe_write(HEAP, bytes(base))
        base[0] ^= 0xFF  # change one word
        assert deuce.observe_write(HEAP, bytes(base)) == 1

    def test_epoch_forces_full_reencrypt(self, line_factory):
        deuce = DeuceTracker(epoch_interval=2)
        data = line_factory("v")
        deuce.observe_write(HEAP, data)   # write 0: full (epoch)
        deuce.observe_write(HEAP, data)   # write 1: partial, 0 changed
        words = deuce.observe_write(HEAP, data)  # write 2: epoch again
        assert words == 8

    def test_bit_flip_reduction_positive(self, line_factory):
        deuce = DeuceTracker(epoch_interval=100)
        base = bytearray(line_factory("v"))
        deuce.observe_write(HEAP, bytes(base))
        for i in range(5):
            base[8] ^= 1 << i
            deuce.observe_write(HEAP, bytes(base))
        assert deuce.stats.bit_flip_reduction > 0.5
        assert deuce.stats.word_write_ratio < 0.5

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            DeuceTracker(epoch_interval=0)

    def test_masu_integration(self, line_factory):
        masu = build_masu(enable_deuce=True)
        data = line_factory("v")
        masu.secure_write(HEAP, data)
        masu.secure_write(HEAP, data)
        assert masu.deuce.stats.lines_written == 2


class TestMorphableCounters:
    def test_cache_key_groups_pages(self):
        model = MorphableCounterModel(coverage_factor=2)
        assert model.cache_key(0) == model.cache_key(1)
        assert model.cache_key(0) != model.cache_key(2)

    def test_reduces_counter_misses(self):
        """Striding across pages: doubled coverage halves the misses."""
        baseline = build_masu()
        morphable = build_masu(morphable_coverage=4)
        for page in range(256):
            address = page << 12
            baseline.counter_access_latency(0, address, True)
            morphable.counter_access_latency(0, address, True)
        assert morphable.counter_cache.misses < baseline.counter_cache.misses

    def test_functional_behaviour_unchanged(self, line_factory):
        masu = build_masu(morphable_coverage=4)
        data = line_factory("v")
        masu.secure_write(HEAP, data)
        assert masu.secure_read(HEAP) == data


class TestEADRController:
    def _run(self, writes=30):
        config = SimConfig().with_(controller=ControllerKind.EADR_SECURE)
        sim = Simulator()
        controller = make_controller(sim, config)
        times = []
        for i in range(writes):
            controller.submit_write(
                WriteRequest(HEAP + i * 64, WriteKind.PERSIST),
                lambda: times.append(sim.now),
            )
        sim.run()
        return controller, times

    def test_factory(self):
        config = SimConfig().with_(controller=ControllerKind.EADR_SECURE)
        controller = make_controller(Simulator(), config)
        assert isinstance(controller, EADRSecureController)

    def test_persists_complete_immediately(self):
        controller, times = self._run()
        assert all(t <= 2 for t in times)

    def test_large_buffer_no_retries(self):
        controller, _ = self._run(writes=100)
        assert controller.wpq.retry_events == 0

    def test_crash_is_out_of_budget(self):
        config = SimConfig().with_(controller=ControllerKind.EADR_SECURE)
        sim = Simulator()
        controller = make_controller(sim, config)
        controller.submit_write(WriteRequest(HEAP, WriteKind.PERSIST))
        sim.run(until=10)
        with pytest.raises(RuntimeError, match="battery|budget|ADR"):
            controller.crash()

    def test_eadr_upper_bounds_dolos(self):
        """Dolos approximates eADR from below (the intro's trade-off)."""
        from repro.harness.runner import run_trace
        from repro.workloads import generate_trace

        trace = generate_trace("hashmap", 40, 1024, seed=4)
        dolos = run_trace(SimConfig(), trace, "t", 40)
        eadr = run_trace(
            SimConfig().with_(controller=ControllerKind.EADR_SECURE),
            trace, "t", 40,
        )
        assert eadr.cycles <= dolos.cycles


class TestDedupCrashRecovery:
    def test_mappings_survive_crash(self, line_factory):
        """A dedup-cancelled write's read must work after recovery —
        the mapping region is part of the persistent image."""
        from repro.config import SecurityConfig
        from repro.recovery import crash_system, recover_system

        config = SimConfig().with_(security=SecurityConfig(enable_dedup=True))
        sim = Simulator()
        controller = DolosController(sim, config)
        controller.start()
        data = line_factory("dup")
        controller.submit_write(WriteRequest(HEAP, WriteKind.PERSIST, data=data))
        controller.submit_write(
            WriteRequest(HEAP + 64, WriteKind.PERSIST, data=data)
        )
        sim.run()
        assert controller.masu.dedup_cancelled_writes == 1
        image = crash_system(controller)
        report = recover_system(image)
        assert report.masu.secure_read(HEAP) == data
        assert report.masu.secure_read(HEAP + 64) == data
