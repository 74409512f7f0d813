"""Tests for crash injection and boot-time recovery."""

import pytest

from repro.config import MiSUDesign, SimConfig, lazy_config
from repro.core.controller import DolosController
from repro.core.masu import MajorSecurityUnit
from repro.core.requests import WriteKind, WriteRequest
from repro.engine import Simulator
from repro.recovery.crash import crash_system
from repro.recovery.estimate import estimate_recovery
from repro.recovery.recover import (
    RecoveryError,
    RecoveryMode,
    recover_system,
)

HEAP = 0x1_0000_0000


def run_writes(config, writes, until=None, line_factory=None):
    """Build a Dolos controller, submit ``writes`` persists, run."""
    sim = Simulator()
    controller = DolosController(sim, config)
    controller.start()
    oracle = {}
    for i, address in enumerate(writes):
        data = line_factory(f"w{i}-{address:#x}")
        oracle[address] = data
        controller.submit_write(WriteRequest(address, WriteKind.PERSIST, data=data))
    sim.run(until=until)
    return sim, controller, oracle


@pytest.mark.parametrize(
    "design",
    [MiSUDesign.FULL_WPQ, MiSUDesign.PARTIAL_WPQ, MiSUDesign.POST_WPQ],
)
class TestCrashRecoveryAllDesigns:
    def test_mid_flight_crash_recovers_all_persisted(self, design, line_factory):
        config = SimConfig().with_(misu_design=design)
        writes = [HEAP + i * 64 for i in range(30)]
        sim, controller, oracle = run_writes(
            config, writes, until=5000, line_factory=line_factory
        )
        persisted = controller.stats.get("persist.completed")
        image = crash_system(controller, oracle)
        report = recover_system(image)
        readable = 0
        for address, data in oracle.items():
            try:
                if report.masu.secure_read(address) == data:
                    readable += 1
            except Exception:
                pass
        assert readable == persisted
        assert report.tree_root_verified

    def test_quiescent_crash_recovers_everything(self, design, line_factory):
        config = SimConfig().with_(misu_design=design)
        writes = [HEAP + i * 64 for i in range(12)]
        sim, controller, oracle = run_writes(
            config, writes, line_factory=line_factory
        )
        image = crash_system(controller, oracle)
        report = recover_system(image)
        for address, data in oracle.items():
            assert report.masu.secure_read(address) == data
        # Everything was Ma-SU-processed: nothing to replay.
        assert report.wpq_entries_recovered == 0

    def test_boot_epoch_advances(self, design, line_factory):
        config = SimConfig().with_(misu_design=design)
        sim, controller, oracle = run_writes(
            config, [HEAP], until=2000, line_factory=line_factory
        )
        image = crash_system(controller, oracle)
        report = recover_system(image)
        assert report.new_boot_epoch == 1
        assert image.registers.wpq_pad_counter >= config.wpq_entries


class TestRecoveryDetails:
    def test_pad_counter_never_reuses_counters(self, line_factory):
        """Two crash/recover cycles must advance the pad register twice."""
        config = SimConfig()
        sim, controller, oracle = run_writes(
            config, [HEAP], until=2000, line_factory=line_factory
        )
        image = crash_system(controller, oracle)
        recover_system(image)
        first = image.registers.wpq_pad_counter
        # Second life: new controller sharing registers/keys/nvm.
        sim2 = Simulator()
        controller2 = DolosController(
            sim2, config, nvm=image.nvm, keys=image.keys
        )
        controller2.registers = image.registers
        controller2.misu.registers = image.registers
        controller2.misu.regenerate_pads()
        controller2.start()
        controller2.submit_write(
            WriteRequest(HEAP + 64, WriteKind.PERSIST, data=line_factory("2"))
        )
        sim2.run(until=500)
        image2 = crash_system(controller2, {})
        recover_system(image2)
        assert image2.registers.wpq_pad_counter > first

    def test_cleared_entries_skipped(self, line_factory):
        config = SimConfig()
        writes = [HEAP + i * 64 for i in range(6)]
        sim, controller, oracle = run_writes(
            config, writes, until=30000, line_factory=line_factory
        )
        image = crash_system(controller, oracle)
        report = recover_system(image)
        assert report.wpq_entries_skipped_cleared >= 1

    def test_osiris_only_mode_recovers(self, line_factory):
        config = SimConfig()
        # Repeated writes to the same lines leave NVM counters stale.
        writes = [HEAP + (i % 4) * 64 for i in range(20)]
        sim, controller, oracle = run_writes(
            config, writes, line_factory=line_factory
        )
        image = crash_system(controller, oracle)
        report = recover_system(image, RecoveryMode.OSIRIS_ONLY)
        for address in set(writes):
            assert report.masu.secure_read(address) == oracle[address]

    def test_lazy_mode_recovery(self, line_factory):
        config = lazy_config()
        writes = [HEAP + i * 64 for i in range(10)]
        sim, controller, oracle = run_writes(
            config, writes, until=4000, line_factory=line_factory
        )
        image = crash_system(controller, oracle)
        report = recover_system(image)
        persisted = controller.stats.get("persist.completed")
        readable = 0
        for address, data in oracle.items():
            try:
                if report.masu.secure_read(address) == data:
                    readable += 1
            except Exception:
                pass
        assert readable == persisted

    def test_redo_log_replay(self, line_factory):
        """Crash between Figure 11 steps 2 and 3: the staged write must
        be recovered from the persistent redo registers."""
        from repro.core.registers import PersistentRegisters
        from repro.crypto.keys import KeyStore
        from repro.mem.nvm import NVMDevice
        from repro.recovery.crash import CrashImage

        config = SimConfig()
        keys = KeyStore(config.seed)
        registers = PersistentRegisters()
        nvm = NVMDevice(config.nvm)
        masu = MajorSecurityUnit(config, keys, registers, nvm)
        data = line_factory("staged")
        masu.stage(HEAP, data)  # crash hits here: ready bit set, not applied
        image = CrashImage(config, nvm, registers, keys)
        report = recover_system(image)
        assert report.redo_log_replayed
        assert report.masu.secure_read(HEAP) == data


@pytest.mark.parametrize(
    "design",
    [MiSUDesign.FULL_WPQ, MiSUDesign.PARTIAL_WPQ, MiSUDesign.POST_WPQ],
)
class TestOsirisEdgeCases:
    def test_crash_between_counter_writeback_and_data_write(
        self, design, line_factory
    ):
        """Crash at the exact instant after the counter cache wrote its
        (possibly stale) block to NVM but before the data write landed.

        Repeated same-line writes leave the NVM counter copy up to one
        Osiris stride behind the architectural counter; the crash then
        hits between Figure 11 steps 2 and 3 (redo log ready, data not
        written).  OSIRIS_ONLY recovery must probe the stale counter
        forward AND replay the staged write from the redo registers.
        """
        config = SimConfig().with_(misu_design=design)
        # 20 writes over 4 lines: every line's architectural counter is
        # ahead of (or equal to) the NVM copy, stride permitting.
        writes = [HEAP + (i % 4) * 64 for i in range(20)]
        sim, controller, oracle = run_writes(
            config, writes, line_factory=line_factory
        )
        staged = line_factory("staged-under-stale-counters")
        controller.masu.stage(HEAP, staged)  # crash before apply()
        oracle[HEAP] = staged
        image = crash_system(controller, oracle)
        report = recover_system(image, RecoveryMode.OSIRIS_ONLY)
        assert report.redo_log_replayed
        for address in set(writes):
            assert report.masu.secure_read(address) == oracle[address]

    def test_crash_during_adr_drain_with_full_wpq(self, design, line_factory):
        """Power-fail at maximum occupancy: the ADR energy budget must
        cover draining every usable entry of the design's WPQ (16/13/10
        for Full/Partial/Post), and recovery must replay them all."""
        from repro.core.requests import WriteKind, WriteRequest

        config = SimConfig().with_(misu_design=design)
        sim = Simulator()
        controller = DolosController(sim, config)
        controller.start()
        capacity = controller.wpq.capacity
        assert capacity == config.adr.usable_entries(design)
        oracle = {}
        persisted = set()
        for i in range(capacity * 3):
            address = HEAP + i * 64
            data = line_factory(f"full-{design.value}-{i}")
            oracle[address] = data
            controller.submit_write(
                WriteRequest(address, WriteKind.PERSIST, data=data),
                lambda a=address: persisted.add(a),
            )
        # Advance in small steps until the queue is full of *protected*
        # entries (allocation precedes Mi-SU protection by the MAC
        # latency, and the Ma-SU drains while we fill, so a fixed cycle
        # count is racy).
        def drainable() -> int:
            return sum(1 for _ in controller.wpq.drainable_entries())

        while sim.now < 200_000 and not (
            controller.wpq.occupancy >= capacity and drainable() >= capacity - 1
        ):
            sim.run(until=sim.now + 25)
        assert controller.wpq.occupancy == capacity
        image = crash_system(controller, oracle)
        # The drain image covers the whole queue and stayed within the
        # ADR energy budget (drain() itself enforces the budget).
        assert len(image.drained) >= capacity - 1
        report = recover_system(image)
        assert report.tree_root_verified
        for address in persisted:
            assert report.masu.secure_read(address) == oracle[address]


class TestRecoveryEstimate:
    def test_paper_full_wpq_number(self):
        estimate = estimate_recovery(SimConfig().with_(misu_design=MiSUDesign.FULL_WPQ))
        assert estimate.total_cycles == 44480  # §5.5's exact figure

    def test_read_blocks_include_macs_for_partial(self):
        estimate = estimate_recovery(SimConfig())
        assert estimate.read_cycles == 600 * (13 + 2)  # §5.5: "15*600"

    def test_post_reads_twelve_blocks(self):
        estimate = estimate_recovery(
            SimConfig().with_(misu_design=MiSUDesign.POST_WPQ)
        )
        assert estimate.read_cycles == 600 * 12

    def test_total_is_sum_of_parts(self):
        estimate = estimate_recovery(SimConfig())
        assert estimate.total_cycles == (
            estimate.read_cycles
            + estimate.old_pad_cycles
            + estimate.drain_cycles
            + estimate.new_pad_cycles
        )

    def test_milliseconds_scale(self):
        estimate = estimate_recovery(SimConfig())
        assert estimate.total_ms(4.0) == pytest.approx(
            estimate.total_cycles / 4e9 * 1e3
        )
