"""Tests for breakdown analysis, wear tracking and trace serialisation."""

import dataclasses

import pytest

from repro.config import ControllerKind, SimConfig, eager_config
from repro.cpu import trace_io
from repro.cpu.trace import OP_CLWB, OP_FENCE, OP_LOAD, OP_STORE, OP_WORK
from repro.cpu.trace_io import (
    FORMAT_VERSION,
    PackedTrace,
    load_trace,
    save_trace,
    trace_to_arrays,
)
from repro.harness.breakdown import (
    CycleBreakdown,
    render_breakdowns,
    run_with_breakdown,
)
from repro.harness.runner import run_trace
from repro.matrix import controller_matrix
from repro.mem.nvm import NVMDevice
from repro.workloads import generate_trace

HEAP = 0x1_0000_0000

#: The non-secure ideal (no Ma-SU), Dolos and the pre-WPQ baseline.
BREAKDOWN_KINDS = (
    ControllerKind.NON_SECURE_IDEAL,
    ControllerKind.DOLOS,
    ControllerKind.PRE_WPQ_SECURE,
)


class TestCycleBreakdown:
    def test_components_sum_to_total(self):
        breakdown = CycleBreakdown(total=100, fence_stall=40, read_stall=10)
        assert breakdown.other == 50
        assert breakdown.fraction("fence_stall") == 0.4

    def test_other_never_negative(self):
        # Fence and read stalls are disjoint intervals of the core, so
        # parts exceeding the total are an accounting error: raised,
        # not clamped to zero.
        breakdown = CycleBreakdown(total=10, fence_stall=8, read_stall=8)
        with pytest.raises(ValueError, match="exceed the total"):
            breakdown.other

    def test_zero_total(self):
        assert CycleBreakdown(0, 0, 0).fraction("fence_stall") == 0.0

    @pytest.mark.parametrize("label", sorted(controller_matrix()))
    def test_parts_sum_to_total_across_the_matrix(self, label):
        # The law behind the raise: on real runs the stalls never exceed
        # the total, so the three parts sum to it with no clamp.
        base = controller_matrix()[label]
        for workload in ("hashmap", "read-heavy"):
            for model in ("relaxed", "strict"):
                config = base.with_(
                    core=dataclasses.replace(base.core, persist_model=model)
                )
                trace = generate_trace(workload, 40, config.transaction_size, 1)
                _, breakdown = run_with_breakdown(config, trace, workload, 40)
                # ``other`` is the exact remainder; it raises instead of
                # going negative.
                assert breakdown.other > 0

    def test_run_with_breakdown_end_to_end(self):
        trace = generate_trace("ctree", 20, 512, seed=1)
        result, breakdown = run_with_breakdown(SimConfig(), trace, "ctree", 20)
        assert breakdown.total == result.cycles
        assert 0 < breakdown.fence_stall < breakdown.total
        assert breakdown.other > 0

    @pytest.mark.parametrize("kind", BREAKDOWN_KINDS)
    def test_breakdown_result_is_the_plain_run_result(self, kind):
        # The breakdown instruments run_trace's own run, so its result
        # carries every stat the plain run does, histogram summaries
        # (core.tx_cycles.p99 and friends) included.
        config = eager_config(controller=kind)
        packed = PackedTrace.from_trace(
            generate_trace("hashmap", 40, config.transaction_size, 1)
        )
        result, _ = run_with_breakdown(config, packed, "hashmap", 40)
        assert result == run_trace(config, packed, "hashmap", 40)
        assert "core.tx_cycles.p99" in result.stats

    @pytest.mark.parametrize("kind", BREAKDOWN_KINDS)
    def test_read_stall_is_zero_when_only_store_fills_miss(self, kind):
        # Store misses reach the controller as reads, but the core never
        # blocks on them.
        trace = [(OP_STORE, HEAP + i * 4096) for i in range(6)]
        result, breakdown = run_with_breakdown(
            SimConfig().with_(controller=kind), trace
        )
        assert result.stats["controller.reads"] == 6
        assert "core.memory_reads" not in result.stats
        assert breakdown.read_stall == 0

    @pytest.mark.parametrize("kind", BREAKDOWN_KINDS)
    def test_read_stall_is_the_demand_miss_round_trips(self, kind):
        # With no persists, a run's cycles are its hierarchy latency,
        # its work and the round trips of the loads it blocks on, so the
        # measured read stall is exactly the rest — store fills to the
        # same banks included.
        config = SimConfig().with_(controller=kind)
        miss = config.l1.latency + config.l2.latency + config.llc.latency
        trace = [
            (OP_STORE, HEAP), (OP_LOAD, HEAP + 64), (OP_STORE, HEAP + 4096),
            (OP_WORK, 10), (OP_LOAD, HEAP + 8192),
        ]
        result, breakdown = run_with_breakdown(config, trace)
        assert result.stats["controller.reads"] == 4
        assert result.stats["core.memory_reads"] == 2
        work = int(10 / config.core.ipc)
        assert breakdown.read_stall == result.cycles - 4 * miss - work
        assert breakdown.other == 4 * miss + work

    def test_dolos_has_smaller_fence_share_than_baseline(self):
        trace = generate_trace("ctree", 25, 1024, seed=1)
        _, base = run_with_breakdown(
            SimConfig().with_(controller=ControllerKind.PRE_WPQ_SECURE),
            trace, "ctree", 25,
        )
        _, dolos = run_with_breakdown(SimConfig(), trace, "ctree", 25)
        assert dolos.fraction("fence_stall") < base.fraction("fence_stall")

    def test_render(self):
        breakdown = CycleBreakdown(100, 40, 10)
        text = render_breakdowns([("x", breakdown)], "T")
        assert "40%" in text and "x" in text


class TestWearTracking:
    def test_wear_counts_media_writes(self, line_factory):
        nvm = NVMDevice()
        for i in range(3):
            nvm.write_line(0x1000, line_factory(str(i)))
        nvm.write_line(0x2000, line_factory("x"))
        assert nvm.wear_of(0x1000) == 3
        assert nvm.wear_of(0x2000) == 1
        assert nvm.wear_of(0x3000) == 0

    def test_wear_summary(self, line_factory):
        nvm = NVMDevice()
        for i in range(4):
            nvm.write_line(0x1000, line_factory(str(i)))
        nvm.write_line(0x2000, line_factory("y"))
        summary = nvm.wear_summary()
        assert summary["lines"] == 2
        assert summary["total"] == 5
        assert summary["max"] == 4
        assert summary["imbalance"] == pytest.approx(4 / 2.5)

    def test_empty_summary(self):
        assert NVMDevice().wear_summary()["lines"] == 0

    def test_unaligned_addresses_share_wear(self, line_factory):
        nvm = NVMDevice()
        nvm.write_line(0x1000, line_factory("a"))
        nvm.write_line(0x1020, line_factory("b"))
        assert nvm.wear_of(0x1000) == 2


class TestTraceIO:
    SAMPLE = [
        (OP_WORK, 100),
        (OP_LOAD, HEAP),
        (OP_STORE, HEAP + 64),
        (OP_CLWB, HEAP + 64),
        (OP_FENCE,),
    ]

    def test_roundtrip(self, tmp_path):
        path = save_trace(tmp_path / "t.trace", self.SAMPLE, {"workload": "x"})
        trace, header = load_trace(path)
        assert trace == self.SAMPLE
        assert header["workload"] == "x"
        assert header["version"] == FORMAT_VERSION

    def test_real_workload_roundtrip(self, tmp_path):
        original = generate_trace("hashmap", 10, 256, seed=1)
        path = save_trace(tmp_path / "hashmap.npz", original)
        loaded, _header = load_trace(path)
        assert loaded == original

    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.harness.runner import run_trace

        original = generate_trace("ctree", 15, 256, seed=2)
        path = save_trace(tmp_path / "c.npz", original)
        loaded, _ = load_trace(path)
        a = run_trace(SimConfig(), original, "c", 15)
        b = run_trace(SimConfig(), loaded, "c", 15)
        assert a.cycles == b.cycles

    def test_version_check(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_io, "FORMAT_VERSION", 99)
        path = save_trace(tmp_path / "bad.trace", self.SAMPLE)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="version 99"):
            load_trace(path)

    def test_flat_file_rejects_bad_magic_and_body(self, tmp_path):
        path = save_trace(tmp_path / "t.trace", self.SAMPLE)
        data = path.read_bytes()
        assert data.startswith(trace_io.MAGIC)
        cases = {
            "magic": b"X" + data[1:],
            "body": data[:-8],
            "truncated": data[:4],
        }
        for name, bad in cases.items():
            path.write_bytes(bad)
            with pytest.raises(ValueError):
                load_trace(path)

    def test_arrays_shape(self):
        codes, operands = trace_to_arrays(self.SAMPLE)
        assert len(codes) == len(self.SAMPLE)
        assert operands[-1] == 0  # fence has no operand
