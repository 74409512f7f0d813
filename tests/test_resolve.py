"""Resolve-and-replay: every input form replays the same resolved stream.

The core resolves an op stream against the caches once
(:func:`repro.cpu.resolve.resolve`) and replays only the controller
interactions.  These tests pin that the replay reproduces the per-op
loop it replaced exactly, that tuple lists, bare iterables and packed
traces (memo miss and hit) give identical results, and that the memo
is keyed by exactly the fields the resolved stream depends on.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, ControllerKind, SimConfig, lazy_config
from repro.core.controller import make_controller
from repro.core.requests import WriteKind, WriteRequest
from repro.cpu.core import TraceCore
from repro.cpu.resolve import EV_EVICT, EV_FILL, EV_LOAD, EV_PERSIST, resolve
from repro.cpu.trace import (
    OP_ARRIVAL,
    OP_CLWB,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXBEGIN,
    OP_TXEND,
    OP_WORK,
    pack_arrival,
)
from repro.cpu.trace_io import PackedTrace
from repro.engine import Simulator
from repro.harness.runner import run_trace
from repro.mem.hierarchy import CacheHierarchy
from repro.workloads import generate_trace

HEAP = 0x1_0000_0000

DOLOS = SimConfig()
PREWPQ = SimConfig().with_(controller=ControllerKind.PRE_WPQ_SECURE)
#: A tiny hierarchy (4/16/32 lines) for the random streams: lines one
#: LLC-set span apart share a set at every level, so a pool of eight
#: produces hits, misses and dirty LLC victims alike.
TINY = {
    "l1": CacheConfig("L1", 256, 2, 2),
    "l2": CacheConfig("L2", 1024, 4, 20),
    "llc": CacheConfig("LLC", 2048, 4, 32),
}
SPAN = TINY["llc"].num_sets * TINY["llc"].line_bytes
LINES = 8


def strict(config: SimConfig) -> SimConfig:
    return config.with_(
        core=dataclasses.replace(config.core, persist_model="strict")
    )


class PerOpCore(TraceCore):
    """Reference: the per-op loop that resolve-and-replay replaced.

    Walks the hierarchy inside the replay and sends store fills through
    ``read``, as the core used to.  It steps its own generator with the
    core's ``_resume``.
    """

    def run(self, trace):
        self._replaying = self._per_op(trace)
        self._wake = partial(self._resume, None)
        self._resume(None)

    def _launch_persist(self, line):
        self._outstanding_persists += 1
        self.stats.add("core.persists_issued")
        request = WriteRequest(line, WriteKind.PERSIST)
        request.issue_cycle = self.sim.now
        self.sim.call_after(
            self.flush_latency,
            partial(self.controller.submit_write, request, self._persist_complete),
        )

    def _submit_eviction(self, victim):
        self.stats.add("core.evictions")
        self.controller.submit_write(WriteRequest(victim, WriteKind.EVICTION))

    def _per_op(self, trace):
        sim = self.sim
        ipc = self.config.core.ipc
        hierarchy = CacheHierarchy(self.config)
        acc, carry, tx_start, arrival, tenant = 0, 0.0, 0, -1, 0
        for op in trace:
            code = op[0]
            if code == OP_WORK:
                self.instructions += op[1]
                cost = op[1] / ipc + carry
                carry = cost - int(cost)
                acc += int(cost)
            elif code in (OP_LOAD, OP_STORE):
                self.instructions += 1
                result = hierarchy.access(op[1], code == OP_STORE)
                acc += result.latency
                if result.needs_memory and code == OP_STORE:
                    self.controller.read(op[1])
                    self.stats.add("core.store_miss_fills")
                elif result.needs_memory:
                    if acc:
                        yield acc
                        acc = 0
                    yield self.controller.read(op[1], done=self._resume)
                    self.stats.add("core.memory_reads")
                for victim in result.writebacks:
                    self._submit_eviction(victim)
            elif code == OP_CLWB:
                self.instructions += 1
                acc += 1
                line = hierarchy.clwb(op[1])
                if line is not None:
                    if acc:
                        yield acc
                        acc = 0
                    self._launch_persist(line)
                    if self.config.core.persist_model == "strict":
                        yield from self._await_persists()
            else:
                if code == OP_FENCE:
                    self.instructions += 1
                if acc:
                    yield acc
                    acc = 0
                if code == OP_FENCE:
                    yield from self._await_persists()
                    self.stats.add("core.fences")
                elif code == OP_TXBEGIN:
                    tx_start = sim.now
                elif code == OP_TXEND:
                    self.stats.record("core.tx_cycles", sim.now - tx_start)
                    self.stats.add("core.transactions")
                    if arrival >= 0:
                        for scope in ("core", f"core.tenant.{tenant}"):
                            self.stats.record(
                                scope + ".sojourn_cycles", sim.now - arrival
                            )
                            self.stats.record(
                                scope + ".queue_delay_cycles", tx_start - arrival
                            )
                        arrival = -1
                elif code == OP_ARRIVAL:
                    tenant, arrival = op[1] >> 48, op[1] & ((1 << 48) - 1)
                    self.stats.add("core.arrivals")
                    if arrival > sim.now:
                        yield arrival - sim.now
                    else:
                        self.stats.add("core.arrivals_queued")
        if acc:
            yield acc
        while self._outstanding_persists > 0:
            self._fenced = True
            yield None
        self.cycles = sim.now
        self.finished = True
        self.stats.set("core.cycles", self.cycles)
        self.stats.set("core.instructions", self.instructions)


def per_op_result(config: SimConfig, trace):
    """``run_trace`` with the reference core swapped in."""
    import repro.harness.runner as runner

    original = runner.TraceCore
    runner.TraceCore = PerOpCore
    try:
        return run_trace(config, trace)
    finally:
        runner.TraceCore = original


memory_op = st.tuples(
    st.sampled_from((OP_LOAD, OP_STORE, OP_STORE, OP_CLWB)),
    st.integers(min_value=0, max_value=LINES - 1),
)
op = st.one_of(
    memory_op,
    memory_op,
    memory_op,
    st.tuples(st.just(OP_WORK), st.integers(min_value=1, max_value=9)),
    st.just((OP_FENCE,)),
    st.tuples(st.sampled_from((OP_TXBEGIN, OP_TXEND)), st.just(0)),
    st.tuples(
        st.just(OP_ARRIVAL),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=4000),
    ),
)


def materialise(ops):
    """Hypothesis op descriptions -> a concrete op-tuple trace."""
    trace = []
    for item in ops:
        code = item[0]
        if code in (OP_LOAD, OP_STORE, OP_CLWB):
            trace.append((code, HEAP + item[1] * SPAN))
        elif code == OP_ARRIVAL:
            trace.append((code, pack_arrival(item[1], item[2])))
        else:
            trace.append(item)
    return trace


class TestReplayMatchesEveryInputForm:
    @given(st.lists(op, min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_random_streams(self, ops):
        trace = materialise(ops)
        for base in (DOLOS, PREWPQ):
            tiny = base.with_(**TINY)
            for config in (tiny, strict(tiny)):
                reference = per_op_result(config, trace)
                packed = PackedTrace.from_trace(trace)
                assert run_trace(config, trace) == reference
                assert run_trace(config, iter(trace)) == reference
                assert run_trace(config, packed) == reference  # memo miss
                assert run_trace(config, packed) == reference  # memo hit
                assert run_trace(config, packed.pairs()) == reference

    def test_workload_trace_matches_per_op_loop(self):
        trace = generate_trace("hashmap", 12, 128, seed=3)
        for config in (DOLOS, PREWPQ):
            assert run_trace(config, trace) == per_op_result(config, trace)

    def test_random_streams_cover_every_controller_interaction(self):
        # The pool and op mix reach fills, demand loads, dirty victims
        # and persists — the property above is not vacuous.
        trace = [(OP_STORE, HEAP + i * SPAN) for i in range(LINES)]
        trace += [
            (OP_CLWB, HEAP + (LINES - 1) * SPAN),
            (OP_LOAD, HEAP + LINES * SPAN),
        ]
        kinds = set(resolve(trace, DOLOS.with_(**TINY)).kinds)
        assert {EV_FILL, EV_EVICT, EV_LOAD, EV_PERSIST} <= kinds


class TestResolveMemo:
    def trace(self) -> PackedTrace:
        return PackedTrace.from_trace(generate_trace("hashmap", 8, 128, seed=1))

    def test_controller_and_security_settings_share_a_stream(self):
        packed = self.trace()
        first = packed.resolved(DOLOS)
        for config in (
            PREWPQ,
            lazy_config(),
            DOLOS.with_(wpq_coalescing=False),
            strict(DOLOS),
        ):
            assert packed.resolved(config) is first

    def test_cache_geometry_and_ipc_get_their_own_stream(self):
        packed = self.trace()
        first = packed.resolved(DOLOS)
        bigger_llc = dataclasses.replace(DOLOS.llc, size_bytes=16 << 20)
        slower_llc = dataclasses.replace(DOLOS.llc, latency=40)
        for config in (
            DOLOS.with_(llc=bigger_llc),
            DOLOS.with_(llc=slower_llc),
            DOLOS.with_(core=dataclasses.replace(DOLOS.core, ipc=1.5)),
        ):
            stream = packed.resolved(config)
            assert stream is not first
            assert packed.resolved(config) is stream
        assert packed.resolved(DOLOS) is first

    def test_resolving_keeps_no_python_columns(self):
        packed = self.trace()
        packed.resolved(DOLOS)
        assert packed._columns is None

    def test_core_builds_no_hierarchy(self):
        sim = Simulator()
        controller = make_controller(sim, DOLOS)
        core = TraceCore(sim, DOLOS, controller)
        assert not hasattr(core, "hierarchy")
        assert core.flush_latency == (
            DOLOS.l1.latency + DOLOS.l2.latency + DOLOS.llc.latency
        )


class TestFill:
    # HEAP sits in the WPQ (tag hit); HEAP + 64 goes to the device.
    @pytest.mark.parametrize("address", [HEAP, HEAP + 64])
    @pytest.mark.parametrize(
        "kind", [ControllerKind.DOLOS, ControllerKind.NON_SECURE_IDEAL]
    )
    def test_fill_books_a_read_without_its_completion(self, address, kind):
        # Same controller state as a read: the fill keeps the tag check,
        # device read and Ma-SU verification but drops the completion.
        # A read whose latency is known at issue (a WPQ hit, or the
        # device read of a design without a Ma-SU) schedules no
        # completion either — its caller waits the latency out — so
        # the two fire as many events.  A read whose ``done`` the
        # completion calls fires one more than the fill: the completion.
        completions = []

        def drive(issue):
            sim = Simulator()
            controller = make_controller(sim, DOLOS.with_(controller=kind))
            controller.submit_write(WriteRequest(HEAP, WriteKind.EVICTION))
            waited = issue(controller, address)
            sim.run()
            return waited, sim.events_fired, controller.stats_snapshot()

        waited, read_events, read_stats = drive(
            lambda c, a: c.read(a, done=completions.append)
        )
        _, fill_events, fill_stats = drive(lambda c, a: c.fill(a))
        assert fill_stats == read_stats
        assert fill_stats["controller.reads"] == 1
        known_at_issue = address == HEAP or kind is ControllerKind.NON_SECURE_IDEAL
        assert isinstance(waited, int) == known_at_issue
        if known_at_issue:
            assert completions == []
            assert fill_events == read_events
        else:
            assert waited is None and len(completions) == 1
            assert fill_events == read_events - 1
