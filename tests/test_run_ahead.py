"""Run-ahead is invisible: an unbounded drain equals a bounded one.

Inside the unbounded epoch drain the trace core sets the clock forward
itself when no other event can fire first, and a demand read books its
whole latency at issue (:meth:`repro.engine.Simulator.idle_through`).
A bounded run (``run(max_events=...)``) never runs ahead, so it is the
reference: cycles, every stat and the core's read stall must match it
exactly, while the unbounded run fires far fewer events.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.controller import make_controller
from repro.engine import Simulator
from repro.harness.runner import run_trace
from repro.matrix import controller_matrix
from repro.scenarios import TenantSpec, build_scenario_trace
from repro.workloads import ALL_WORKLOADS, generate_trace

LABELS = sorted(controller_matrix())
MODELS = ("relaxed", "strict")


def with_model(config, model):
    return config.with_(
        core=dataclasses.replace(config.core, persist_model=model)
    )


def replay(config, trace, bounded):
    """``run_trace``, drained unbounded or through ``max_events``.

    Returns the result, the core's read stall and the events fired.
    """
    seen = {}

    def probe(sim, controller, core):
        seen["sim"], seen["core"] = sim, core
        if bounded:
            drain = sim.run
            sim.run = lambda: drain(max_events=10**12)

    result = run_trace(config, trace, "trace", 0, probe=probe)
    return result, seen["core"].read_stall_cycles, seen["sim"].events_fired


def assert_invisible(config, trace):
    """Equal results either way; returns (unbounded, bounded) events."""
    result, stall, events = replay(config, trace, bounded=False)
    ref_result, ref_stall, ref_events = replay(config, trace, bounded=True)
    assert result == ref_result
    assert stall == ref_stall
    return events, ref_events


class TestIdleThrough:
    def test_false_outside_a_run(self):
        sim = Simulator()
        assert not sim.idle_through(10)

    def test_only_the_unbounded_epoch_drain_runs_ahead(self):
        seen = []

        def probe(sim):
            seen.append(sim.idle_through(sim.now + 5))

        for drain in (
            lambda sim: sim.run(),
            lambda sim: sim.run(until=100),
            lambda sim: sim.run(max_events=10),
        ):
            sim = Simulator()
            sim.call_at(1, lambda sim=sim: probe(sim))
            drain(sim)
        assert seen == [True, False, False]
        heap_sim = Simulator(epoch=False)
        heap_sim.call_at(1, lambda: seen.append(heap_sim.idle_through(6)))
        heap_sim.run()
        assert seen[-1] is False

    def test_a_queued_event_at_or_before_the_cycle_blocks(self):
        sim = Simulator()
        seen = []
        sim.call_at(1, lambda: seen.append(
            (sim.idle_through(9), sim.idle_through(10), sim.idle_through(11))
        ))
        sim.call_at(10, lambda: None)
        sim.run()
        # A tie at cycle 10 belongs to the older event.
        assert seen == [(True, False, False)]

    def test_a_same_cycle_remainder_blocks(self):
        sim = Simulator()
        seen = []
        sim.call_at(1, lambda: seen.append(sim.idle_through(5)))
        sim.call_at(1, lambda: seen.append(sim.idle_through(5)))
        sim.run()
        # The first of the two same-cycle events still has the second
        # pending behind it; the last one of the batch does not.
        assert seen == [False, True]


class TestReadBookedAtIssue:
    def test_verified_read_latency_equals_the_signal_path(self):
        # A Ma-SU read issued at a kernel-resumed tail of an idle drain
        # returns device time plus verification as an int; inside a
        # bounded run the same read returns None and its completion
        # calls ``done`` with the same latency.
        def issue(drain):
            sim = Simulator()
            config = controller_matrix()["dolos-full"]
            controller = make_controller(sim, config)
            seen = []

            def read():
                latency = controller.read(
                    0x2000, at_tail=True,
                    done=lambda value: seen.append(("done", value)),
                )
                if latency is not None:
                    seen.append(("int", latency))

            sim.call_at(1, read)
            drain(sim)
            return seen, config.nvm.read_latency

        (ahead,), read_latency = issue(lambda sim: sim.run())
        (bounded,), _ = issue(lambda sim: sim.run(max_events=100))
        assert ahead[0] == "int" and bounded[0] == "done"
        assert ahead[1] == bounded[1] > read_latency


class TestRunAheadIsInvisible:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("label", LABELS)
    @pytest.mark.parametrize("workload", ["hashmap", "btree", "read-heavy"])
    def test_matrix_subset(self, workload, label, model):
        config = with_model(controller_matrix()[label], model)
        trace = generate_trace(workload, 40, config.transaction_size, 1)
        events, ref_events = assert_invisible(config, trace)
        assert events <= ref_events
        if workload == "read-heavy":
            # Not vacuous: the read-bound workload's reads and core
            # wakes mostly leave the queue.
            assert 10 * events <= ref_events

    def test_open_loop_scenario(self):
        config = controller_matrix()["dolos-full"]
        trace = build_scenario_trace(
            [
                TenantSpec("hashmap", 0.02, arrivals="mmpp"),
                TenantSpec("read-heavy", 0.02),
            ],
            20,
            config.transaction_size,
            seed=1,
        )
        result, _, _ = replay(config, trace, bounded=False)
        assert result.stats["core.arrivals"] == 40
        events, ref_events = assert_invisible(config, trace)
        assert events < ref_events


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
def test_run_ahead_is_invisible_on_every_workload(workload, seed):
    for label in LABELS:
        for model in MODELS:
            config = with_model(controller_matrix()[label], model)
            trace = generate_trace(workload, 40, config.transaction_size, seed)
            assert_invisible(config, trace)
