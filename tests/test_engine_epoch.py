"""Batched-core tests: epoch kernel equivalence, packed trace replay,
and unit memoization."""

import sqlite3
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.campaign
import repro.scenarios.loadcurve
from repro.config import eager_config, lazy_config
from repro.cpu.trace_io import PackedTrace, trace_to_arrays
from repro.engine import Simulator
from repro.harness import memo, parallel, trace_store
from repro.harness.memo import UnitMemo, config_fingerprint, default_unit_memo_path
from repro.harness.parallel import RunUnit, execute_unit
from repro.harness.runner import run_trace
from repro.harness.trace_store import TraceCache
from repro.matrix import controller_matrix
from repro.workloads import GENERATOR_VERSION, generate_trace

# ----------------------------------------------------------------------
# Satellite: epoch kernel is event-for-event equivalent to the heap one
# ----------------------------------------------------------------------
#: One scheduled event: (time, action, param).  Action 0 just logs; 1
#: schedules a nested call_after(param) from inside the callback; 2
#: schedules a nested call_at(now + param) whose callback queues one
#: more event at its own cycle (ties created mid-epoch, behind a batch
#: already drained from the heap).
_EVENT_SPECS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=30,
)


def _drive(epoch: bool, spec):
    sim = Simulator(epoch=epoch)
    log = []

    def make_callback(index, action, param):
        def callback():
            log.append((sim.now, index))
            if action == 1:
                sim.call_after(
                    param, lambda: log.append((sim.now, index + 1000))
                )
            elif action == 2:
                def nested():
                    log.append((sim.now, index + 2000))
                    sim.call_after(
                        0, lambda: log.append((sim.now, index + 3000))
                    )

                sim.call_at(sim.now + param, nested)
        return callback

    for index, (time, action, param) in enumerate(spec):
        callback = make_callback(index, action, param)
        if index % 2:
            sim.call_at(time, callback)
        else:
            sim.call_after(time, callback)
    sim.run()
    return log, sim.now, sim.events_fired


class TestEpochEquivalence:
    @given(_EVENT_SPECS)
    @settings(max_examples=120, deadline=None)
    def test_epoch_matches_heap_kernel(self, spec):
        epoch = _drive(True, spec)
        heap = _drive(False, spec)
        assert epoch[0] == heap[0]  # firing order, timestamped
        assert epoch[1] == heap[1]  # final now
        assert epoch[2] == heap[2]  # events_fired

    def test_same_cycle_ties_fire_in_schedule_order(self):
        sim = Simulator(epoch=True)
        order = []
        for i in range(10):
            sim.call_at(5, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))
        assert sim.events_fired == 10


class _Boom(Exception):
    pass


def _drive_raising(epoch: bool, size: int, position: int):
    """A same-cycle batch of ``size`` events at cycle 5 whose event
    ``position`` raises after queuing a same-cycle follow-up; the
    caller catches the error and runs on with two loggers at cycle 10.
    Returns what each drain leaves after the raise and at the end."""
    sim = Simulator(epoch=epoch)
    log = []

    def make_callback(index):
        def callback():
            log.append((sim.now, index))
            sim.call_after(0, lambda: log.append((sim.now, index + 100)))
            if index == position:
                raise _Boom(index)
        return callback

    sim.call_at(1, lambda: log.append((sim.now, "early")))
    for index in range(size):
        sim.call_at(5, make_callback(index))
    sim.call_at(7, lambda: log.append((sim.now, "later")))
    with pytest.raises(_Boom):
        sim.run()
    raised = (list(log), sim.now, sim.events_fired, sim.pending_events)
    sim.call_at(10, lambda: log.append((sim.now, "a")))
    sim.call_at(10, lambda: log.append((sim.now, "b")))
    sim.run()
    return raised, (log, sim.now, sim.events_fired, sim.pending_events)


class TestEpochDrainRaise:
    """A callback raising inside a multi-event epoch leaves the clock,
    the fired count and the queue exactly as the per-event drain does,
    and the simulator runs on from there."""

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_raise_at_each_batch_position_matches_heap_kernel(self, size):
        for position in range(size):
            epoch = _drive_raising(True, size, position)
            heap = _drive_raising(False, size, position)
            assert epoch == heap, f"raise at {position} of {size}"
            log, now, _fired, pending = epoch[1]
            assert (now, pending) == (10, 0)
            assert log[-2:] == [(10, "a"), (10, "b")]


# ----------------------------------------------------------------------
# Tentpole: packed trace replay
# ----------------------------------------------------------------------
class TestPackedTrace:
    def _trace(self):
        return generate_trace("hashmap", 8, 128, 3)

    def test_roundtrip_preserves_ops(self):
        trace = self._trace()
        packed = PackedTrace.from_trace(trace)
        assert len(packed) == len(trace)
        assert packed.to_trace() == trace
        assert list(packed) == trace

    def test_from_trace_idempotent_and_columns_cached(self):
        packed = PackedTrace.from_trace(self._trace())
        assert PackedTrace.from_trace(packed) is packed
        assert packed.columns() is packed.columns()

    def test_trace_to_arrays_passthrough(self):
        packed = PackedTrace.from_trace(self._trace())
        codes, operands = trace_to_arrays(packed)
        assert codes is packed.codes and operands is packed.operands

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PackedTrace(array("q", [0] * 2), array("q", [0] * 3))

    def test_replay_matches_tuple_trace_bit_for_bit(self):
        config = eager_config()
        trace = generate_trace("hashmap", 20, config.transaction_size, 1)
        classic = run_trace(config, trace, "hashmap", 20)
        packed = run_trace(
            config, PackedTrace.from_trace(trace), "hashmap", 20
        )
        assert classic.cycles == packed.cycles
        assert classic.instructions == packed.instructions
        assert classic.stats == packed.stats


# ----------------------------------------------------------------------
# The unit memo: one result cache, keyed by the run unit
# ----------------------------------------------------------------------
def _unit(**changes) -> RunUnit:
    fields = dict(
        workload="hashmap", config=eager_config(), transactions=20, seed=1
    )
    fields.update(changes)
    return RunUnit(**fields)


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so each call appends to the returned list."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _memo_file(tmp_path):
    return tmp_path / "memo.sqlite"


class TestUnitMemo:
    def test_miss_then_hit_bit_identical(self, tmp_path):
        unit_memo = UnitMemo(_memo_file(tmp_path))
        first = unit_memo.run(_unit(), TraceCache(None))
        assert (unit_memo.hits, unit_memo.misses) == (0, 1)
        second = unit_memo.run(_unit(), TraceCache(None))
        assert (unit_memo.hits, unit_memo.misses) == (1, 1)
        assert first.stats == second.stats
        assert first.cycles == second.cycles
        assert first.controller is second.controller
        assert first.misu_design is second.misu_design

    def test_disabled_memo_always_simulates(self):
        unit_memo = UnitMemo(None)
        assert not unit_memo.enabled
        result = unit_memo.run(_unit(), TraceCache(None))
        assert result.cycles > 0
        assert unit_memo.load(unit_memo.key_for(_unit()), "run") is None
        assert (unit_memo.hits, unit_memo.misses) == (0, 0)

    def test_key_changes_with_every_unit_field_and_version(
        self, monkeypatch
    ):
        unit_memo = UnitMemo(None)
        key = unit_memo.key_for(_unit())
        assert unit_memo.key_for(_unit()) == key
        variants = [
            _unit(workload="btree"),
            _unit(transactions=21),
            _unit(seed=2),
            _unit(config=lazy_config()),
            _unit(mode="faults"),
            _unit(fault_sites=3),
            _unit(scenario=(("rate", 0.06),)),
        ]
        keys = {unit_memo.key_for(unit) for unit in variants}
        assert len(keys) == len(variants) and key not in keys
        monkeypatch.setattr(memo, "GENERATOR_VERSION", GENERATOR_VERSION + 1)
        assert unit_memo.key_for(_unit()) != key
        monkeypatch.setattr(memo, "GENERATOR_VERSION", GENERATOR_VERSION)
        monkeypatch.setattr(memo, "_MODEL_FINGERPRINT", "edited-simulator")
        assert unit_memo.key_for(_unit()) != key

    def test_hit_neither_loads_nor_generates_a_trace(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            parallel, "_UNIT_MEMO", UnitMemo(_memo_file(tmp_path))
        )
        first = execute_unit(_unit(), TraceCache(None))

        def no_trace(*_args, **_kwargs):
            raise AssertionError("a memo hit generated a trace")

        monkeypatch.setattr(trace_store, "generate_trace", no_trace)
        assert execute_unit(_unit(), TraceCache(None)) == first

    def test_faults_unit_replays_from_the_memo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            parallel, "_UNIT_MEMO", UnitMemo(_memo_file(tmp_path))
        )
        calls = _count_calls(
            monkeypatch, repro.faults.campaign, "run_fault_unit"
        )
        unit = _unit(
            config=controller_matrix()["dolos-partial"], transactions=6,
            mode="faults", fault_sites=1,
        )
        first = execute_unit(unit, TraceCache(None))
        assert execute_unit(unit, TraceCache(None)) == first
        assert first["kind"] == "faults"
        assert len(calls) == 1

    def test_scenario_unit_replays_from_the_memo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            parallel, "_UNIT_MEMO", UnitMemo(_memo_file(tmp_path))
        )
        calls = _count_calls(
            monkeypatch, repro.scenarios.loadcurve, "run_scenario"
        )
        unit = _unit(
            transactions=10, mode="scenario",
            scenario=(("arrivals", "poisson"), ("rate", 0.06)),
        )
        first = execute_unit(unit, TraceCache(None))
        assert execute_unit(unit, TraceCache(None)) == first
        assert first["kind"] == "scenario"
        assert len(calls) == 1

    def test_corrupt_entry_is_a_miss_not_a_wrong_result(self, tmp_path):
        UnitMemo(_memo_file(tmp_path)).run(_unit(), TraceCache(None))
        with sqlite3.connect(_memo_file(tmp_path)) as conn:
            conn.execute(
                "UPDATE results SET payload = "
                "replace(payload, '\"cycles\":', '\"cycl\":')"
            )
        fresh = UnitMemo(_memo_file(tmp_path))
        result = fresh.run(_unit(), TraceCache(None))
        assert result.cycles > 0
        assert fresh.hits == 0
        assert fresh.quarantined_entries == 1

    def test_undecodable_payload_is_quarantined_and_regenerated(
        self, tmp_path
    ):
        """A payload whose byte digest is valid but that does not decode
        to a RunResult must be quarantined — not left in the store to
        poison every future load of the key."""
        unit_memo = UnitMemo(_memo_file(tmp_path))
        key = unit_memo.key_for(_unit())
        # Digest-valid (the store computes it) but decode-invalid.
        unit_memo._store.store(key, {"controller": "no-such-design"})
        assert unit_memo.load(key, "run") is None
        assert unit_memo.misses == 1
        # The poisoned row moved to quarantine and is gone from the
        # results, so the next load is a plain miss.
        assert unit_memo._store.load(key) is None
        assert unit_memo.quarantined_entries == 1
        with sqlite3.connect(_memo_file(tmp_path)) as conn:
            moved = conn.execute("SELECT unit_key FROM quarantine").fetchall()
        assert moved == [(key,)]
        # Regeneration round-trip: run repopulates the key, and a fresh
        # memo now hits on a decodable payload.
        result = unit_memo.run(_unit(), TraceCache(None))
        assert result.cycles > 0
        fresh = UnitMemo(_memo_file(tmp_path))
        again = fresh.load(key, "run")
        assert again is not None
        assert again.cycles == result.cycles
        assert (fresh.hits, fresh.quarantined_entries) == (1, 0)
        # A run payload is not a faults result either.
        assert fresh.load(key, "faults") is None
        assert fresh.quarantined_entries == 1

    def test_env_off_disables(self, tmp_path, monkeypatch):
        """``off`` disables; a value names the file; unset is the FleetDB
        file, unless the trace cache is off too."""
        monkeypatch.setenv("REPRO_UNIT_MEMO", "off")
        assert default_unit_memo_path() is None
        monkeypatch.setenv("REPRO_UNIT_MEMO", "/tmp/somewhere.sqlite")
        assert str(default_unit_memo_path()) == "/tmp/somewhere.sqlite"
        monkeypatch.delenv("REPRO_UNIT_MEMO")
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        monkeypatch.setenv("REPRO_FLEET_DB", str(tmp_path / "fleet.sqlite"))
        assert default_unit_memo_path() == tmp_path / "fleet.sqlite"
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert default_unit_memo_path() is None

    def test_config_fingerprint_stable(self):
        assert config_fingerprint(eager_config()) == config_fingerprint(
            eager_config()
        )
