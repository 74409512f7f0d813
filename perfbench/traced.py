"""The traced run: per-layer metrics, kept apart from the timed runs.

For workload ``W`` the traced run

1. runs ``W`` untraced for the run's seconds and one untraced round of
   each other workload in :data:`OWNERS`.  Metrics tied to one workload
   (``service.*``, ``fleet.*``, ``faults.*``, ``fig12_err_pct``) come
   from that workload's pass; ``experiments.overhead_pct`` from ``W``
   when it is a sweep, otherwise from ``sweep-write``;
2. installs the layer probes (:mod:`probe`) in this process and in every
   server it starts, and runs one more round of ``W``.  The layer timers
   and self-time shares come from this round, and ``trace.overhead_pct``
   compares its wall time with the median untraced round of step 1;
3. replays each distinct plain unit of ``W`` through a system built
   here from the public constructors ``run_trace`` uses, to read
   ``Simulator.events_fired`` and the simulated counters.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List

import probe
from repro.core.controller import make_controller
from repro.cpu.core import TraceCore
from repro.engine import Simulator
from repro.harness.trace_store import TraceCache
from repro.stats import StatsRegistry
from workloads import WORKLOADS, Context, median_ms, measure

#: Workloads whose untraced passes own per-layer metrics of their own.
OWNERS = ("sweep-write", "service-resubmit", "fleet-campaign")

PER_LAYER_UNITS = {
    "workloads.gen_ms_per_ktx": "ms/ktx",
    "cpu.pack_ms_per_ktx": "ms/ktx",
    **{f"{package}.self_pct": "%" for package in probe.PACKAGES},
    "engine.events_per_write": "count",
    "engine.events_per_kinst": "count",
    "engine.host_ns_per_event": "ns",
    "cpu.fence_stall_share": "ratio",
    "wpq.retry_per_kwr": "1/kwr",
    "wpq.coalesce_ratio": "ratio",
    "misu.protect_per_write": "ratio",
    "nvm.reads_per_kinst": "1/kinst",
    "nvm.meta_reads_per_kinst": "1/kinst",
    "runner.run_trace_ms_p50": "ms",
    "experiments.overhead_pct": "%",
    "trace_store.store_ms_p50": "ms",
    "trace_store.load_ms_p50": "ms",
    "memo.key_ms_p50": "ms",
    "memo.load_ms_p50": "ms",
    "memo.hit_ratio": "ratio",
    "service.rtt_ms_p50.cold": "ms",
    "service.rtt_ms_p50.dedup": "ms",
    "service.rtt_ms_p50.replay": "ms",
    "service.wait_ms_cold": "ms",
    "service.dedup_hit_ratio": "ratio",
    "service.result_store_hit_ratio": "ratio",
    "fleet.overhead_pct": "%",
    "fleet.report_ms": "ms",
    "fleet.db.load_ms": "ms",
    "faults.unit_ms_p50": "ms",
    "trace.overhead_pct": "%",
    "fig12_err_pct": "%",
}


def count_unit(unit) -> Dict[str, float]:
    """Replay one plain unit the way ``run_trace`` builds its system.

    Returns the simulated counters plus ``events`` (events fired) and
    ``host_s`` (host seconds of the replay, trace building excluded).
    """
    packed = TraceCache(None).get_packed(
        unit.workload, unit.transactions, unit.config.transaction_size, unit.seed
    )
    sim = Simulator()
    stats = StatsRegistry()
    controller = make_controller(sim, unit.config, stats)
    core = TraceCore(sim, unit.config, controller, stats)
    started = time.perf_counter()
    core.run(packed.pairs())
    sim.run()
    elapsed = time.perf_counter() - started
    if not core.finished:
        raise RuntimeError(f"replay of {unit.workload} did not finish")
    counters = dict(stats.as_dict())
    counters.update(controller.stats_snapshot())
    counters["events"] = sim.events_fired
    counters["host_s"] = elapsed
    return counters


def count_metrics(units: List) -> Dict[str, float]:
    """Exact event and simulated-counter ratios over ``units``."""
    totals: Dict[str, float] = {}
    misu_writes = 0
    for unit in units:
        counters = count_unit(unit)
        if "misu.protected" in counters:
            misu_writes += counters.get("controller.writes", 0)
        for name, value in counters.items():
            totals[name] = totals.get(name, 0) + value

    def total(name: str) -> float:
        return totals.get(name, 0)

    writes, kinst = total("controller.writes"), total("core.instructions") / 1000.0
    return {
        "engine.events_per_write": total("events") / writes,
        "engine.events_per_kinst": total("events") / kinst,
        "engine.host_ns_per_event": 1e9 * total("host_s") / total("events"),
        "cpu.fence_stall_share": total("core.fence_stall_cycles") / total("core.cycles"),
        "wpq.retry_per_kwr": 1000.0 * total("wpq.retry_events") / writes,
        "wpq.coalesce_ratio": total("wpq.coalesced") / writes,
        "misu.protect_per_write": total("misu.protected") / misu_writes if misu_writes else 0.0,
        "nvm.reads_per_kinst": total("nvm.reads") / kinst,
        "nvm.meta_reads_per_kinst": total("nvm.meta_reads") / kinst,
    }


def probe_metrics(payload: dict) -> Dict[str, float]:
    """Layer timers and self-time shares from the merged probe payloads."""
    times, counts = payload["times"], payload["counts"]
    ktx = counts.get("generate_trace.transactions", 0) / 1000.0
    self_seconds = payload["self_seconds"]
    profiled = sum(self_seconds.values())
    memo_loads = counts.get("memo.hits", 0) + counts.get("memo.misses", 0)
    metrics = {
        "workloads.gen_ms_per_ktx": 1000.0 * sum(times.get("generate_trace", [])) / ktx if ktx else 0.0,
        "cpu.pack_ms_per_ktx": 1000.0 * sum(times.get("pack", [])) / ktx if ktx else 0.0,
        "runner.run_trace_ms_p50": median_ms(times.get("run_trace", [])),
        "trace_store.store_ms_p50": median_ms(times.get("trace_store.store", [])),
        "trace_store.load_ms_p50": median_ms(times.get("trace_store.load", [])),
        "memo.key_ms_p50": median_ms(times.get("memo.key", [])),
        "memo.load_ms_p50": median_ms(times.get("memo.load", [])),
        "memo.hit_ratio": counts.get("memo.hits", 0) / memo_loads if memo_loads else 0.0,
    }
    for package, seconds in self_seconds.items():
        metrics[f"{package}.self_pct"] = 100.0 * seconds / profiled if profiled else 0.0
    return metrics


def traced_metrics(workload, ctx: Context, seconds: float):
    untraced = measure(workload, ctx, seconds=seconds)
    values: Dict[str, float] = {}
    for name in OWNERS:
        if name != workload.name:
            values.update(measure(WORKLOADS[name], ctx, rounds=1).layer)
    values.update(untraced.layer)

    trace_dir = ctx.work / "probes"
    hook = Path(probe.__file__).resolve().parent / "hook"
    ctx.server_env["PYTHONPATH"] = os.pathsep.join([str(hook), ctx.server_env["PYTHONPATH"]])
    ctx.server_env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    recorder = probe.Recorder()
    probe.install(recorder)
    profile = recorder.profiler()
    profile.enable()
    traced = measure(workload, ctx, rounds=1, probe=False)
    profile.disable()
    payloads = [recorder.to_payload()] + [
        json.loads(path.read_text()) for path in sorted(trace_dir.glob("*.json"))
    ]
    values.update(probe_metrics(probe.merge_payloads(payloads)))
    base = statistics.median(untraced.round_walls)
    values["trace.overhead_pct"] = 100.0 * (traced.wall - base) / base
    plain = [unit for unit in workload.units(ctx.seed) if unit.mode == "run"]
    values.update(count_metrics(plain))
    notes = {
        "untraced_rounds": untraced.rounds,
        "profiled_processes": len(payloads),
        "self_pct_wpq_plus_security": statistics.fsum(
            values[f"{name}.self_pct"] for name in ("wpq", "security")
        ),
    }
    return values, notes
