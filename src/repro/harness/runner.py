"""Single-run plumbing: build a system, replay a trace, collect results."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.config import ControllerKind, MiSUDesign, SimConfig
from repro.core.controller import MemoryController, make_controller
from repro.cpu.core import TraceCore
from repro.engine import Simulator
from repro.stats import StatsRegistry
from repro.workloads import generate_trace

#: Default measured transaction count.  The paper simulates 50 000
#: transactions in gem5; the pure-Python model uses a smaller default
#: (the workloads are statistically stationary well before this) —
#: raise it for higher-fidelity runs.
DEFAULT_TRANSACTIONS = 1500


@dataclass
class RunResult:
    """Everything one simulation run produced."""

    workload: str
    controller: ControllerKind
    misu_design: MiSUDesign
    transactions: int
    payload_bytes: int
    cycles: int
    instructions: int
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def write_requests(self) -> int:
        return self.stats.get("controller.writes", 0)

    @property
    def retries_per_kwr(self) -> float:
        """Table 2's metric: WPQ insertion re-tries per kilo write request."""
        writes = self.write_requests
        if not writes:
            return 0.0
        return 1000.0 * self.stats.get("wpq.retry_events", 0) / writes


class AccountingError(RuntimeError):
    """A finished run whose counters break an exact accounting law."""


def check_accounting(stats: Mapping[str, int], wpq_read_hits: int = 0) -> None:
    """Raise :class:`AccountingError` unless a finished run's counters balance.

    The laws are exact integer identities at quiescence, when every
    persist has completed and the WPQ is empty; the error names the
    first broken law and both of its sides.  ``wpq_read_hits`` counts
    the demand reads the WPQ served (no stat key carries it).
    """
    get = stats.get
    laws = [
        (
            "controller.writes == wpq.inserts + wpq.coalesced",
            get("controller.writes", 0),
            get("wpq.inserts", 0) + get("wpq.coalesced", 0),
        ),
        (
            "persist.completed == core.persists_issued",
            get("persist.completed", 0),
            get("core.persists_issued", 0),
        ),
        (
            "controller.reads == nvm.reads + WPQ read hits",
            get("controller.reads", 0),
            get("nvm.reads", 0) + wpq_read_hits,
        ),
        (
            "controller.reads == core.memory_reads + core.store_miss_fills",
            get("controller.reads", 0),
            get("core.memory_reads", 0) + get("core.store_miss_fills", 0),
        ),
        (
            "wpq.inserts == wpq.drained + masu.writes",
            get("wpq.inserts", 0),
            get("wpq.drained", 0) + get("masu.writes", 0),
        ),
    ]
    if "misu.protected" in stats:
        laws.append(
            (
                "misu.protected == masu.writes + wpq.coalesced",
                get("misu.protected", 0),
                get("masu.writes", 0) + get("wpq.coalesced", 0),
            )
        )
    for law, left, right in laws:
        if left != right:
            raise AccountingError(f"accounting law {law} broken: {left} != {right}")


def result_payload(result) -> Dict[str, object]:
    """Serialise one unit result to a wire/cache-stable dict.

    ``run`` units yield a :class:`RunResult`; ``faults`` and
    ``scenario`` units already arrive as plain dicts (tagged
    ``"kind": "faults"`` / ``"kind": "scenario"``), which pass through
    untouched so their digests are stable end to end.
    """
    if isinstance(result, Mapping):
        return dict(result)
    return {
        "workload": result.workload,
        "controller": result.controller.value,
        "misu_design": result.misu_design.value,
        "transactions": result.transactions,
        "payload_bytes": result.payload_bytes,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "stats": {k: result.stats[k] for k in sorted(result.stats)},
    }


def payload_to_result(payload: Mapping[str, object]) -> RunResult:
    """Rebuild a :class:`RunResult` from its payload dict."""
    return RunResult(
        workload=payload["workload"],
        controller=ControllerKind(payload["controller"]),
        misu_design=MiSUDesign(payload["misu_design"]),
        transactions=payload["transactions"],
        payload_bytes=payload["payload_bytes"],
        cycles=payload["cycles"],
        instructions=payload["instructions"],
        stats=dict(payload["stats"]),
    )


def run_trace(
    config: SimConfig,
    trace,
    workload_name: str = "trace",
    transactions: int = 0,
    probe: Optional[
        Callable[[Simulator, MemoryController, TraceCore], None]
    ] = None,
) -> RunResult:
    """Replay one prebuilt trace under ``config``; returns the result.

    ``trace`` is either the classic list of op tuples or a
    :class:`repro.cpu.trace_io.PackedTrace`.  A packed trace replays its
    memoized cache-resolved stream, so every design run on one cached
    trace resolves it against the caches once (the path every cache hit
    and every sweep repeat takes).  ``probe(sim, controller, core)``,
    if given, runs once the system is built and before the replay
    starts: the hook instrumented runs
    (:func:`repro.harness.breakdown.run_with_breakdown`) attach through.
    """
    sim = Simulator()
    stats = StatsRegistry()
    controller = make_controller(sim, config, stats)
    core = TraceCore(sim, config, controller, stats)
    if probe is not None:
        probe(sim, controller, core)
    core.run(trace)
    sim.run()
    if not core.finished:
        raise RuntimeError(
            f"simulation deadlocked at cycle {sim.now} "
            f"({workload_name}, {config.controller.value})"
        )
    merged = dict(stats.as_dict())
    merged.update(controller.stats_snapshot())
    # Histograms are folded into the flat stats dict as integer summary
    # counters so RunResult (and everything downstream: golden metrics,
    # fleet payloads, the service protocol) sees tail latency without a
    # schema change — ``core.tx_cycles.p99``, ``core.sojourn_cycles.p95``
    # and friends come from here.
    for name, hist in stats.histograms():
        merged[name + ".count"] = hist.count
        merged[name + ".total"] = hist.total
        merged[name + ".p50"] = hist.percentile(0.50)
        merged[name + ".p95"] = hist.percentile(0.95)
        merged[name + ".p99"] = hist.percentile(0.99)
        merged[name + ".max"] = hist.max_value or 0
    check_accounting(merged, controller.wpq.read_hits)
    return RunResult(
        workload=workload_name,
        controller=config.controller,
        misu_design=config.misu_design,
        transactions=transactions,
        payload_bytes=config.transaction_size,
        cycles=core.cycles,
        instructions=core.instructions,
        stats=merged,
    )


def run_workload(
    config: SimConfig,
    workload: str,
    transactions: int = DEFAULT_TRANSACTIONS,
    seed: int = 0,
) -> RunResult:
    """Generate a fresh trace for ``workload`` and simulate it.

    The trace is regenerated deterministically from the seed, so two
    configs given the same (workload, transactions, payload, seed) see
    an identical instruction stream — the comparisons in every figure
    rely on this.
    """
    trace = generate_trace(
        workload, transactions, config.transaction_size, seed
    )
    return run_trace(config, trace, workload, transactions)


def speedup(baseline: RunResult, improved: RunResult) -> float:
    """Speedup of ``improved`` over ``baseline`` (higher is better)."""
    if improved.cycles == 0:
        raise ValueError("improved run has zero cycles")
    return baseline.cycles / improved.cycles


def geomean(values: List[float]) -> float:
    """Geometric mean (the paper averages speedups).

    Computed in the log domain: a running product of hundreds of
    speedups under/overflows float range long before the mean itself is
    extreme, so long sweeps (paper-fidelity transaction counts × many
    configs) need ``exp(mean(log(v)))`` rather than ``prod(v)**(1/n)``.

    Any zero value makes the geometric mean zero; negatives are
    rejected (a speedup cannot be negative).
    """
    if not values:
        return 0.0
    total = 0.0
    for value in values:
        if value < 0.0:
            raise ValueError(f"geomean of negative value {value}")
        if value == 0.0:
            return 0.0
        total += math.log(value)
    return math.exp(total / len(values))
