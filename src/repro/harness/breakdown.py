"""Execution-time breakdown: where do the cycles go?

Decomposes a run's total cycles into the components papers plot as
stacked bars:

* **fence stalls** — cycles the core spent blocked on persist
  completion (the component Dolos attacks);
* **read stalls** — cycles blocked on demand-miss memory reads;
* **compute + cache** — everything else (instruction work, hits,
  hierarchy latency).

The split comes from the stats the core already records, so a
breakdown costs one ordinary simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import SimConfig
from repro.harness.runner import RunResult, run_trace
from repro.harness.tables import render_table


@dataclass(frozen=True)
class CycleBreakdown:
    """One run's cycle decomposition."""

    total: int
    fence_stall: int
    read_stall: int

    @property
    def other(self) -> int:
        """Compute, cache hits, hierarchy latency, overlap slack."""
        return max(0, self.total - self.fence_stall - self.read_stall)

    def fraction(self, component: str) -> float:
        value = getattr(self, component)
        return value / self.total if self.total else 0.0

    def as_row(self, label: str) -> List:
        return [
            label,
            self.total,
            f"{100 * self.fraction('fence_stall'):.0f}%",
            f"{100 * self.fraction('read_stall'):.0f}%",
            f"{100 * self.fraction('other'):.0f}%",
        ]


def breakdown_of(result: RunResult, read_stall_cycles: int) -> CycleBreakdown:
    return CycleBreakdown(
        total=result.cycles,
        fence_stall=result.stats.get("core.fence_stall_cycles", 0),
        read_stall=read_stall_cycles,
    )


def run_with_breakdown(
    config: SimConfig,
    trace,
    workload: str = "trace",
    transactions: int = 0,
    timeline=None,
) -> Tuple[RunResult, CycleBreakdown]:
    """Run one trace and return (result, cycle breakdown).

    The run is :func:`repro.harness.runner.run_trace` itself, so the
    result is the plain run's, stat for stat.  Read-stall cycles are
    measured through its ``probe`` hook by wrapping the controller's
    ``read``, which the core calls only for the demand loads it blocks
    on (store-miss fills go through ``fill``).  An optional
    ``timeline`` (e.g. :class:`repro.tracing.SpanTracer`) is attached
    to both the controller and the core, so span tracing and the
    breakdown come from the same run.
    """
    read_stall = [0]

    def probe(sim, controller, core) -> None:
        if timeline is not None:
            controller.attach_timeline(timeline)
            core.timeline = timeline
        original_read = controller.read

        # Measure blocking-read stall time by timestamping round trips.
        def timed_read(address: int):
            issued = sim.now
            signal = original_read(address)
            original_fire = signal.fire

            def fire(value=None):
                read_stall[0] += sim.now - issued
                original_fire(value)

            signal.fire = fire
            return signal

        controller.read = timed_read

    result = run_trace(config, trace, workload, transactions, probe=probe)
    return result, breakdown_of(result, read_stall[0])


def render_breakdowns(rows: List[Tuple[str, CycleBreakdown]], title: str) -> str:
    """Render labelled breakdowns as a table."""
    return render_table(
        ["configuration", "cycles", "fence", "read", "compute+cache"],
        [b.as_row(label) for label, b in rows],
        title=title,
    )
