"""Execution-time breakdown: where do the cycles go?

Decomposes a run's total cycles into the components papers plot as
stacked bars:

* **fence stalls** — cycles the core spent blocked on persist
  completion (the component Dolos attacks);
* **read stalls** — cycles blocked on demand-miss memory reads;
* **compute + cache** — everything else (instruction work, hits,
  hierarchy latency).

The split comes from what the core already counts — the
``core.fence_stall_cycles`` stat and ``TraceCore.read_stall_cycles`` —
so a breakdown costs one ordinary simulation run.  Fence and read
stalls are disjoint intervals of the core, so the parts sum exactly to
the total; a breakdown whose parts exceed it is an accounting error and
raises.
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
        """Compute, cache hits and hierarchy latency: the remainder.

        Raises:
            ValueError: if the stalls exceed the total (they are
                disjoint intervals of one core, so that is an
                accounting error, not overlap).
        """
        other = self.total - self.fence_stall - self.read_stall
        if other < 0:
            raise ValueError(
                f"stalls exceed the total: fence {self.fence_stall} + "
                f"read {self.read_stall} > {self.total} cycles"
            )
        return other

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
    the core's own count (``TraceCore.read_stall_cycles``), read
    through ``run_trace``'s ``probe`` hook; the core counts every read
    it waits on, whether its latency was booked at issue or came with
    the read's completion.  An optional ``timeline`` (e.g.
    :class:`repro.tracing.SpanTracer`) is attached to both the
    controller and the core, so span tracing and the breakdown come
    from the same run.
    """
    cores = []

    def probe(sim, controller, core) -> None:
        if timeline is not None:
            controller.attach_timeline(timeline)
            core.timeline = timeline
        cores.append(core)

    result = run_trace(config, trace, workload, transactions, probe=probe)
    return result, breakdown_of(result, cores[0].read_stall_cycles)


def render_breakdowns(rows: List[Tuple[str, CycleBreakdown]], title: str) -> str:
    """Render labelled breakdowns as a table."""
    return render_table(
        ["configuration", "cycles", "fence", "read", "compute+cache"],
        [b.as_row(label) for label, b in rows],
        title=title,
    )
