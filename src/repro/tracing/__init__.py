"""Per-request persist-latency span tracing.

Follows every write from the core's persist issue, through WPQ
insertion/coalescing, Mi-SU protection, the Ma-SU's pop/stage/commit
flow, to NVM completion — assembled from the per-request identity the
:meth:`~repro.core.controller.MemoryController.attach_timeline` event
vocabulary carries.  See ``docs/performance.md`` ("Tracing and
per-stage latency") for the CLI, JSONL schema and regression gate.
"""

from repro.tracing.collector import SpanTracer
from repro.tracing.report import (
    DEFAULT_ABSOLUTE_SLACK,
    DEFAULT_RELATIVE_SLACK,
    Reconciliation,
    TracedRun,
    reconcile,
    render_stage_table,
    run_traced,
    stage_histograms,
)
from repro.tracing.spans import STAGE_ORDER, PersistSpan

__all__ = [
    "DEFAULT_ABSOLUTE_SLACK",
    "DEFAULT_RELATIVE_SLACK",
    "PersistSpan",
    "Reconciliation",
    "STAGE_ORDER",
    "SpanTracer",
    "TracedRun",
    "reconcile",
    "render_stage_table",
    "run_traced",
    "stage_histograms",
]
