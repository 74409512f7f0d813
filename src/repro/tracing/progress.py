"""Job-lifecycle progress events, riding the span/event pipeline.

The experiment service narrates every job through the same
:class:`repro.instrumentation.Timeline` event vocabulary the span
tracer and the crash-site oracle consume — one instrumentation path,
no parallel logging machinery.  Each lifecycle transition is one
event whose detail carries the job identity:

======================  ==============================================
kind                    detail
======================  ==============================================
``job.submitted``       ``key:experiment_id`` — request arrived
``job.dedup``           ``key:{inflight|cached}`` — coalesced onto an
                        identical in-flight job / replayed from the
                        result cache
``job.started``         ``key`` — dispatched to the pool or an
                        in-process thread at admission
``job.completed``       ``key:{ok|error|degraded}`` — terminal state
======================  ==============================================

Timestamps are integer **microseconds** of the server's monotonic
clock (Timeline times are integers; simulation timelines use cycles,
service timelines use wall micros).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.instrumentation import Timeline

#: Every kind the service emits, in lifecycle order.
JOB_EVENT_KINDS = (
    "job.submitted",
    "job.dedup",
    "job.started",
    "job.completed",
)

#: Default bound, sized for long-lived servers (events are tiny).
DEFAULT_MAX_JOB_EVENTS = 1_000_000


class JobEventLog(Timeline):
    """A Timeline specialised for service job-lifecycle events.

    Beyond the raw bounded log inherited from :class:`Timeline`, it
    keeps per-kind counters (cheap liveness metrics for the server's
    ``stats`` reply) and the last event per job key (for ``progress``
    queries) without scanning the log.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_JOB_EVENTS) -> None:
        super().__init__(max_events=max_events)
        self.counts: Dict[str, int] = {kind: 0 for kind in JOB_EVENT_KINDS}
        self._last_by_key: Dict[str, Tuple[int, str, str]] = {}

    def event(self, time: int, kind: str, detail: str = "") -> None:
        super().event(time, kind, detail)
        if kind in self.counts:
            self.counts[kind] += 1
            key = detail.split(":", 1)[0]
            if key:
                self._last_by_key[key] = (time, kind, detail)

    # ------------------------------------------------------------------
    def last_for(self, key: str) -> Optional[Tuple[int, str, str]]:
        """Most recent lifecycle event for job ``key`` (or ``None``)."""
        return self._last_by_key.get(key)

    def history(self, key: str) -> List[Tuple[int, str, str]]:
        """Every logged event whose detail names job ``key``, in order."""
        prefix = key + ":"
        return [
            event
            for event in self.events()
            if event[2] == key or event[2].startswith(prefix)
        ]

    def snapshot(self) -> Dict[str, int]:
        """Per-kind counters (stable dict, safe to serialise)."""
        return dict(self.counts)
