"""Run-time instrumentation: time-series channels and event logs.

A :class:`Timeline` collects named time-series samples (WPQ occupancy,
outstanding persists, pipeline depth) and bounded event logs while a
simulation runs.  Components expose an optional ``timeline`` attribute;
attaching one turns recording on — the hot path pays a single ``None``
check otherwise.

An :class:`EventLog` is the wall-clock counterpart for the processes
around the simulator: the service scheduler's job lifecycle, the fleet
supervision plane and the chaos harness's injections all record into
one, as ``(time, source, kind, fields)`` records.

The ASCII sparkline renderer keeps everything inspectable without
plotting dependencies.
"""

from __future__ import annotations

import threading
import time as _time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

_SPARK_GLYPHS = " .:-=+*#%@"

#: Event kinds marking a *persist boundary* — an instant where the set
#: of architecturally persisted state changes.  Emitted by
#: :meth:`repro.core.controller.MemoryController.attach_timeline`:
#:
#: * ``wpq.insert`` — an entry landed in (or coalesced into) the WPQ;
#: * ``wpq.pop`` — the back-end pinned the oldest entry (Fig 11 step 1);
#: * ``wpq.drain`` — a slot was cleared after Ma-SU processing / the
#:   plain drain wrote it to the device (ADR drain step at run time);
#: * ``masu.stage`` — the redo-log registers were written (step 2);
#: * ``masu.commit`` — the redo log was applied to architectural state
#:   (step 3, the Ma-SU commit).
#:
#: The crash-site enumerator (:mod:`repro.oracle.sites`) injects a power
#: failure at each distinct one.
PERSIST_BOUNDARY_KINDS = frozenset(
    {"wpq.insert", "wpq.pop", "wpq.drain", "masu.stage", "masu.commit"}
)


@dataclass
class ChannelSummary:
    """Aggregate view of one time-series channel."""

    samples: int
    minimum: float
    maximum: float
    mean: float
    #: Fraction of samples at the channel's maximum (e.g. time-at-full).
    at_maximum: float


class Timeline:
    """Named time-series + event recording for one simulation."""

    def __init__(self, max_events: int = 10000) -> None:
        self._series: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
        self._events: List[Tuple[int, str, str]] = []
        self.max_events = max_events
        self.dropped_events = 0

    # -- recording -------------------------------------------------------
    def sample(self, time: int, channel: str, value: float) -> None:
        """Append one (time, value) sample to ``channel``."""
        self._series[channel].append((time, value))

    def event(self, time: int, kind: str, detail: str = "") -> None:
        """Log a discrete event (bounded; excess events are counted)."""
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            return
        self._events.append((time, kind, detail))

    # -- access ----------------------------------------------------------
    def series(self, channel: str) -> List[Tuple[int, float]]:
        return list(self._series[channel])

    def channels(self) -> List[str]:
        return sorted(self._series)

    def events(self, kind: Optional[str] = None) -> List[Tuple[int, str, str]]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e[1] == kind]

    # -- analysis ---------------------------------------------------------
    def summarize(self, channel: str) -> ChannelSummary:
        data = self._series.get(channel, [])
        if not data:
            return ChannelSummary(0, 0.0, 0.0, 0.0, 0.0)
        values = [v for _t, v in data]
        maximum = max(values)
        at_max = sum(1 for v in values if v == maximum) / len(values)
        return ChannelSummary(
            samples=len(values),
            minimum=min(values),
            maximum=maximum,
            mean=sum(values) / len(values),
            at_maximum=at_max,
        )

    def bucketize(self, channel: str, buckets: int = 60) -> List[float]:
        """Mean value per equal-width time bucket (sparkline input)."""
        data = self._series.get(channel, [])
        if not data or buckets < 1:
            return []
        start = data[0][0]
        end = data[-1][0]
        span = max(1, end - start)
        sums = [0.0] * buckets
        counts = [0] * buckets
        for time, value in data:
            index = min(buckets - 1, (time - start) * buckets // span)
            sums[index] += value
            counts[index] += 1
        out = []
        last = 0.0
        for total, count in zip(sums, counts):
            if count:
                last = total / count
            out.append(last)
        return out

    def sparkline(self, channel: str, width: int = 60) -> str:
        """Render the channel as an ASCII sparkline."""
        values = self.bucketize(channel, width)
        if not values:
            return ""
        top = max(values) or 1.0
        glyphs = []
        for value in values:
            index = int(value / top * (len(_SPARK_GLYPHS) - 1))
            glyphs.append(_SPARK_GLYPHS[index])
        return "".join(glyphs)

    def boundary_events(self) -> List[Tuple[int, str, str]]:
        """Events whose kind is a persist boundary, in emission order."""
        return [e for e in self._events if e[1] in PERSIST_BOUNDARY_KINDS]

    def report(self) -> str:
        """Multi-channel text report (summaries + sparklines)."""
        lines = []
        for channel in self.channels():
            summary = self.summarize(channel)
            lines.append(
                f"{channel}: n={summary.samples} mean={summary.mean:.2f} "
                f"max={summary.maximum:.0f} at-max={100 * summary.at_maximum:.0f}%"
            )
            lines.append(f"  [{self.sparkline(channel)}]")
        if self._events:
            lines.append(f"events: {len(self._events)}"
                         + (f" (+{self.dropped_events} dropped)"
                            if self.dropped_events else ""))
        return "\n".join(lines)


class CrashSiteProbe(Timeline):
    """A Timeline that additionally snapshots machine state at every
    persist boundary.

    ``state_fn`` (set after the controller exists) hashes the
    architecturally persistent machine state; the crash-site enumerator
    deduplicates boundary instants whose hash did not change, so the
    sweep stays tractable without missing any distinct state.
    """

    def __init__(self, state_fn=None, max_events: int = 1_000_000) -> None:
        super().__init__(max_events=max_events)
        self.state_fn = state_fn
        #: (cycle, kind, state-hash) per boundary event, in order.
        self.boundaries: List[Tuple[int, str, str]] = []

    def event(self, time: int, kind: str, detail: str = "") -> None:
        super().event(time, kind, detail)
        if kind in PERSIST_BOUNDARY_KINDS:
            digest = self.state_fn() if self.state_fn is not None else ""
            self.boundaries.append((time, kind, digest))


class LogRecord(NamedTuple):
    """One :class:`EventLog` entry."""

    #: ``time.monotonic()`` seconds (the asyncio loop clock too).
    time: float
    #: Who it is about: a job key, a worker id, ``storage``.
    source: str
    kind: str
    fields: Dict[str, Any]


class EventLog:
    """Thread-safe, bounded, time-ordered log of :class:`LogRecord`.

    The one runtime log of the service, the fleet and chaos.  The clock
    is read under the lock, so records are in time order whichever
    thread appends them.  Beyond ``max_records`` records are dropped
    (counted in ``dropped``), while ``counts`` (records per kind) keeps
    counting, so a long-lived server's counters stay exact.
    """

    #: Bound on kept records (a few per job; a server runs for days).
    max_records = 1_000_000

    def __init__(self, clock: Callable[[], float] = _time.monotonic) -> None:
        self.dropped = 0
        self.counts: Dict[str, int] = {}
        self._clock = clock
        self._records: List[LogRecord] = []
        self._lock = threading.Lock()

    def record(self, source: str, kind: str, **fields: Any) -> None:
        with self._lock:
            self.counts[kind] = self.counts.get(kind, 0) + 1
            if len(self._records) >= self.max_records:
                self.dropped += 1
                return
            self._records.append(LogRecord(self._clock(), source, kind, fields))

    def records(
        self, kind: Optional[str] = None, source: Optional[str] = None
    ) -> List[LogRecord]:
        """The records so far, in time order, optionally filtered."""
        with self._lock:
            snapshot = list(self._records)
        return [
            record
            for record in snapshot
            if (kind is None or record.kind == kind)
            and (source is None or record.source == source)
        ]

    def to_payload(self) -> List[Dict[str, Any]]:
        """Plain-JSON form: one ``{time, source, kind, fields}`` per record."""
        return [record._asdict() for record in self.records()]
