"""Seeded chaos plans: which faults hit which worker, and when.

A :class:`ChaosPlan` is generated from a single integer seed by
expanding a catalogue of fault archetypes with a ``random.Random``
(mirroring :mod:`repro.faults.plan`, which does the same for
*simulated-crash* sites inside the memory model — this module faults
the *fleet* around the simulator instead).  The plan is pure data:
serialisable, comparable, and replayable — the same seed always
produces the same plan, and a :class:`WireSchedule` derived from it
makes the same decision for the same frame ordinal every run.  That
determinism is what the replay tests assert: two runs from one seed
must log identical injections (modulo wall-clock stamps, which are
recorded but excluded from :func:`injection_tuple`).

Three layers:

* **wire** — injected by the chaos proxy between dispatcher and
  worker: connection resets, truncated frames, bit-garbled JSON,
  duplicated frames, slow-loris stalls, delayed acks.
* **process** — injected by the orchestrator against worker
  subprocesses: SIGSTOP pauses (hangs), SIGKILL, kill-mid-result
  (the worker dies the instant its result frame crosses the proxy,
  before the dispatcher can record it), crash-on-start.
* **storage** — drills against the FleetDB / unit memo: a writer
  killed mid-``BEGIN IMMEDIATE``, a torn sqlite WAL tail, a corrupted
  unit-memo entry.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.instrumentation import EventLog

__all__ = [
    "WIRE_KINDS",
    "PROCESS_KINDS",
    "STORAGE_KINDS",
    "INJECTED",
    "ChaosFault",
    "ChaosPlan",
    "WireSchedule",
    "record_injection",
    "injections",
    "injection_tuple",
]

#: Wire-layer faults the proxy can inject, by kind.
WIRE_KINDS = (
    "conn-reset",      # drop the frame, slam both sides shut
    "frame-truncate",  # forward a prefix of the frame, then reset
    "frame-garble",    # flip one bit mid-frame, forward, then reset
    "frame-dup",       # forward the frame twice
    "stall",           # slow-loris: sleep before forwarding (c2s)
    "ack-delay",       # sleep before forwarding a server reply (s2c)
)

#: Process-layer faults against worker subprocesses.
PROCESS_KINDS = (
    "sigstop",          # pause the worker (hang), SIGCONT later
    "sigkill",          # kill it outright after its Nth record
    "kill-mid-result",  # kill as the Nth result frame crosses the wire
    "crash-on-start",   # kill immediately after an incarnation is ready
)

#: Storage-layer drills against the results database / caches.
STORAGE_KINDS = (
    "db-crash-writer",  # SIGKILL a writer inside BEGIN IMMEDIATE
    "db-torn-wal",      # append a garbage tail to the sqlite WAL
    "store-corrupt",    # scribble over a unit-memo entry mid-run
)

_LAYER_OF = (
    {kind: "wire" for kind in WIRE_KINDS}
    | {kind: "process" for kind in PROCESS_KINDS}
    | {kind: "storage" for kind in STORAGE_KINDS}
)


@dataclass(frozen=True)
class ChaosFault:
    """One planned fault.

    The trigger encoding depends on the layer:

    * wire — fire on frame ``frame`` (1-based, per worker, per
      ``direction``, counted across reconnects and respawns);
    * process — ``sigstop``/``sigkill`` fire after the worker's
      ``frame``-th recorded unit; ``kill-mid-result`` fires on the
      ``frame``-th result frame crossing its proxy; ``crash-on-start``
      fires when incarnation ``frame`` becomes ready;
    * storage — ``frame`` is unused (drills run at fixed campaign
      points).

    ``param`` carries the kind's scalar knob (stall/pause seconds).
    """

    fault_id: str
    kind: str
    worker: str = ""
    direction: str = ""  # "c2s" / "s2c" for wire faults
    frame: int = 0
    param: float = 0.0

    @property
    def layer(self) -> str:
        return _LAYER_OF[self.kind]

    def to_payload(self) -> Dict[str, object]:
        return {
            "fault_id": self.fault_id,
            "kind": self.kind,
            "layer": self.layer,
            "worker": self.worker,
            "direction": self.direction,
            "frame": self.frame,
            "param": self.param,
        }

    @classmethod
    def from_payload(cls, data: Dict[str, object]) -> "ChaosFault":
        return cls(
            fault_id=str(data["fault_id"]),
            kind=str(data["kind"]),
            worker=str(data.get("worker", "")),
            direction=str(data.get("direction", "")),
            frame=int(data.get("frame", 0)),
            param=float(data.get("param", 0.0)),
        )


@dataclass(frozen=True)
class ChaosPlan:
    """A full fault schedule for one chaos run — pure data, seeded."""

    seed: int
    workers: int
    faults: Tuple[ChaosFault, ...]

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        workers: int = 2,
        wire_faults: int = 3,
        process_faults: int = 2,
        storage_faults: int = 2,
    ) -> "ChaosPlan":
        """Expand the catalogue deterministically from ``seed``.

        Frame ordinals are drawn small (1–4) so the faults actually
        fire in short campaigns, and wire faults lean toward the
        server→client direction, where a lost frame is a lost *result*
        — the hardest case for the zero-loss invariant.
        """
        if workers < 1:
            raise ValueError("chaos needs at least one worker")
        rng = random.Random(f"repro-chaos-{seed}")
        faults: List[ChaosFault] = []

        def worker_id() -> str:
            return f"worker-{rng.randrange(workers)}"

        for index in range(wire_faults):
            kind = rng.choice(WIRE_KINDS)
            if kind == "stall":
                direction = "c2s"
            elif kind == "ack-delay":
                direction = "s2c"
            else:
                direction = "s2c" if rng.random() < 0.7 else "c2s"
            faults.append(
                ChaosFault(
                    fault_id=f"wire-{index}",
                    kind=kind,
                    worker=worker_id(),
                    direction=direction,
                    frame=rng.randint(1, 4),
                    param=round(rng.uniform(0.05, 0.25), 3),
                )
            )
        for index in range(process_faults):
            kind = rng.choice(PROCESS_KINDS)
            frame = 0 if kind == "crash-on-start" else rng.randint(1, 2)
            faults.append(
                ChaosFault(
                    fault_id=f"proc-{index}",
                    kind=kind,
                    worker=worker_id(),
                    frame=frame,
                    param=round(rng.uniform(0.8, 1.6), 3),
                )
            )
        kinds = list(STORAGE_KINDS)
        rng.shuffle(kinds)
        for index in range(min(storage_faults, len(kinds))):
            faults.append(
                ChaosFault(fault_id=f"store-{index}", kind=kinds[index])
            )
        return cls(seed=seed, workers=workers, faults=tuple(faults))

    # ------------------------------------------------------------------
    def by_layer(self, layer: str) -> List[ChaosFault]:
        return [fault for fault in self.faults if fault.layer == layer]

    def for_worker(self, worker_id: str, layer: str) -> List[ChaosFault]:
        return [
            fault
            for fault in self.by_layer(layer)
            if fault.worker == worker_id
        ]

    def to_payload(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "workers": self.workers,
            "faults": [fault.to_payload() for fault in self.faults],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, data: Dict[str, object]) -> "ChaosPlan":
        return cls(
            seed=int(data["seed"]),
            workers=int(data["workers"]),
            faults=tuple(
                ChaosFault.from_payload(item) for item in data["faults"]
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        return cls.from_payload(json.loads(text))


# ----------------------------------------------------------------------
# Wire schedules: per-worker frame ordinals -> fault decisions
# ----------------------------------------------------------------------
class WireSchedule:
    """One worker's wire faults, keyed by per-direction frame ordinal.

    The proxy asks :meth:`next_ordinal` for every frame it relays and
    :meth:`action` for the fault (if any) planned at that ordinal.
    Ordinal counters live *here*, not in the proxy, so they persist
    across client reconnects and worker respawns — frame 3 means the
    third frame this worker's wire ever carried in that direction,
    which is what makes the schedule a pure function of the plan.
    """

    def __init__(self, plan: ChaosPlan, worker_id: str) -> None:
        self.worker_id = worker_id
        self._faults: Dict[Tuple[str, int], ChaosFault] = {}
        for fault in plan.for_worker(worker_id, "wire"):
            # First fault planned for an ordinal wins; generate() may
            # collide two faults on one frame for small frame ranges.
            self._faults.setdefault((fault.direction, fault.frame), fault)
        self._counters = {"c2s": 0, "s2c": 0}
        self._lock = threading.Lock()

    def next_ordinal(self, direction: str) -> int:
        with self._lock:
            self._counters[direction] += 1
            return self._counters[direction]

    def action(self, direction: str, ordinal: int) -> Optional[ChaosFault]:
        return self._faults.get((direction, ordinal))

    def planned(self) -> List[ChaosFault]:
        return sorted(
            self._faults.values(), key=lambda f: (f.direction, f.frame)
        )


# ----------------------------------------------------------------------
# Injection records in the run's event log
# ----------------------------------------------------------------------
#: The :class:`~repro.instrumentation.EventLog` kind of one fired fault.
INJECTED = "fault-injected"


def record_injection(events: EventLog, fault: ChaosFault, detail: str = "") -> None:
    """Log that ``fault`` fired; the source is its worker (or its layer)."""
    events.record(
        fault.worker or fault.layer,
        INJECTED,
        fault_id=fault.fault_id,
        fault=fault.kind,
        layer=fault.layer,
        direction=fault.direction,
        frame=fault.frame,
        detail=detail,
    )


def injections(events: Sequence[Dict]) -> List[Dict]:
    """The fired-fault records of an event-log payload, in order."""
    return [event for event in events if event["kind"] == INJECTED]


def injection_tuple(event: Dict) -> Tuple[str, str, str, str, str, int]:
    """The replay-comparable view of one injection (no time, no detail)."""
    fields = event["fields"]
    return (
        fields["fault_id"],
        fields["fault"],
        fields["layer"],
        event["source"],
        fields["direction"],
        fields["frame"],
    )
