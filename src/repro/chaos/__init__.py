"""Deterministic chaos engineering for the experiment fleet.

``python -m repro.harness chaos`` runs a campaign under seeded fault
schedules (wire, process, storage) and proves the zero-loss invariant:
every unit lands exactly once with a digest bit-identical to a calm
baseline, and every injected fault is accounted for.  See
docs/robustness.md.
"""

from repro.chaos.plan import ChaosFault, ChaosPlan, WireSchedule

__all__ = ["ChaosFault", "ChaosPlan", "WireSchedule"]
