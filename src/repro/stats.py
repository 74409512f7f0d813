"""Statistics collection shared by every model component.

A :class:`StatsRegistry` is a hierarchical namespace of counters and
histograms.  Components create scoped views (``registry.scope("wpq")``)
so stat names stay collision-free, and the harness renders the whole
registry as the rows the paper's tables report.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Histogram:
    """A sparse integer histogram with summary statistics."""

    buckets: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    count: int = 0
    total: int = 0
    min_value: Optional[int] = None
    max_value: Optional[int] = None

    def record(self, value: int, weight: int = 1) -> None:
        if weight < 0:
            raise ValueError(f"negative histogram weight {weight}")
        if weight == 0:
            # A zero-weight sample contributes nothing: it must not
            # move min/max or materialise a bucket, or percentile() and
            # dump() report values no sample ever carried.
            return
        self.buckets[value] += weight
        self.count += weight
        self.total += value * weight
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Return the smallest value covering fraction ``p`` of samples.

        Edge semantics: ``percentile(0.0)`` is the minimum recorded
        value, ``percentile(1.0)`` the maximum; an empty histogram
        returns 0 for any ``p``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile {p} outside [0, 1]")
        if not self.count:
            return 0
        if p == 0.0:
            return self.min_value if self.min_value is not None else 0
        if p == 1.0:
            return self.max_value if self.max_value is not None else 0
        threshold = p * self.count
        seen = 0
        for value in sorted(self.buckets):
            seen += self.buckets[value]
            if seen >= threshold:
                return value
        return self.max_value or 0


class StatsRegistry:
    """Flat store of named counters/histograms with scoped views."""

    def __init__(self) -> None:
        #: The counters themselves.  Hot paths increment it directly
        #: (``counts[name] += 1``), which is what :meth:`add` does
        #: without the method call; a name appears once first counted.
        self.counts: Dict[str, int] = defaultdict(int)
        self._histograms: Dict[str, Histogram] = {}

    # -- counters ------------------------------------------------------
    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def set(self, name: str, value: int) -> None:
        self.counts[name] = value

    def get(self, name: str, default: int = 0) -> int:
        return self.counts.get(name, default)

    # -- histograms ----------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram()
            self._histograms[name] = hist
        return hist

    def record(self, name: str, value: int, weight: int = 1) -> None:
        self.histogram(name).record(value, weight)

    # -- structure -----------------------------------------------------
    def scope(self, prefix: str) -> "StatsScope":
        return StatsScope(self, prefix)

    def counters(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self.counts.items()))

    def histograms(self) -> Iterator[Tuple[str, Histogram]]:
        return iter(sorted(self._histograms.items()))

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def ratio(self, numerator: str, denominator: str) -> float:
        denom = self.get(denominator)
        return self.get(numerator) / denom if denom else 0.0

    def dump(self) -> str:
        """Render all counters, one per line, for logs and debugging."""
        lines: List[str] = []
        for name, value in self.counters():
            lines.append(f"{name:50s} {value}")
        for name, hist in self.histograms():
            lines.append(
                f"{name:50s} n={hist.count} mean={hist.mean:.2f} "
                f"min={hist.min_value} max={hist.max_value}"
            )
        return "\n".join(lines)


class StatsScope:
    """A prefixed view over a :class:`StatsRegistry`."""

    def __init__(self, registry: StatsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix.rstrip(".") + "."

    def add(self, name: str, amount: int = 1) -> None:
        self._registry.add(self._prefix + name, amount)

    def set(self, name: str, value: int) -> None:
        self._registry.set(self._prefix + name, value)

    def get(self, name: str, default: int = 0) -> int:
        return self._registry.get(self._prefix + name, default)

    def record(self, name: str, value: int, weight: int = 1) -> None:
        self._registry.record(self._prefix + name, value, weight)

    def scope(self, prefix: str) -> "StatsScope":
        return StatsScope(self._registry, self._prefix + prefix)
