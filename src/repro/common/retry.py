"""The one retry policy: exponential backoff with jitter, plus breakers.

Before this module, three subsystems each grew an ad-hoc retry scheme:
the parallel harness slept ``backoff * 2**attempt`` between pool
replacements, the service client had none (a dropped connection
surfaced as a raw ``socket.error``), and the fleet dispatcher's only
recovery was requeueing a dead worker's units.  All three now share
:class:`RetryPolicy`, so backoff shape, jitter, and attempt accounting
are defined — and tested — once.

Design points:

* **Deterministic jitter** — the jitter multiplier is drawn from a
  caller-supplied ``random.Random``.  A seeded RNG makes a retry
  schedule replayable, which the chaos harness
  (:mod:`repro.chaos`) relies on: the same seed must produce the same
  backoff trace.  Callers that do not care pass nothing and get a
  module-level RNG.
* **Policies are data** — a frozen dataclass, trivially serialisable
  into reports and comparable in tests.
* **Breakers are per-peer** — a :class:`CircuitBreaker` wraps one
  flaky dependency (one fleet worker, one socket peer).  Closed →
  open after K *consecutive* failures; open → half-open after a
  cooldown (one probe allowed); repeated trips → permanent quarantine
  with the last failure reason attached, which the fleet surfaces in
  its campaign report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple, Type

__all__ = [
    "RetryPolicy",
    "RetryExhausted",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "BREAKER_QUARANTINED",
]

_MODULE_RNG = random.Random()


class RetryExhausted(RuntimeError):
    """Every attempt of a :meth:`RetryPolicy.call` failed.

    The final underlying exception is chained as ``__cause__``;
    ``attempts`` records how many tries were made.
    """

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded, seeded jitter.

    ``delay(attempt)`` for attempt ``0, 1, 2, ...`` is::

        min(max_delay, base_delay * multiplier**attempt) * U

    where ``U`` is uniform in ``[1 - jitter, 1 + jitter]``.  Attempts
    counts *tries*, not retries: ``attempts=3`` means one initial try
    plus up to two retries.
    """

    attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    #: Fractional jitter; 0 disables (fully deterministic schedule).
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    # ------------------------------------------------------------------
    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry ``attempt`` (0-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if self.jitter:
            rng = _MODULE_RNG if rng is None else rng
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)

    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """The full backoff schedule (``attempts - 1`` sleeps)."""
        for attempt in range(self.attempts - 1):
            yield self.delay(attempt, rng)

    # ------------------------------------------------------------------
    def call(
        self,
        fn: Callable,
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ):
        """Run ``fn()`` under this policy.

        Exceptions matching ``retry_on`` are retried with backoff;
        anything else propagates immediately.  After the last attempt
        fails, raises :class:`RetryExhausted` chained to the final
        error.  ``on_retry(attempt, exc)`` fires before each backoff
        sleep — the hook the fleet uses to log supervision events.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.attempts):
            try:
                return fn()
            except retry_on as exc:  # noqa: PERF203 — retry loop
                last = exc
                if attempt + 1 >= self.attempts:
                    break
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(self.delay(attempt, rng))
        raise RetryExhausted(
            f"gave up after {self.attempts} attempt(s): "
            f"{type(last).__name__}: {last}",
            attempts=self.attempts,
        ) from last


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"
BREAKER_QUARANTINED = "quarantined"


@dataclass
class CircuitBreaker:
    """Per-peer failure gate with half-open probes and quarantine.

    States: *closed* (normal; consecutive failures counted), *open*
    (``allow()`` is False until ``cooldown`` elapses), *half-open*
    (exactly one probe allowed; success closes, failure re-opens), and
    *quarantined* (permanent, after ``max_trips`` opens — the fleet
    records ``reason`` in its campaign report and never respawns the
    peer again).
    """

    failure_threshold: int = 3
    cooldown: float = 1.0
    #: Opens tolerated before the breaker quarantines permanently.
    max_trips: int = 3
    clock: Callable[[], float] = time.monotonic

    state: str = field(default=BREAKER_CLOSED, init=False)
    consecutive_failures: int = field(default=0, init=False)
    trips: int = field(default=0, init=False)
    reason: str = field(default="", init=False)
    _opened_at: float = field(default=0.0, init=False)
    _probing: bool = field(default=False, init=False)

    # ------------------------------------------------------------------
    @property
    def quarantined(self) -> bool:
        return self.state == BREAKER_QUARANTINED

    def allow(self) -> bool:
        """May the caller attempt the peer right now?

        While open, flips to half-open once the cooldown has elapsed
        and grants exactly one probe; further calls are refused until
        that probe reports success or failure.
        """
        if self.state == BREAKER_QUARANTINED:
            return False
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if self.clock() - self._opened_at < self.cooldown:
                return False
            self.state = BREAKER_HALF_OPEN
            self._probing = False
        # half-open: a single probe at a time.
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        if self.state == BREAKER_QUARANTINED:
            return
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._probing = False

    def record_failure(self, reason: str = "") -> None:
        if self.state == BREAKER_QUARANTINED:
            return
        self.reason = reason or self.reason
        if self.state == BREAKER_HALF_OPEN:
            # The probe failed: straight back to open, one more trip.
            self._trip()
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.trips += 1
        self.consecutive_failures = 0
        self._probing = False
        if self.trips >= self.max_trips:
            self.state = BREAKER_QUARANTINED
        else:
            self.state = BREAKER_OPEN
            self._opened_at = self.clock()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Report-stable view (fleet campaign summaries)."""
        return {
            "state": self.state,
            "trips": self.trips,
            "consecutive_failures": self.consecutive_failures,
            "reason": self.reason,
        }
