"""Discrete-event simulation kernel.

Everything in the Dolos reproduction is timed by this small engine: a
heap of callbacks stamped with a cycle
(:class:`~repro.engine.kernel.Simulator`) and booking calendars for
pipelined units (:mod:`repro.engine.resources`).  Agents that wait —
the controller's read and write paths, the trace core, the crash
oracle's op driver — own their timing and resume through plain
callbacks.

The engine measures time in **core clock cycles** (the paper's 4 GHz
core clock); nanosecond device parameters are converted to cycles in
:mod:`repro.config`.
"""

from repro.engine.kernel import Simulator, SimulationError

__all__ = [
    "SimulationError",
    "Simulator",
]
