"""Discrete-event simulation kernel.

Everything in the Dolos reproduction is timed by this small engine: a
cycle-stamped event queue (:class:`~repro.engine.kernel.Simulator`),
generator-based processes (:mod:`repro.engine.process`) and pipelined
lanes (:mod:`repro.engine.resources`).

The engine measures time in **core clock cycles** (the paper's 4 GHz
core clock); nanosecond device parameters are converted to cycles in
:mod:`repro.config`.
"""

from repro.engine.events import Event, EventQueue
from repro.engine.kernel import Simulator, SimulationError
from repro.engine.process import Delay, Process, Signal, WaitSignal

__all__ = [
    "Delay",
    "Event",
    "EventQueue",
    "Process",
    "Signal",
    "SimulationError",
    "Simulator",
    "WaitSignal",
]
