"""Layer probes for the traced run, installed from outside the simulator.

Two measurements, both taken without editing ``repro``:

* **Timers** around public layer functions (:data:`TIMED`).  Each is
  replaced, for the life of the process, by a wrapper that appends the
  call's duration to :attr:`Recorder.times`.
* **cProfile** with a per-thread CPU clock, rolled up by
  ``repro.<package>`` (:func:`rollup`).  A CPU clock keeps threads
  blocked on sockets or ``select`` from charging their wait to
  ``builtins``; the shares then say where the host CPU went.

The benchmark process installs a :class:`Recorder` directly.  Server
and fleet-worker subprocesses install one through ``hook/sitecustomize.py``
and write it to ``$PERFBENCH_TRACE_DIR/<pid>.json`` when their graceful
shutdown begins.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import os
import pstats
import threading
import time
from pathlib import Path
from typing import Dict, List

#: (module, attribute, timer name).  ``Class.method`` attributes are
#: patched on the class, so every caller sees the wrapper; plain
#: functions are patched where their caller looks them up (the trace
#: cache for ``generate_trace``, the unit memo for ``run_trace``).
TIMED = (
    ("repro.harness.trace_store", "generate_trace", "generate_trace"),
    ("repro.cpu.trace_io", "PackedTrace.from_trace", "pack"),
    ("repro.harness.trace_store", "TraceStore.store", "trace_store.store"),
    ("repro.harness.trace_store", "TraceStore.load_packed", "trace_store.load"),
    ("repro.harness.memo", "UnitMemo.key_for", "memo.key"),
    ("repro.harness.memo", "UnitMemo.load", "memo.load"),
    ("repro.harness.memo", "run_trace", "run_trace"),
)

#: Packages whose self time the traced run reports; every other
#: ``repro`` module and all non-``repro`` Python fold into ``other``.
PACKAGES = (
    "engine", "core", "wpq", "security", "crypto", "cpu", "mem", "stats",
    "workloads", "harness", "service", "fleet", "faults", "oracle",
    "recovery", "builtins", "other",
)

_REPRO_ROOT = os.sep + "repro" + os.sep


class Recorder:
    """Durations per timer name, counters, and the per-thread profilers."""

    def __init__(self) -> None:
        self.times: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self._profiles: List[cProfile.Profile] = []

    def add(self, name: str, seconds: float) -> None:
        self.times.setdefault(name, []).append(seconds)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def profiler(self) -> cProfile.Profile:
        """A new profiler on this thread's CPU clock, kept for the rollup."""
        profile = cProfile.Profile(time.thread_time)
        self._profiles.append(profile)
        return profile

    def self_seconds(self) -> Dict[str, float]:
        """Profiled self time of every profiler so far, by package."""
        totals = {name: 0.0 for name in PACKAGES}
        for profile in self._profiles:
            profile.disable()
            for package, seconds in rollup(pstats.Stats(profile)).items():
                totals[package] += seconds
        return totals

    def to_payload(self) -> dict:
        return {
            "times": self.times,
            "counts": self.counts,
            "self_seconds": self.self_seconds(),
        }


def package_of(filename: str) -> str:
    """The :data:`PACKAGES` bucket a profiled code location belongs to."""
    if filename == "~":
        return "builtins"
    index = filename.rfind(_REPRO_ROOT)
    if index < 0:
        return "other"
    head = filename[index + len(_REPRO_ROOT):].split(os.sep, 1)[0]
    head = head[:-3] if head.endswith(".py") else head
    return head if head in PACKAGES else "other"


def rollup(stats: pstats.Stats) -> Dict[str, float]:
    """Sum self (``tottime``) seconds of every function by package."""
    totals: Dict[str, float] = {}
    for (filename, _line, _name), entry in stats.stats.items():
        package = package_of(filename)
        totals[package] = totals.get(package, 0.0) + entry[2]
    return totals


def _timed(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add(name, time.perf_counter() - started)

    return wrapper


def _trace_transactions(recorder: Recorder, fn):
    """``generate_trace(name, transactions, ...)``: count its transactions."""

    @functools.wraps(fn)
    def wrapper(name, transactions, *args, **kwargs):
        recorder.count("generate_trace.transactions", int(transactions))
        return fn(name, transactions, *args, **kwargs)

    return wrapper


def _memo_hits(recorder: Recorder, fn):
    """``UnitMemo.load`` returns ``None`` on a miss: count both outcomes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        recorder.count("memo.hits" if result is not None else "memo.misses", 1)
        return result

    return wrapper


def _profiled(recorder: Recorder, fn):
    """Run ``fn`` under a profiler of the calling thread.

    The service scheduler runs units on a worker thread, which a
    profiler enabled on the main thread does not see.
    """
    profiles: Dict[int, cProfile.Profile] = {}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ident = threading.get_ident()
        profile = profiles.get(ident)
        if profile is None:
            profile = profiles[ident] = recorder.profiler()
        return profile.runcall(fn, *args, **kwargs)

    return wrapper


def install(recorder: Recorder, profile_threads: bool = False) -> None:
    """Wrap every :data:`TIMED` function so it reports into ``recorder``.

    ``profile_threads`` also profiles the service scheduler's unit calls
    on whatever thread runs them (subprocess servers only).
    """
    if profile_threads:
        from repro.service import scheduler

        scheduler.execute_unit = _profiled(recorder, scheduler.execute_unit)
    for module_name, attribute, name in TIMED:
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[leaf] if owner_name else getattr(module, leaf)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = _timed(recorder, name, fn)
        if name == "generate_trace":
            wrapped = _trace_transactions(recorder, wrapped)
        if name == "memo.load":
            wrapped = _memo_hits(recorder, wrapped)
        setattr(owner, leaf, classmethod(wrapped) if is_classmethod else wrapped)


def write_payload(recorder: Recorder, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"{os.getpid()}.json"
    tmp = target.with_suffix(".tmp")
    tmp.write_text(json.dumps(recorder.to_payload()))
    tmp.replace(target)


def merge_payloads(payloads) -> dict:
    """Sum timers, counters and self seconds over several processes."""
    merged = {
        "times": {},
        "counts": {},
        "self_seconds": {name: 0.0 for name in PACKAGES},
    }
    for payload in payloads:
        for name, values in payload["times"].items():
            merged["times"].setdefault(name, []).extend(values)
        for name, amount in payload["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + amount
        for name, seconds in payload["self_seconds"].items():
            merged["self_seconds"][name] += seconds
    return merged
