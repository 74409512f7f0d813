"""The one result cache: memoization of whole run units.

Sweeps, service jobs and fleet campaigns resimulate the same run units
constantly — across processes, sessions and seeds.  This module caches
each unit's result on disk under a key derived from the unit itself,
so a unit is simulated once **ever** (per simulator version) and
replayed as a dictionary lookup afterwards.

The unit key hashes:

* **the unit's identity** — workload, transactions, seed, mode, fault
  sites, scenario descriptor, and the config fingerprint (canonical
  JSON of the full :class:`repro.config.SimConfig`).  Every memoized
  trace comes from ``TraceCache.get_packed(workload, transactions,
  config.transaction_size, seed)``, so together with
  ``GENERATOR_VERSION`` these fields name exactly the op stream a run
  replays;
* **model fingerprint** — a digest over the ``repro`` package sources,
  so *any* code change invalidates every cached result (metrics are
  pinned bit-exactly; a stale hit would be a silent wrong answer);
* :data:`MEMO_VERSION`.

Because the key needs no trace, a hit neither loads nor generates one,
and the service scheduler can decide a replay at admission, before any
work exists.  The same key names the unit everywhere else: it is the
service's job key (:func:`repro.service.protocol.job_key`) and the
FleetDB's unit key.  ``run``, ``faults`` and ``scenario`` units are
memoized; ``breakdown`` units bypass the memo (their instrumented
results carry per-span state it does not capture).  Results live in a
:class:`repro.harness.trace_store.ResultStore` — by default the
FleetDB's ``results`` table, so a campaign and its workers keep one
copy of each payload — whose one digest check quarantines a corrupt
row and reports a miss, never a wrong result.

Environment:

* ``REPRO_UNIT_MEMO=<path>`` — the memo's SQLite file (created on
  demand).
* ``REPRO_UNIT_MEMO=off`` (or ``0``/``none``/``disabled``/empty) —
  disable the memo entirely.
* unset — the FleetDB file (``REPRO_FLEET_DB``, else
  ``~/.cache/dolos-repro/fleet.sqlite``), unless
  ``REPRO_TRACE_CACHE=off`` disables both layers together.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.config import SimConfig
from repro.harness.runner import payload_to_result, result_payload, run_trace
from repro.harness.trace_store import (
    _DISABLED_VALUES,
    ResultStore,
    TraceCache,
    default_cache_dir,
    default_db_path,
)
from repro.workloads import GENERATOR_VERSION

if TYPE_CHECKING:  # parallel imports this module
    from repro.harness.parallel import RunUnit

#: Bump to invalidate every cached unit result (format changes).
MEMO_VERSION = 2

_MODEL_FINGERPRINT: Optional[str] = None


def default_unit_memo_path() -> Optional[Path]:
    """Resolve the unit memo's SQLite file from the environment."""
    env = os.environ.get("REPRO_UNIT_MEMO")
    if env is not None:
        if env.strip().lower() in _DISABLED_VALUES or not env.strip():
            return None
        return Path(env).expanduser()
    if default_cache_dir() is None:
        return None
    return default_db_path()


def model_fingerprint() -> str:
    """Digest of every ``repro`` package source file (cached per process)."""
    global _MODEL_FINGERPRINT
    if _MODEL_FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _MODEL_FINGERPRINT = digest.hexdigest()[:24]
    return _MODEL_FINGERPRINT


def config_fingerprint(config: SimConfig) -> str:
    """Digest of the canonical JSON encoding of ``config``."""

    def _encode(obj):
        if isinstance(obj, Enum):
            return obj.value
        raise TypeError(f"unexpected config field type {type(obj)!r}")

    material = json.dumps(asdict(config), sort_keys=True, default=_encode)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]


def simulate(unit: RunUnit, cache: TraceCache):
    """Compute one ``run``/``faults``/``scenario`` unit (no memo).

    Run units replay their packed trace from ``cache``.
    """
    if unit.mode == "faults":
        # Fault units run the seeded injection campaign (crash sites +
        # recovery classification) instead of a plain simulation; their
        # result is the stable payload dict the fleet db records.
        from repro.faults.campaign import fault_unit_payload, run_fault_unit
        from repro.oracle.check import controller_matrix

        label = next(
            (
                name
                for name, config in controller_matrix().items()
                if config == unit.config
            ),
            getattr(unit.config.controller, "value", str(unit.config.controller)),
        )
        report = run_fault_unit(
            unit.workload,
            label,
            unit.config,
            unit.transactions,
            seed=unit.seed,
            sites=unit.fault_sites or 2,
        )
        return fault_unit_payload(report)
    if unit.mode == "scenario":
        # Scenario units replay an arrival-stamped open-loop trace and
        # return the JSON-shaped sojourn/queueing payload.  The stamped
        # trace is built fresh, not through the trace cache (it is cheap
        # relative to simulation and keyed by more knobs than the cache
        # folds).
        from repro.scenarios.loadcurve import run_scenario, scenario_tenants

        tenants = scenario_tenants(unit.workload, dict(unit.scenario))
        payload = run_scenario(
            unit.config,
            tenants,
            unit.transactions,
            seed=unit.seed,
            workload_name=unit.workload,
        )
        payload["kind"] = "scenario"
        return payload
    packed = cache.get_packed(
        unit.workload, unit.transactions, unit.config.transaction_size, unit.seed
    )
    return run_trace(unit.config, packed, unit.workload, unit.transactions)


def _decode(payload: dict, mode: str):
    """A stored payload as the result type of a ``mode`` unit."""
    if mode == "run":
        return payload_to_result(payload)
    if payload.get("kind") != mode:
        raise ValueError(f"stored payload is not a {mode} result")
    return dict(payload)


class UnitMemo:
    """Persistent memo of completed run units, keyed by the unit."""

    #: Sentinel meaning "resolve the file from the environment".
    AUTO = object()

    def __init__(self, path=AUTO) -> None:
        if path is UnitMemo.AUTO:
            path = default_unit_memo_path()
        self._store = ResultStore(path) if path is not None else None
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self._store is not None

    @property
    def quarantined_entries(self) -> int:
        """Rows the backing store moved to quarantine."""
        return self._store.quarantined if self._store is not None else 0

    # ------------------------------------------------------------------
    def key_for(self, unit: RunUnit) -> str:
        """The unit's key (identity + generator, model and memo versions)."""
        material = json.dumps(
            {
                "memo_version": MEMO_VERSION,
                "workload": unit.workload,
                "transactions": unit.transactions,
                "seed": unit.seed,
                "mode": unit.mode,
                "fault_sites": unit.fault_sites,
                "scenario": unit.scenario,
                "config": config_fingerprint(unit.config),
                "generator_version": GENERATOR_VERSION,
                "model": model_fingerprint(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]

    # ------------------------------------------------------------------
    def load(self, key: str, mode: str):
        """The result of a ``mode`` unit stored under ``key``, or ``None``.

        A payload that does not decode to a ``mode`` result (a bad enum
        value, a missing field) fails the store's check like a corrupt
        one: left in place it would fail every future load of the key.
        """
        if self._store is None:
            return None
        result = self._store.load(key, lambda payload: _decode(payload, mode))
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    # ------------------------------------------------------------------
    def run(self, unit: RunUnit, cache: TraceCache):
        """Memoized :func:`simulate`.

        A hit replays the cached result without loading a trace or
        simulating; a miss simulates and populates the memo.
        """
        if self._store is None:
            return simulate(unit, cache)
        key = self.key_for(unit)
        cached = self.load(key, unit.mode)
        if cached is not None:
            return cached
        result = simulate(unit, cache)
        self._store.store(key, result_payload(result))
        return result
