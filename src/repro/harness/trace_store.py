"""Persistent, content-addressed trace cache shared by experiment runs.

Generating a WHISPER trace is pure-Python work that dominates short
experiment runs; this module gives every (workload, transactions,
payload, seed) trace a stable on-disk identity so sweeps — serial or
fanned out over a process pool — generate each trace once *ever* and
replay it from disk afterwards.

Layout: one ``.npz`` per trace (see :mod:`repro.cpu.trace_io`) under a
single cache directory.  The filename embeds both the human-readable
key and a SHA-256 digest of the full cache key, which includes
:data:`repro.workloads.GENERATOR_VERSION` and the trace-format version
— bumping either invalidates old entries without any cleanup pass.

Concurrency: writers serialise a trace to a temporary file in the cache
directory and ``os.replace`` it into place.  The rename is atomic on
POSIX, so pool workers racing to fill the same key each write a
complete file and the last one wins with identical content; readers
never observe a torn entry.

Environment:

* ``REPRO_TRACE_CACHE=<dir>`` — cache directory (created on demand).
* ``REPRO_TRACE_CACHE=off`` (or ``0``/empty) — disable the disk layer.
* unset — ``~/.cache/dolos-repro/traces`` (respects ``XDG_CACHE_HOME``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.cpu import trace_io
from repro.workloads import GENERATOR_VERSION, generate_trace

#: Cache key type: (workload, transactions, payload_bytes, seed).
TraceKey = Tuple[str, int, int, int]

_DISABLED_VALUES = {"off", "0", "none", "disabled"}


def default_cache_dir() -> Optional[Path]:
    """Resolve the disk-cache directory from the environment.

    Returns ``None`` when the disk layer is disabled.
    """
    env = os.environ.get("REPRO_TRACE_CACHE")
    if env is not None:
        if env.strip().lower() in _DISABLED_VALUES or not env.strip():
            return None
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "dolos-repro" / "traces"


class TraceStore:
    """Content-addressed on-disk store of generated traces."""

    #: Subdirectory corrupt entries are moved into (kept for forensics).
    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Corrupt/truncated entries moved aside by :meth:`load`.
        self.quarantined = 0

    # ------------------------------------------------------------------
    @staticmethod
    def payload_digest(trace) -> str:
        """Content digest of the trace *payload* (the arrays themselves).

        Stored in the entry's metadata and re-checked on load: the key
        digest authenticates *which* trace the file claims to be, this
        one authenticates its *bytes* — a truncated or bit-rotted file
        fails here even when its header survived intact.  Accepts the
        tuple-list form or a :class:`repro.cpu.trace_io.PackedTrace`
        (both digest identically for the same op stream).
        """
        codes, operands = trace_io.trace_to_arrays(trace)
        material = codes.tobytes() + b"|" + operands.tobytes()
        return hashlib.sha256(material).hexdigest()[:24]

    @staticmethod
    def digest(key: TraceKey) -> str:
        """Stable digest of the full cache identity of ``key``."""
        workload, transactions, payload, seed = key
        material = json.dumps(
            {
                "workload": workload,
                "transactions": transactions,
                "payload": payload,
                "seed": seed,
                "generator_version": GENERATOR_VERSION,
                "format_version": trace_io.FORMAT_VERSION,
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]

    def path_for(self, key: TraceKey) -> Path:
        workload, transactions, payload, seed = key
        name = (
            f"{workload}-t{transactions}-p{payload}-s{seed}-"
            f"{self.digest(key)}.npz"
        )
        return self.root / name

    # ------------------------------------------------------------------
    def load(self, key: TraceKey) -> Optional[List[Tuple]]:
        """Return the cached trace for ``key``, or ``None`` on a miss.

        A corrupt, truncated or mismatched entry counts as a miss: the
        file is moved into the ``quarantine/`` subdirectory (never
        surfaced as an unpickling error) and the caller regenerates.
        Entries written before payload digests existed are treated as
        corrupt — there is no way to vouch for their bytes.
        """
        packed = self.load_packed(key)
        return packed.to_trace() if packed is not None else None

    def load_packed(self, key: TraceKey) -> Optional[trace_io.PackedTrace]:
        """Return the cached trace for ``key`` in packed (column) form.

        Same contract as :meth:`load` — corrupt entries quarantine and
        count as misses — but the stored columns are handed back
        directly, skipping the per-op tuple rebuild the replay path no
        longer needs.
        """
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            packed, header = trace_io.load_trace_packed(path)
            if header.get("cache_digest") != self.digest(key):
                raise ValueError("cache key mismatch")
            if header.get("payload_digest") != self.payload_digest(packed):
                raise ValueError("payload digest mismatch")
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return packed

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside (fall back to deletion if that fails)."""
        target_dir = self.root / self.QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        self.quarantined += 1

    def store(self, key: TraceKey, trace) -> Path:
        """Persist ``trace`` under ``key`` (atomic rename, race-safe).

        Accepts the tuple-list form or a packed trace — both serialise
        to the same column format.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        final = self.path_for(key)
        workload, transactions, payload, seed = key
        metadata = {
            "workload": workload,
            "transactions": transactions,
            "payload": payload,
            "seed": seed,
            "generator_version": GENERATOR_VERSION,
            "cache_digest": self.digest(key),
            "payload_digest": self.payload_digest(trace),
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".npz"
        )
        os.close(fd)
        try:
            trace_io.save_trace(tmp_name, trace, metadata, compress=False)
            os.replace(tmp_name, final)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return final


def default_result_cache_dir() -> Optional[Path]:
    """Resolve the shared *result*-cache directory from the environment.

    ``REPRO_RESULT_CACHE`` mirrors ``REPRO_TRACE_CACHE`` (same disable
    values); unset defaults to a ``results`` sibling of the trace cache.
    """
    env = os.environ.get("REPRO_RESULT_CACHE")
    if env is not None:
        if env.strip().lower() in _DISABLED_VALUES or not env.strip():
            return None
        return Path(env).expanduser()
    traces = default_cache_dir()
    if traces is None:
        return None
    return traces.parent / "results"


class ResultStore:
    """Content-addressed on-disk cache of completed experiment results.

    The :mod:`repro.service` scheduler keys each job by a digest
    computed exactly the way :meth:`TraceStore.digest` keys traces
    (canonical JSON of the full identity, SHA-256, truncated), joined
    with the simulator-source fingerprint, and stores the job's JSON
    result payload here, so identical jobs resubmitted across server
    restarts replay from disk instead of re-simulating — until the
    simulator changes.  Every entry embeds a digest of its payload bytes
    that is re-verified on load — a corrupt or truncated entry is
    quarantined (same policy as :class:`TraceStore`) and treated as a
    miss, never surfaced as a JSON error or, worse, a wrong result.
    """

    QUARANTINE_DIR = TraceStore.QUARANTINE_DIR

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    @staticmethod
    def payload_digest(payload: dict) -> str:
        """Digest of the canonical JSON encoding of ``payload``."""
        material = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        """Return the cached payload for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            entry = json.loads(path.read_text())
            payload = entry["payload"]
            if entry.get("key") != key:
                raise ValueError("result cache key mismatch")
            if entry.get("payload_digest") != self.payload_digest(payload):
                raise ValueError("result payload digest mismatch")
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, key: str, payload: dict) -> Path:
        """Persist ``payload`` under ``key`` (atomic rename, race-safe)."""
        self.root.mkdir(parents=True, exist_ok=True)
        final = self.path_for(key)
        entry = {
            "key": key,
            "payload": payload,
            "payload_digest": self.payload_digest(payload),
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp_name, final)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return final

    def _quarantine(self, path: Path) -> None:
        target_dir = self.root / self.QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        self.quarantined += 1


class TraceCache:
    """Two-level trace cache: per-process memory over a shared disk store.

    Drop-in successor of the old in-memory ``TraceCache`` in
    :mod:`repro.harness.experiments`; pass ``cache_dir=None`` to opt out
    of the disk layer (pure in-memory, the old behaviour).
    """

    #: Sentinel meaning "resolve the directory from the environment".
    AUTO = object()

    def __init__(self, cache_dir=AUTO) -> None:
        self._cache: Dict[TraceKey, List[Tuple]] = {}
        self._packed: Dict[TraceKey, trace_io.PackedTrace] = {}
        if cache_dir is TraceCache.AUTO:
            cache_dir = default_cache_dir()
        self._store = TraceStore(cache_dir) if cache_dir is not None else None

    @property
    def store(self) -> Optional[TraceStore]:
        return self._store

    def get(
        self, workload: str, transactions: int, payload: int, seed: int
    ) -> List[Tuple]:
        key = (workload, transactions, payload, seed)
        trace = self._cache.get(key)
        if trace is not None:
            return trace
        if self._store is not None:
            trace = self._store.load(key)
        if trace is None:
            trace = generate_trace(workload, transactions, payload, seed)
            if self._store is not None:
                self._store.store(key, trace)
        self._cache[key] = trace
        return trace

    def get_packed(
        self, workload: str, transactions: int, payload: int, seed: int
    ) -> trace_io.PackedTrace:
        """Like :meth:`get`, but in packed column form (replay-ready).

        The packed and tuple layers share the disk store; whichever is
        populated first feeds the other without regeneration.
        """
        key = (workload, transactions, payload, seed)
        packed = self._packed.get(key)
        if packed is not None:
            return packed
        trace = self._cache.get(key)
        if trace is not None:
            packed = trace_io.PackedTrace.from_trace(trace)
        elif self._store is not None:
            packed = self._store.load_packed(key)
        if packed is None:
            trace = generate_trace(workload, transactions, payload, seed)
            packed = trace_io.PackedTrace.from_trace(trace)
            if self._store is not None:
                self._store.store(key, packed)
        self._packed[key] = packed
        return packed
