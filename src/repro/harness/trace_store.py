"""Persistent stores: the content-addressed trace cache and the results
database (:class:`ResultStore`, a SQLite table of result payloads).

Generating a WHISPER trace is pure-Python work that dominates short
experiment runs; this module gives every (workload, transactions,
payload, seed) trace a stable on-disk identity so sweeps — serial or
fanned out over a process pool — generate each trace once *ever* and
replay it from disk afterwards.

Layout: one flat ``.trace`` file per trace (see
:mod:`repro.cpu.trace_io`) under a single cache directory.  The
filename embeds both the human-readable key and a SHA-256 digest of
the full cache key, which includes
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
* ``REPRO_FLEET_DB=<path>`` — the results database; unset,
  ``~/.cache/dolos-repro/fleet.sqlite``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import tempfile
import threading
import time
from contextlib import contextmanager
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
    return _user_cache() / "traces"


def _user_cache() -> Path:
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "dolos-repro"


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
            f"{self.digest(key)}.trace"
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
            dir=self.root, prefix=".tmp-", suffix=".trace"
        )
        os.close(fd)
        try:
            trace_io.save_trace(tmp_name, trace, metadata)
            os.replace(tmp_name, final)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return final


def _canonical(payload) -> str:
    """The canonical JSON text of a result payload (what is stored)."""
    return json.dumps(dict(payload), sort_keys=True, separators=(",", ":"))


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def result_digest(payload) -> str:
    """Digest of the canonical JSON encoding of a result payload."""
    return _text_digest(_canonical(payload))


ENV_DB = "REPRO_FLEET_DB"

#: Layout of the results database, kept in ``PRAGMA user_version``.
SCHEMA_VERSION = 2


def default_db_path() -> Path:
    """The results database: ``REPRO_FLEET_DB``, else the user cache."""
    env = os.environ.get(ENV_DB, "").strip()
    return Path(env).expanduser() if env else _user_cache() / "fleet.sqlite"


class ResultStoreError(RuntimeError):
    """No usable results database, or no such record in it."""


class UnitDigestMismatch(ResultStoreError):
    """A unit key recorded again with a *different* payload digest: runs
    disagree about a deterministic simulation, which must be reported,
    not settled by picking a winner."""


def _inode(path: Path):
    try:
        return os.stat(path)[1:3]  # (st_ino, st_dev): which file it is
    except FileNotFoundError:
        return None


class ResultStore:
    """Digest-verified SQLite store of result payloads, by unit key.

    The unit memo's store and the FleetDB's base, by default one file.
    ``results`` maps a unit key to its payload's canonical JSON and that
    text's digest; :meth:`verify` is the only check of a stored result,
    and a row that fails it moves to ``quarantine`` and reads as
    missing, so its unit runs again — never a JSON error or a wrong
    result.  Connections are per process and thread, opened lazily: a
    forked child opens its own, and a thread reopens when the file at
    ``path`` was removed or replaced (a kept connection would go on
    serving the deleted file).  A file of another layout raises
    :class:`ResultStoreError` naming it.
    """

    #: The tables a writer creates; a subclass appends its own, so one
    #: file can hold the store and the tables built on it.
    SCHEMA: Tuple[str, ...] = (
        "CREATE TABLE IF NOT EXISTS results (unit_key TEXT PRIMARY KEY, "
        "payload TEXT NOT NULL, payload_digest TEXT NOT NULL)",
        "CREATE TABLE IF NOT EXISTS quarantine (unit_key TEXT NOT NULL, "
        "payload TEXT NOT NULL, payload_digest TEXT NOT NULL, "
        "reason TEXT NOT NULL, quarantined_at REAL NOT NULL)",
    )

    def __init__(self, path, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        self._local = threading.local()
        #: Connections a forked child inherited: SQLite forbids using
        #: them across ``fork``, so they are kept, never closed or used.
        self._inherited: List[sqlite3.Connection] = []
        #: Rows moved to quarantine (read-only: rows found bad).
        self.quarantined = 0

    # -- connections ----------------------------------------------------
    def connect(self) -> sqlite3.Connection:
        """This thread's connection (see the class docstring)."""
        local = self._local
        conn = getattr(local, "conn", None)
        if conn is not None:
            if local.pid != os.getpid():
                self._inherited.append(conn)
            elif local.inode == _inode(self.path):
                return conn
            else:
                conn.close()
            local.conn = None
        conn = self._open()
        local.conn, local.pid, local.inode = conn, os.getpid(), _inode(self.path)
        return conn

    def _open(self) -> sqlite3.Connection:
        # A missing or empty file is created at synchronous=OFF (NORMAL once
        # its schema commits): synced, that costs six fsyncs inside the first
        # unit a new store serves.  A power loss before the first checkpoint
        # can lose the new file, as it can lose any commit made under NORMAL.
        new = not (self.path.exists() and self.path.stat().st_size)
        if self.readonly and new:
            raise ResultStoreError(f"no results database at {self.path}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            conn = sqlite3.connect(
                f"file:{self.path}?mode=ro" if self.readonly else str(self.path),
                uri=self.readonly, timeout=30.0, isolation_level=None,
            )
            conn.row_factory = sqlite3.Row
            if not self.readonly:
                conn.execute(f"PRAGMA synchronous={'OFF' if new else 'NORMAL'}")
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("BEGIN IMMEDIATE")
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            empty = not conn.execute("SELECT 1 FROM sqlite_master").fetchone()
        except sqlite3.DatabaseError as exc:
            raise ResultStoreError(f"cannot open {self.path}: {exc}") from None
        if version != SCHEMA_VERSION and (version or not empty or self.readonly):
            conn.close()
            raise ResultStoreError(
                f"{self.path} holds results-database schema {version}, not "
                f"{SCHEMA_VERSION}: another version of this code wrote it; "
                f"move it aside"
            )
        if not self.readonly:
            for statement in self.SCHEMA:
                conn.execute(statement)
            conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
            conn.execute("COMMIT")
            conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def close(self) -> None:
        """Close this thread's connection."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and self._local.pid == os.getpid():
            conn.close()
        self._local.conn = None

    @contextmanager
    def transaction(self):
        """``BEGIN IMMEDIATE`` ... ``COMMIT`` (rolled back on error).

        Serialises writers across threads and processes; a nested use
        joins the transaction already open.
        """
        conn = self.connect()
        if conn.in_transaction:
            yield conn
            return
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    # -- results --------------------------------------------------------
    def verify(self, key: str, text: str, digest: str, decode=dict):
        """The one result check: ``decode`` of ``text``'s payload, if the
        text hashes to ``digest`` and decodes.

        A row that fails moves to quarantine and reads as ``None``.
        """
        try:
            if _text_digest(text) != digest:
                raise ValueError("payload digest mismatch")
            return decode(json.loads(text))
        except Exception as exc:
            self.quarantine(key, text, f"{type(exc).__name__}: {exc}")
            return None

    def load(self, key: str, decode=dict):
        """The verified (and decoded) result under ``key``, or ``None``."""
        row = self.connect().execute(
            "SELECT payload, payload_digest FROM results WHERE unit_key=?",
            (key,),
        ).fetchone()
        return None if row is None else self.verify(key, *row, decode)

    def store(self, key: str, payload) -> None:
        """Record ``payload`` under ``key``; the first record is kept.

        An identical re-record changes nothing, and one with a different
        digest raises :class:`UnitDigestMismatch` — unless the stored
        row fails verification, which quarantines it for the new one.
        """
        text = _canonical(payload)
        with self.transaction() as conn:
            row = conn.execute(
                "SELECT payload, payload_digest FROM results WHERE unit_key=?",
                (key,),
            ).fetchone()
            if row is not None:
                if row["payload"] == text:
                    return
                if self.verify(key, *row) is not None:
                    raise UnitDigestMismatch(
                        f"unit {key} re-recorded with digest "
                        f"{_text_digest(text)} but the store holds "
                        f"{row[1]} — non-deterministic execution"
                    )
            conn.execute(
                "INSERT INTO results (unit_key, payload, payload_digest) "
                "VALUES (?, ?, ?)",
                (key, text, _text_digest(text)),
            )

    def quarantine(self, key: str, text: str, reason: str) -> None:
        """Move the row under ``key`` to the quarantine table — only
        while it still holds ``text``: a reader that found it bad must
        not move a sound row stored since.  Read-only stores count it.
        """
        if not self.readonly:
            with self.transaction() as conn:
                conn.execute(
                    "INSERT INTO quarantine SELECT unit_key, payload, "
                    "payload_digest, ?, ? FROM results "
                    "WHERE unit_key=? AND payload=?",
                    (reason, time.time(), key, text),
                )
                if not conn.execute(
                    "DELETE FROM results WHERE unit_key=? AND payload=?",
                    (key, text),
                ).rowcount:
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
