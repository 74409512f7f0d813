"""Wire protocol of the experiment service.

**Framing** — newline-delimited JSON objects (one message per line,
UTF-8, ``\\n`` terminated, 1 MiB line bound).  Every message carries a
``type``; requests carry a client-chosen ``id`` echoed on every reply
so one connection can multiplex jobs.

Client -> server::

    {"type": "submit", "id": "r1", "job": {...JobSpec...}}
    {"type": "stats"}              # scheduler/dedup counters
    {"type": "ping"}
    {"type": "health"}             # supervision heartbeat (fleet)
    {"type": "bye"}                # polite close

Server -> client::

    {"type": "hello", "version": 1, ...}
    {"type": "accepted", "id": "r1", "key": "...", "dedup": "new|inflight|cached",
     "state": "running|done|failed"}
    {"type": "result", "id": "r1", "key": "...", "payload": {...},
     "digest": "...", "cached": false}
    {"type": "error", "id": "r1", "code": "...", "message": "..."}
    {"type": "stats", ...} / {"type": "pong"} / {"type": "draining"}
    {"type": "health", "status": "ok", "uptime_s": ..., "in_flight": ...}

The ``health`` frame is the fleet supervision heartbeat: a cheap
liveness probe (no event-log snapshot, unlike ``stats``) that the
dispatcher's :class:`~repro.fleet.supervisor.HeartbeatMonitor` sends on
a dedicated connection.  A worker that stops answering within the
staleness window is declared hung — SIGSTOP'd, deadlocked, or
livelocked processes all look the same from outside — and is killed
for the normal re-dispatch machinery to absorb.

**Job identity** — :func:`job_key` content-hashes the simulation-
relevant fields of a :class:`JobSpec` exactly the way
:meth:`repro.harness.trace_store.TraceStore.digest` keys traces:
canonical sorted-key JSON, SHA-256, 24-hex truncation, with the trace
``GENERATOR_VERSION`` folded in so a workload-generator bump
invalidates service results and disk traces in lockstep.  The client
label ``experiment_id`` is deliberately *not* hashed: two users asking
for the same simulation under different labels share one execution.

**Result integrity** — :func:`~repro.harness.runner.result_payload`
(re-exported here, as is its inverse ``payload_to_result``) serialises
a :class:`~repro.harness.runner.RunResult` to a plain dict and
:func:`result_digest` fingerprints its canonical JSON; the digest
travels with every ``result`` message and is what the golden suite and
the smoke compare bit-for-bit against direct in-process runs.

**Units** — :func:`spec_to_run_unit` maps a job to the
:class:`~repro.harness.parallel.RunUnit` it runs; the service scheduler
and the fleet both use it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from repro.config import ADRConfig, SimConfig
from repro.harness.parallel import RunUnit
# The payload codec lives beside RunResult; wire users import it here.
from repro.harness.runner import payload_to_result, result_payload  # noqa: F401
from repro.oracle.check import controller_matrix
from repro.workloads import ALL_WORKLOADS, GENERATOR_VERSION, ORACLE_SEMANTICS

PROTOCOL_VERSION = 1

#: Job execution modes.  ``run`` is the classic simulation unit
#: (:class:`RunResult` payload); ``faults`` runs the seeded
#: fault-injection campaign for one (workload, design) unit and
#: returns its detected/tolerated/silent classification payload
#: (see :func:`repro.faults.campaign.fault_unit_payload`); ``scenario``
#: runs the workload under an open-loop arrival process
#: (:mod:`repro.scenarios`) and returns the sojourn/queueing payload of
#: :func:`repro.scenarios.loadcurve.run_scenario`.
JOB_MODES = ("run", "faults", "scenario")

#: Keys a ``scenario`` job's descriptor may carry, with coercers
#: (same whitelist philosophy as ``overrides``).
_SCENARIO_COERCERS = {
    "arrivals": str,
    "rate": float,
    "skew": float,
    "burst": float,
    "dwell": int,
    "adversary": str,
    "adversary_rate": float,
}

#: Newline-framed JSON lines are bounded to keep a hostile or buggy
#: client from ballooning server memory.
MAX_LINE_BYTES = 1 << 20

#: Override keys a job may set, with their validators/coercers.  Kept
#: to a whitelist so the hash-relevant surface is explicit — anything
#: else in ``overrides`` is a protocol error, not a silent ignore.
_OVERRIDE_COERCERS = {
    "transaction_size": int,
    "adr_budget": int,
    "wpq_coalescing": bool,
    "persist_model": str,
}


class ProtocolError(ValueError):
    """A malformed, oversized, or semantically invalid message."""


@dataclass(frozen=True)
class JobSpec:
    """One experiment job: the unit of submission and dedup.

    ``design`` names a column of the shared eight-config controller
    matrix (``dolos-full``, ``dolos-partial``, ``dolos-post``,
    ``prewpq-eager``, ``prewpq-lazy``, ``eadr``, ``triad``,
    ``writethrough`` — see :mod:`repro.matrix`); ``overrides`` tweaks
    the whitelisted :class:`~repro.config.SimConfig` knobs.
    ``experiment_id`` is a client-side label (recorded in the
    ``job.submitted`` event, excluded from the job hash).
    """

    workload: str
    design: str
    transactions: int
    seed: int
    experiment_id: str = ""
    overrides: Mapping[str, object] = field(default_factory=dict)
    #: ``run`` (default), ``faults`` or ``scenario`` — :data:`JOB_MODES`.
    mode: str = "run"
    #: Interior crash sites per fault unit (``faults`` mode only).
    fault_sites: int = 2
    #: Arrival-process descriptor (``scenario`` mode only): the
    #: whitelisted keys of :data:`_SCENARIO_COERCERS`; ``rate`` is
    #: mandatory.
    scenario: Mapping[str, object] = field(default_factory=dict)

    def validate(self) -> "JobSpec":
        # Hostile-wire guard: every field must have the right *type*
        # before it is used in a membership test or comparison — a
        # JSON payload can put an unhashable dict where a workload
        # name belongs, which would turn ``x in set`` into a
        # TypeError that escapes as an unhandled server exception.
        if not isinstance(self.workload, str):
            raise ProtocolError("workload must be a string")
        if not isinstance(self.design, str):
            raise ProtocolError("design must be a string")
        if not isinstance(self.mode, str):
            raise ProtocolError("mode must be a string")
        if not isinstance(self.overrides, Mapping):
            raise ProtocolError("overrides must be an object")
        if self.mode not in JOB_MODES:
            raise ProtocolError(
                f"unknown mode {self.mode!r}; choose from {JOB_MODES}"
            )
        if self.mode == "faults":
            if self.workload not in ORACLE_SEMANTICS:
                raise ProtocolError(
                    f"workload {self.workload!r} has no oracle semantics "
                    f"(fault units need one); choose from "
                    f"{sorted(ORACLE_SEMANTICS)}"
                )
            if (
                not isinstance(self.fault_sites, int)
                or isinstance(self.fault_sites, bool)
                or self.fault_sites <= 0
            ):
                raise ProtocolError("fault_sites must be a positive integer")
        if self.mode == "scenario":
            if not isinstance(self.scenario, Mapping):
                raise ProtocolError("scenario must be an object")
            scenario = dict(self.scenario)
            for key, value in scenario.items():
                coerce = _SCENARIO_COERCERS.get(key)
                if coerce is None:
                    raise ProtocolError(
                        f"unknown scenario key {key!r}; "
                        f"choose from {sorted(_SCENARIO_COERCERS)}"
                    )
                try:
                    coerce(value)
                except (TypeError, ValueError):
                    raise ProtocolError(
                        f"scenario key {key!r} has invalid value {value!r}"
                    ) from None
            try:
                rate = float(scenario.get("rate", 0))
            except (TypeError, ValueError):
                rate = 0.0
            if rate <= 0.0:
                raise ProtocolError(
                    "scenario jobs need a positive 'rate' (tx/kcycle)"
                )
            if str(scenario.get("arrivals", "poisson")) not in (
                "poisson",
                "mmpp",
            ):
                raise ProtocolError(
                    "scenario 'arrivals' must be 'poisson' or 'mmpp'"
                )
            adversary = scenario.get("adversary")
            if adversary is not None:
                from repro.scenarios.adversarial import ADVERSARIES

                if adversary not in ADVERSARIES:
                    raise ProtocolError(
                        f"unknown adversary {adversary!r}; choose from "
                        f"{sorted(ADVERSARIES)}"
                    )
        if self.workload not in ALL_WORKLOADS:
            raise ProtocolError(
                f"unknown workload {self.workload!r}; "
                f"choose from {sorted(ALL_WORKLOADS)}"
            )
        if self.design not in controller_matrix():
            raise ProtocolError(
                f"unknown design {self.design!r}; "
                f"choose from {sorted(controller_matrix())}"
            )
        if (
            not isinstance(self.transactions, int)
            or isinstance(self.transactions, bool)
            or self.transactions <= 0
        ):
            raise ProtocolError("transactions must be a positive integer")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ProtocolError("seed must be an integer")
        for key, value in dict(self.overrides).items():
            coerce = _OVERRIDE_COERCERS.get(key)
            if coerce is None:
                raise ProtocolError(
                    f"unknown override {key!r}; "
                    f"choose from {sorted(_OVERRIDE_COERCERS)}"
                )
            try:
                coerce(value)
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"override {key!r} has invalid value {value!r}"
                ) from None
        return self

    # -- wire form -------------------------------------------------------
    def to_wire(self) -> Dict[str, object]:
        wire = {
            "workload": self.workload,
            "design": self.design,
            "transactions": self.transactions,
            "seed": self.seed,
            "experiment_id": self.experiment_id,
            "overrides": dict(self.overrides),
        }
        if self.mode != "run":
            wire["mode"] = self.mode
            wire["fault_sites"] = self.fault_sites
        if self.mode == "scenario":
            wire["scenario"] = dict(self.scenario)
        return wire

    @classmethod
    def from_wire(cls, data: Mapping[str, object]) -> "JobSpec":
        if not isinstance(data, Mapping):
            raise ProtocolError("job must be an object")
        overrides = data.get("overrides", {}) or {}
        if not isinstance(overrides, Mapping):
            raise ProtocolError("overrides must be an object")
        try:
            spec = cls(
                workload=data["workload"],
                design=data["design"],
                transactions=data["transactions"],
                seed=data["seed"],
                experiment_id=str(data.get("experiment_id", "")),
                overrides=dict(overrides),
                mode=str(data.get("mode", "run")),
                fault_sites=data.get("fault_sites", 2),
                scenario=dict(data.get("scenario", {}) or {}),
            )
        except KeyError as exc:
            raise ProtocolError(f"job missing field {exc.args[0]!r}") from None
        return spec.validate()


def parse_overrides(pairs: Iterable[str]) -> Dict[str, object]:
    """``KEY=VALUE`` strings (the CLIs' ``--override``) as overrides.

    ``true``/``false`` (any case) become bools, integers ints, anything
    else stays a string; :meth:`JobSpec.validate` checks keys and types.
    """
    overrides: Dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ProtocolError(f"--override expects key=value, got {pair!r}")
        if value.lower() in ("true", "false"):
            overrides[key] = value.lower() == "true"
            continue
        try:
            overrides[key] = int(value)
        except ValueError:
            overrides[key] = value
    return overrides


# ----------------------------------------------------------------------
# Job identity
# ----------------------------------------------------------------------
def canonical_job(spec: JobSpec) -> Dict[str, object]:
    """The hash-relevant identity of ``spec`` (label excluded).

    ``mode``/``fault_sites`` are folded in only for non-default modes,
    so every pre-existing ``run`` job keeps its historical key and the
    persistent result caches stay valid across the protocol extension.
    """
    canonical = {
        "workload": spec.workload,
        "design": spec.design,
        "transactions": spec.transactions,
        "seed": spec.seed,
        "overrides": {k: spec.overrides[k] for k in sorted(spec.overrides)},
        "generator_version": GENERATOR_VERSION,
        "protocol_version": PROTOCOL_VERSION,
    }
    if spec.mode != "run":
        canonical["mode"] = spec.mode
    if spec.mode == "faults":
        canonical["fault_sites"] = spec.fault_sites
    if spec.mode == "scenario":
        canonical["scenario"] = {
            key: spec.scenario[key] for key in sorted(spec.scenario)
        }
    return canonical


def job_key(spec: JobSpec) -> str:
    """Stable content digest of ``spec`` (TraceStore-style)."""
    material = json.dumps(canonical_job(spec), sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]


def resolve_config(spec: JobSpec) -> SimConfig:
    """Build the :class:`SimConfig` a job runs under."""
    config = controller_matrix()[spec.design]
    changes: Dict[str, object] = {}
    overrides = dict(spec.overrides)
    if "transaction_size" in overrides:
        changes["transaction_size"] = int(overrides["transaction_size"])
    if "adr_budget" in overrides:
        changes["adr"] = ADRConfig(budget_entries=int(overrides["adr_budget"]))
    if "wpq_coalescing" in overrides:
        changes["wpq_coalescing"] = bool(overrides["wpq_coalescing"])
    if "persist_model" in overrides:
        changes["core"] = dataclasses.replace(
            config.core, persist_model=str(overrides["persist_model"])
        )
    if changes:
        config = config.with_(**changes)
    return config


def spec_to_run_unit(spec: JobSpec) -> RunUnit:
    """The in-process :class:`RunUnit` equivalent of a wire job."""
    return RunUnit(
        spec.workload,
        resolve_config(spec),
        spec.transactions,
        spec.seed,
        mode=spec.mode,
        fault_sites=spec.fault_sites if spec.mode == "faults" else 0,
        scenario=(
            tuple(sorted(dict(spec.scenario).items()))
            if spec.mode == "scenario"
            else ()
        ),
    )


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------
def result_digest(payload: Mapping[str, object]) -> str:
    """Fingerprint of a result payload's canonical JSON."""
    material = json.dumps(dict(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_message(message: Mapping[str, object]) -> bytes:
    """One wire frame: compact JSON + newline."""
    line = json.dumps(dict(message), sort_keys=True, separators=(",", ":"))
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    return data


def decode_message(line: bytes) -> Dict[str, object]:
    """Parse one frame; raises :class:`ProtocolError` on garbage.

    Hostile bytes never escape as anything else: invalid UTF-8 and
    malformed JSON raise ``JSONDecodeError``/``UnicodeDecodeError``,
    and a deeply-nested-but-under-the-size-bound payload trips the
    JSON scanner's recursion guard (``RecursionError``) — all are
    normalised to :class:`ProtocolError` so a session task can answer
    with a typed ``error`` frame instead of dying.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    except RecursionError:
        raise ProtocolError("message nesting too deep") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("message must be an object with a 'type'")
    return message


def sanitize_request_id(message: Mapping[str, object]):
    """A safe echo of a client-chosen ``id``.

    Ids ride back on every reply; an id that is itself a huge or
    deeply nested structure could blow the reply past the frame bound
    (or re-trip the recursion guard) while *encoding*, killing the
    writer task.  Scalars pass through; anything else is echoed as
    ``None``.
    """
    request_id = message.get("id")
    if isinstance(request_id, (str, int, float, bool, type(None))):
        if isinstance(request_id, str) and len(request_id) > 256:
            return request_id[:256]
        return request_id
    return None
