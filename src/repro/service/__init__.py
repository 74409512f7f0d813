"""The experiment service: a long-lived front-end for the harness.

Every other entry point in this repository is a one-shot CLI — it
cold-starts a pool, runs, and exits, so concurrent users re-simulate
identical configurations.  ``repro.service`` turns the harness into a
request-serving system with the queueing/backpressure shape of an
inference frontend:

* :mod:`repro.service.protocol` — the JSON-lines wire protocol, job
  specs, job keys (the unit-memo key of the job's run unit, which the
  FleetDB also records), and result payload digests;
* :mod:`repro.service.scheduler` — dedup of identical
  in-flight/completed jobs by that key, replay at admission from the
  unit memo (:class:`repro.harness.memo.UnitMemo` — the one result
  cache every run path shares), dispatch at admission onto a worker
  thread or a long-lived process pool
  (:func:`repro.harness.parallel.process_pool`), and drain-on-shutdown;
* :mod:`repro.service.server` — the asyncio server (loopback TCP +
  Unix socket), per-client token-bucket rate limiting, bounded event
  queues (fixed limits, module constants), graceful SIGTERM drain;
* :mod:`repro.service.client` — a blocking JSON-lines client used by
  ``python -m repro.harness submit`` and the test suite;
* :mod:`repro.service.smoke` — the end-to-end smoke: a server started
  the way the fleet starts its workers, concurrent clients, the
  controller matrix, bit-identical-to-direct-run comparison, and the
  drain check (CI's ``service-smoke`` job).

Start a server with ``python -m repro.harness serve``; submit with
``python -m repro.harness submit``.  See docs/performance.md.
"""

from repro.service.protocol import (
    PROTOCOL_VERSION,
    JobSpec,
    ProtocolError,
    job_key,
    resolve_config,
    result_digest,
    result_payload,
)
from repro.service.scheduler import ExperimentScheduler, Job, JobStatus
from repro.service.server import ExperimentServer

__all__ = [
    "ExperimentScheduler",
    "ExperimentServer",
    "Job",
    "JobSpec",
    "JobStatus",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "job_key",
    "resolve_config",
    "result_digest",
    "result_payload",
]
