"""End-to-end service smoke: the CI acceptance check for the server.

``python -m repro.service.smoke`` exercises the whole serving path
against a real server subprocess:

1. **Matrix under concurrency** — N concurrent clients (threads; one
   on the Unix socket, the rest on loopback TCP) each submit the full
   controller matrix for the same (workload, transactions, seed).
   Every result must be **bit-identical** to a direct in-process
   :func:`repro.harness.parallel.execute_unit` run of the same unit,
   and the server must report a dedup hit-rate > 0 on the
   duplicate-heavy mix.
2. **Graceful drain** — a fresh client submits jobs, waits until the
   server *accepted* them, then SIGTERMs the server.  Every accepted
   job's result must still arrive, and the server must exit 0.

Exits non-zero on any violation; ``--report`` writes a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List

from repro.fleet.dispatcher import WORKER_STOP_TIMEOUT, ServiceWorker
from repro.harness.parallel import execute_unit
from repro.harness.trace_store import TraceCache
from repro.oracle.check import CONTROLLER_MATRIX
from repro.service.client import ServiceClient
from repro.service.protocol import (
    JobSpec,
    result_digest,
    result_payload,
    spec_to_run_unit,
)


def _matrix_specs(workload: str, transactions: int, seed: int) -> List[JobSpec]:
    return [
        JobSpec(
            workload=workload,
            design=design,
            transactions=transactions,
            seed=seed,
            experiment_id="smoke",
        ).validate()
        for design in CONTROLLER_MATRIX
    ]


def _direct_payloads(specs: List[JobSpec], cache_dir=None) -> Dict[str, dict]:
    """Ground truth: run every unique job in-process."""
    cache = TraceCache(cache_dir)
    payloads = {}
    for spec in specs:
        unit = spec_to_run_unit(spec)
        payloads[spec.design] = result_payload(execute_unit(unit, cache))
    return payloads


def run_smoke(
    workload: str = "hashmap",
    transactions: int = 40,
    seed: int = 1,
    clients: int = 4,
    jobs: int = 2,
) -> dict:
    """Run both smoke phases; returns the report dict (raises on failure)."""
    report: dict = {
        "workload": workload,
        "transactions": transactions,
        "clients": clients,
        "jobs": jobs,
        "failures": [],
    }
    specs = _matrix_specs(workload, transactions, seed)
    with tempfile.TemporaryDirectory(prefix="dolos-smoke-") as tmpdir:
        tmp = Path(tmpdir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [str(Path(__file__).resolve().parents[2]),
                        env.get("PYTHONPATH", "")] if p
        )
        # Hermetic caches: the server must not replay results produced
        # by earlier runs — dedup must come from *this* job mix.
        env["REPRO_TRACE_CACHE"] = str(tmp / "traces")
        env["REPRO_UNIT_MEMO"] = str(tmp / "memo.sqlite")

        direct = _direct_payloads(specs, cache_dir=tmp / "traces")

        # -- phase 1: concurrent duplicate-heavy matrix ----------------
        server = ServiceWorker("smoke", tmp, jobs=jobs, env=env)
        server.start()
        tcp = (server.endpoints["host"], server.endpoints["port"])
        unix = server.endpoints["unix"]
        try:
            results: List[List[dict]] = [None] * clients  # type: ignore
            errors: List[str] = []

            def one_client(index: int) -> None:
                address = unix if (index == 0 and unix) else tcp
                try:
                    with ServiceClient(address) as client:
                        results[index] = client.submit_many(specs)
                except Exception as exc:
                    errors.append(
                        f"client {index}: {type(exc).__name__}: {exc}"
                    )

            threads = [
                threading.Thread(target=one_client, args=(i,))
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                report["failures"].extend(errors)

            with ServiceClient(tcp) as probe:
                stats = probe.stats()
            report["stats"] = {
                k: stats[k]
                for k in ("submitted", "unique_jobs", "completed",
                          "dedup_hits", "dedup_hit_rate")
            }

            mismatches = 0
            for index, frames in enumerate(results):
                if frames is None:
                    continue
                for spec, frame in zip(specs, frames):
                    payload = frame["payload"]
                    if payload != direct[spec.design]:
                        mismatches += 1
                        report["failures"].append(
                            f"client {index} {spec.design}: payload differs "
                            "from direct run"
                        )
                    if frame["digest"] != result_digest(direct[spec.design]):
                        mismatches += 1
                        report["failures"].append(
                            f"client {index} {spec.design}: digest mismatch"
                        )
            report["bit_identical"] = mismatches == 0
            if stats["dedup_hits"] <= 0:
                report["failures"].append(
                    "expected dedup hits > 0 on the duplicate mix"
                )

            # -- phase 2: SIGTERM drain --------------------------------
            drain_specs = _matrix_specs(workload, transactions, seed + 1)
            drain_client = ServiceClient(tcp)
            ids = [drain_client.post(spec) for spec in drain_specs]
            accepted = 0
            while accepted < len(ids):
                frame = drain_client.read()
                if frame.get("type") == "accepted":
                    accepted += 1
            server.process.send_signal(signal.SIGTERM)
            frames = drain_client.collect(ids)
            drain_direct = _direct_payloads(
                drain_specs, cache_dir=tmp / "traces"
            )
            lost = [
                request_id
                for request_id, frame in frames.items()
                if frame.get("type") != "result"
            ]
            if lost:
                report["failures"].append(
                    f"accepted jobs lost in drain: {sorted(lost)}"
                )
            for spec, request_id in zip(drain_specs, ids):
                frame = frames.get(request_id, {})
                if (
                    frame.get("type") == "result"
                    and frame["payload"] != drain_direct[spec.design]
                ):
                    report["failures"].append(
                        f"drain result for {spec.design} differs from "
                        "direct run"
                    )
            drain_client.close()
            code = server.process.wait(timeout=WORKER_STOP_TIMEOUT)
            report["server_exit"] = code
            if code != 0:
                report["failures"].append(f"server exited {code} after drain")
        finally:
            server.kill()  # a no-op once the drain let it exit
    report["passed"] = not report["failures"]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.smoke",
        description="End-to-end experiment-service smoke "
        "(concurrent matrix + graceful-drain check).",
    )
    parser.add_argument("--workload", default="hashmap")
    parser.add_argument("--transactions", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--report", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    report = run_smoke(
        workload=args.workload,
        transactions=args.transactions,
        seed=args.seed,
        clients=args.clients,
        jobs=args.jobs,
    )
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True))
    stats = report.get("stats", {})
    print(
        f"[smoke] {args.clients} clients x {len(CONTROLLER_MATRIX)} configs: "
        f"{stats.get('submitted', 0)} submitted, "
        f"{stats.get('unique_jobs', 0)} unique, "
        f"dedup hit-rate {stats.get('dedup_hit_rate', 0.0):.2f}, "
        f"bit-identical={report.get('bit_identical')}, "
        f"drain exit={report.get('server_exit')}"
    )
    for failure in report["failures"]:
        print(f"[smoke][FAIL] {failure}", file=sys.stderr)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
