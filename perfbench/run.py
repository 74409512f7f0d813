"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-write --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``
for what every metric means and which end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("sweep-write", "sweep-read", "service-resubmit", "fleet-campaign")

#: Fresh setups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: ``PYTHONHASHSEED`` of the benchmark process and every process it starts.
HASH_SEED = "0"

E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "sim_kinst_per_s": "kinst/s",
    "peak_rss_mb": "MB",
}


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def configure_environment(work: Path) -> dict:
    """Point every cache at fresh directories inside the checkout.

    Returns the environment for subprocesses; this process keeps its
    own cache directories so direct reference runs never read what a
    server wrote.
    """
    src = str(ROOT / "src")
    local, server = work / "local", work / "server"
    for path in (local, server, work / "tmp", work / "xdg"):
        path.mkdir(parents=True, exist_ok=True)
    common = {
        "PYTHONPATH": src,
        "TMPDIR": str(work / "tmp"),
        "XDG_CACHE_HOME": str(work / "xdg"),
        "REPRO_JOBS": "1",
        # The FleetDB asks git for the commit; keep git inside the checkout.
        "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
    }
    os.environ.update(common)
    # A fleet worker stopped right after its client said ``bye`` can
    # stall in the server's drain until the dispatcher kills it; every
    # unit is recorded by then, so wait 2 s for it instead of 10.
    os.environ["REPRO_FLEET_STOP_TIMEOUT"] = "2"
    os.environ.update(
        {
            "REPRO_TRACE_CACHE": str(local / "traces"),
            "REPRO_UNIT_MEMO": str(local / "units"),
            "REPRO_RESULT_CACHE": str(local / "results"),
            "REPRO_FLEET_DB": str(local / "fleet.sqlite"),
        }
    )
    env = dict(os.environ)
    env.update(
        {
            "REPRO_TRACE_CACHE": str(server / "traces"),
            "REPRO_UNIT_MEMO": str(server / "units"),
            "REPRO_RESULT_CACHE": str(server / "results"),
            "REPRO_FLEET_DB": str(server / "fleet.sqlite"),
        }
    )
    return env


def provenance() -> dict:
    from repro.harness.memo import model_fingerprint
    from repro.workloads import GENERATOR_VERSION

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "generator_version": GENERATOR_VERSION,
        "model_fingerprint": model_fingerprint(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(workload, ctx, seconds: float):
    """The end-to-end metrics of one untraced run.

    A shared host can run the same operation at half speed for seconds
    or minutes at a time.  Every round runs the same operations, so
    each operation is timed by its fastest round, and the throughputs
    divide one round's work by the sum of those fastest times.  All
    host times are then scaled to the reference host speed by the
    fastest host-speed probe of the run (:mod:`hostspeed`).
    """
    import hostspeed
    from workloads import measure

    setups = [workload.setup(ctx) for _ in range(SETUP_SAMPLES)]
    out = measure(workload, ctx, seconds=seconds)
    if not out.best:
        raise RuntimeError("no operation completed")
    scale = hostspeed.REFERENCE_S / min(out.probes)
    best = [seconds * scale for seconds in out.best.values()]
    best_round = sum(best) + scale * sum(out.best_steps.values())
    return {
        "setup_s": scale * statistics.median(setups),
        "op_ms_p50": 1000.0 * statistics.median(best),
        "op_ms_p90": 1000.0 * percentile(best, 0.90),
        "ops_per_s": len(best) / best_round,
        "sim_kinst_per_s": statistics.median(out.round_instructions) / 1000.0 / best_round,
        "peak_rss_mb": peak_rss_mb(),
    }, {
        "ops_per_round": len(best),
        "rounds": out.rounds,
        "host_scale": scale,
        "setup_s_unscaled": statistics.median(setups),
        "op_ms_p50_unscaled_all_rounds": 1000.0 * statistics.median(out.op_seconds),
        **out.layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is salted per process, which moves the
        # simulator's speed by several percent from one run to the
        # next; run every process of the benchmark with one salt.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])

    os.chdir(ROOT)
    work = Path(".perfbench-work") / str(os.getpid())
    server_env = configure_environment(work)
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        result, notes = run(args, work, server_env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in notes.items():
        print(f"# {name}: {value}")
    print(json.dumps(result))
    return 0


def run(args, work: Path, server_env: dict):
    from checks import Checker, load_reference
    from workloads import WORKLOADS, Context

    checker = Checker(load_reference(args.seed))
    ctx = Context(seed=args.seed, checker=checker, work=work, server_env=server_env)
    workload = WORKLOADS[args.workload]
    if args.trace:
        from traced import PER_LAYER_UNITS as units
        from traced import traced_metrics

        values, notes = traced_metrics(workload, ctx, args.seconds)
    else:
        values, notes = end_to_end(workload, ctx, args.seconds)
        units = E2E_UNITS
    notes = {
        **notes,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "fail_ratio": checker.failed / max(1, checker.attempted),
        "reference_digests_checked": checker.reference_checked,
        "provenance": json.dumps(provenance(), sort_keys=True),
    }
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    return result, notes


if __name__ == "__main__":
    sys.exit(main())
