"""Perf regression harness for the event kernel and the run-unit path.

Four measurements seed the repo's performance trajectory:

* **events/sec** — a self-rescheduling callback chain plus a one-shot
  fan, exercising exactly the heap operations of the simulator's hot
  loop (``call_after``, the kernel's one scheduling call);
* **events/sec, epoch path** — a dense same-cycle fan drained through
  the epoch kernel's batch dispatch, the shape the batched core was
  built for;
* **run-unit seconds** — one end-to-end experiment run unit (hashmap,
  300 transactions, Dolos eager config), the quantum the parallel
  harness fans out;
* **run-unit seconds, batched replay** — the same unit replayed from a
  pre-packed column trace (what sweeps actually execute once the trace
  cache is warm), isolating simulation cost from trace generation.

Run modes:

* ``pytest benchmarks/test_perf_kernel.py`` — report-only: prints the
  numbers and asserts only a loose sanity floor so CI never flakes on
  machine speed.
* ``python benchmarks/test_perf_kernel.py`` (or ``make bench-perf``) —
  writes ``BENCH_kernel.json`` at the repo root.
"""

import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import eager_config  # noqa: E402
from repro.cpu.trace_io import PackedTrace  # noqa: E402
from repro.engine import Simulator  # noqa: E402
from repro.harness.runner import run_trace, run_workload  # noqa: E402
from repro.workloads import generate_trace  # noqa: E402

#: Events per microbench round.
CHAIN_EVENTS = 100_000
FAN_EVENTS = 50_000
EPOCH_FAN_PER_CYCLE = 64
EPOCH_CYCLES = 1_500
RUN_TRANSACTIONS = 300


def bench_events_per_sec() -> float:
    """Fire a rescheduling chain + a one-shot fan; return events/sec."""
    sim = Simulator()
    remaining = [CHAIN_EVENTS]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.call_after(1, tick)

    sim.call_after(1, tick)
    for i in range(FAN_EVENTS):
        sim.call_after(i % 97, _noop)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return sim.events_fired / elapsed


def _noop() -> None:
    pass


def bench_events_per_sec_epoch() -> float:
    """Drain dense same-cycle fans through the epoch batch dispatch.

    A pacer reschedules itself every cycle and fans
    ``EPOCH_FAN_PER_CYCLE`` one-shot events at the *next* cycle, so the
    heap stays small (real runs cluster, they don't pre-queue) while
    every drained epoch is a full batch.
    """
    sim = Simulator()
    call_after = sim.call_after
    remaining = [EPOCH_CYCLES]

    def pace():
        remaining[0] -= 1
        if remaining[0] > 0:
            call_after(1, pace)
        for _ in range(EPOCH_FAN_PER_CYCLE):
            call_after(1, _noop)

    call_after(1, pace)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return sim.events_fired / elapsed


def bench_run_unit_seconds() -> float:
    """Wall-clock of one end-to-end run unit (trace gen + simulation)."""
    started = time.perf_counter()
    run_workload(eager_config(), "hashmap", transactions=RUN_TRANSACTIONS, seed=1)
    return time.perf_counter() - started


def bench_run_unit_seconds_batched() -> float:
    """Wall-clock of one run unit replayed from packed columns.

    The trace is generated and packed outside the timed region — this
    is the steady-state cost of a sweep unit once the trace cache is
    warm, with trace generation amortised away.
    """
    config = eager_config()
    packed = PackedTrace.from_trace(
        generate_trace("hashmap", RUN_TRANSACTIONS, config.transaction_size, 1)
    )
    started = time.perf_counter()
    run_trace(config, packed, "hashmap", RUN_TRANSACTIONS)
    return time.perf_counter() - started


def collect() -> dict:
    return {
        "bench": "kernel",
        "events_per_sec_fast": round(bench_events_per_sec()),
        "events_per_sec_epoch": round(bench_events_per_sec_epoch()),
        "run_unit_transactions": RUN_TRANSACTIONS,
        "run_unit_seconds": round(bench_run_unit_seconds(), 4),
        "run_unit_seconds_batched": round(bench_run_unit_seconds_batched(), 4),
        "python": sys.version.split()[0],
    }


# ----------------------------------------------------------------------
# pytest entry points (report-only)
# ----------------------------------------------------------------------
def test_kernel_events_per_sec():
    rate = bench_events_per_sec()
    print(f"\nkernel fast path: {rate:,.0f} events/sec")
    # Sanity floor only — an order of magnitude below any machine we
    # target, so CI reports the number without flaking on speed.
    assert rate > 10_000


def test_kernel_events_per_sec_epoch():
    rate = bench_events_per_sec_epoch()
    print(f"\nkernel epoch path: {rate:,.0f} events/sec")
    assert rate > 10_000


def test_run_unit_seconds():
    elapsed = bench_run_unit_seconds()
    print(f"\nrun unit ({RUN_TRANSACTIONS} txns): {elapsed:.3f}s")
    assert elapsed < 120.0


def test_run_unit_seconds_batched():
    elapsed = bench_run_unit_seconds_batched()
    print(f"\nrun unit batched ({RUN_TRANSACTIONS} txns): {elapsed:.3f}s")
    assert elapsed < 120.0


def main() -> int:
    payload = collect()
    out = REPO_ROOT / "BENCH_kernel.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"[wrote {out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
