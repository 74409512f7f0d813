"""``python -m repro.harness trace`` — per-stage persist latency.

Runs one workload under every controller configuration of
:mod:`repro.matrix` with a span tracer attached, prints each
configuration's per-stage p50/p95/p99 table, reconciles every run's
traced fence-stall cycles against the cycle-breakdown's total, and
writes the span logs of the ``--config`` selection (default: all) as
JSONL.

Exit status is non-zero when any configuration fails reconciliation —
CI uses this as the tracing-pipeline smoke test.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.harness.tables import render_table


def _normalize(label: str) -> str:
    """CLI convenience: accept ``dolos_full`` for ``dolos-full``."""
    return label.replace("_", "-")


def main(argv: Optional[List[str]] = None) -> int:
    from repro.harness.export import write_spans_jsonl
    from repro.oracle.check import controller_matrix
    from repro.tracing.report import (
        DEFAULT_ABSOLUTE_SLACK,
        DEFAULT_RELATIVE_SLACK,
        reconcile,
        render_stage_table,
        run_traced,
    )
    from repro.workloads import generate_trace

    matrix = controller_matrix()
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description="Trace per-write persist spans across the "
        "controller matrix and report per-stage latency.",
    )
    parser.add_argument("workload", help="workload name (e.g. hashmap)")
    parser.add_argument(
        "--config",
        action="append",
        metavar="NAME",
        help="configuration(s) whose span log to write as JSONL "
        f"(default: all; choices: {', '.join(sorted(matrix))}; "
        "underscores accepted)",
    )
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        default="results/trace",
        metavar="DIR",
        help="directory for <workload>-<config>.spans.jsonl "
        "(default results/trace)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=100 * DEFAULT_RELATIVE_SLACK,
        metavar="PCT",
        help="relative reconciliation slack in percent "
        f"(default {100 * DEFAULT_RELATIVE_SLACK:g}; a "
        f"{DEFAULT_ABSOLUTE_SLACK}-cycle absolute floor always applies)",
    )
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        help="event-log bound for the tracer (default sized for "
        "paper-scale runs)",
    )
    args = parser.parse_args(argv)

    selected = {_normalize(c) for c in args.config} if args.config else set(matrix)
    unknown = selected - set(matrix)
    if unknown:
        parser.error(
            f"unknown config(s) {sorted(unknown)}; "
            f"choose from {sorted(matrix)}"
        )

    summary_rows = []
    written: List[Path] = []
    failed = False
    for label, config in matrix.items():
        trace = generate_trace(
            args.workload, args.transactions, config.transaction_size,
            args.seed,
        )
        kwargs = {}
        if args.max_events is not None:
            kwargs["max_events"] = args.max_events
        run = run_traced(
            config, trace, workload=args.workload,
            transactions=args.transactions, **kwargs,
        )
        outcome = reconcile(
            run.tracer, run.breakdown, relative_slack=args.slack / 100
        )
        print(render_stage_table(label, run.spans))
        print()
        if label in selected:
            path = (
                Path(args.out)
                / f"{args.workload}-{label}.spans.jsonl"
            )
            written.append(write_spans_jsonl(run.spans, path))
        summary_rows.append([
            label,
            len(run.spans),
            sum(s.coalesced for s in run.spans),
            outcome.tracer_fence_cycles,
            outcome.breakdown_fence_cycles,
            outcome.outstanding_union_cycles,
            "ok" if outcome.passed else "FAIL",
        ])
        if not outcome.passed:
            failed = True
            for failure in outcome.failures:
                print(f"[{label}] reconciliation: {failure}", file=sys.stderr)

    print(render_table(
        ["configuration", "spans", "folds", "fence(trace)",
         "fence(breakdown)", "outstanding", "reconcile"],
        summary_rows,
        title=f"{args.workload}: span trace vs breakdown "
        f"({args.transactions} tx, seed {args.seed})",
    ))
    for path in written:
        print(f"[wrote {path}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
