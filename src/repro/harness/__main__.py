"""CLI front-end: ``python -m repro.harness <experiment> [options]``.

Examples::

    python -m repro.harness list
    python -m repro.harness fig12
    python -m repro.harness tab02 --transactions 1000 --seed 3
    python -m repro.harness all --transactions 200
    python -m repro.harness check --workloads hashmap,btree --jobs 0
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.harness.experiments import (
    DEFAULT_SEED,
    DEFAULT_TRANSACTIONS,
    EXPERIMENTS,
    run_experiment,
)

#: Experiments that take no workload parameters.
STATIC_EXPERIMENTS = {"tab03", "sec55"}

#: Subcommands that are not experiments: name -> (module whose
#: ``main(argv)`` runs it, help text).  Each owns its flag set, so it is
#: dispatched before the experiment parser runs; the module is imported
#: only when its subcommand is.
SUBCOMMANDS = {
    "check": ("repro.oracle.check", "crash oracle"),
    "trace": ("repro.tracing.cli", "persist-span tracing"),
    "faults": ("repro.faults.campaign", "fault-injection campaign"),
    "serve": ("repro.service.server", "experiment service"),
    "submit": ("repro.service.client", "service client"),
    "golden": ("repro.harness.golden", "golden-result gate"),
    "fleet": ("repro.fleet.dispatcher", "distributed campaign dispatcher"),
    "chaos": (
        "repro.chaos.campaign", "fault-injection fleet hardening campaign"
    ),
    "matrix": ("repro.matrix", "print controller-matrix labels"),
    "loadcurve": ("repro.scenarios.cli", "open-loop latency vs offered load"),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        module = importlib.import_module(SUBCOMMANDS[argv[0]][0])
        return module.main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the Dolos paper's tables and figures.",
    )
    subcommands = ", ".join(
        f"'{name}' ({text})" for name, (_, text) in SUBCOMMANDS.items()
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig06, fig12-16, tab02, tab03, sec55, "
        f"motivation), 'all', 'list', {subcommands}; see python -m "
        f"repro.harness {{{','.join(SUBCOMMANDS)}}} --help",
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=DEFAULT_TRANSACTIONS,
        help=f"measured transactions per workload (default {DEFAULT_TRANSACTIONS}; "
        "the paper used 50000)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent run units (default: "
        "$REPRO_JOBS or 1; 0 = all cores).  Output is bit-identical "
        "to serial mode.",
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        help="also write <experiment>.csv and .json into DIR",
    )
    args = parser.parse_args(argv)
    choices = [*EXPERIMENTS, "all", "list"]
    if args.experiment not in choices:
        parser.error(
            f"unknown experiment {args.experiment!r}; choose from {choices}"
        )

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        kwargs = {}
        if name not in STATIC_EXPERIMENTS:
            kwargs = {"transactions": args.transactions, "seed": args.seed}
        started = time.time()
        result = run_experiment(name, jobs=args.jobs, **kwargs)
        print(result.render())
        if args.export:
            from repro.harness.export import write_result

            for path in write_result(result, args.export):
                print(f"[wrote {path}]")
        print(f"[{name} took {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
