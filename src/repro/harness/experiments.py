"""One entry point per paper artifact (figures 6, 12-16; tables 2-3; §5.5).

Every experiment returns an :class:`ExperimentResult` whose rows are
the same rows/series the paper reports; ``render()`` prints them as a
plain-text table.  Traces are generated once per (workload, size, seed)
and shared across the controller configurations being compared, so
every comparison sees an identical instruction stream.

The paper simulates 50 000 transactions per workload in gem5; the
default here is smaller (the workloads are stationary long before
that) and can be raised via ``transactions=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import ControllerKind, MiSUDesign, SimConfig, eager_config, lazy_config
from repro.core.misu import make_misu
from repro.core.registers import PersistentRegisters
from repro.crypto.keys import KeyStore
from repro.harness import parallel as _parallel
from repro.harness.parallel import RunUnit
from repro.harness.runner import RunResult, geomean
from repro.harness.tables import render_table
from repro.harness.trace_store import TraceCache
from repro.recovery.estimate import estimate_recovery
from repro.workloads import WHISPER_WORKLOADS
from repro.wpq.queue import WritePendingQueue

#: Table 2 workload order.
WORKLOADS = list(WHISPER_WORKLOADS)
#: Section 5.2.2 transaction sizes.
TRANSACTION_SIZES = (128, 256, 512, 1024, 2048)
#: Section 5.3 WPQ sizes (ADR budgets; Partial usable sizes 13/28/57/113).
WPQ_BUDGETS = (16, 32, 64, 128)

DESIGNS = (
    MiSUDesign.FULL_WPQ,
    MiSUDesign.PARTIAL_WPQ,
    MiSUDesign.POST_WPQ,
)
DESIGN_LABELS = {
    MiSUDesign.FULL_WPQ: "Full-WPQ-MiSU",
    MiSUDesign.PARTIAL_WPQ: "Partial-WPQ-MiSU",
    MiSUDesign.POST_WPQ: "Post-WPQ-MiSU",
}

#: The designs added beyond the paper's Figure 5 matrix (PR 8): matrix
#: label -> display label.
NEW_DESIGN_LABELS = {
    "triad": "Triad-NVM",
    "writethrough": "Write-Through",
}

DEFAULT_TRANSACTIONS = 300
DEFAULT_SEED = 1


@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure."""

    experiment: str
    title: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    #: Summary values (e.g. average speedups) keyed by label.
    summary: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        out = render_table(self.headers, self.rows, title=self.title)
        if self.summary:
            out += "\n" + "\n".join(
                f"{k}: {v:.3f}" for k, v in self.summary.items()
            )
        if self.notes:
            out += f"\n{self.notes}"
        return out


def _run(
    cache: TraceCache,
    config: SimConfig,
    workload: str,
    transactions: int,
    seed: int,
) -> RunResult:
    """Execute (or, under a parallel executor, record/replay) one run unit.

    Serial execution is :func:`repro.harness.parallel.execute_unit`:
    the unit memo first (identical units are simulated once ever — see
    :mod:`repro.harness.memo`), then packed trace columns from ``cache``.
    """
    unit = RunUnit(workload, config, transactions, seed)
    executor = _parallel.active_executor()
    if executor is not None:
        return executor.run(unit)
    return _parallel.execute_unit(unit, cache)


# ======================================================================
# Motivation (§1/§3): overhead of secure persistence vs the ideal
# ======================================================================
def motivation_overhead(
    transactions: int = DEFAULT_TRANSACTIONS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """§1's claim: ~52% average overhead (up to 61%) for Pre-WPQ-Secure
    vs an ideal where data persists as soon as it leaves the caches."""
    cache = TraceCache()
    result = ExperimentResult(
        "motivation",
        "Secure-persistence overhead vs non-secure ideal",
        ["workload", "ideal cycles", "secure cycles", "slowdown", "overhead %"],
    )
    slowdowns = []
    for workload in WORKLOADS:
        ideal = _run(
            cache,
            eager_config(controller=ControllerKind.NON_SECURE_IDEAL),
            workload,
            transactions,
            seed,
        )
        secure = _run(
            cache,
            eager_config(controller=ControllerKind.PRE_WPQ_SECURE),
            workload,
            transactions,
            seed,
        )
        slowdown = secure.cycles / ideal.cycles
        slowdowns.append(slowdown)
        overhead_pct = (1.0 - ideal.cycles / secure.cycles) * 100.0
        result.rows.append(
            [workload, ideal.cycles, secure.cycles, slowdown, overhead_pct]
        )
    result.summary["mean slowdown"] = sum(slowdowns) / len(slowdowns)
    result.notes = "Paper: 52% average performance overhead, up to 61% (Section 1)."
    return result


# ======================================================================
# Figure 6: CPI, security before vs after the WPQ
# ======================================================================
def fig06_cpi(
    transactions: int = DEFAULT_TRANSACTIONS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    cache = TraceCache()
    result = ExperimentResult(
        "fig06",
        "Figure 6: CPI with security before vs after the WPQ",
        ["workload", "pre-WPQ CPI", "post-WPQ CPI", "slowdown"],
    )
    slowdowns = []
    for workload in WORKLOADS:
        pre = _run(
            cache,
            eager_config(controller=ControllerKind.PRE_WPQ_SECURE),
            workload,
            transactions,
            seed,
        )
        post = _run(
            cache,
            eager_config(controller=ControllerKind.POST_WPQ_HYPOTHETICAL),
            workload,
            transactions,
            seed,
        )
        slowdown = pre.cycles / post.cycles
        slowdowns.append(slowdown)
        result.rows.append([workload, pre.cpi, post.cpi, slowdown])
    result.summary["mean slowdown"] = sum(slowdowns) / len(slowdowns)
    result.notes = "Paper: 2.1x average slowdown when securing before the WPQ."
    return result


# ======================================================================
# Figure 12 / Figure 16: speedup of the three Mi-SU designs
# ======================================================================
def _speedup_experiment(
    experiment: str,
    title: str,
    base_config_factory,
    transactions: int,
    seed: int,
    note: str,
) -> ExperimentResult:
    cache = TraceCache()
    result = ExperimentResult(
        experiment,
        title,
        ["workload"] + [DESIGN_LABELS[d] for d in DESIGNS],
    )
    per_design: Dict[MiSUDesign, List[float]] = {d: [] for d in DESIGNS}
    for workload in WORKLOADS:
        baseline = _run(
            cache,
            base_config_factory(controller=ControllerKind.PRE_WPQ_SECURE),
            workload,
            transactions,
            seed,
        )
        row: List = [workload]
        for design in DESIGNS:
            run = _run(
                cache,
                base_config_factory(misu_design=design),
                workload,
                transactions,
                seed,
            )
            value = baseline.cycles / run.cycles
            per_design[design].append(value)
            row.append(value)
        result.rows.append(row)
    for design in DESIGNS:
        values = per_design[design]
        result.summary[f"mean {DESIGN_LABELS[design]}"] = sum(values) / len(values)
    result.notes = note
    return result


def fig12_speedup_eager(
    transactions: int = DEFAULT_TRANSACTIONS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    return _speedup_experiment(
        "fig12",
        "Figure 12: Dolos speedup, eager Merkle-tree update (1024B txns)",
        eager_config,
        transactions,
        seed,
        "Paper: average 1.66x / 1.66x / 1.59x (Full / Partial / Post).",
    )


def fig16_speedup_lazy(
    transactions: int = DEFAULT_TRANSACTIONS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    return _speedup_experiment(
        "fig16",
        "Figure 16: Dolos speedup, lazy ToC update (1024B txns)",
        lazy_config,
        transactions,
        seed,
        "Paper: average 1.044x / 1.079x / 1.071x (Full / Partial / Post); "
        "Full is the laggard because doubling Mi-SU MAC latency matters "
        "when the backend is fast.",
    )


# ======================================================================
# Table 2: WPQ insertion re-try events per kilo write request
# ======================================================================
def tab02_retries(
    transactions: int = DEFAULT_TRANSACTIONS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    cache = TraceCache()
    result = ExperimentResult(
        "tab02",
        "Table 2: WPQ insertion re-try events per kilo write requests",
        ["workload"] + [DESIGN_LABELS[d] for d in DESIGNS],
    )
    for workload in WORKLOADS:
        row: List = [workload]
        for design in DESIGNS:
            run = _run(
                cache,
                eager_config(misu_design=design),
                workload,
                transactions,
                seed,
            )
            row.append(run.retries_per_kwr)
        result.rows.append(row)
    result.notes = (
        "Paper ordering: Full < Partial < Post per workload; NStore:YCSB "
        "far below the rest (1.1 / 68.6 / 182.0)."
    )
    return result


# ======================================================================
# Figures 13 & 14: transaction-size sweeps (Partial-WPQ-MiSU)
# ======================================================================
def fig13_retries_txnsize(
    transactions: int = DEFAULT_TRANSACTIONS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    cache = TraceCache()
    result = ExperimentResult(
        "fig13",
        "Figure 13: re-tries/KWR vs transaction size (Partial-WPQ-MiSU)",
        ["workload"] + [f"{s}B" for s in TRANSACTION_SIZES],
    )
    for workload in WORKLOADS:
        row: List = [workload]
        for size in TRANSACTION_SIZES:
            run = _run(
                cache,
                eager_config(transaction_size=size),
                workload,
                transactions,
                seed,
            )
            row.append(run.retries_per_kwr)
        result.rows.append(row)
    result.notes = "Paper: retries grow with transaction size (the WPQ fills)."
    return result


def fig14_speedup_txnsize(
    transactions: int = DEFAULT_TRANSACTIONS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    cache = TraceCache()
    result = ExperimentResult(
        "fig14",
        "Figure 14: Dolos speedup vs transaction size (Partial-WPQ-MiSU)",
        ["workload"] + [f"{s}B" for s in TRANSACTION_SIZES],
    )
    sums = [0.0] * len(TRANSACTION_SIZES)
    for workload in WORKLOADS:
        row: List = [workload]
        for i, size in enumerate(TRANSACTION_SIZES):
            baseline = _run(
                cache,
                eager_config(
                    controller=ControllerKind.PRE_WPQ_SECURE, transaction_size=size
                ),
                workload,
                transactions,
                seed,
            )
            run = _run(
                cache,
                eager_config(transaction_size=size),
                workload,
                transactions,
                seed,
            )
            value = baseline.cycles / run.cycles
            sums[i] += value
            row.append(value)
        result.rows.append(row)
    for i, size in enumerate(TRANSACTION_SIZES):
        result.summary[f"mean @{size}B"] = sums[i] / len(WORKLOADS)
    result.notes = (
        "Paper: small transactions benefit more, but even 2048B "
        "transactions still gain."
    )
    return result


# ======================================================================
# Figure 15: WPQ-size sensitivity (Partial-WPQ-MiSU)
# ======================================================================
def fig15_wpq_size(
    transactions: int = DEFAULT_TRANSACTIONS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    from dataclasses import replace

    from repro.config import ADRConfig

    cache = TraceCache()
    partial_sizes = [
        ADRConfig(budget_entries=b).usable_entries(MiSUDesign.PARTIAL_WPQ)
        for b in WPQ_BUDGETS
    ]
    result = ExperimentResult(
        "fig15",
        "Figure 15: speedup vs WPQ size (Partial-WPQ-MiSU)",
        ["workload"] + [f"wpq={s}" for s in partial_sizes],
    )
    retry_rows: List[List] = []
    sums = [0.0] * len(WPQ_BUDGETS)
    retry_sums = [0.0] * len(WPQ_BUDGETS)
    for workload in WORKLOADS:
        row: List = [workload]
        retry_row: List = [workload]
        for i, budget in enumerate(WPQ_BUDGETS):
            adr = ADRConfig(budget_entries=budget)
            baseline = _run(
                cache,
                eager_config(controller=ControllerKind.PRE_WPQ_SECURE, adr=adr),
                workload,
                transactions,
                seed,
            )
            run = _run(cache, eager_config(adr=adr), workload, transactions, seed)
            value = baseline.cycles / run.cycles
            sums[i] += value
            retry_sums[i] += run.retries_per_kwr
            row.append(value)
            retry_row.append(run.retries_per_kwr)
        result.rows.append(row)
        retry_rows.append(retry_row)
    for i, size in enumerate(partial_sizes):
        result.summary[f"mean speedup @wpq={size}"] = sums[i] / len(WORKLOADS)
        result.summary[f"mean retries/KWR @wpq={size}"] = retry_sums[i] / len(
            WORKLOADS
        )
    result.notes = (
        "Paper: 1.66x/1.85x/1.87x/1.88x at 13/28/57/113 entries; retries "
        "201.3/29.0/13.6/11.1 — gains saturate by ~28 entries."
    )
    return result


# ======================================================================
# Beyond Figure 5: the Triad-NVM and write-through designs (PR 8)
# ======================================================================
def newdesigns_speedup(
    transactions: int = DEFAULT_TRANSACTIONS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Speedup of the two post-Figure-5 designs over Pre-WPQ-Secure.

    Triad-NVM relaxes tree persistence to the lowest
    ``triad_persist_levels`` levels; the SuperMem-style write-through
    design removes the tree walk from the persist critical path but
    pays an NVM counter write per (coalesced) counter line.  Same
    baseline and traces as Figure 12, so the columns are directly
    comparable with the Dolos speedups.
    """
    from repro.matrix import controller_matrix

    cache = TraceCache()
    matrix = controller_matrix()
    result = ExperimentResult(
        "newdesigns",
        "Beyond Fig 5: Triad-NVM / write-through speedup vs Pre-WPQ-Secure",
        ["workload"] + list(NEW_DESIGN_LABELS.values()),
    )
    per_design: Dict[str, List[float]] = {d: [] for d in NEW_DESIGN_LABELS}
    for workload in WORKLOADS:
        baseline = _run(
            cache, matrix["prewpq-eager"], workload, transactions, seed
        )
        row: List = [workload]
        for label in NEW_DESIGN_LABELS:
            run = _run(cache, matrix[label], workload, transactions, seed)
            value = baseline.cycles / run.cycles
            per_design[label].append(value)
            row.append(value)
        result.rows.append(row)
    for label, values in per_design.items():
        result.summary[f"mean {NEW_DESIGN_LABELS[label]}"] = (
            sum(values) / len(values)
        )
    result.notes = (
        "Triad-NVM (Awad et al.) and SuperMem write-through (Zuo/Hua/"
        "Xie): both beat the strict pre-WPQ baseline but stay below the "
        "Dolos designs, which remove *all* Ma-SU work from the critical "
        "path."
    )
    return result


# ======================================================================
# Table 3: Mi-SU storage overhead
# ======================================================================
def tab03_storage() -> ExperimentResult:
    result = ExperimentResult(
        "tab03",
        "Table 3: storage overhead of Mi-SU (16-entry ADR budget)",
        ["component"] + [DESIGN_LABELS[d] for d in DESIGNS],
    )
    overheads = []
    for design in DESIGNS:
        config = eager_config(misu_design=design)
        keys = KeyStore(config.seed)
        registers = PersistentRegisters()
        wpq = WritePendingQueue(config.wpq_entries)
        misu = make_misu(config, keys, registers, wpq)
        overheads.append(misu.storage_overhead())
    for component in ("persistent_counter", "macs", "encryption_pads",
                      "volatile_tag_array"):
        result.rows.append(
            [component] + [o[component] for o in overheads]
        )
    result.notes = (
        "Paper: counter 8B each; MACs 192/128/128 B; pads 72Bx16 / "
        "80Bx13 / 80Bx10; plus the 8B-per-entry volatile tag array "
        "(Section 4.5/5.5)."
    )
    return result


# ======================================================================
# Section 5.5: recovery-time estimate
# ======================================================================
def sec55_recovery() -> ExperimentResult:
    result = ExperimentResult(
        "sec55",
        "Section 5.5: Mi-SU recovery time estimate",
        ["design", "entries", "read", "old pads", "drain", "new pads",
         "total cycles", "ms @4GHz"],
    )
    for design in DESIGNS:
        estimate = estimate_recovery(eager_config(misu_design=design))
        result.rows.append(
            [
                DESIGN_LABELS[design],
                estimate.entries,
                estimate.read_cycles,
                estimate.old_pad_cycles,
                estimate.drain_cycles,
                estimate.new_pad_cycles,
                estimate.total_cycles,
                f"{estimate.total_ms():.4f}",
            ]
        )
    result.notes = "Paper: Full-WPQ total 44 480 cycles (~0.01 ms)."
    return result


# ======================================================================
# Cycle breakdown (analysis view, not a paper artifact)
# ======================================================================
def breakdown_experiment(
    transactions: int = DEFAULT_TRANSACTIONS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Fence/read/compute decomposition per workload and controller."""
    cache = TraceCache()

    def _run_breakdown(config: SimConfig, workload: str):
        unit = RunUnit(workload, config, transactions, seed, mode="breakdown")
        executor = _parallel.active_executor()
        if executor is not None:
            return executor.run(unit)
        return _parallel.execute_unit(unit, cache)

    result = ExperimentResult(
        "breakdown",
        "Cycle breakdown: fence stalls are what Dolos removes",
        ["workload", "controller", "cycles", "fence %", "read %", "other %"],
    )
    kinds = (
        ControllerKind.PRE_WPQ_SECURE,
        ControllerKind.DOLOS,
        ControllerKind.NON_SECURE_IDEAL,
    )
    for workload in WORKLOADS:
        for kind in kinds:
            config = eager_config(controller=kind)
            _run_result, breakdown = _run_breakdown(config, workload)
            result.rows.append(
                [
                    workload,
                    kind.value,
                    breakdown.total,
                    100 * breakdown.fraction("fence_stall"),
                    100 * breakdown.fraction("read_stall"),
                    100 * breakdown.fraction("other"),
                ]
            )
    result.notes = (
        "Not a paper artifact: an analysis view showing the mechanism — "
        "the fence-stall share collapses from baseline to Dolos."
    )
    return result


# ======================================================================
# Open-loop load curves (scenario layer; not a paper artifact)
# ======================================================================
def loadcurve_experiment(
    transactions: int = 60,
    seed: int = DEFAULT_SEED,
    workload: str = "hashmap",
    rates: Optional[Sequence[float]] = None,
    configs: Optional[Sequence[str]] = None,
    skew: float = 0.8,
    knee_factor: float = 2.0,
) -> ExperimentResult:
    """Sojourn-latency percentiles vs offered load, with knee detection.

    The paper's methodology is closed-loop (the next transaction starts
    when the previous commits), which hides queueing delay entirely;
    this sweep replays the identical instruction stream under open-loop
    Poisson arrivals across the controller matrix.  See
    :mod:`repro.scenarios.loadcurve` and ``docs/scenarios.md``.
    """
    # Imported lazily: the scenario layer sits above the harness.
    from repro.scenarios.loadcurve import DEFAULT_RATES, loadcurve_report

    report = loadcurve_report(
        workload=workload,
        transactions=transactions,
        seed=seed,
        rates=tuple(rates) if rates else DEFAULT_RATES,
        configs=configs,
        skew=skew,
        knee_factor=knee_factor,
    )
    result = ExperimentResult(
        "loadcurve",
        f"Sojourn latency vs offered load ({workload}, "
        f"zipf s={skew:g}, {transactions} tx)",
        [
            "config",
            "rate (tx/kcycle)",
            "p50",
            "p95",
            "p99",
            "completed/kcycle",
        ],
    )
    for label, entry in report["configs"].items():
        for point in entry["points"]:
            result.rows.append(
                [
                    label,
                    point["rate"],
                    point["p50"],
                    point["p95"],
                    point["p99"],
                    round(point["completed_per_kcycle"], 4),
                ]
            )
        result.summary[f"knee.{label}"] = entry["knee_rate"]
        result.summary[f"open_closed_p99_ratio.{label}"] = round(
            entry["matched_load"]["open_closed_p99_ratio"], 3
        )
    result.notes = (
        "Not a paper artifact: open-loop arrivals expose the queueing "
        "delay the paper's closed-loop methodology cannot measure.  "
        "The knee is the first rate whose p99 sojourn exceeds "
        f"{knee_factor:g}x the lightest-load p99."
    )
    return result


# ======================================================================
# Registry
# ======================================================================
EXPERIMENTS = {
    "breakdown": breakdown_experiment,
    "loadcurve": loadcurve_experiment,
    "motivation": motivation_overhead,
    "fig06": fig06_cpi,
    "fig12": fig12_speedup_eager,
    "fig13": fig13_retries_txnsize,
    "fig14": fig14_speedup_txnsize,
    "fig15": fig15_wpq_size,
    "fig16": fig16_speedup_lazy,
    "newdesigns": newdesigns_speedup,
    "tab02": tab02_retries,
    "tab03": tab03_storage,
    "sec55": sec55_recovery,
}


def run_experiment(
    name: str, jobs: Optional[int] = None, **kwargs
) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``"fig12"``).

    Args:
        name: experiment id.
        jobs: worker processes for the run units.  ``None`` reads the
            ``REPRO_JOBS`` environment variable (default 1); values > 1
            fan the experiment's independent run units over a process
            pool and reassemble rows bit-identically to serial order.
        **kwargs: forwarded to the experiment (transactions, seed, ...).
    """
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    jobs = _parallel.resolve_jobs(jobs)
    if jobs > 1:
        return _parallel.run_experiment_parallel(name, jobs, **kwargs)
    return fn(**kwargs)
