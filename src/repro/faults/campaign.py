"""The fault-injection campaign: plant faults, classify what recovery does.

For every (workload, controller) unit the campaign re-uses the crash
oracle's machinery — deterministic op streams, golden prefix states,
crash-site enumeration, and one execution walking the chosen sites in
cycle order — then, at a handful of interior crash sites:

1. crashes a copy of the machine and checks the *clean* image recovers
   to the golden state (a failing baseline disqualifies the unit, not
   the faults);
2. generates a seeded :class:`~repro.faults.plan.FaultPlan` from the
   image's populated fault targets and, for each fault, recovers an
   independently-cloned corrupted image;
3. crashes a second copy at the same site with a *degraded ADR budget*
   planted pre-crash, forcing a partial drain, and checks the salvage
   invariant: every fully-drained live slot is recovered and every lost
   slot is enumerated in ``report.slots_lost``.

Each fault gets a :class:`FaultOutcome`:

* ``detected`` — recovery raised a typed
  :class:`~repro.recovery.errors.RecoveryError` (or the Ma-SU raised
  ``IntegrityError``); for degraded drains, the losses were correctly
  enumerated and the salvage invariant held.
* ``tolerated`` — recovery completed and the reconstructed state equals
  the golden model's prefix (e.g. a stale-counter flip masked by the
  Anubis shadow overlay, or a cache parity hit refetched from NVM).
* ``silent`` — neither: the fault slipped through and the reconstructed
  state diverges from the golden model.  Any silent outcome fails the
  campaign.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import ControllerKind, SimConfig
from repro.core.masu import IntegrityError
from repro.faults.injector import FaultInjector, apply_spec
from repro.faults.plan import FaultPlan, FaultSpec
from repro.oracle.check import CONTROLLER_MATRIX, controller_matrix, select_sites
from repro.oracle.driver import OracleExecution
from repro.oracle.golden import prefix_states
from repro.oracle.ops import generate_ops
from repro.oracle.reconstruct import OracleDivergence, reconstruct_state
from repro.oracle.sites import enumerate_sites
from repro.recovery.crash import CrashImage
from repro.recovery.errors import RecoveryError
from repro.recovery.recover import recover_system
from repro.wpq.adr import ADRDrain
from repro.workloads import ORACLE_SEMANTICS

DETECTED = "detected"
TOLERATED = "tolerated"
SILENT = "silent"


@dataclass
class FaultOutcome:
    """What one injected fault did to one crash site."""

    site_id: int
    kind: str
    spec: str
    outcome: str
    detail: str = ""
    #: Detections logged by integrity checkers via the injector.
    observations: int = 0


@dataclass
class FaultUnitReport:
    """One (workload, controller) campaign sweep."""

    workload: str
    controller: str
    transactions: int
    seed: int
    sites_used: int = 0
    outcomes: List[FaultOutcome] = field(default_factory=list)
    #: Baseline (no-fault) failures and infrastructure errors.
    failures: List[str] = field(default_factory=list)

    def count(self, outcome: str) -> int:
        return sum(1 for o in self.outcomes if o.outcome == outcome)

    @property
    def passed(self) -> bool:
        return not self.failures and self.count(SILENT) == 0


@dataclass
class CampaignReport:
    """The whole campaign."""

    units: List[FaultUnitReport]
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(unit.passed for unit in self.units)

    def totals(self) -> Dict[str, int]:
        return {
            key: sum(unit.count(key) for unit in self.units)
            for key in (DETECTED, TOLERATED, SILENT)
        }

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "seed": self.seed,
            "totals": self.totals(),
            "units": [
                {**asdict(unit), "passed": unit.passed} for unit in self.units
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def fault_unit_payload(unit: FaultUnitReport) -> Dict[str, object]:
    """Wire/db-stable dict form of one fault unit (fleet ``faults`` jobs).

    Deterministic for a given (workload, config, seed, sites) — the
    campaign draws every fault from seeded RNGs — so the payload digest
    can be compared bit-for-bit across re-dispatched fleet units.
    """
    return {
        "kind": "faults",
        "workload": unit.workload,
        "controller": unit.controller,
        "transactions": unit.transactions,
        "seed": unit.seed,
        "sites_used": unit.sites_used,
        "detected": unit.count(DETECTED),
        "tolerated": unit.count(TOLERATED),
        "silent": unit.count(SILENT),
        "passed": unit.passed,
        "failures": list(unit.failures),
        "outcomes": [
            {"site_id": o.site_id, "kind": o.kind, "outcome": o.outcome}
            for o in unit.outcomes
        ],
    }


# ----------------------------------------------------------------------
# Per-fault classification
# ----------------------------------------------------------------------
def classify_recovery(
    image: CrashImage,
    injector: FaultInjector,
    commits_fired: int,
    ops,
    states,
    loss_expected: Tuple[List[int], int] = None,
) -> Tuple[str, str]:
    """Recover a (faulted) image and classify the result.

    Args:
        image: the crash image to recover (already corrupted / with the
            injector's drain-time faults baked in).
        injector: the fault injector attached to ``image.nvm``.
        commits_fired: persist completions the reference driver saw.
        ops, states: the unit's op stream and golden prefix states.
        loss_expected: for degraded-drain faults, ``(lost_slots,
            salvaged_live_count)`` computed from the drained image
            before recovery; enables the salvage-invariant check and
            relaxes the commit lower bound (lost slots may hold
            committed writes).

    Returns:
        ``(outcome, detail)`` with outcome in {detected, tolerated,
        silent}.
    """
    try:
        report = recover_system(image)
    except RecoveryError as exc:
        return DETECTED, f"{type(exc).__name__}: {exc}"
    except IntegrityError as exc:
        return DETECTED, f"IntegrityError: {exc}"

    lost_slots: List[int] = []
    if loss_expected is not None:
        expected_lost, salvaged_live = loss_expected
        if expected_lost and not report.partial_drain:
            return SILENT, "degraded drain not marked partial by recovery"
        if sorted(report.slots_lost) != sorted(expected_lost):
            return SILENT, (
                f"lost-slot report {sorted(report.slots_lost)} != actual "
                f"losses {sorted(expected_lost)}"
            )
        if report.wpq_entries_recovered != salvaged_live:
            return SILENT, (
                f"salvage invariant violated: recovered "
                f"{report.wpq_entries_recovered} live slots, image held "
                f"{salvaged_live}"
            )
        lost_slots = list(report.slots_lost)

    try:
        committed, state = reconstruct_state(report.masu, len(ops))
    except (IntegrityError, RecoveryError) as exc:
        # The recovered Ma-SU's own integrity machinery (data MACs,
        # tree verification) caught the corruption on first read.
        return DETECTED, f"{type(exc).__name__} at read-back: {exc}"
    except OracleDivergence as exc:
        if lost_slots:
            # Losing committed log records legitimately breaks the log
            # chain; the losses were detected and enumerated above.
            return DETECTED, (
                f"lost slots {lost_slots} reported; log reconstruction "
                f"stops at the loss: {type(exc).__name__}"
            )
        # The log's own sequence/checksum caught an inconsistency that
        # no *security* check did — that is a silent integrity escape.
        return SILENT, (
            "recovery accepted the image but log reconstruction "
            f"diverged: {exc}"
        )

    lower = 0 if lost_slots else commits_fired
    if not lower <= committed <= len(ops):
        return SILENT, (
            f"recovered {committed} commits outside [{lower}, {len(ops)}]"
        )
    if state != states[committed]:
        return SILENT, (
            f"reconstructed state after {committed} ops diverges from the "
            "golden model"
        )
    if lost_slots:
        return DETECTED, (
            f"partial drain salvaged {report.wpq_entries_recovered} live "
            f"slots, reported lost slots {lost_slots}; state matches "
            f"golden prefix at {committed} ops"
        )
    return TOLERATED, f"state matches golden prefix at {committed} ops"


def inject_and_classify(
    image: CrashImage,
    spec: FaultSpec,
    commits_fired: int,
    ops,
    states,
    seed: int = 0,
) -> Optional[Tuple[str, str, FaultInjector]]:
    """Clone ``image``, plant one media/runtime fault, classify recovery.

    Returns ``None`` when the fault's target does not exist on this
    image (the plan generator normally prevents this).
    """
    clone = image.clone()
    injector = FaultInjector(FaultPlan(seed=seed, faults=(spec,)))
    clone.nvm.attach_fault_injector(injector)
    if not apply_spec(clone.nvm, spec):
        return None
    outcome, detail = classify_recovery(
        clone, injector, commits_fired, ops, states
    )
    return outcome, detail, injector


# ----------------------------------------------------------------------
# Per-unit campaign
# ----------------------------------------------------------------------
def _degraded_drain_check(
    unit: FaultUnitReport,
    execution: OracleExecution,
    states,
    site,
    battery: bool,
    seed: int,
) -> None:
    """Crash a copy at ``site`` with a degraded ADR budget; check salvage."""
    controller = execution.controller
    drain = getattr(controller, "adr_drain", None)
    if drain is None:
        return
    needed = drain.energy_needed(controller.wpq, 0)
    if needed < 2:
        return  # nothing buffered; a degraded budget has no bite
    spec = FaultSpec("adr-degrade", aux=max(1, needed // 2))
    injector = FaultInjector(FaultPlan(seed=seed, faults=(spec,)))
    image = execution.crash_copy(battery, injector)

    # Pre-recovery census of the (partial) drained image: recovery must
    # salvage exactly the live records that landed and enumerate the
    # occupied slots that did not.
    census = ADRDrain(image.nvm, image.config.adr, image.config.misu_design)
    meta = census.read_meta()
    records = census.read_image()
    present = {record.slot for record in records}
    salvaged_live = sum(1 for record in records if not record.cleared)
    expected_lost = (
        [s for s in meta.occupied_slots() if s not in present]
        if meta is not None and meta.partial
        else []
    )

    outcome, detail = classify_recovery(
        image,
        injector,
        execution.commits_fired,
        execution.ops,
        states,
        loss_expected=(expected_lost, salvaged_live),
    )
    unit.outcomes.append(
        FaultOutcome(
            site_id=site.site_id,
            kind=spec.kind,
            spec=spec.describe(),
            outcome=outcome,
            detail=detail,
            observations=len(injector.notes),
        )
    )


def run_fault_unit(
    workload: str,
    label: str,
    config: SimConfig,
    transactions: int,
    seed: int = 0,
    sites: int = 2,
) -> FaultUnitReport:
    """Run the fault campaign for one (workload, controller) unit.

    Faults are injected at ``sites`` interior crash sites, at least 1:
    ``select_sites`` would read a smaller budget as "every site".
    """
    if sites < 1:
        raise ValueError(f"sites must be at least 1, got {sites}")
    unit = FaultUnitReport(
        workload=workload, controller=label,
        transactions=transactions, seed=seed,
    )
    ops = generate_ops(workload, transactions, seed)
    states = prefix_states(ORACLE_SEMANTICS[workload], ops)
    battery = config.controller is ControllerKind.EADR_SECURE

    try:
        enumeration = enumerate_sites(config, ops)
    except Exception as exc:
        unit.failures.append(f"site enumeration failed: {exc!r}")
        return unit
    # Interior sites carry live WPQ/metadata state; the first and last
    # (cold boot / quiescent) sites offer few fault targets.
    selected = select_sites(enumeration.sites, sites + 2)
    if len(selected) > 2:
        selected = selected[1:-1]
    unit.sites_used = len(selected)

    execution = OracleExecution(config, ops)
    for site in selected:
        execution.run(until=site.cycle)
        image = execution.crash_copy(battery)

        # Baseline: the clean image must recover to the golden state,
        # otherwise fault classifications at this site mean nothing.
        base_outcome, base_detail = classify_recovery(
            image.clone(), FaultInjector(FaultPlan(seed)),
            execution.commits_fired, ops, states,
        )
        if base_outcome != TOLERATED:
            unit.failures.append(
                f"site {site.site_id}: clean baseline did not recover "
                f"({base_outcome}: {base_detail})"
            )
            continue

        plan = FaultPlan.generate(seed ^ (site.site_id << 8), image)
        for spec in plan.faults:
            if spec.kind == "adr-degrade":
                continue  # planted pre-crash, handled below
            result = inject_and_classify(
                image, spec, execution.commits_fired, ops, states, seed=seed
            )
            if result is None:
                continue
            outcome, detail, injector = result
            unit.outcomes.append(
                FaultOutcome(
                    site_id=site.site_id,
                    kind=spec.kind,
                    spec=spec.describe(),
                    outcome=outcome,
                    detail=detail,
                    observations=len(injector.notes),
                )
            )

        _degraded_drain_check(unit, execution, states, site, battery, seed)
    return unit


def _unit_worker(item) -> FaultUnitReport:
    """Top-level fan-out worker (must be picklable)."""
    workload, label, transactions, seed, sites = item
    config = controller_matrix()[label]
    return run_fault_unit(
        workload, label, config, transactions, seed, sites=sites
    )


def run_campaign(
    workloads: List[str],
    controllers: Optional[List[str]] = None,
    transactions: int = 30,
    seed: int = 0,
    sites: int = 2,
    jobs: int = 1,
) -> CampaignReport:
    """Sweep the fault campaign over ``workloads`` x ``controllers``."""
    from repro.harness.parallel import fan_out

    if sites < 1:
        raise ValueError(f"sites must be at least 1, got {sites}")
    matrix = controller_matrix()
    labels = list(controllers) if controllers else list(matrix)
    for label in labels:
        if label not in matrix:
            raise KeyError(
                f"unknown controller {label!r}; choose from {sorted(matrix)}"
            )
    for workload in workloads:
        if workload not in ORACLE_SEMANTICS:
            raise KeyError(
                f"workload {workload!r} has no oracle semantics; choose "
                f"from {sorted(ORACLE_SEMANTICS)}"
            )
    items = [
        (workload, label, transactions, seed, sites)
        for workload in workloads
        for label in labels
    ]
    units = fan_out(_unit_worker, items, jobs)
    return CampaignReport(units=units, seed=seed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness faults",
        description="Deterministic fault-injection campaign",
    )
    parser.add_argument(
        "--workloads", default="hashmap",
        help="comma-separated workload names (default: hashmap)",
    )
    parser.add_argument(
        "--controllers", default=",".join(CONTROLLER_MATRIX),
        help="comma-separated controller labels "
             f"(default: all of {','.join(CONTROLLER_MATRIX)})",
    )
    parser.add_argument("--transactions", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sites", type=int, default=2,
        help="interior crash sites to inject at, per unit (default: 2)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: $REPRO_JOBS or 1; 0 = all cores)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON campaign report here ('-' for stdout)",
    )
    args = parser.parse_args(argv)
    if args.sites < 1:
        parser.error(f"--sites must be at least 1, got {args.sites}")

    from repro.harness.parallel import resolve_jobs

    report = run_campaign(
        workloads=[w for w in args.workloads.split(",") if w],
        controllers=[c for c in args.controllers.split(",") if c],
        transactions=args.transactions,
        seed=args.seed,
        sites=args.sites,
        jobs=resolve_jobs(args.jobs),
    )

    for unit in report.units:
        status = "ok" if unit.passed else "FAIL"
        print(
            f"[{status}] {unit.workload:>12} x {unit.controller:<14} "
            f"faults {len(unit.outcomes)}: "
            f"{unit.count(DETECTED)} detected, "
            f"{unit.count(TOLERATED)} tolerated, "
            f"{unit.count(SILENT)} SILENT"
        )
        for failure in unit.failures:
            print(f"       - {failure}")
        for outcome in unit.outcomes:
            if outcome.outcome == SILENT:
                print(
                    f"       - SILENT {outcome.spec} @ site "
                    f"{outcome.site_id}: {outcome.detail}"
                )
    totals = report.totals()
    print(
        ("CAMPAIGN PASS" if report.passed else "CAMPAIGN FAIL")
        + f": {sum(totals.values())} faults across {len(report.units)} "
        f"units ({totals[DETECTED]} detected, {totals[TOLERATED]} "
        f"tolerated, {totals[SILENT]} silent)"
    )

    if args.report:
        text = report.to_json()
        if args.report == "-":
            print(text)
        else:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
