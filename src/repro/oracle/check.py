"""The differential crash-consistency checker.

For every (workload, controller) unit:

1. run the op stream once, enumerating distinct crash sites
   (:mod:`repro.oracle.sites`);
2. run it a second time, walking the sites in cycle order: at each,
   power-fail a deep copy of the machine, recover the copy with
   :func:`repro.recovery.recover.recover_system`, reconstruct the
   logical KV state from the commit log
   (:mod:`repro.oracle.reconstruct`), and diff it against the golden
   model's prefix state;
3. on a sub-sampled set of sites, additionally clone the crash image,
   tamper with it through :mod:`repro.attacks`, and assert recovery (or
   log reconstruction) *detects* the tampering.

Across controllers the checker is *differential*: every configuration
in :mod:`repro.matrix` must recover the same final logical state for the same
trace — any controller whose quiescent recovery diverges from the
golden model (or from its peers) fails the run.

``--inject-divergence`` is the oracle's self-test: a deliberate
corruption of the reconstructed state at the quiescent site must be
*caught* by the state diff, proving the checker cannot silently pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.config import ControllerKind, SimConfig
from repro.attacks.verify import choose_crash_attack
from repro.core.masu import IntegrityError
from repro.oracle.driver import OracleExecution
from repro.oracle.golden import prefix_states, state_digest
from repro.oracle.ops import generate_ops
from repro.oracle.reconstruct import OracleDivergence, reconstruct_state
from repro.oracle.sites import CrashSite, enumerate_sites, machine_state_hash
from repro.recovery.recover import RecoveryError, recover_system
from repro.workloads import ORACLE_SEMANTICS


# The matrix lives in repro.matrix (the shared registry every harness
# entry point sweeps); re-exported here for the many historical callers.
from repro.matrix import CONTROLLER_MATRIX, controller_matrix  # noqa: F401


@dataclass
class SiteOutcome:
    """Result of one crash-injection at one site."""

    site_id: int
    cycle: int
    kind: str
    committed: int
    commits_fired: int
    attack: Optional[str] = None
    attack_detected: Optional[bool] = None


@dataclass
class UnitReport:
    """One (workload, controller) sweep."""

    workload: str
    controller: str
    transactions: int
    seed: int
    sites_enumerated: int = 0
    sites_checked: int = 0
    raw_boundaries: int = 0
    final_cycle: int = 0
    attacks_run: int = 0
    attacks_detected: int = 0
    #: Digest of the quiescent-site recovered state (differential key).
    final_digest: str = ""
    #: Human-readable failure descriptions; empty == unit passed.
    failures: List[str] = field(default_factory=list)
    #: Set only under ``--inject-divergence``: the deliberate corruption
    #: was caught by the state diff (must be True for the self-test).
    injected_caught: Optional[bool] = None

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class OracleReport:
    """The whole differential run."""

    units: List[UnitReport]
    #: Per-workload digest mismatches across controllers (empty == ok).
    mismatches: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches and all(u.passed for u in self.units)

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "mismatches": self.mismatches,
            "units": [
                {**asdict(unit), "passed": unit.passed} for unit in self.units
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _check_attack(image, total_ops: int) -> Optional[bool]:
    """Tamper with a cloned image; True iff recovery detected it.

    Returns None when nothing attackable has persisted yet.
    """
    attack = choose_crash_attack(image)
    if attack is None:
        return None
    attack.apply(image.nvm)
    try:
        report = recover_system(image)
        reconstruct_state(report.masu, total_ops)
    except (RecoveryError, IntegrityError):
        return True
    except OracleDivergence:
        # Recovery accepted tampered state: that is a *silent* failure,
        # strictly worse than an undetected-but-consistent outcome.
        return False
    return False


def check_site(
    execution: OracleExecution,
    states,
    site: CrashSite,
    battery: bool,
    attack: bool = False,
    inject_divergence: bool = False,
) -> SiteOutcome:
    """Advance ``execution`` to ``site``, crash a copy, recover, and diff.

    ``execution`` is the unit's walk: it must not be past ``site``, and
    it is left running at ``site.cycle`` for the next site.
    """
    ops = execution.ops
    execution.run(until=site.cycle)
    if site.state_hash:
        replay_hash = machine_state_hash(execution.controller)
        if replay_hash != site.state_hash:
            raise OracleDivergence(
                f"site {site.site_id}: replay diverged from reference run "
                f"(cycle {site.cycle}: {replay_hash} != {site.state_hash})"
            )
    image = execution.crash_copy(battery)

    attack_name: Optional[str] = None
    attack_detected: Optional[bool] = None
    if attack:
        clone = image.clone()
        chosen = choose_crash_attack(clone)
        if chosen is not None:
            attack_name = chosen.name
            attack_detected = _check_attack(clone, len(ops))

    report = recover_system(image)
    committed, state = reconstruct_state(
        report.masu, len(ops), inject_divergence=inject_divergence
    )
    if not execution.commits_fired <= committed <= len(ops):
        raise OracleDivergence(
            f"site {site.site_id}: recovered {committed} commits but the "
            f"driver observed {execution.commits_fired} persist completions"
        )
    if state != states[committed]:
        expect = state_digest(states[committed])
        got = state_digest(state)
        raise OracleDivergence(
            f"site {site.site_id} (cycle {site.cycle}): recovered state "
            f"diverges from golden model after {committed} ops "
            f"({got} != {expect})"
        )
    return SiteOutcome(
        site_id=site.site_id,
        cycle=site.cycle,
        kind=site.kind,
        committed=committed,
        commits_fired=execution.commits_fired,
        attack=attack_name,
        attack_detected=attack_detected,
    )


def select_sites(sites: List[CrashSite], budget: Optional[int]) -> List[CrashSite]:
    """Evenly sub-sample to ``budget`` sites, always keeping the ends.

    Shared with the fault campaign (:mod:`repro.faults.campaign`), which
    uses the same spread to pick its injection sites.
    """
    if budget is None or budget <= 0 or len(sites) <= budget:
        return list(sites)
    if budget == 1:
        return [sites[-1]]
    step = (len(sites) - 1) / (budget - 1)
    picked = {round(i * step) for i in range(budget)}
    return [sites[i] for i in sorted(picked)]


#: Backwards-compatible alias (pre-campaign name).
_select_sites = select_sites


def check_unit(
    workload: str,
    label: str,
    config: SimConfig,
    transactions: int,
    seed: int = 0,
    site_budget: Optional[int] = None,
    attack_every: int = 4,
    inject_divergence: bool = False,
) -> UnitReport:
    """Sweep every (sub-sampled) crash site of one unit."""
    unit = UnitReport(
        workload=workload, controller=label,
        transactions=transactions, seed=seed,
    )
    ops = generate_ops(workload, transactions, seed)
    states = prefix_states(ORACLE_SEMANTICS[workload], ops)
    battery = config.controller is ControllerKind.EADR_SECURE

    try:
        enumeration = enumerate_sites(config, ops)
    except Exception as exc:  # enumeration failure fails the whole unit
        unit.failures.append(f"enumeration failed: {exc!r}")
        return unit
    unit.sites_enumerated = len(enumeration.sites)
    unit.raw_boundaries = enumeration.raw_boundaries
    unit.final_cycle = enumeration.final_cycle

    selected = select_sites(enumeration.sites, site_budget)
    execution = OracleExecution(config, ops)
    for position, site in enumerate(selected):
        attack = attack_every > 0 and position % attack_every == 0
        try:
            outcome = check_site(execution, states, site, battery, attack)
        except (OracleDivergence, RecoveryError, IntegrityError) as exc:
            unit.failures.append(
                f"site {site.site_id} (cycle {site.cycle}, {site.kind}): {exc}"
            )
            continue
        unit.sites_checked += 1
        if outcome.attack is not None:
            unit.attacks_run += 1
            if outcome.attack_detected:
                unit.attacks_detected += 1
            else:
                unit.failures.append(
                    f"site {site.site_id}: attack {outcome.attack} went "
                    "undetected through recovery"
                )
        if site is selected[-1]:
            # Quiescent site: record the differential digest, and run
            # the self-test injection when requested.
            unit.final_digest = state_digest(states[outcome.committed])
            if inject_divergence:
                try:
                    check_site(
                        execution, states, site, battery,
                        inject_divergence=True,
                    )
                except OracleDivergence:
                    unit.injected_caught = True
                else:
                    unit.injected_caught = False
                    unit.failures.append(
                        "injected divergence was NOT caught by the checker"
                    )
    return unit


def _unit_worker(item) -> UnitReport:
    """Top-level fan-out worker (must be picklable)."""
    (workload, label, transactions, seed,
     site_budget, attack_every, inject) = item
    config = controller_matrix()[label]
    return check_unit(
        workload, label, config, transactions, seed,
        site_budget=site_budget, attack_every=attack_every,
        inject_divergence=inject,
    )


def run_oracle(
    workloads: List[str],
    controllers: Optional[List[str]] = None,
    transactions: int = 200,
    seed: int = 0,
    jobs: int = 1,
    site_budget: Optional[int] = None,
    attack_every: int = 4,
    inject_divergence: bool = False,
) -> OracleReport:
    """Differentially check ``workloads`` across ``controllers``."""
    from repro.harness.parallel import fan_out

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
        (workload, label, transactions, seed,
         site_budget, attack_every, inject_divergence)
        for workload in workloads
        for label in labels
    ]
    units = fan_out(_unit_worker, items, jobs)
    report = OracleReport(units=units)

    # Differential comparison: every controller must land on the same
    # final state for the same workload trace — and that state must be
    # the golden model's (already enforced per-site; the cross-check
    # catches units that skipped their quiescent site).
    for workload in workloads:
        digests = {
            unit.controller: unit.final_digest
            for unit in units
            if unit.workload == workload and unit.final_digest
        }
        if len(set(digests.values())) > 1:
            report.mismatches.append(
                f"{workload}: controllers disagree on the final recovered "
                f"state: {digests}"
            )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness check",
        description="Differential crash-consistency oracle",
    )
    parser.add_argument(
        "--workloads", default="hashmap,btree",
        help="comma-separated workload names (default: hashmap,btree)",
    )
    parser.add_argument(
        "--controllers", default=",".join(CONTROLLER_MATRIX),
        help="comma-separated controller labels "
             f"(default: all of {','.join(CONTROLLER_MATRIX)})",
    )
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: $REPRO_JOBS or 1; 0 = all cores)",
    )
    parser.add_argument(
        "--site-budget", type=int, default=None,
        help="check at most N evenly-spaced sites per unit (default: all)",
    )
    parser.add_argument(
        "--attack-every", type=int, default=4,
        help="tamper-and-detect on every Nth checked site (0 disables)",
    )
    parser.add_argument(
        "--inject-divergence", action="store_true",
        help="self-test: corrupt the reconstructed state at the "
             "quiescent site and require the checker to catch it",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON report here ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    from repro.harness.parallel import resolve_jobs

    report = run_oracle(
        workloads=[w for w in args.workloads.split(",") if w],
        controllers=[c for c in args.controllers.split(",") if c],
        transactions=args.transactions,
        seed=args.seed,
        jobs=resolve_jobs(args.jobs),
        site_budget=args.site_budget,
        attack_every=args.attack_every,
        inject_divergence=args.inject_divergence,
    )

    for unit in report.units:
        status = "ok" if unit.passed else "FAIL"
        extra = ""
        if unit.attacks_run:
            extra = f" attacks {unit.attacks_detected}/{unit.attacks_run}"
        if unit.injected_caught is not None:
            extra += f" inject-caught={unit.injected_caught}"
        print(
            f"[{status}] {unit.workload:>12} x {unit.controller:<14} "
            f"sites {unit.sites_checked}/{unit.sites_enumerated}{extra}"
        )
        for failure in unit.failures:
            print(f"       - {failure}")
    for mismatch in report.mismatches:
        print(f"[FAIL] differential: {mismatch}")
    print(
        ("ORACLE PASS" if report.passed else "ORACLE FAIL")
        + f": {sum(u.sites_checked for u in report.units)} sites across "
        f"{len(report.units)} units"
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
