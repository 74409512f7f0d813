"""Output checks behind the benchmark's ``failed`` count.

Every operation the benchmark times returns a simulated result; each is
checked three ways, and one failing check fails the operation:

* **invariants** that hold exactly on every controller configuration
  (:func:`invariant_violations`);
* **reference digests** stored with the benchmark for the default seed
  and one held-out seed (``reference.json``, see ``make_reference.py``);
* **cross-path digests**: a result that came over the service wire or
  out of the FleetDB must equal a direct ``execute_unit`` of the same
  unit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.harness.memo import config_fingerprint
from repro.matrix import controller_matrix
from repro.service.protocol import result_digest, result_payload

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def config_label(config) -> str:
    """The matrix label of ``config``, or its fingerprint if unlisted."""
    for label, candidate in controller_matrix().items():
        if candidate == config:
            return label
    return "config-" + config_fingerprint(config)


def unit_label(unit) -> str:
    """Stable name of one run unit (the reference-digest key)."""
    label = (
        f"{unit.workload}/{config_label(unit.config)}/"
        f"t{unit.transactions}/s{unit.seed}"
    )
    if unit.mode != "run":
        label += f"/{unit.mode}{unit.fault_sites}"
    return label


def digest_of(result) -> str:
    """Digest of a ``RunResult`` or payload dict, as the service stamps it."""
    return result_digest(result_payload(result))


def invariant_violations(payload: Mapping, transactions: int) -> List[str]:
    """Accounting laws every plain run must satisfy exactly."""
    if payload.get("kind") == "faults":
        return [] if payload.get("passed") else ["fault unit did not pass"]
    stats = payload["stats"]

    def get(name: str) -> int:
        return int(stats.get(name, 0))

    problems = []
    if get("controller.writes") != get("wpq.inserts") + get("wpq.coalesced"):
        problems.append("controller.writes != wpq.inserts + wpq.coalesced")
    if get("persist.completed") != get("core.persists_issued"):
        problems.append("persist.completed != core.persists_issued")
    if get("nvm.reads") != get("controller.reads"):
        problems.append("nvm.reads != controller.reads")
    if get("core.transactions") != transactions:
        problems.append(
            f"core.transactions {get('core.transactions')} != {transactions}"
        )
    if "misu.protected" in stats and get("misu.protected") != (
        get("masu.writes") + get("wpq.coalesced")
    ):
        problems.append("misu.protected != masu.writes + wpq.coalesced")
    return problems


def load_reference(seed: int, path: Path = REFERENCE_PATH) -> Dict[str, str]:
    """Reference digests for ``seed`` (empty when the seed has none)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text()).get(str(seed), {})


class Checker:
    """Counts attempted and failed operations; reports the first failures."""

    MAX_REPORTED = 5

    def __init__(self, reference: Dict[str, str]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reference_checked = 0

    def fail(self, label: str, why: str) -> None:
        """Count one failed operation."""
        self.attempted += 1
        self.failed += 1
        if self.failed <= self.MAX_REPORTED:
            print(f"perfbench: FAIL {label}: {why}", file=sys.stderr)

    def check(
        self,
        label: str,
        result,
        transactions: int,
        expected_digest: Optional[str] = None,
    ) -> bool:
        """Check one operation's result; ``expected_digest`` is cross-path."""
        payload = result_payload(result)
        problems = invariant_violations(payload, transactions)
        digest = result_digest(payload)
        if expected_digest is not None and digest != expected_digest:
            problems.append(f"digest {digest} != direct {expected_digest}")
        reference = self.reference.get(label)
        if reference is not None:
            self.reference_checked += 1
            if digest != reference:
                problems.append(f"digest {digest} != reference {reference}")
        if problems:
            self.fail(label, "; ".join(problems))
            return False
        self.attempted += 1
        return True
