"""Property-based tests for fleet expansion, dispatch and reporting.

Three invariants carry the fleet's correctness argument:

* **Expansion is a pure function** of the campaign — deterministic,
  duplicate-free, and exactly the matrix product (plus one fault unit
  per cell when requested), whatever duplicates or orderings the
  campaign lists contain.
* **Dispatch is exactly-once** — across any interleaving of claims,
  completions, worker deaths and re-dispatches on the one-queue
  ledger, every unit is completed exactly once: no loss, no overlap.
* **Reports are arrival-order invariant** — the same units inserted in
  any permutation (by any workers) produce byte-identical report
  dicts, which is what makes the characterization fixture meaningful.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.db import FleetDB
from repro.fleet.dispatcher import (
    CampaignSpec,
    FleetError,
    FleetUnit,
    UnitLedger,
    expand_units,
)
from repro.fleet.report import build_report
from repro.oracle.check import controller_matrix
from repro.service.protocol import job_key
from repro.workloads import ORACLE_SEMANTICS

# Fault units require oracle semantics, so campaigns draw from that set.
_WORKLOADS = sorted(ORACLE_SEMANTICS)
_DESIGNS = sorted(controller_matrix())

campaigns = st.builds(
    CampaignSpec,
    name=st.just("prop"),
    workloads=st.lists(
        st.sampled_from(_WORKLOADS), min_size=1, max_size=4
    ).map(tuple),
    designs=st.lists(
        st.sampled_from(_DESIGNS), min_size=1, max_size=3
    ).map(tuple),
    seeds=st.lists(
        st.integers(0, 50), min_size=1, max_size=4
    ).map(tuple),
    transactions=st.integers(1, 500),
    fault_sites=st.integers(0, 3),
)


class TestExpansion:
    @given(campaign=campaigns)
    @settings(max_examples=40, deadline=None)
    def test_deterministic_and_duplicate_free(self, campaign):
        units = expand_units(campaign)
        again = expand_units(campaign)
        assert [u.key for u in units] == [u.key for u in again]
        assert len({u.key for u in units}) == len(units)
        # One key: the FleetDB unit key is the service's job key.
        assert all(u.key == job_key(u.spec) for u in units)
        cells = (
            len(set(campaign.workloads))
            * len(set(campaign.designs))
            * len(set(campaign.seeds))
        )
        expected = cells * (2 if campaign.fault_sites else 1)
        assert len(units) == expected

    @given(campaign=campaigns)
    @settings(max_examples=20, deadline=None)
    def test_listing_order_never_creates_new_units(self, campaign):
        """Reordering/duplicating campaign lists changes nothing but
        expansion order — the unit *set* is the matrix, full stop."""
        shuffled = CampaignSpec(
            name=campaign.name,
            workloads=tuple(reversed(campaign.workloads + campaign.workloads)),
            designs=tuple(reversed(campaign.designs)),
            seeds=tuple(reversed(campaign.seeds + campaign.seeds)),
            transactions=campaign.transactions,
            fault_sites=campaign.fault_sites,
        )
        assert {u.key for u in expand_units(campaign)} == {
            u.key for u in expand_units(shuffled)
        }


_VALID = CampaignSpec(
    name="valid",
    workloads=("hashmap",),
    designs=("dolos-partial",),
    seeds=(1,),
    transactions=4,
)


class TestCampaignValidation:
    def test_valid_campaign_validates(self):
        assert _VALID.validate() is _VALID

    @pytest.mark.parametrize(
        "changes",
        [
            {"name": ""},
            {"workloads": ()},
            {"designs": ()},
            {"seeds": ()},
            {"workloads": ("no-such-workload",)},
            {"designs": ("no-such-design",)},
            {"transactions": 0},
            {"transactions": -3},
            {"fault_sites": -1},
            {"scenario": (("rate", 0.06), ("no-such-key", 1))},
            {"scenario": (("arrivals", "mmpp"),)},  # no rate
        ],
        ids=[
            "empty-name", "no-workloads", "no-designs", "no-seeds",
            "unknown-workload", "unknown-design", "zero-transactions",
            "negative-transactions", "negative-fault-sites",
            "unknown-scenario-key", "scenario-without-rate",
        ],
    )
    def test_invalid_campaign_raises_fleet_error(self, changes):
        with pytest.raises(FleetError):
            dataclasses.replace(_VALID, **changes).validate()

    def test_fault_units_need_oracle_semantics(self, monkeypatch):
        # Every shipped workload has oracle semantics; withdraw one.
        monkeypatch.delitem(ORACLE_SEMANTICS, "hashmap")
        assert _VALID.validate() is _VALID  # run units do not need it
        with pytest.raises(FleetError):
            dataclasses.replace(_VALID, fault_sites=1).validate()


def _fake_units(n: int):
    return [FleetUnit(key=f"k{i:04d}", spec=None) for i in range(n)]


class TestSharding:
    """The one-queue :class:`UnitLedger` the worker threads share."""

    @given(
        n=st.integers(1, 60),
        workers=st.integers(1, 6),
        schedule_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_ledger_exact_under_stealing_and_deaths(
        self, n, workers, schedule_seed
    ):
        """Random claim/complete/die interleavings: exactly-once.

        A seeded schedule interleaves claims, completions and worker
        deaths (whose units are requeued).  Whatever the order, every
        unit must end up completed exactly once.  A claim is drawn only
        while a unit is pending: with none pending, ``claim`` waits for
        another thread, which a one-thread schedule cannot supply.
        """
        rng = random.Random(schedule_seed)
        units = _fake_units(n)
        ledger = UnitLedger(units)
        names = [f"w{i}" for i in range(workers)]
        alive = set(names)
        holding = {w: [] for w in names}
        completed = []

        while ledger.outstanding():
            held = sum(len(claims) for claims in holding.values())
            pending = ledger.outstanding() - held
            # A dead-end guard: at least one worker must stay alive.
            actions = []
            for w in sorted(alive):
                if pending:
                    actions.append(("claim", w))
                if holding[w]:
                    actions.append(("complete", w))
                    if len(alive) > 1:
                        actions.append(("die", w))
            action, w = rng.choice(actions)
            if action == "claim":
                holding[w].append(ledger.claim(w))
            elif action == "complete":
                unit = holding[w].pop()
                if ledger.complete(unit.key, w):
                    completed.append(unit.key)
            else:  # die
                holding[w].clear()
                ledger.requeue(w)
                alive.discard(w)

        assert sorted(completed) == sorted(u.key for u in units)
        assert len(completed) == n  # exactly once each
        assert ledger.claim(names[0]) is None  # all done: no wait

    def test_waiting_claim_gets_a_requeued_unit_then_none(self):
        """An idle worker waits, takes what a dying worker requeues, and
        gets ``None`` once the last in-flight unit completes."""
        ledger = UnitLedger(_fake_units(2))
        dropped = ledger.claim("dying")
        slow = ledger.claim("slow")
        got = []

        def survivor():
            unit = ledger.claim("survivor")
            got.append(unit)
            ledger.complete(unit.key, "survivor")
            got.append(ledger.claim("survivor"))

        thread = threading.Thread(target=survivor, daemon=True)
        thread.start()
        thread.join(0.2)
        assert thread.is_alive() and got == []  # nothing pending: waits
        assert ledger.requeue("dying") == 1
        thread.join(0.2)
        assert thread.is_alive() and got == [dropped]  # waits on "slow"
        ledger.complete(slow.key, "slow")
        thread.join(10)
        assert not thread.is_alive()
        assert got == [dropped, None]
        assert ledger.redispatches == 1


def _synthetic_rows(count: int):
    rows = []
    for i in range(count):
        workload = _WORKLOADS[i % 3]
        design = _DESIGNS[i % 2]
        seed = i // 6
        mode = "faults" if i % 5 == 0 else "run"
        if mode == "faults":
            payload = {
                "kind": "faults",
                "workload": workload,
                "detected": i % 3,
                "tolerated": i % 2,
                "silent": 0,
                "passed": True,
            }
        else:
            payload = {
                "workload": workload,
                "cycles": 1000 + 17 * i,
                "instructions": 400 + 7 * i,
                "stats": {},
            }
        spec = {
            "workload": workload,
            "design": design,
            "seed": seed,
            "transactions": 60,
            "mode": mode,
        }
        rows.append((f"key{i:03d}", spec, payload))
    return rows


class TestReportInvariance:
    @given(order_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_report_invariant_under_arrival_order(self, order_seed):
        rows = _synthetic_rows(24)
        shuffled = list(rows)
        random.Random(order_seed).shuffle(shuffled)

        tmp = Path(tempfile.mkdtemp(prefix="fleet-props-"))
        reports = []
        for tag, ordering in (("a", rows), ("b", shuffled)):
            db = FleetDB(tmp / f"{order_seed}-{tag}.sqlite")
            db.open_experiment("exp", {"name": "prop"}, git_hash="fixed")
            for index, (key, spec, payload) in enumerate(ordering):
                db.record_unit(
                    "exp", key, spec, payload,
                    worker_id=f"w{index % 3}",  # worker attribution varies
                    recorded_at=float(index),   # ... and so do timestamps
                )
            reports.append(build_report(db, "exp"))
            db.close()
        shutil.rmtree(tmp, ignore_errors=True)
        assert reports[0] == reports[1]
