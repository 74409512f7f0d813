"""Golden-result regression suite over ``tests/data/golden.json``.

The snapshot pins the reproduced headline numbers — Figure 12/16 mean
speedups, the Figure 15 saturation curve, the Table 2 NStore:YCSB
retry row, Table 3 storage, and the Section 5.5 recovery cycles — at
the tier-1 scale (``transactions=60, seed=1``).  The simulator is
deterministic, so a clean tree reproduces every value exactly; the
snapshot's documented tolerances exist only to absorb deliberate,
reviewed model refinements, and the self-test below proves they stay
tight enough to catch a ±10% drift on every metric.

Refreshing after an intentional model change::

    python -m repro.harness golden --update
"""

from __future__ import annotations

import pytest

from repro.harness import golden
from repro.workloads import GENERATOR_VERSION

FAMILIES = (
    "fig12.", "fig15.", "fig16.", "newdesigns.", "tab02.", "tab03.",
    "sec55.", "loadcurve.",
)


@pytest.fixture(scope="module")
def snapshot():
    return golden.load_golden()


def _family(snapshot: dict, prefix: str) -> dict:
    metrics = {
        name: entry
        for name, entry in snapshot["metrics"].items()
        if name.startswith(prefix)
    }
    assert metrics, f"no golden metrics under {prefix!r}"
    return {"metrics": metrics}


class TestSnapshotShape:
    def test_meta_matches_tier1_settings(self, snapshot):
        meta = snapshot["meta"]
        assert meta["transactions"] == golden.TIER1_TRANSACTIONS
        assert meta["seed"] == golden.TIER1_SEED
        # A workload-generator bump invalidates the snapshot the same
        # way it invalidates disk traces: the gate must be regenerated.
        assert meta["generator_version"] == GENERATOR_VERSION

    def test_every_family_is_snapshotted(self, snapshot):
        for prefix in FAMILIES:
            _family(snapshot, prefix)

    def test_static_families_declare_zero_tolerance(self, snapshot):
        # Table 3 storage and the §5.5 recovery arithmetic are exact
        # integers; any movement is a real model change, not noise.
        for prefix in ("tab03.", "sec55."):
            for name, entry in _family(snapshot, prefix)["metrics"].items():
                assert entry.get("abs_tol") == 0, name
                assert "rel_tol" not in entry, name

    def test_dynamic_tolerances_stay_under_drift_threshold(self, snapshot):
        # Every relative band must sit well below the 10% drift the
        # gate promises to catch.
        for name, entry in snapshot["metrics"].items():
            rel = float(entry.get("rel_tol", 0.0))
            assert rel < 0.10, f"{name}: rel_tol {rel} too loose"


class TestGoldenGate:
    @pytest.mark.parametrize("prefix", FAMILIES)
    def test_family_within_tolerance(self, tier1_metrics, snapshot, prefix):
        measured = {
            name: value
            for name, value in tier1_metrics.items()
            if name.startswith(prefix)
        }
        failures = golden.compare(measured, _family(snapshot, prefix))
        assert not failures, "\n".join(failures)

    def test_full_bundle_matches_snapshot_exactly_one_to_one(
        self, tier1_metrics, snapshot
    ):
        # Both directions: nothing missing from the recomputation,
        # nothing computed that the snapshot does not pin.
        failures = golden.compare(tier1_metrics, snapshot)
        assert not failures, "\n".join(failures)


class TestGateSelfTest:
    def test_ten_percent_perturbation_always_caught(self, snapshot):
        # The acceptance bar: perturbing any single metric by ±10%
        # (or, for ~0-valued metrics, past their absolute band) must
        # trip the gate.  Mirrors ``golden --perturb 0.1``.
        undetected = golden.perturbation_self_test(snapshot, 0.10)
        assert undetected == []

    def test_small_drift_inside_tolerance_passes(self, snapshot):
        # The bands are real bands, not exact equality: a 1% nudge of
        # a relative-tolerance metric must NOT fail the gate.
        baseline = {
            name: entry["value"]
            for name, entry in snapshot["metrics"].items()
        }
        for name, entry in snapshot["metrics"].items():
            if float(entry.get("rel_tol", 0.0)) < 0.01:
                continue
            shifted = dict(baseline)
            shifted[name] = entry["value"] * 1.01
            assert golden.compare(shifted, snapshot) == [], name

    def test_static_metrics_fail_on_any_movement(self, snapshot):
        baseline = {
            name: entry["value"]
            for name, entry in snapshot["metrics"].items()
        }
        for prefix in ("tab03.", "sec55."):
            for name in _family(snapshot, prefix)["metrics"]:
                shifted = dict(baseline)
                shifted[name] = shifted[name] + 1
                failures = golden.compare(shifted, snapshot)
                assert any(name in f for f in failures), name

    def test_missing_metric_is_a_failure(self, snapshot):
        baseline = {
            name: entry["value"]
            for name, entry in snapshot["metrics"].items()
        }
        dropped = next(iter(baseline))
        del baseline[dropped]
        failures = golden.compare(baseline, snapshot)
        assert any("missing" in f and dropped in f for f in failures)
