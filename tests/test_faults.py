"""Fault-injection campaign: detection matrix, salvage, plan plumbing.

The acceptance bar from the robustness PR:

* corruption of security metadata (encryption counters, BMT/ToC nodes,
  data MACs, drained-WPQ records and their MACs) is never *silent* on
  any of the six oracle controller configs — and the MAC-protected
  drained-image kinds are always positively *detected*;
* a truncated or structurally inconsistent drained image raises the
  typed :class:`ImageMalformed` (with slot attribution);
* a degraded ADR budget forces a partial drain whose recovery salvages
  every fully-drained live slot and enumerates every lost one
  (:class:`SlotsLost` in strict mode);
* plans are seeded, serializable and deterministic.
"""

import pytest

from repro.config import ControllerKind
from repro.faults import ALL_KINDS, FaultInjector, FaultPlan, FaultSpec, apply_spec
from repro.faults.campaign import (
    DETECTED,
    SILENT,
    TOLERATED,
    classify_recovery,
    inject_and_classify,
    run_campaign,
    run_fault_unit,
)
from repro.oracle.check import controller_matrix, select_sites
from repro.oracle.driver import OracleExecution
from repro.oracle.golden import prefix_states
from repro.oracle.ops import generate_ops
from repro.oracle.sites import enumerate_sites
from repro.recovery.crash import crash_system
from repro.recovery.errors import ImageMalformed, SlotsLost, TamperDetected
from repro.recovery.recover import recover_system
from repro.wpq.adr import ADRDrain, WPQ_IMAGE_REGION
from repro.workloads import ORACLE_SEMANTICS

WORKLOAD = "hashmap"
TXNS = 12
SEED = 0

MATRIX = controller_matrix()

#: Fault kinds whose detection is unconditional: they corrupt bytes
#: that a MAC / structural check *always* covers on every config that
#: can take them (the plan generator only draws applicable kinds).
ALWAYS_DETECTED_KINDS = {
    "wpq-record-flip",
    "wpq-mac-flip",
    "wpq-truncate",
    "wpq-reorder",
}


def _crash_at_interior_site(label, occupied_min=0, crash=True):
    """Crash the ``label`` config at an interior oracle site.

    Returns ``(execution, image, ops, states)``.  With ``occupied_min``
    set, prefers the first interior site whose live WPQ holds at least
    that many occupied entries (partial-drain tests need real losses).
    With ``crash=False`` the machine is left running (``image`` is
    ``None``) so the caller can crash it with an injector attached — a
    drain is one-shot, so the helper must not consume it first.
    """
    config = MATRIX[label]
    ops = generate_ops(WORKLOAD, TXNS, SEED)
    states = prefix_states(ORACLE_SEMANTICS[WORKLOAD], ops)
    battery = config.controller is ControllerKind.EADR_SECURE
    sites = select_sites(enumerate_sites(config, ops).sites, 8)[1:-1]
    chosen = None
    for site in sites:
        execution = OracleExecution(config, ops)
        execution.run(until=site.cycle)
        occupied = sum(1 for e in execution.controller.wpq.entries if e.occupied)
        if chosen is None or occupied >= occupied_min:
            chosen = execution
        if occupied >= occupied_min:
            break
    image = crash_system(chosen.controller, battery=battery) if crash else None
    return chosen, image, ops, states


@pytest.fixture(scope="module")
def site_cache():
    """Per-module cache of crash images: one oracle run per config."""
    cache = {}

    def get(label):
        if label not in cache:
            cache[label] = _crash_at_interior_site(label)
        return cache[label]

    return get


class TestDetectionMatrix:
    @pytest.mark.parametrize("label", sorted(MATRIX))
    def test_no_silent_corruption_across_plan(self, label, site_cache):
        """Every applicable catalogue fault is detected or tolerated —
        never silent — on every matrix controller config."""
        execution, image, ops, states = site_cache(label)
        plan = FaultPlan.generate(SEED, image)
        assert plan.faults, "plan generated no faults at a live site"
        seen = set()
        for spec in plan.faults:
            if spec.kind == "adr-degrade":
                continue
            result = inject_and_classify(
                image, spec, execution.commits_fired, ops, states, seed=SEED
            )
            assert result is not None, f"{spec.describe()} had no target"
            outcome, detail, _ = result
            assert outcome != SILENT, f"{spec.describe()} was SILENT: {detail}"
            if spec.kind in ALWAYS_DETECTED_KINDS:
                assert outcome == DETECTED, (
                    f"{spec.describe()} must be detected, got {outcome}: "
                    f"{detail}"
                )
            seen.add(spec.kind)
        # The matrix is only meaningful if real corruption was planted
        # (which metadata is populated varies per config and site).
        assert seen - {"cache-parity"}

    @pytest.mark.parametrize("label", sorted(MATRIX))
    def test_unit_campaign_passes(self, label):
        """`run_fault_unit` (baseline check + plan + degraded drain)
        reports zero silent faults and a clean baseline per config."""
        unit = run_fault_unit(
            WORKLOAD, label, MATRIX[label], TXNS, seed=SEED, sites=1
        )
        assert unit.failures == []
        assert unit.count(SILENT) == 0
        assert unit.outcomes, "campaign injected nothing"
        assert unit.passed

    def test_clean_baseline_is_tolerated(self, site_cache):
        execution, image, ops, states = site_cache("dolos-full")
        outcome, detail = classify_recovery(
            image.clone(),
            FaultInjector(FaultPlan(SEED)),
            execution.commits_fired,
            ops,
            states,
        )
        assert outcome == TOLERATED, detail


class TestTypedImageErrors:
    """Structural drained-image damage raises ImageMalformed."""

    def _drained_image(self, label="dolos-partial"):
        _, image, _, _ = _crash_at_interior_site(label)
        slots = sorted(image.nvm.region(WPQ_IMAGE_REGION))
        assert slots, "crash site drained no WPQ records"
        return image, slots

    def test_truncated_image_detected(self):
        image, slots = self._drained_image()
        spec = FaultSpec("wpq-truncate", region=WPQ_IMAGE_REGION, target=slots[0])
        assert apply_spec(image.nvm, spec)
        with pytest.raises(ImageMalformed):
            recover_system(image)

    def test_truncated_record_bytes_detected_with_slot(self):
        image, slots = self._drained_image()
        region = image.nvm.region(WPQ_IMAGE_REGION)
        region[slots[0]] = region[slots[0]][:10]  # shorter than the header
        with pytest.raises(ImageMalformed) as excinfo:
            recover_system(image)
        assert excinfo.value.slot == slots[0]

    def test_meta_drop_with_records_detected(self):
        image, _ = self._drained_image()
        spec = FaultSpec("wpq-meta-drop", region="wpq_image_meta", target=0)
        assert apply_spec(image.nvm, spec)
        with pytest.raises(ImageMalformed):
            recover_system(image)

    def test_cleared_flag_flip_detected(self):
        """Regression: the cleared flag is in the entry-MAC domain.

        Flipping it (bit 128 = first bit of the cleared byte) would
        silently drop a committed write at replay if the MAC did not
        cover it."""
        image, slots = self._drained_image()
        assert image.nvm.corrupt_region_entry(WPQ_IMAGE_REGION, slots[0], 128)
        with pytest.raises(TamperDetected):
            recover_system(image)

    def test_reorder_detected(self):
        image, slots = self._drained_image()
        if len(slots) < 2:
            pytest.skip("need two drained records to reorder")
        spec = FaultSpec(
            "wpq-reorder",
            region=WPQ_IMAGE_REGION,
            target=slots[0],
            aux=slots[1],
        )
        assert apply_spec(image.nvm, spec)
        with pytest.raises(TamperDetected):
            recover_system(image)


class TestDegradedDrainSalvage:
    def test_partial_drain_salvages_and_enumerates(self):
        execution, _, ops, states = _crash_at_interior_site(
            "dolos-partial", occupied_min=2, crash=False
        )
        controller = execution.controller
        drain = controller.adr_drain
        needed = drain.energy_needed(controller.wpq, 0)
        assert needed >= 2, "site carries no drainable WPQ state"

        spec = FaultSpec("adr-degrade", aux=max(1, needed // 2))
        injector = FaultInjector(FaultPlan(seed=SEED, faults=(spec,)))
        image = crash_system(controller, injector=injector)
        assert drain.partial_drains == 1
        assert any(site == "adr.budget" for site, _ in injector.notes)

        # Census of what actually landed, before recovery touches it.
        census = ADRDrain(image.nvm, image.config.adr, image.config.misu_design)
        meta = census.read_meta()
        assert meta is not None and meta.partial
        records = census.read_image()
        present = {record.slot for record in records}
        salvaged_live = sum(1 for record in records if not record.cleared)
        expected_lost = [s for s in meta.occupied_slots() if s not in present]

        report = recover_system(image.clone())
        assert report.partial_drain
        assert sorted(report.slots_lost) == sorted(expected_lost)
        assert report.wpq_entries_recovered == salvaged_live

        if expected_lost:
            with pytest.raises(SlotsLost) as excinfo:
                recover_system(image.clone(), strict_slots=True)
            assert sorted(excinfo.value.slots) == sorted(expected_lost)

        outcome, detail = classify_recovery(
            image,
            injector,
            execution.commits_fired,
            ops,
            states,
            loss_expected=(expected_lost, salvaged_live),
        )
        assert outcome in (DETECTED, TOLERATED), detail


class TestPlanPlumbing:
    def test_plan_json_roundtrip(self, site_cache):
        _, image, _, _ = site_cache("dolos-full")
        plan = FaultPlan.generate(SEED, image, degraded_budget=3)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_spec_dict_roundtrip(self):
        spec = FaultSpec("wpq-reorder", region="wpq_image", target=3, aux=5)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_plan_deterministic_per_seed(self, site_cache):
        _, image, _, _ = site_cache("dolos-full")
        assert FaultPlan.generate(7, image) == FaultPlan.generate(7, image)

    def test_plan_kinds_are_catalogued(self, site_cache):
        _, image, _, _ = site_cache("dolos-full")
        plan = FaultPlan.generate(SEED, image)
        assert {spec.kind for spec in plan.faults} <= set(ALL_KINDS)

    def test_prewpq_plan_has_no_wpq_faults(self, site_cache):
        """PreWPQ configs drain no image; WPQ kinds must not be drawn."""
        _, image, _, _ = site_cache("prewpq-eager")
        plan = FaultPlan.generate(SEED, image)
        assert not any(spec.kind.startswith("wpq-") for spec in plan.faults)

    def test_injector_parity_is_one_shot(self):
        spec = FaultSpec("cache-parity", region="counter$")
        injector = FaultInjector(FaultPlan(seed=0, faults=(spec,)))
        assert injector.cache_parity_fault("counter$", 0x40)
        assert not injector.cache_parity_fault("counter$", 0x80)
        assert not injector.cache_parity_fault("mt$", 0x40)
        assert injector.notes and injector.notes[0][0] == "cache.parity"

    def test_injector_budget_degradation_logged(self):
        spec = FaultSpec("adr-degrade", aux=2)
        injector = FaultInjector(FaultPlan(seed=0, faults=(spec,)))
        assert injector.adr_budget(10) == 2
        assert injector.adr_budget(1) == 1  # never raises the budget
        assert ("adr.budget", "degraded 10 -> 2") in injector.notes

    def test_cache_parity_fault_is_tolerated(self, site_cache):
        """A one-shot metadata-cache parity hit refetches from NVM: the
        recovered state still matches the golden model."""
        execution, image, ops, states = site_cache("dolos-full")
        spec = FaultSpec("cache-parity", region="counter$")
        result = inject_and_classify(
            image, spec, execution.commits_fired, ops, states, seed=SEED
        )
        assert result is not None
        outcome, detail, _ = result
        assert outcome == TOLERATED, detail


class TestCampaignDriver:
    def test_small_campaign_passes_with_json_report(self):
        report = run_campaign(
            [WORKLOAD],
            controllers=["dolos-full", "eadr"],
            transactions=TXNS,
            seed=SEED,
            sites=1,
            jobs=1,
        )
        assert report.passed
        totals = report.totals()
        assert totals[SILENT] == 0
        assert totals[DETECTED] + totals[TOLERATED] > 0

        import json

        payload = json.loads(report.to_json())
        assert payload["passed"] is True
        assert payload["totals"]["silent"] == 0
        assert len(payload["units"]) == 2

    def test_unknown_controller_rejected(self):
        with pytest.raises(KeyError):
            run_campaign([WORKLOAD], controllers=["nonesuch"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            run_campaign(["nonesuch"], controllers=["dolos-full"])

    @pytest.mark.parametrize("sites", [0, -2])
    def test_non_positive_sites_rejected(self, sites):
        """A budget below 1 would select the cold-boot and quiescent
        sites (0) or every site (negative), not interior ones."""
        with pytest.raises(ValueError, match="sites"):
            run_campaign([WORKLOAD], controllers=["dolos-full"], sites=sites)
        with pytest.raises(ValueError, match="sites"):
            run_fault_unit(
                WORKLOAD, "dolos-full", controller_matrix()["dolos-full"],
                TXNS, SEED, sites=sites,
            )

    @pytest.mark.parametrize("sites", ["0", "-2"])
    def test_cli_rejects_non_positive_sites(self, sites, capsys):
        from repro.faults.campaign import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--workloads", WORKLOAD, "--controllers", "dolos-partial",
                  "--transactions", "8", "--sites", sites])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--sites must be at least 1" in err
        assert "Traceback" not in err
