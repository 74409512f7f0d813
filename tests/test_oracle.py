"""Tests for the differential crash-consistency oracle.

The fast tests here are tier-1 (every ``pytest -x -q`` run); the
exhaustive 200-transaction sweep over every matrix controller configuration
is marked ``oracle`` (and ``slow``) and runs via ``make check-oracle``
or ``pytest -m oracle``.
"""

import json

import pytest

from repro.config import ControllerKind, MiSUDesign, TreeUpdateScheme
from repro.oracle import (
    CONTROLLER_MATRIX,
    OracleDivergence,
    check_unit,
    controller_matrix,
    enumerate_sites,
    generate_ops,
    machine_state_hash,
    make_golden,
    prefix_states,
    run_oracle,
)
from repro.oracle.check import _select_sites, main as check_main
from repro.persistence.commitlog import (
    OP_DEL,
    OP_PUT,
    CommitDecodeError,
    CommitRecord,
    record_address,
    value_checksum,
)
from repro.workloads import ALL_WORKLOADS, ORACLE_SEMANTICS


class TestCommitLog:
    def test_roundtrip(self):
        record = CommitRecord(7, OP_PUT, 123, 0x3_0000_0040, 128,
                              value_checksum(b"x" * 128))
        line = record.encode()
        assert len(line) == 64
        assert CommitRecord.decode(line) == record

    def test_decode_rejects_garbage(self):
        with pytest.raises(CommitDecodeError):
            CommitRecord.decode(b"\x00" * 64)
        with pytest.raises(CommitDecodeError):
            CommitRecord.decode(b"short")

    def test_record_addresses_are_distinct_lines(self):
        addresses = {record_address(seq) for seq in range(100)}
        assert len(addresses) == 100
        assert all(a % 64 == 0 for a in addresses)


class TestOpsAndGolden:
    def test_every_workload_has_semantics(self):
        assert set(ORACLE_SEMANTICS) == set(ALL_WORKLOADS)

    def test_ops_deterministic_per_seed(self):
        assert generate_ops("hashmap", 30, 1) == generate_ops("hashmap", 30, 1)
        assert generate_ops("hashmap", 30, 1) != generate_ops("hashmap", 30, 2)

    def test_tree_ops_differ_from_dict_ops(self):
        assert generate_ops("btree", 30, 0) != generate_ops("hashmap", 30, 0)

    def test_prefix_states_lengths(self):
        ops = generate_ops("btree", 20, 0)
        states = prefix_states("tree", ops)
        assert len(states) == 21
        assert states[0] == {}

    def test_golden_del_removes(self):
        from repro.oracle.ops import Op

        model = make_golden("dict")
        model.apply(Op(0, OP_PUT, 5, b"v"))
        model.apply(Op(1, OP_DEL, 5, b""))
        assert model.state() == {}


class TestSiteEnumeration:
    def test_sites_distinct_and_ordered(self):
        cfg = controller_matrix()["dolos-partial"]
        ops = generate_ops("hashmap", 6, 0)
        enum = enumerate_sites(cfg, ops)
        cycles = [site.cycle for site in enum.sites]
        assert cycles == sorted(cycles)
        hashes = [site.state_hash for site in enum.sites[:-1]]
        # Deduplicated: no two *consecutive* sites share a state.
        assert all(a != b for a, b in zip(hashes, hashes[1:]))
        assert enum.sites[-1].kind == "quiescent"
        assert enum.commits_fired == len(ops)

    def test_state_hash_changes_with_writes(self):
        from repro.core.controller import DolosController
        from repro.core.requests import WriteKind, WriteRequest
        from repro.engine import Simulator

        cfg = controller_matrix()["dolos-partial"]
        sim = Simulator()
        controller = DolosController(sim, cfg)
        controller.start()
        before = machine_state_hash(controller)
        controller.submit_write(
            WriteRequest(0x1_0000_0000, WriteKind.PERSIST, data=b"\x11" * 64)
        )
        sim.run()
        assert machine_state_hash(controller) != before

    def test_select_sites_keeps_ends(self):
        cfg = controller_matrix()["dolos-partial"]
        ops = generate_ops("hashmap", 6, 0)
        enum = enumerate_sites(cfg, ops)
        picked = _select_sites(enum.sites, 5)
        assert len(picked) == 5
        assert picked[0] is enum.sites[0]
        assert picked[-1] is enum.sites[-1]
        assert _select_sites(enum.sites, None) == enum.sites


class TestOracleMatrix:
    def test_matrix_covers_designs_and_controllers(self):
        matrix = controller_matrix()
        assert set(CONTROLLER_MATRIX) == set(matrix)
        designs = {cfg.misu_design for cfg in matrix.values()
                   if cfg.controller is ControllerKind.DOLOS}
        assert designs == {
            MiSUDesign.FULL_WPQ, MiSUDesign.PARTIAL_WPQ, MiSUDesign.POST_WPQ,
        }
        kinds = {cfg.controller for cfg in matrix.values()}
        assert ControllerKind.EADR_SECURE in kinds
        schemes = {cfg.security.tree_update for cfg in matrix.values()
                   if cfg.controller is ControllerKind.PRE_WPQ_SECURE}
        assert schemes == {TreeUpdateScheme.EAGER, TreeUpdateScheme.LAZY}


class TestCheckFast:
    """Small-trace sweeps that keep the oracle guarded in tier 1."""

    @pytest.mark.parametrize("label", ["dolos-partial", "prewpq-eager", "eadr"])
    def test_small_unit_passes(self, label):
        unit = check_unit(
            "hashmap", label, controller_matrix()[label], 6, site_budget=12,
        )
        assert unit.passed, unit.failures
        assert unit.sites_checked == 12
        assert unit.attacks_run >= 1
        assert unit.attacks_detected == unit.attacks_run

    def test_injected_divergence_is_caught(self):
        report = run_oracle(
            ["hashmap"], ["dolos-partial"], transactions=6,
            site_budget=4, inject_divergence=True,
        )
        assert report.passed
        assert report.units[0].injected_caught is True

    def test_cli_smoke_writes_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = check_main([
            "--workloads", "hashmap",
            "--controllers", "dolos-partial,eadr",
            "--transactions", "6",
            "--site-budget", "6",
            "--report", str(path),
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["passed"] is True
        assert len(payload["units"]) == 2
        assert "ORACLE PASS" in capsys.readouterr().out

    def test_divergent_recovery_fails_unit(self):
        """A checker that cannot fail is no oracle: force a state diff
        by corrupting the golden prefix states."""
        cfg = controller_matrix()["dolos-partial"]
        ops = generate_ops("hashmap", 4, 0)
        states = prefix_states("dict", ops)
        states[-1] = {999: b"not what was written"}
        from repro.oracle.check import check_site
        from repro.oracle.driver import OracleExecution
        from repro.oracle.sites import enumerate_sites as enum_fn

        enum = enum_fn(cfg, ops)
        with pytest.raises(OracleDivergence):
            check_site(
                OracleExecution(cfg, ops), states, enum.sites[-1],
                battery=False,
            )


@pytest.mark.oracle
@pytest.mark.slow
@pytest.mark.parametrize("workload", ["hashmap", "btree"])
@pytest.mark.parametrize("label", sorted(CONTROLLER_MATRIX))
def test_full_sweep_200tx(workload, label):
    """The acceptance sweep: every enumerated crash site, 200
    transactions, every matrix controller configuration, attacks on every
    4th site — no recovery failure, no golden-model divergence, 100%
    attack detection."""
    unit = check_unit(
        workload, label, controller_matrix()[label], 200, attack_every=4,
    )
    assert unit.passed, unit.failures[:5]
    assert unit.sites_checked == unit.sites_enumerated
    assert unit.attacks_detected == unit.attacks_run > 0
