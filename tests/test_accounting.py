"""The exact accounting laws every ``run_trace`` checks at its end."""

from __future__ import annotations

import pytest

from repro.config import ControllerKind, SimConfig
from repro.core.controller import MemoryController
from repro.harness.breakdown import run_with_breakdown
from repro.harness.runner import AccountingError, check_accounting, run_trace
from repro.scenarios.loadcurve import run_scenario, scenario_tenants
from repro.workloads import generate_trace

#: Counters that satisfy every law, with one WPQ read hit.
BALANCED = {
    "controller.writes": 10,
    "wpq.inserts": 8,
    "wpq.coalesced": 2,
    "persist.completed": 6,
    "core.persists_issued": 6,
    "controller.reads": 5,
    "nvm.reads": 4,
    "core.memory_reads": 3,
    "core.store_miss_fills": 2,
    "wpq.drained": 0,
    "masu.writes": 8,
    "misu.protected": 10,
}


class TestLaws:
    def test_balanced_counters_pass(self):
        check_accounting(BALANCED, wpq_read_hits=1)

    @pytest.mark.parametrize(
        "counter, message",
        [
            (
                "controller.writes",
                "controller.writes == wpq.inserts + wpq.coalesced broken: 11 != 10",
            ),
            (
                "core.persists_issued",
                "persist.completed == core.persists_issued broken: 6 != 7",
            ),
            (
                "nvm.reads",
                "controller.reads == nvm.reads + WPQ read hits broken: 5 != 6",
            ),
            (
                "core.memory_reads",
                "controller.reads == core.memory_reads + "
                "core.store_miss_fills broken: 5 != 6",
            ),
            (
                "wpq.drained",
                "wpq.inserts == wpq.drained + masu.writes broken: 8 != 9",
            ),
            (
                "misu.protected",
                "misu.protected == masu.writes + wpq.coalesced broken: 11 != 10",
            ),
        ],
    )
    def test_a_broken_law_names_itself_and_both_sides(self, counter, message):
        stats = dict(BALANCED, **{counter: BALANCED[counter] + 1})
        with pytest.raises(AccountingError) as raised:
            check_accounting(stats, wpq_read_hits=1)
        assert str(raised.value) == f"accounting law {message}"

    def test_the_misu_law_binds_only_designs_that_protect(self):
        stats = dict(BALANCED)
        del stats["misu.protected"]
        check_accounting(stats, wpq_read_hits=1)


@pytest.fixture
def first_completion_uncounted(monkeypatch):
    """Every controller loses the count of its first persist completion."""
    persisted = MemoryController.persisted

    def persisted_first_uncounted(self, entry, on_persist):
        persisted(self, entry, on_persist)
        if on_persist is not None and not getattr(self, "lost_one", False):
            self.lost_one = True
            self.counts["persist.completed"] -= 1

    monkeypatch.setattr(MemoryController, "persisted", persisted_first_uncounted)


def _plain(config):
    trace = generate_trace("hashmap", 20, config.transaction_size, 1)
    return run_trace(config, trace, "hashmap", 20)


def _breakdown(config):
    trace = generate_trace("hashmap", 20, config.transaction_size, 1)
    return run_with_breakdown(config, trace, "hashmap", 20)


def _scenario(config):
    tenants = scenario_tenants("hashmap", {"rate": 0.06})
    return run_scenario(config, tenants, 20, seed=1)


@pytest.mark.parametrize("path", [_plain, _breakdown, _scenario])
@pytest.mark.parametrize(
    "kind", [ControllerKind.DOLOS, ControllerKind.PRE_WPQ_SECURE]
)
class TestEveryRunChecks:
    def test_a_counted_run_passes(self, path, kind):
        path(SimConfig().with_(controller=kind))

    def test_a_skipped_count_fails_the_run(
        self, path, kind, first_completion_uncounted
    ):
        with pytest.raises(
            AccountingError,
            match=r"persist\.completed == core\.persists_issued broken",
        ) as raised:
            path(SimConfig().with_(controller=kind))
        left, right = str(raised.value).rsplit(": ", 1)[1].split(" != ")
        assert int(left) + 1 == int(right)
