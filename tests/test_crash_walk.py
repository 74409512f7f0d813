"""The crash walk: one execution per unit, a crashed deep copy per site.

Two equivalences keep the walk honest:

* crashing the walk's deep copy at a site yields the image a fresh
  execution crashed at that cycle yields, and the walk itself carries
  on exactly as an uncrashed run;
* the one-pass site enumeration equals the two-pass enumeration it
  replaced (kept below as the reference).
"""

from __future__ import annotations

from typing import List

import pytest

from repro.config import ControllerKind, SimConfig
from repro.instrumentation import CrashSiteProbe
from repro.matrix import controller_matrix
from repro.oracle.driver import OracleExecution
from repro.oracle.ops import Op, generate_ops
from repro.oracle.sites import (
    CrashSite,
    SiteEnumeration,
    enumerate_sites,
    machine_state_hash,
)
from repro.recovery.crash import CrashImage, crash_system

MATRIX = controller_matrix()


def _image_state(image: CrashImage):
    """Everything a crash image preserves, in comparable form."""
    return (
        image.nvm._lines,
        image.nvm._regions,
        image.registers,
        image.drained,
    )


@pytest.mark.parametrize("label", sorted(MATRIX))
def test_crashed_copy_matches_fresh_run_at_every_site(label):
    config = MATRIX[label]
    ops = generate_ops("hashmap", 10, 0)
    battery = config.controller is ControllerKind.EADR_SECURE
    sites = enumerate_sites(config, ops).sites
    walk = OracleExecution(config, ops)
    for site in sites:
        walk.run(until=site.cycle)
        if site.state_hash:
            # The walk is unaffected by the copies crashed before.
            assert machine_state_hash(walk.controller) == site.state_hash
        copied = walk.crash_copy(battery)
        fresh = OracleExecution(config, ops)
        fresh.run(until=site.cycle)
        assert walk.commits_fired == fresh.commits_fired
        expect = crash_system(fresh.controller, battery=battery)
        assert _image_state(copied) == _image_state(expect), site
    walk.run()
    reference = OracleExecution(config, ops)
    reference.run()
    assert walk.finished and reference.finished
    assert walk.sim.now == reference.sim.now
    assert walk.commits_fired == reference.commits_fired == len(ops)
    assert walk.controller.nvm._lines == reference.controller.nvm._lines
    assert walk.controller.nvm._regions == reference.controller.nvm._regions
    assert walk.controller.registers == reference.controller.registers


# ----------------------------------------------------------------------
# One-pass vs two-pass site enumeration
# ----------------------------------------------------------------------
def two_pass_enumerate_sites(config: SimConfig, ops: List[Op]) -> SiteEnumeration:
    """The two-pass enumerator the one-pass walk replaced (reference).

    Pass 1 runs with the probe attached and collects the cycles at which
    boundary events fired; pass 2 re-executes and steps through those
    cycles, hashing the machine state after each stop.
    """
    probe = CrashSiteProbe()
    execution = OracleExecution(config, ops, probe=probe)
    execution.run()
    assert execution.finished
    final_cycle = execution.sim.now
    last_kind_per_cycle = {}
    for cycle, kind, _digest in probe.boundaries:
        last_kind_per_cycle[cycle] = kind
    stepper = OracleExecution(config, ops)
    sites: List[CrashSite] = []
    previous_digest = None
    for cycle in sorted(last_kind_per_cycle):
        stepper.run(until=cycle)
        digest = machine_state_hash(stepper.controller)
        if digest == previous_digest:
            continue
        sites.append(
            CrashSite(len(sites), cycle, last_kind_per_cycle[cycle], digest)
        )
        previous_digest = digest
    sites.append(CrashSite(len(sites), final_cycle + 1, "quiescent", ""))
    return SiteEnumeration(
        sites=sites,
        final_cycle=final_cycle,
        raw_boundaries=len(probe.boundaries),
        commits_fired=execution.commits_fired,
    )


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("label", sorted(MATRIX))
def test_one_pass_enumeration_equals_two_pass(label, seed):
    """Covers the pre-WPQ fronts, whose first boundaries fire at cycle 0
    inside the execution's constructor: they must stay cycle 0's site,
    not merge into the first queued event's."""
    config = MATRIX[label]
    ops = generate_ops("hashmap", 12, seed)
    assert enumerate_sites(config, ops) == two_pass_enumerate_sites(config, ops)
