"""The crash walk: one execution per unit, a crashed deep copy per site.

Two equivalences keep the walk honest:

* crashing the walk's deep copy at a site yields the image a fresh
  execution crashed at that cycle yields, and the walk itself carries
  on exactly as an uncrashed run;
* the one-pass site enumeration equals the two-pass enumeration it
  replaced (kept below as the reference).

A third check guards the copies themselves: a crash copy of the
controller, and a clone of a crash image, share no mutable object with
their original (the ``__deepcopy__`` hooks copy stores by hand, so a
store one of them forgets would otherwise stay shared).
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import enum
import gc
import pickle
import types
from array import array
from typing import List

import pytest

from repro.config import ControllerKind, SimConfig
from repro.instrumentation import CrashSiteProbe
from repro.mem.hierarchy import CacheHierarchy
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


# ----------------------------------------------------------------------
# Crash copies share no mutable state with the live machine
# ----------------------------------------------------------------------
#: Objects a copy shares by design; the reachability walk stops there.
_SHARED_KINDS = (
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
    enum.Enum,
)
_MUTABLE = (dict, list, set, bytearray, array, collections.deque)


def _reachable(root, stop=None):
    """Every object reachable from ``root`` through ``gc.get_referents``.

    The walk stops at ``stop`` (the simulator a crash copy shares), at
    classes, modules, functions, enum members and frozen dataclass
    instances.  Functions are where it must stop: an in-flight write's
    completion callback is a closure the copy shares with the driver.
    """
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if (
            id(obj) in seen
            or obj is stop
            or isinstance(obj, _SHARED_KINDS)
            or (
                dataclasses.is_dataclass(obj)
                and obj.__dataclass_params__.frozen
            )
        ):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen


def _shared_mutables(original, copied, stop=None):
    """Containers and instances reachable from both ``original`` and ``copied``."""
    left = _reachable(original, stop)
    right = _reachable(copied, stop)
    return [
        right[key]
        for key in right.keys() & left.keys()
        if isinstance(right[key], _MUTABLE)
        or hasattr(right[key], "__dict__")
        or hasattr(type(right[key]), "__slots__")
    ]


@pytest.mark.parametrize("label", sorted(MATRIX))
def test_crash_copy_and_clone_share_no_mutable_state(label):
    config = MATRIX[label]
    ops = generate_ops("hashmap", 10, 0)
    sites = enumerate_sites(config, ops).sites
    walk = OracleExecution(config, ops)
    walk.run(until=sites[len(sites) // 2].cycle)

    copied = copy.deepcopy(walk.controller, {id(walk.sim): walk.sim})
    assert _shared_mutables(walk.controller, copied, walk.sim) == []
    if copied.masu is not None:
        # The Ma-SU's walk memo holds MT-cache set dicts: the copy's
        # must be the copy's own sets, not a second copy of them.
        own_sets = {id(s) for s in copied.masu.mt_cache._cache._sets}
        assert all(
            id(cache_set) in own_sets
            for _keys, slots in copied.masu._walks.values()
            for cache_set, _tag, _index in slots
        )

    image = walk.crash_copy(config.controller is ControllerKind.EADR_SECURE)
    image.persisted_oracle = {0x1000: b"\x5a" * 64}
    clone = image.clone()
    assert _shared_mutables(image, clone) == []
    # Built field by field: every field is set, to an equal value.
    for spec in dataclasses.fields(CrashImage):
        assert pickle.dumps(getattr(clone, spec.name)) == pickle.dumps(
            getattr(image, spec.name)
        ), spec.name


def test_hierarchy_copy_keeps_its_hot_handles_on_its_own_sets():
    """``CacheHierarchy._hot`` holds each level's ``_sets`` list; the
    cache hooks register their copies in ``memo``, so the copy's handles
    point at the copy's own sets."""
    hierarchy = CacheHierarchy(SimConfig())
    for address in range(0, 1 << 18, 64):
        hierarchy.access(address, address % 128 == 0)
    copied = copy.deepcopy(hierarchy)
    for level, (cache, sets, _, _) in zip(copied._levels, copied._hot):
        assert cache is level and sets is level._sets
    assert copied.l1.occupancy == hierarchy.l1.occupancy > 0
    assert _shared_mutables(hierarchy, copied) == []
