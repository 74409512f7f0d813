"""Crash-point fuzzing: power-fail at arbitrary cycles, always recover.

The strongest crash-consistency statement the system can make: for
*any* crash instant during a write burst, recovery must (a) succeed,
(b) verify integrity, and (c) serve every write whose persist
completion had fired — with the data of either the persisted value or
a newer same-address value (persist ordering guarantees nothing more).
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ControllerKind, MiSUDesign, SimConfig, lazy_config
from repro.core.controller import DolosController, make_controller
from repro.core.requests import WriteKind, WriteRequest
from repro.engine import Simulator
from repro.recovery.crash import crash_system
from repro.recovery.recover import recover_system

HEAP = 0x1_0000_0000


def value(tag: str) -> bytes:
    return hashlib.blake2b(tag.encode(), digest_size=32).digest() * 2


def run_and_crash(
    design: MiSUDesign,
    crash_cycle: int,
    distinct: int,
    total: int,
    config: SimConfig = None,
    battery: bool = False,
):
    """Submit ``total`` writes over ``distinct`` addresses, crash, recover."""
    if config is None:
        config = SimConfig().with_(misu_design=design)
    sim = Simulator()
    controller = make_controller(sim, config)
    persisted_values = {}  # address -> list of persisted values, in order
    submitted_values = {}  # address -> every value ever submitted

    for i in range(total):
        address = HEAP + (i % distinct) * 64
        data = value(f"{design.value}-{i}")
        submitted_values.setdefault(address, []).append(data)

        def on_persist(address=address, data=data):
            persisted_values.setdefault(address, []).append(data)

        controller.submit_write(
            WriteRequest(address, WriteKind.PERSIST, data=data), on_persist
        )

    sim.run(until=crash_cycle)
    image = crash_system(controller, battery=battery)
    report = recover_system(image)
    return persisted_values, submitted_values, report


@pytest.mark.parametrize(
    "design",
    [MiSUDesign.FULL_WPQ, MiSUDesign.PARTIAL_WPQ, MiSUDesign.POST_WPQ],
)
@given(crash_cycle=st.integers(min_value=1, max_value=60000))
@settings(max_examples=12, deadline=None)
def test_any_crash_point_recovers_consistently(design, crash_cycle):
    persisted_values, submitted_values, report = run_and_crash(
        design, crash_cycle, distinct=6, total=24
    )
    assert report.tree_root_verified
    for address in persisted_values:
        got = report.masu.secure_read(address)
        # The recovered value must be *some* submitted version of this
        # address — never garbage, never another address's data.  (A
        # same-address successor may legitimately appear: coalescing
        # admits it into the persistence domain when it merges with the
        # pending entry; the traced software stack orders such writes
        # with fences, which this adversarial burst deliberately omits.)
        assert got in submitted_values[address], (
            f"{address:#x}: recovered value is not any submitted version"
        )


@given(crash_cycle=st.integers(min_value=1, max_value=30000))
@settings(max_examples=8, deadline=None)
def test_unique_addresses_recover_newest(crash_cycle):
    """Without same-address overwrites, the persisted value is unique
    and must be exactly what recovery returns."""
    persisted_values, _submitted, report = run_and_crash(
        MiSUDesign.PARTIAL_WPQ, crash_cycle, distinct=24, total=24
    )
    for address, values in persisted_values.items():
        assert len(values) == 1
        assert report.masu.secure_read(address) == values[0]


@pytest.mark.parametrize(
    "design",
    [MiSUDesign.FULL_WPQ, MiSUDesign.PARTIAL_WPQ, MiSUDesign.POST_WPQ],
)
@given(crash_cycle=st.integers(min_value=1, max_value=60000))
@settings(max_examples=6, deadline=None)
def test_lazy_toc_any_crash_point_recovers(design, crash_cycle):
    """The Phoenix/ToC (lazy tree) Ma-SU must give the same any-crash
    guarantee as the eager Merkle tree."""
    persisted_values, submitted_values, report = run_and_crash(
        design, crash_cycle, distinct=6, total=24,
        config=lazy_config(misu_design=design),
    )
    assert report.tree_root_verified
    for address in persisted_values:
        got = report.masu.secure_read(address)
        assert got in submitted_values[address], (
            f"{address:#x}: recovered value is not any submitted version"
        )


@given(crash_cycle=st.integers(min_value=1, max_value=60000))
@settings(max_examples=8, deadline=None)
def test_eadr_battery_crash_recovers(crash_cycle):
    """eADR: persist completes at WPQ arrival; the battery flushes the
    whole queue through the Ma-SU at power failure.  Every write whose
    persist fired must therefore be recoverable."""
    persisted_values, submitted_values, report = run_and_crash(
        MiSUDesign.PARTIAL_WPQ, crash_cycle, distinct=6, total=24,
        config=SimConfig().with_(controller=ControllerKind.EADR_SECURE),
        battery=True,
    )
    assert report.tree_root_verified
    for address in persisted_values:
        got = report.masu.secure_read(address)
        assert got in submitted_values[address], (
            f"{address:#x}: recovered value is not any submitted version"
        )


def test_double_crash_double_recovery():
    """Crash, recover, run again on the same NVM, crash again."""
    config = SimConfig()
    sim = Simulator()
    controller = DolosController(sim, config)
    controller.start()
    first_data = value("gen1")
    controller.submit_write(WriteRequest(HEAP, WriteKind.PERSIST, data=first_data))
    sim.run(until=2000)
    image1 = crash_system(controller)
    report1 = recover_system(image1)
    assert report1.masu.secure_read(HEAP) == first_data

    # Second generation reuses NVM + keys + registers + recovered Ma-SU.
    from repro.recovery.recover import reboot_controller

    sim2 = Simulator()
    controller2 = reboot_controller(sim2, image1, report1)
    second_data = value("gen2")
    controller2.submit_write(
        WriteRequest(HEAP + 64, WriteKind.PERSIST, data=second_data)
    )
    sim2.run(until=2000)
    image2 = crash_system(controller2)
    report2 = recover_system(image2)
    assert report2.masu.secure_read(HEAP) == first_data
    assert report2.masu.secure_read(HEAP + 64) == second_data
    assert report2.new_boot_epoch == 2
