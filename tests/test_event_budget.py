"""Event and allocation budget per design.

A persist goes core -> controller -> Mi-SU -> WPQ -> Ma-SU through plain
callbacks: its completion, the drain's wake-up, a blocked write's
re-try and the Mi-SU port hand-off are callbacks the kernel schedules,
and so are a demand read's completion and the fence a core waits on.
These pins keep the event schedule where it is: each design fires
exactly the events it always has for one 60-tx hashmap unit at seed 1.

A read goes core -> controller -> Ma-SU the same way: its verification
walk derives each tree key as it climbs, so only the pages a design
writes keep a walk.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import run_trace
from repro.matrix import controller_matrix
from repro.workloads import generate_trace

TRANSACTIONS = 60
SEED = 1
PERSISTS = 1100

#: ``Simulator.events_fired`` per design: the schedule the persist path
#: keeps event for event.
EVENTS = {
    "dolos-full": 5550,
    "dolos-partial": 5550,
    "dolos-post": 7824,
    "prewpq-eager": 6704,
    "prewpq-lazy": 6704,
    "eadr": 6576,
    "triad": 6704,
    "writethrough": 6711,
}


def test_budget_covers_the_matrix():
    assert sorted(EVENTS) == sorted(controller_matrix())


@pytest.mark.parametrize("label", sorted(EVENTS))
def test_events_and_signals_per_design(label):
    # The name is kept from when the test also counted Signals.
    config = controller_matrix()[label]
    trace = generate_trace("hashmap", TRANSACTIONS, config.transaction_size, SEED)
    sims = []
    result = run_trace(
        config, trace, "hashmap", TRANSACTIONS,
        probe=lambda sim, controller, core: sims.append(sim),
    )
    assert result.stats["core.persists_issued"] == PERSISTS
    assert sims[0].events_fired == EVENTS[label]


def test_a_read_only_page_builds_no_walk_memo():
    """The Ma-SU keeps a tree walk only for the pages it writes: a read's
    verification walk of a never-written page leaves nothing behind."""
    config = controller_matrix()["dolos-full"]
    transactions = 100
    trace = generate_trace(
        "read-heavy", transactions, config.transaction_size, SEED
    )
    masus = []
    written = set()

    def probe(sim, controller, core):
        masu = controller.masu
        pipeline_latency = masu.write_pipeline_latency

        def recorded(now, address, critical_path=False):
            written.add(address >> 12)
            return pipeline_latency(now, address, critical_path)

        masu.write_pipeline_latency = recorded
        masus.append(masu)

    run_trace(config, trace, "read-heavy", transactions, probe=probe)
    masu = masus[0]
    # Reads miss the counter cache on far more pages than are written.
    assert masu.counter_cache.misses > 10 * len(written) > 0
    assert set(masu._walks) <= written
