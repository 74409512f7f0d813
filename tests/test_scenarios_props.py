"""Property-based tests for the open-loop scenario generators (PR 10).

Hypothesis sweeps the generator invariants the characterization suite
builds on: seeded determinism (bit-identical streams and
interleavings), the Poisson rate contract (empirical inter-arrival
mean inside a generous CI of ``1000/rate``), the skew dial's uniform
degeneration at ``s = 0``, and the tenant merge's per-tenant
order stability.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cpu.trace import OP_ARRIVAL, unpack_arrival
from repro.scenarios import (
    MMPPArrivals,
    PoissonArrivals,
    SkewedRandom,
    TenantSpec,
    build_scenario_trace,
    build_tenant_stream,
    make_arrivals,
    merge_tenant_streams,
)

rates = st.floats(min_value=0.005, max_value=2.0)
seeds = st.integers(0, 2**31)
counts = st.integers(1, 300)
bursts = st.floats(min_value=1.05, max_value=1.95)


# ----------------------------------------------------------------------
# Seeded determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(rate=rates, seed=seeds, n=counts)
    def test_poisson_same_seed_bit_identical(self, rate, seed, n):
        a = PoissonArrivals(rate).sample(n, seed)
        b = PoissonArrivals(rate).sample(n, seed)
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(rate=rates, seed=seeds, n=counts, burst=bursts)
    def test_mmpp_same_seed_bit_identical(self, rate, seed, n, burst):
        a = MMPPArrivals(rate, burst=burst).sample(n, seed)
        b = MMPPArrivals(rate, burst=burst).sample(n, seed)
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(rate=rates, seed=seeds, n=counts)
    def test_arrivals_are_sorted_non_negative_ints(self, rate, seed, n):
        arrivals = PoissonArrivals(rate).sample(n, seed)
        assert len(arrivals) == n
        assert all(isinstance(cycle, int) and cycle >= 0 for cycle in arrivals)
        assert arrivals == sorted(arrivals)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_scenario_trace_same_seed_bit_identical(self, seed):
        tenants = [
            TenantSpec("hashmap", 0.05, skew=0.8),
            TenantSpec("synthetic", 0.08, arrivals="mmpp"),
        ]
        a = build_scenario_trace(tenants, 6, 256, seed)
        b = build_scenario_trace(tenants, 6, 256, seed)
        assert a == b

    def test_make_arrivals_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_arrivals("uniform", 0.1)


# ----------------------------------------------------------------------
# The Poisson rate contract
# ----------------------------------------------------------------------
class TestPoissonRate:
    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(min_value=0.01, max_value=1.0), seed=seeds)
    @example(rate=1.0, seed=94467)
    def test_mean_inter_arrival_tracks_rate(self, rate, seed):
        """Empirical mean gap within ±6 standard errors of 1000/rate.

        Exponential gaps have sigma = mean, so the standard error over
        n samples is ``mean / sqrt(n)``; the last arrival is the sum
        of all n gaps.  A 6-sigma band over 2025 gaps is as tight as
        4 sigma over 900 (13.3% of the mean) with negligible
        false-failure odds.  The pinned example fell just outside that
        4-sigma band at n = 900.
        """
        n = 2025
        arrivals = PoissonArrivals(rate).sample(n, seed)
        mean_gap = arrivals[-1] / n
        expected = 1000.0 / rate
        tolerance = 6.0 * expected / n ** 0.5
        assert abs(mean_gap - expected) < tolerance

    @settings(max_examples=15, deadline=None)
    @given(rate=st.floats(min_value=0.01, max_value=1.0), seed=seeds,
           burst=bursts)
    def test_mmpp_preserves_long_run_rate(self, rate, seed, burst):
        """Hot/cold rates average to the nominal rate (±8 sigma: the
        modulation adds variance beyond the exponential's)."""
        n = 1200
        arrivals = MMPPArrivals(rate, burst=burst).sample(n, seed)
        mean_gap = arrivals[-1] / (n - 1)
        expected = 1000.0 / rate
        assert abs(mean_gap - expected) < 8.0 * expected / (n - 1) ** 0.5

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, n=st.integers(16, 200))
    def test_same_seed_scales_across_rates(self, seed, n):
        """One seeded gap sequence, scaled by 1/rate: the heavy-load
        stream is a pure compression of the light-load stream (this is
        what makes the loadcurve's p99 monotone in offered load)."""
        slow = PoissonArrivals(0.05).sample(n, seed)
        fast = PoissonArrivals(0.10).sample(n, seed)
        assert all(f <= s for s, f in zip(slow, fast))


# ----------------------------------------------------------------------
# The skew dial
# ----------------------------------------------------------------------
class TestSkewDial:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, n=st.integers(1, 2**21))
    def test_s_zero_is_exactly_uniform(self, seed, n):
        """``s = 0`` degenerates to floor(u * n) of the same stream —
        bit-identical to what a plain Random would pick."""
        skewed = SkewedRandom(seed, s=0.0)
        plain = random.Random(seed)
        draws = [skewed.randrange(n) for _ in range(50)]
        expected = [int(plain.random() * n) for _ in range(50)]
        assert draws == expected

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, s=st.floats(min_value=0.0, max_value=3.0),
           n=st.integers(1, 2**21))
    def test_draws_stay_in_range(self, seed, s, n):
        rng = SkewedRandom(seed, s=s)
        for _ in range(60):
            assert 0 <= rng.randrange(n) < n

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_higher_skew_concentrates_low_ranks(self, seed):
        n, draws = 1 << 20, 600
        flat = SkewedRandom(seed, s=0.0)
        skewed = SkewedRandom(seed, s=1.2)
        flat_low = sum(flat.randrange(n) < n // 100 for _ in range(draws))
        skew_low = sum(skewed.randrange(n) < n // 100 for _ in range(draws))
        assert skew_low > flat_low

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError):
            SkewedRandom(1, s=-0.5)

    def test_randrange_with_start_and_step(self):
        rng = SkewedRandom(7, s=1.1)
        for _ in range(40):
            value = rng.randrange(100, 200, 5)
            assert 100 <= value < 200 and (value - 100) % 5 == 0


# ----------------------------------------------------------------------
# Tenant merge stability
# ----------------------------------------------------------------------
class TestMergeStability:
    @settings(max_examples=8, deadline=None)
    @given(seed=seeds)
    def test_merge_preserves_per_tenant_order(self, seed):
        """The interleaving is a stable merge: each tenant's blocks
        appear in exactly their original (arrival-stamped) order."""
        streams = [
            build_tenant_stream(TenantSpec("hashmap", 0.05), 0, 5, seed=seed),
            build_tenant_stream(TenantSpec("synthetic", 0.10), 1, 5, seed=seed),
        ]
        originals = {
            tenant: [block.ops for block in stream]
            for tenant, stream in enumerate(streams)
        }
        merged = merge_tenant_streams(streams)
        seen: dict = {tenant: [] for tenant in originals}
        current = None
        for op in merged:
            if op[0] == OP_ARRIVAL:
                current, _ = unpack_arrival(op[1])
                seen[current].append([op])
            else:
                seen[current][-1].append(op)
        assert {
            tenant: [tuple(ops) for ops in blocks]
            for tenant, blocks in seen.items()
        } == {
            tenant: [tuple(ops) for ops in blocks]
            for tenant, blocks in originals.items()
        }

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds)
    def test_merged_arrival_stamps_are_sorted(self, seed):
        streams = [
            build_tenant_stream(TenantSpec("hashmap", 0.07), 0, 4, seed=seed),
            build_tenant_stream(TenantSpec("synthetic", 0.07), 1, 4, seed=seed),
        ]
        merged = merge_tenant_streams(streams)
        stamps = [
            unpack_arrival(op[1])[1]
            for op in merged
            if op[0] == OP_ARRIVAL
        ]
        assert stamps == sorted(stamps)

    @settings(max_examples=6, deadline=None)
    @given(seed=seeds)
    def test_trace_stamps_attribute_the_right_tenant(self, seed):
        tenants = [TenantSpec("hashmap", 0.05), TenantSpec("synthetic", 0.05)]
        trace = build_scenario_trace(tenants, 4, 256, seed)
        stamped = [
            unpack_arrival(op[1]) for op in trace if op[0] == OP_ARRIVAL
        ]
        assert {tenant for tenant, _ in stamped} == {0, 1}
