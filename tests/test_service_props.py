"""Property-based tests for the service protocol, plus the slow soak.

Hypothesis sweeps the protocol's invariants — wire roundtrips, job keys
that collide exactly when the run units do, framing robustness against
arbitrary bytes — over the whole JobSpec space.  The soak test (slow
tier) reuses the smoke harness at a heavier client mix against a real
server subprocess.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.harness.memo import UnitMemo
from repro.oracle.check import controller_matrix
from repro.service import protocol as proto
from repro.workloads import ALL_WORKLOADS

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
workloads = st.sampled_from(sorted(ALL_WORKLOADS))
designs = st.sampled_from(sorted(controller_matrix()))
overrides = st.fixed_dictionaries(
    {},
    optional={
        "transaction_size": st.integers(64, 8192),
        "adr_budget": st.sampled_from([16, 32, 64, 128]),
        "wpq_coalescing": st.booleans(),
        "persist_model": st.sampled_from(["epoch", "strict"]),
    },
)
run_specs = st.builds(
    proto.JobSpec,
    workload=workloads,
    design=designs,
    transactions=st.integers(1, 10**6),
    seed=st.integers(-(2**31), 2**31),
    experiment_id=st.text(max_size=24),
    overrides=overrides,
)
#: Open-loop descriptors drawn from a tiny space, each number in its
#: int and float spelling, so two draws often name one arrival process.
scenarios = st.fixed_dictionaries(
    {
        "rate": st.sampled_from([1, 1.0]),
        "burst": st.sampled_from([2, 2.0]),
        "arrivals": st.just("mmpp"),
    },
    optional={"dwell": st.sampled_from([12, 12.0])},
)
scenario_specs = st.builds(
    proto.JobSpec,
    workload=workloads,
    design=designs,
    transactions=st.integers(1, 4),
    seed=st.integers(0, 1),
    experiment_id=st.text(max_size=24),
    mode=st.just("scenario"),
    scenario=scenarios,
)
specs = st.one_of(run_specs, scenario_specs)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)
messages = st.fixed_dictionaries(
    {"type": st.text(min_size=1, max_size=16)},
    optional={"id": st.text(max_size=16), "body": json_values},
)


# ----------------------------------------------------------------------
# JobSpec / job_key
# ----------------------------------------------------------------------
class TestJobSpecProperties:
    @given(specs)
    def test_valid_specs_validate_and_roundtrip(self, spec):
        assert spec.validate() is spec
        assert proto.JobSpec.from_wire(spec.to_wire()) == spec

    @given(specs)
    def test_wire_form_survives_json(self, spec):
        # The wire dict must be JSON-serialisable and stable through a
        # real encode/decode cycle (what the socket actually carries).
        wired = json.loads(json.dumps(spec.to_wire()))
        assert proto.JobSpec.from_wire(wired) == spec

    @given(specs, st.text(max_size=24))
    def test_job_key_ignores_the_client_label(self, spec, label):
        relabelled = dataclasses.replace(spec, experiment_id=label)
        assert proto.job_key(spec) == proto.job_key(relabelled)

    @given(specs, specs, st.booleans())
    @example(  # one arrival process, two spellings of its numbers
        proto.JobSpec(
            "hashmap", "dolos-full", 4, 1, mode="scenario",
            scenario={"rate": 1, "burst": 2, "arrivals": "mmpp"},
        ),
        proto.JobSpec(
            "hashmap", "dolos-full", 4, 1, mode="scenario",
            scenario={"rate": 1.0, "burst": 2.0, "arrivals": "mmpp"},
        ),
        False,
    )
    def test_job_key_collides_exactly_when_the_run_units_agree(
        self, a, b, same_cell
    ):
        # The dedup guarantee: same key => same simulation, different
        # simulation => different key.  ``same_cell`` leaves only the
        # overrides, the scenario's spelling (and the label) to differ,
        # which often resolve to the same unit.
        if same_cell:
            b = dataclasses.replace(
                b, workload=a.workload, design=a.design,
                transactions=a.transactions, seed=a.seed, mode=a.mode,
            )
        same_key = proto.job_key(a) == proto.job_key(b)
        same_unit = proto.spec_to_run_unit(a) == proto.spec_to_run_unit(b)
        assert same_key == same_unit

    @given(specs)
    def test_job_key_is_the_unit_memo_key(self, spec):
        unit = proto.spec_to_run_unit(spec)
        assert proto.job_key(spec) == UnitMemo(None).key_for(unit)

    @given(specs)
    def test_job_key_is_trace_store_shaped(self, spec):
        # Same shape as TraceStore.digest keys: 24 lowercase hex chars
        # of a SHA-256 over canonical sorted-key JSON.
        key = proto.job_key(spec)
        assert len(key) == 24
        assert set(key) <= set("0123456789abcdef")

    @given(specs)
    def test_resolve_config_is_deterministic_and_applies_overrides(
        self, spec
    ):
        config = proto.resolve_config(spec)
        assert config == proto.resolve_config(spec)
        if "transaction_size" in spec.overrides:
            assert (
                config.transaction_size == spec.overrides["transaction_size"]
            )
        if "adr_budget" in spec.overrides:
            assert config.adr.budget_entries == spec.overrides["adr_budget"]
        if "wpq_coalescing" in spec.overrides:
            assert config.wpq_coalescing == spec.overrides["wpq_coalescing"]
        if "persist_model" in spec.overrides:
            assert config.core.persist_model == spec.overrides["persist_model"]


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFramingProperties:
    @given(messages)
    def test_encode_decode_roundtrip(self, message):
        assert proto.decode_message(proto.encode_message(message)) == message

    @given(messages)
    def test_frames_are_single_lines(self, message):
        data = proto.encode_message(message)
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1

    @given(st.binary(max_size=256))
    def test_decode_never_raises_anything_but_protocol_error(self, blob):
        try:
            decoded = proto.decode_message(blob)
        except proto.ProtocolError:
            return
        assert isinstance(decoded, dict)
        assert "type" in decoded

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8), json_scalars, max_size=6
        )
    )
    def test_result_digest_invariant_under_key_order(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert proto.result_digest(payload) == proto.result_digest(reordered)


# ----------------------------------------------------------------------
# Soak (slow tier): heavier client mix through the real subprocess path
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_service_soak_under_duplicate_heavy_concurrency():
    from repro.service.smoke import run_smoke

    report = run_smoke(
        workload="hashmap", transactions=60, seed=3, clients=8, jobs=2
    )
    assert report["passed"], report["failures"]
    assert report["bit_identical"]
    assert report["server_exit"] == 0
    # 8 clients x the matrix with one unique job per config: the dedup
    # layer, not the pool, must absorb the duplicate-heavy mix.
    assert report["stats"]["unique_jobs"] == len(controller_matrix())
    assert report["stats"]["dedup_hit_rate"] > 0.8
