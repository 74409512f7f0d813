"""Property tests for the persistent trace cache.

Two guarantees the parallel experiment engine leans on:

* the cache key digest is injective over the full identity tuple
  (workload, transactions, payload, seed, generator-version) — two
  distinct identities may never share an on-disk entry;
* racing writers of the *same* key are safe: every writer produces a
  complete file with identical bytes, and the atomic rename means
  readers only ever observe one whole file.
"""

import threading

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.harness import trace_store as trace_store_module
from repro.harness.trace_store import TraceCache, TraceStore
from repro.workloads import generate_trace


def _digest(workload, transactions, payload, seed, generator_version):
    """TraceStore.digest under a pinned generator version.

    ``GENERATOR_VERSION`` is imported into the trace_store namespace, so
    swapping the module attribute is exactly what a real version bump
    does to the digest.
    """
    previous = trace_store_module.GENERATOR_VERSION
    trace_store_module.GENERATOR_VERSION = generator_version
    try:
        return TraceStore.digest((workload, transactions, payload, seed))
    finally:
        trace_store_module.GENERATOR_VERSION = previous


_identities = st.tuples(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=16,
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=1000),
)


@given(a=_identities, b=_identities)
@settings(max_examples=200, deadline=None)
def test_distinct_identities_never_collide(a, b):
    """Distinct (workload, tx, payload, seed, generator-version) tuples
    must map to distinct cache digests — including tricky cases like
    workload names that embed digits or separators mimicking another
    tuple's rendering."""
    assume(a != b)
    assert _digest(*a) != _digest(*b)


@given(version_a=st.integers(0, 100), version_b=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_generator_version_bump_invalidates(version_a, version_b):
    assume(version_a != version_b)
    key = ("hashmap", 10, 1024, 0)
    assert _digest(*key, version_a) != _digest(*key, version_b)


def test_concurrent_writers_of_same_key_converge(tmp_path):
    """Eight threads race to store the same key: no writer may error, no
    temp file may survive, exactly one complete entry must exist, and it
    must load back as the canonical trace."""
    key = ("synthetic", 2, 64, 0)
    trace = generate_trace(*key)
    store = TraceStore(tmp_path)
    barrier = threading.Barrier(8)
    errors = []

    def writer():
        try:
            barrier.wait(timeout=30)
            store.store(key, trace)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    files = list(tmp_path.iterdir())
    assert len(files) == 1, f"expected one entry, found {files}"
    assert not files[0].name.startswith(".tmp-")
    assert store.load(key) == trace


# ----------------------------------------------------------------------
# Digest-verified load: arbitrary on-disk corruption never escapes.
# ----------------------------------------------------------------------
_KEY = ("synthetic", 2, 64, 0)


def _corruptions():
    """Ways a cache entry can rot on disk."""
    flips = st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000), st.binary(min_size=1, max_size=1)),
        min_size=1,
        max_size=8,
    )
    return st.one_of(
        flips.map(lambda f: ("flip", f)),
        st.integers(min_value=0, max_value=200).map(lambda n: ("truncate", n)),
        st.binary(min_size=0, max_size=64).map(lambda b: ("replace", b)),
    )


@given(corruption=_corruptions())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_corrupted_entry_always_regenerates_original(tmp_path, corruption):
    """The self-healing property: whatever bytes an attacker (or a bad
    disk) leaves in a cache entry, ``TraceCache.get`` returns the
    canonical trace — the payload digest rejects the rotten file and
    the entry is regenerated, never surfaced."""
    root = tmp_path / "cache"
    canonical = TraceCache(root).get(*_KEY)
    path = TraceStore(root).path_for(_KEY)
    if not path.exists():  # a previous example quarantined it
        TraceCache(root).get(*_KEY)
    raw = bytearray(path.read_bytes())

    mode, payload = corruption
    if mode == "flip":
        for offset, value in payload:
            raw[offset % len(raw)] = value[0]
        path.write_bytes(bytes(raw))
    elif mode == "truncate":
        path.write_bytes(bytes(raw[: payload % len(raw)]))
    else:
        path.write_bytes(payload)

    reloaded = TraceCache(root).get(*_KEY)
    assert reloaded == canonical


def test_corrupt_entry_is_quarantined_and_regenerated(tmp_path):
    """A rotten entry is moved into quarantine/ (kept for forensics),
    counted, and transparently regenerated in place."""
    cache = TraceCache(tmp_path)
    trace = cache.get(*_KEY)
    path = cache.store.path_for(_KEY)
    path.write_bytes(b"\x00" * 32)

    fresh = TraceCache(tmp_path)
    assert fresh.get(*_KEY) == trace
    assert fresh.store.quarantined == 1
    assert fresh.store.misses == 1
    quarantined = list((tmp_path / TraceStore.QUARANTINE_DIR).iterdir())
    assert [p.name for p in quarantined] == [path.name]
    # The regenerated entry is valid again: next load is a digest-clean hit.
    warm = TraceCache(tmp_path)
    assert warm.get(*_KEY) == trace
    assert warm.store.hits == 1 and warm.store.quarantined == 0


def test_wrong_payload_digest_rejected(tmp_path):
    """An entry whose header vouches for different payload bytes (e.g.
    a stale or swapped file) is treated as corrupt."""
    store = TraceStore(tmp_path)
    trace = generate_trace(*_KEY)
    store.store(_KEY, trace)
    path = store.path_for(_KEY)

    # Forge an entry for the same key whose payload digest lies.
    original = TraceStore.__dict__["payload_digest"]
    try:
        TraceStore.payload_digest = staticmethod(lambda t: "forged")
        store.store(_KEY, trace)
    finally:
        TraceStore.payload_digest = original

    fresh = TraceStore(tmp_path)
    assert fresh.load(_KEY) is None
    assert fresh.quarantined == 1
    assert not path.exists()


def test_same_key_writes_identical_bytes(tmp_path):
    """Two independent writers of the same (key, trace) produce
    byte-identical files — the property that makes the last-rename-wins
    race benign."""
    key = ("synthetic", 2, 64, 0)
    trace = generate_trace(*key)
    store_a = TraceStore(tmp_path / "a")
    store_b = TraceStore(tmp_path / "b")
    path_a = store_a.store(key, trace)
    path_b = store_b.store(key, trace)
    assert path_a.name == path_b.name
    assert path_a.read_bytes() == path_b.read_bytes()
