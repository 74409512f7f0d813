"""Timing model for on-chip security-metadata caches.

The Ma-SU keeps two caches (Table 1): a 128 KB counter cache and a
256 KB Merkle-tree cache.  Both are ordinary set-associative tag
stores; what distinguishes them is *what a miss costs* (an NVM metadata
read) and that with lazy tree update their dirty evictions trigger
upward tree propagation.

Keys are abstract integers (page number for counter blocks,
``(level, index)`` flattened for tree nodes); we map them onto synthetic
line addresses so the generic cache model can be reused.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.config import CACHELINE_BYTES, CacheConfig
from repro.mem.cache import SetAssociativeCache


class MetadataCache:
    """A named metadata cache with miss/writeback accounting."""

    def __init__(self, config: CacheConfig, name: str = "") -> None:
        self.name = name or config.name
        self._cache = SetAssociativeCache(config)
        #: Keys map 1:1 onto line numbers iff the line size equals the
        #: key granularity — true for every shipped config, but guarded
        #: so exotic line sizes fall back to the address-based path.
        self._key_is_line = config.line_bytes == CACHELINE_BYTES
        self.accesses = 0
        self.misses = 0
        self.dirty_writebacks = 0
        #: Lines dropped by an injected parity fault and refetched.
        self.parity_refetches = 0
        #: Called with the victim key when a dirty metadata block leaves
        #: the cache (lazy-update trees propagate hashes here).
        self.on_dirty_eviction: Optional[Callable[[int], None]] = None
        #: Optional :class:`repro.faults.injector.FaultInjector`; when
        #: set, each access asks it whether this line just took a parity
        #: hit (one-shot), which invalidates the line and forces a
        #: refetch from (tree-verified) NVM — a *tolerated* fault.
        self.fault_injector = None

    @staticmethod
    def _key_to_address(key: int) -> int:
        return key * CACHELINE_BYTES

    @staticmethod
    def _address_to_key(address: int) -> int:
        return address // CACHELINE_BYTES

    def access(self, key: int, is_write: bool) -> bool:
        """Reference metadata block ``key``.  Returns ``True`` on hit.

        On a miss the block is filled immediately (the caller charges
        the NVM latency separately); a dirty victim is reported through
        :attr:`on_dirty_eviction`.
        """
        self.accesses += 1
        injector = self.fault_injector
        if injector is None and self._key_is_line:
            # Inlined body of reference_line: the counter + tree walks
            # of every persist funnel through here, so the extra method
            # call per metadata touch is measurable.
            cache = self._cache
            num_sets = cache._num_sets
            index = key % num_sets
            cache_set = cache._sets[index]
            tag = key // num_sets
            state = cache_set.get(tag)
            if state is not None:
                cache.hits += 1
                del cache_set[tag]
                cache_set[tag] = 1 if is_write else state
                return True
            cache.misses += 1
            self.misses += 1
            if len(cache_set) >= cache._assoc:
                victim_tag = next(iter(cache_set))
                if cache_set.pop(victim_tag):
                    cache.dirty_evictions += 1
                    self.dirty_writebacks += 1
                    if self.on_dirty_eviction is not None:
                        self.on_dirty_eviction(victim_tag * num_sets + index)
            cache_set[tag] = 1 if is_write else 0
            return False
        if injector is not None and injector.cache_parity_fault(self.name, key):
            # Parity hardware caught the flip; drop the poisoned line
            # (its content must not be written back) and refetch below.
            self._cache.invalidate_line(self._key_to_address(key))
            self.parity_refetches += 1
        if self._key_is_line:
            hit, victim_line, victim_dirty = self._cache.reference_line(
                key, is_write
            )
            if hit:
                return True
            self.misses += 1
            if victim_dirty:
                self.dirty_writebacks += 1
                if self.on_dirty_eviction is not None:
                    self.on_dirty_eviction(victim_line)
            return False
        hit, victim = self._cache.reference(self._key_to_address(key), is_write)
        if hit:
            return True
        self.misses += 1
        if victim is not None and victim.dirty:
            self.dirty_writebacks += 1
            if self.on_dirty_eviction is not None:
                self.on_dirty_eviction(self._address_to_key(victim.address))
        return False

    def path_slots(self, keys: Tuple[int, ...]) -> Tuple[Tuple[dict, int, int], ...]:
        """Each key's ``(set, tag, set index)``, for :meth:`access_path`.

        A pure function of the keys (the set dicts never change
        identity), so a caller that walks the same chain on every write
        computes it once.
        """
        cache = self._cache
        num_sets = cache._num_sets
        sets = cache._sets
        return tuple(
            (sets[key % num_sets], key // num_sets, key % num_sets) for key in keys
        )

    def access_path(
        self,
        keys: Tuple[int, ...],
        slots: Tuple[Tuple[dict, int, int], ...],
        is_write: bool,
    ) -> int:
        """Reference a chain of blocks (a tree walk) in one fused loop.

        Equivalent to ``sum(not self.access(k, is_write) for k in keys)``
        — returns the number of *misses* — but keeps the per-key
        bookkeeping inline so an eager tree update (height ≈ 8 accesses
        per persisted line) costs one method call instead of eight.
        ``slots`` is :meth:`path_slots` of ``keys``.  Falls back to
        per-key :meth:`access` when a fault injector is armed or keys
        don't map 1:1 onto lines, so fault campaigns see the exact same
        injection points.
        """
        if self.fault_injector is not None or not self._key_is_line:
            misses = 0
            for key in keys:
                if not self.access(key, is_write):
                    misses += 1
            return misses
        self.accesses += len(slots)
        # The per-key body of SetAssociativeCache.reference_line,
        # inlined: an eager walk re-touches the same ancestor chain on
        # every persist, so the method-call overhead per level is the
        # dominant cost, not the dict work itself.
        cache = self._cache
        num_sets = cache._num_sets
        assoc = cache._assoc
        on_dirty = self.on_dirty_eviction
        hits = 0
        misses = 0
        for cache_set, tag, index in slots:
            state = cache_set.get(tag)
            if state is not None:
                hits += 1
                del cache_set[tag]
                cache_set[tag] = 1 if is_write else state
                continue
            misses += 1
            if len(cache_set) >= assoc:
                victim_tag = next(iter(cache_set))
                if cache_set.pop(victim_tag):
                    cache.dirty_evictions += 1
                    self.dirty_writebacks += 1
                    if on_dirty is not None:
                        on_dirty(victim_tag * num_sets + index)
            cache_set[tag] = 1 if is_write else 0
        cache.hits += hits
        cache.misses += misses
        self.misses += misses
        return misses

    def contains(self, key: int) -> bool:
        return self._cache.contains(self._key_to_address(key))

    def dirty_keys(self) -> List[int]:
        """Keys of all dirty blocks (lost on crash; Anubis tracks them)."""
        out = []
        for line, state in self._cache.resident_lines():
            if state.value == "dirty":
                out.append(self._address_to_key(line))
        return sorted(out)

    def flush_all(self) -> List[int]:
        """Evict every dirty block (orderly shutdown); returns their keys."""
        dirty = self.dirty_keys()
        for key in dirty:
            self._cache.clean_line(self._key_to_address(key))
            self.dirty_writebacks += 1
            if self.on_dirty_eviction is not None:
                self.on_dirty_eviction(key)
        return dirty

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return 1.0 - self.misses / self.accesses

    def stats(self) -> Dict[str, int]:
        return {
            "accesses": self.accesses,
            "misses": self.misses,
            "dirty_writebacks": self.dirty_writebacks,
            "parity_refetches": self.parity_refetches,
        }
