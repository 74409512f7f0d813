"""Set-associative write-back cache (tag store with true LRU).

The timing model only needs hit/miss/dirty-eviction behaviour, so the
cache tracks tags and state, not data bytes.  Data flows through the
functional layer (NVM device + security units) instead.

Hot-state layout: each set is a plain insertion-ordered ``dict`` from
tag to a bare ``int`` state (0 clean / 1 dirty) — LRU order is the
dict's insertion order (oldest first), a touch is delete-and-reinsert,
and the victim is ``next(iter(set))``.  The public API still speaks
:class:`CacheLineState`; the integers never escape this module.

:func:`memo_copy` is the one primitive of the ``__deepcopy__`` hooks
here, in :class:`~repro.mem.nvm.NVMDevice` and in
:class:`~repro.security.merkle.MerkleTree`: a crash copy of a
controller copies their flat stores at C speed instead of walking them
with the generic ``deepcopy``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.config import CacheConfig


class CacheLineState(enum.Enum):
    CLEAN = "clean"
    DIRTY = "dirty"


#: Internal per-line states (dict values); index into ``_STATE_ENUM``.
_CLEAN = 0
_DIRTY = 1
_STATE_ENUM = (CacheLineState.CLEAN, CacheLineState.DIRTY)


def memo_copy(container, memo: dict):
    """``container.copy()`` for a ``__deepcopy__`` hook, kept in ``memo``.

    For a dict or list whose items are immutable.  The copy is
    registered under the original's id, and a copy already registered
    is returned instead, so a container another object also holds (a
    set dict in ``MajorSecurityUnit._walks``, a ``_sets`` list in
    ``CacheHierarchy._hot``) maps to the same copy from both holders.
    """
    clone = memo.get(id(container))
    if clone is None:
        clone = memo[id(container)] = container.copy()
    return clone


@dataclass(frozen=True)
class EvictedLine:
    """A victim pushed out of a cache level."""

    address: int
    dirty: bool


class SetAssociativeCache:
    """True-LRU set-associative cache over line-aligned addresses.

    All addresses handed in are aligned down to the line size.  Each set
    is a plain dict from tag -> int state in LRU order (oldest first),
    giving O(1) lookup/insert/evict without ``OrderedDict``'s per-node
    linked-list overhead.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        if (1 << self._line_shift) != config.line_bytes:
            raise ValueError("line size must be a power of two")
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        self._sets: List[Dict[int, int]] = [
            {} for _ in range(self._num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0

    def __deepcopy__(self, memo: dict) -> "SetAssociativeCache":
        """Copy each set with ``dict.copy()`` (tag -> int state).

        The frozen config is shared; the ``_sets`` list and each set go
        through ``memo`` (:func:`memo_copy`).
        """
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(self.__dict__)
        sets = memo.get(id(self._sets))
        if sets is None:
            sets = memo[id(self._sets)] = [
                memo_copy(cache_set, memo) for cache_set in self._sets
            ]
        clone._sets = sets
        return clone

    # -- address helpers ----------------------------------------------
    def line_address(self, address: int) -> int:
        return (address >> self._line_shift) << self._line_shift

    def _index_tag(self, address: int) -> Tuple[int, int]:
        line = address >> self._line_shift
        return line % self._num_sets, line // self._num_sets

    # -- operations ----------------------------------------------------
    def lookup(self, address: int, touch: bool = True) -> Optional[CacheLineState]:
        """Return the line's state on hit (updating LRU), else ``None``."""
        line = address >> self._line_shift
        cache_set = self._sets[line % self._num_sets]
        tag = line // self._num_sets
        state = cache_set.get(tag)
        if state is None:
            return None
        if touch:
            del cache_set[tag]
            cache_set[tag] = state
        return _STATE_ENUM[state]

    def access(self, address: int, is_write: bool) -> bool:
        """Reference a line; allocate on miss.  Returns ``True`` on hit.

        Misses must be completed by the caller via :meth:`insert` (the
        hierarchy decides where the fill comes from); this method only
        records the hit/miss and updates state on hits.
        """
        line = address >> self._line_shift
        cache_set = self._sets[line % self._num_sets]
        tag = line // self._num_sets
        state = cache_set.get(tag)
        if state is None:
            self.misses += 1
            return False
        self.hits += 1
        del cache_set[tag]
        cache_set[tag] = _DIRTY if is_write else state
        return True

    def reference(self, address: int, is_write: bool) -> Tuple[bool, Optional[EvictedLine]]:
        """Fused :meth:`access` + miss-fill :meth:`insert` in one set walk.

        The hot path for the metadata caches: one index/tag computation
        and one dict probe decide hit bookkeeping, LRU touch, miss fill
        and victim selection together.  Returns ``(hit, victim)``; the
        victim is only ever non-``None`` on a miss into a full set.
        Semantically identical to ``access(a, w)`` followed on miss by
        ``insert(a, dirty=w)``.
        """
        line = address >> self._line_shift
        index = line % self._num_sets
        cache_set = self._sets[index]
        tag = line // self._num_sets
        state = cache_set.get(tag)
        if state is not None:
            self.hits += 1
            del cache_set[tag]
            cache_set[tag] = _DIRTY if is_write else state
            return True, None
        self.misses += 1
        victim: Optional[EvictedLine] = None
        if len(cache_set) >= self._assoc:
            victim_tag = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_tag) == _DIRTY
            if victim_dirty:
                self.dirty_evictions += 1
            victim = EvictedLine(
                (victim_tag * self._num_sets + index) << self._line_shift,
                victim_dirty,
            )
        cache_set[tag] = _DIRTY if is_write else _CLEAN
        return False, victim

    def reference_line(self, line: int, is_write: bool) -> Tuple[bool, Optional[int], bool]:
        """:meth:`reference` keyed on the *line number* (``address >> shift``).

        The metadata caches address blocks by abstract integer keys that
        map 1:1 onto line numbers; taking the line directly skips two
        shifts per probe and the :class:`EvictedLine` allocation.
        Returns ``(hit, victim_line, victim_dirty)`` with ``victim_line``
        ``None`` when nothing was evicted.
        """
        index = line % self._num_sets
        cache_set = self._sets[index]
        tag = line // self._num_sets
        state = cache_set.get(tag)
        if state is not None:
            self.hits += 1
            del cache_set[tag]
            cache_set[tag] = _DIRTY if is_write else state
            return True, None, False
        self.misses += 1
        victim_line: Optional[int] = None
        victim_dirty = False
        if len(cache_set) >= self._assoc:
            victim_tag = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_tag) == _DIRTY
            if victim_dirty:
                self.dirty_evictions += 1
            victim_line = victim_tag * self._num_sets + index
        cache_set[tag] = _DIRTY if is_write else _CLEAN
        return False, victim_line, victim_dirty

    def insert(self, address: int, dirty: bool) -> Optional[EvictedLine]:
        """Fill a line, evicting the LRU victim if the set is full."""
        line = address >> self._line_shift
        index = line % self._num_sets
        cache_set = self._sets[index]
        tag = line // self._num_sets
        state = cache_set.get(tag)
        if state is not None:
            # Upgrade in place; never downgrade dirty -> clean here.
            del cache_set[tag]
            cache_set[tag] = _DIRTY if dirty else state
            return None
        victim: Optional[EvictedLine] = None
        if len(cache_set) >= self._assoc:
            victim_tag = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_tag) == _DIRTY
            if victim_dirty:
                self.dirty_evictions += 1
            victim = EvictedLine(
                (victim_tag * self._num_sets + index) << self._line_shift,
                victim_dirty,
            )
        cache_set[tag] = _DIRTY if dirty else _CLEAN
        return victim

    def clean_line(self, address: int) -> bool:
        """Write back a line in place (clwb semantics).

        Returns ``True`` if the line was present and dirty (so a
        writeback toward memory is needed).  The line stays resident in
        CLEAN state, exactly like ``clwb``.
        """
        line = address >> self._line_shift
        cache_set = self._sets[line % self._num_sets]
        tag = line // self._num_sets
        state = cache_set.get(tag)
        if state is None:
            return False
        cache_set[tag] = _CLEAN
        return state == _DIRTY

    def invalidate_line(self, address: int) -> Optional[EvictedLine]:
        """Drop a line (clflush semantics); returns it if it was dirty."""
        line = address >> self._line_shift
        cache_set = self._sets[line % self._num_sets]
        tag = line // self._num_sets
        state = cache_set.pop(tag, None)
        if state is None:
            return None
        dirty = state == _DIRTY
        if dirty:
            self.dirty_evictions += 1
        return EvictedLine(self.line_address(address), dirty)

    def contains(self, address: int) -> bool:
        line = address >> self._line_shift
        return (line // self._num_sets) in self._sets[line % self._num_sets]

    def resident_lines(self) -> Iterator[Tuple[int, CacheLineState]]:
        """Iterate (line_address, state) over all resident lines."""
        for index, cache_set in enumerate(self._sets):
            for tag, state in cache_set.items():
                yield (
                    (tag * self._num_sets + index) << self._line_shift,
                    _STATE_ENUM[state],
                )

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "dirty_evictions": self.dirty_evictions,
            "occupancy": self.occupancy,
        }
