"""A functional N-ary Merkle (hash) tree over a sparse leaf space.

Used as the Bonsai Merkle Tree over counter blocks (Section 2.2): the
leaves are the encoded 64-byte counter blocks; internal nodes are
8-byte keyed MACs of their children; the root lives in a persistent
on-chip register.

The leaf space is sparse (16 GB / 4 KB = 4 M pages, few touched), so
node hashes are stored in a dict and absent children hash as a
deterministic empty marker.  Levels are numbered from 0 (leaf hashes)
up to ``height`` (the root, a single node).

The tree verifies and updates *paths*; eager vs lazy timing policy is
the Ma-SU's business — this class is the architectural state both
policies maintain.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Tuple

from repro.config import MAC_BYTES
from repro.crypto.mac import mac_over_fields
from repro.mem.cache import memo_copy

EMPTY_HASH = b"\x00" * MAC_BYTES


class MerkleTree:
    """Keyed N-ary hash tree with path update/verify.

    Args:
        mac_key: key for node MACs (the processor's integrity key).
        num_leaves: size of the leaf index space.
        arity: tree fan-in (the paper uses 8-ary trees).
    """

    def __init__(self, mac_key: bytes, num_leaves: int, arity: int = 8) -> None:
        if num_leaves < 1:
            raise ValueError("num_leaves must be >= 1")
        if arity < 2:
            raise ValueError("arity must be >= 2")
        self.mac_key = mac_key
        self.arity = arity
        self.num_leaves = num_leaves
        self.height = max(1, math.ceil(math.log(num_leaves, arity)))
        # nodes[(level, index)] -> 8-byte hash; level 0 holds leaf hashes.
        self._nodes: Dict[Tuple[int, int], bytes] = {}
        self.node_updates = 0
        #: Optional ``observe(site, detail)`` callback fired on every
        #: failed verification (fault-campaign detection accounting).
        self.observer = None

    def __deepcopy__(self, memo: dict) -> "MerkleTree":
        """Copy the node store with ``dict.copy()`` (values are bytes).

        The node dict goes through ``memo``
        (:func:`~repro.mem.cache.memo_copy`) and the observer is
        deep-copied, as the generic copy would.
        """
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(self.__dict__)
        clone._nodes = memo_copy(self._nodes, memo)
        clone.observer = copy.deepcopy(self.observer, memo)
        return clone

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def level_width(self, level: int) -> int:
        """Number of node slots at ``level``."""
        return max(1, math.ceil(self.num_leaves / (self.arity ** level)))

    def parent_index(self, index: int) -> int:
        return index // self.arity

    def node_hash(self, level: int, index: int) -> bytes:
        return self._nodes.get((level, index), EMPTY_HASH)

    def path_nodes(self, leaf_index: int) -> List[Tuple[int, int]]:
        """The (level, index) chain from the leaf's hash up to the root."""
        path = []
        index = leaf_index
        for level in range(self.height + 1):
            path.append((level, index))
            index = self.parent_index(index)
        return path

    @property
    def root(self) -> bytes:
        return self.node_hash(self.height, 0)

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def _leaf_hash(self, leaf_index: int, leaf_bytes: bytes) -> bytes:
        return mac_over_fields(self.mac_key, "leaf", leaf_index, leaf_bytes)

    def _internal_hash(self, level: int, index: int) -> bytes:
        """Hash of node (level, index) from its children at level-1."""
        first_child = index * self.arity
        children = b"".join(
            self.node_hash(level - 1, first_child + k) for k in range(self.arity)
        )
        return mac_over_fields(self.mac_key, "node", level, index, children)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def update_leaf(self, leaf_index: int, leaf_bytes: bytes) -> List[Tuple[int, int]]:
        """Install a new leaf value and recompute its path to the root.

        Returns the list of (level, index) nodes rewritten — the Ma-SU
        charges one MAC latency per node for eager updates.
        """
        self._check_leaf(leaf_index)
        updated: List[Tuple[int, int]] = []
        self._nodes[(0, leaf_index)] = self._leaf_hash(leaf_index, leaf_bytes)
        updated.append((0, leaf_index))
        index = self.parent_index(leaf_index)
        for level in range(1, self.height + 1):
            self._nodes[(level, index)] = self._internal_hash(level, index)
            updated.append((level, index))
            index = self.parent_index(index)
        self.node_updates += len(updated)
        return updated

    def verify_leaf(self, leaf_index: int, leaf_bytes: bytes) -> bool:
        """Check a leaf against the stored path up to the root."""
        self._check_leaf(leaf_index)
        if self._leaf_hash(leaf_index, leaf_bytes) != self.node_hash(0, leaf_index):
            self._notify(f"leaf {leaf_index}: leaf hash mismatch")
            return False
        index = self.parent_index(leaf_index)
        for level in range(1, self.height + 1):
            if self._internal_hash(level, index) != self.node_hash(level, index):
                self._notify(
                    f"leaf {leaf_index}: node ({level},{index}) hash mismatch"
                )
                return False
            index = self.parent_index(index)
        return True

    def _notify(self, detail: str) -> None:
        if self.observer is not None:
            self.observer("merkle.verify_leaf", detail)

    def recompute_node(self, level: int, index: int) -> bytes:
        """Recompute and store one internal node from its children.

        Lazy update propagates hashes one level at a time on dirty
        evictions; this is that single step.
        """
        if level < 1 or level > self.height:
            raise ValueError(f"level {level} outside 1..{self.height}")
        value = self._internal_hash(level, index)
        self._nodes[(level, index)] = value
        self.node_updates += 1
        return value

    def rebuild_from_leaves(self, leaves: Dict[int, bytes]) -> bytes:
        """Recompute the entire tree from raw leaves (Osiris-style recovery).

        Returns the new root.  Existing node state is discarded.
        """
        self._nodes.clear()
        for leaf_index, leaf_bytes in leaves.items():
            self._check_leaf(leaf_index)
            self._nodes[(0, leaf_index)] = self._leaf_hash(leaf_index, leaf_bytes)
        current = {self.parent_index(i) for i in leaves}
        for level in range(1, self.height + 1):
            for index in current:
                self._nodes[(level, index)] = self._internal_hash(level, index)
                self.node_updates += 1
            current = {self.parent_index(i) for i in current}
        return self.root

    # ------------------------------------------------------------------
    # Attack surface (tests use these to model tampering)
    # ------------------------------------------------------------------
    def tamper_node(self, level: int, index: int, value: bytes) -> None:
        """Overwrite a stored node hash, as an off-chip attacker could."""
        self._nodes[(level, index)] = value

    def export_nodes(self) -> Dict[Tuple[int, int], bytes]:
        """Snapshot of all stored nodes (what lives in NVM + caches)."""
        return dict(self._nodes)

    def _check_leaf(self, leaf_index: int) -> None:
        if not 0 <= leaf_index < self.num_leaves:
            raise IndexError(
                f"leaf {leaf_index} outside 0..{self.num_leaves - 1}"
            )
