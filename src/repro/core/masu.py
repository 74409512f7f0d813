"""The Major Security Unit (Ma-SU), Section 4.4.

Ma-SU is a conventional state-of-the-art secure-NVM pipeline (counter-
mode encryption + Bonsai integrity tree + Anubis crash consistency +
Osiris-recoverable counters) that Dolos runs *after* the WPQ instead of
before it.  The same object also serves as the security unit of the
Pre-WPQ-Secure baseline — only its position relative to the WPQ
changes, exactly as in the paper.

Per write (Figure 11):

1. pop + XOR-decrypt the WPQ entry (one cycle);
2. fetch/verify the encryption counter, increment it, generate the pad
   (AES latency), encrypt, compute the data MAC, and update the
   integrity tree — all results land in the persistent **redo-log
   registers** before any architectural state changes;
3. apply: metadata cache/NVM updates, Anubis shadow write, ciphertext
   write, Osiris check value;
4. clear the WPQ entry.

Steps 3 and 4 are off the WPQ critical path once the redo log is ready.

Functional and timing concerns are separated: ``stage``/``apply`` do
the real crypto (when data bytes are present); the ``*_latency``
helpers provide cycle costs for the timing processes in
:mod:`repro.core.controller`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import SimConfig, TreeUpdateScheme
from repro.core.registers import PersistentRegisters, RedoLogBuffer
from repro.crypto.counters import CounterStore
from repro.crypto.keys import KeyStore
from repro.crypto.mac import mac_over_fields, macs_equal
from repro.crypto.prf import ctr_pad, xor_bytes
from repro.mem.nvm import NVMDevice
from repro.security.anubis import KIND_COUNTER, KIND_TREE_NODE, ShadowTracker
from repro.security.data_mac import DataMACStore
from repro.security.merkle import MerkleTree
from repro.security.metadata_cache import MetadataCache
from repro.security.optimizations import (
    DedupDetector,
    DeuceTracker,
    MorphableCounterModel,
)
from repro.security.osiris import OsirisRecovery
from repro.security.toc import TreeOfCounters

#: NVM metadata region holding architectural counter blocks.
COUNTER_REGION = "counter_blocks"
#: NVM metadata region holding ToC leaf MACs (lazy mode).
TOC_LEAF_REGION = "toc_leaf_macs"
#: NVM metadata region holding ToC node contents (lazy mode).
TOC_NODE_REGION = "toc_nodes"
#: NVM metadata region holding dedup address mappings.
DEDUP_MAP_REGION = "dedup_map"

#: Leaf space: 16 GB / 4 KB pages.
DEFAULT_NUM_PAGES = (16 << 30) >> 12


class IntegrityError(RuntimeError):
    """Raised when verification detects tampering/replay/relocation."""


class MajorSecurityUnit:
    """Full-memory confidentiality + integrity + crash consistency."""

    def __init__(
        self,
        config: SimConfig,
        keys: KeyStore,
        registers: PersistentRegisters,
        nvm: NVMDevice,
        num_pages: int = DEFAULT_NUM_PAGES,
    ) -> None:
        self.config = config
        self.keys = keys
        self.registers = registers
        self.nvm = nvm
        self.counters = CounterStore()
        self.counter_cache = MetadataCache(config.security.counter_cache, "counter$")
        self.mt_cache = MetadataCache(config.security.mt_cache, "mt$")
        self.data_macs = DataMACStore(nvm, keys.mac_key)
        self.shadow = ShadowTracker(nvm)
        self.osiris = OsirisRecovery(nvm, keys.memory_key, keys.mac_key)
        self.scheme = config.security.tree_update
        #: Functional tree family: eager and pipelined (Freij) updates
        #: persist the same Merkle structure (they differ in timing
        #: only); lazy uses the ToC.  Recovery branches on the family.
        self._merkle = config.security.tree_family == "merkle"
        if self._merkle:
            self.tree: MerkleTree = MerkleTree(
                keys.mac_key, num_pages, config.security.tree_arity
            )
            self.toc: Optional[TreeOfCounters] = None
        else:
            self.tree = MerkleTree(keys.mac_key, num_pages, config.security.tree_arity)
            self.toc = TreeOfCounters(keys.mac_key, num_pages, config.security.tree_arity)
        # Optional back-end optimizations (Section 6 composability).
        security = config.security
        self.dedup = DedupDetector() if security.enable_dedup else None
        self.deuce = DeuceTracker() if security.enable_deuce else None
        self.morphable = (
            MorphableCounterModel(security.morphable_coverage)
            if security.morphable_coverage > 1
            else None
        )
        self.writes_processed = 0
        self.reads_verified = 0
        self.integrity_failures = 0
        self.dedup_cancelled_writes = 0
        self.page_reencryptions = 0
        #: The tree's arity and the key of node 0 at each level, leaf
        #: side first: a page's ancestor at level ``l`` has key
        #: ``ShadowTracker.tree_key(l, 0) | index``.  Both are fixed at
        #: construction (the merkle model never regrows).
        self._arity = security.tree_arity
        self._level_keys = tuple(
            ShadowTracker.tree_key(level, 0)
            for level in range(1, self.tree.height + 1)
        )
        #: Each written page's ancestor keys, leaf to root, and their
        #: MT-cache slots (:meth:`MetadataCache.path_slots`): built on
        #: the page's first write, replayed on every later one.
        self._walks: Dict[int, Tuple[Tuple[int, ...], tuple]] = {}
        # Latency constants resolved once: the timing helpers run per
        # write/read and the config attribute chains dominate them.
        self._aes_latency = security.aes_latency
        self._mac_latency = security.mac_latency
        self._hash_latency = security.masu_hash_latency
        self._critical_hash_latency = security.masu_critical_hash_latency
        self._counter_cache_latency = security.counter_cache.latency
        #: A read whose counter hits: the cache, then the data MAC.
        self._read_hit_latency = self._counter_cache_latency + self._mac_latency
        #: SuperMem-style write-through counters: every counter update
        #: goes to NVM (coalesced per counter line), so the stale-copy
        #: Osiris window never opens and the tree walk leaves the
        #: persist critical path.
        self._write_through = security.counter_write_through
        self._wt_accept_latency = config.nvm.accept_latency
        self._wt_last_page: Optional[int] = None
        self.counter_writes_through = 0
        self.counter_writes_coalesced = 0

    def _page_walk(self, page: int) -> Tuple[Tuple[int, ...], tuple]:
        """Build and keep ``page``'s write walk: its tree-node keys, leaf
        to root, and their MT slots."""
        arity = self._arity
        index = page
        path = []
        for level_key in self._level_keys:
            index //= arity
            path.append(level_key | index)
        keys = tuple(path)
        walk = self._walks[page] = (keys, self.mt_cache.path_slots(keys))
        return walk

    # ==================================================================
    # Functional write path (Figure 11 steps 2-3)
    # ==================================================================
    def stage(self, address: int, plaintext: bytes) -> RedoLogBuffer:
        """Step 2: compute all artifacts into the redo-log registers.

        Architectural state (counters, tree, NVM) is *not* modified
        until :meth:`apply` — a crash here loses nothing.
        """
        log = self.registers.redo_log
        if log.ready:
            raise RuntimeError("redo log already holds a staged write")
        if self.dedup is not None:
            canonical = self.dedup.check(address, plaintext)
            if canonical is not None:
                # Duplicate content already in NVM: cancel the write and
                # stage only the address mapping (Zuo et al.).
                log.address = address
                log.dedup_canonical = canonical
                log.ready = True
                return log
        page, line = CounterStore.locate(address)
        block = self.counters.block_for_page(page)
        log.counter_snapshot = block.snapshot()
        # Compute the post-increment counter without committing it.
        shadow_block = type(block)()
        shadow_block.restore(log.counter_snapshot)
        counter, _overflowed = shadow_block.increment(line)
        pad = ctr_pad(self.keys.memory_key, address, counter.value, len(plaintext))
        ciphertext = xor_bytes(plaintext, pad)
        log.address = address
        log.plaintext = plaintext
        log.ciphertext = ciphertext
        log.counter_value = counter.value
        log.counter_page = page
        log.mac = self.data_macs.compute(address, counter.value, ciphertext)
        log.tree_path = []
        if self._merkle:
            # Predict the new root by updating a staged copy of the path.
            # The real tree is updated in apply(); we record the encoded
            # new leaf so apply() is a pure replay.
            log.temp_root = None  # computed during apply; root register
            # is updated atomically there.
        log.ready = True
        return log

    def apply(self) -> None:
        """Step 3: replay the redo log into architectural state."""
        log = self.registers.redo_log
        if not log.ready:
            raise RuntimeError("apply() with no staged write")
        address = log.address
        assert address is not None
        if log.dedup_canonical is not None:
            assert self.dedup is not None
            self.dedup.record_duplicate(address, log.dedup_canonical)
            self.nvm.region_write(
                DEDUP_MAP_REGION, NVMDevice.line_address(address),
                log.dedup_canonical.to_bytes(8, "little"),
            )
            self.dedup_cancelled_writes += 1
            self.writes_processed += 1
            log.clear()
            return
        page, line = CounterStore.locate(address)
        block = self.counters.block_for_page(page)
        # Commit the counter increment exactly as staged.
        block.restore(log.counter_snapshot)  # type: ignore[arg-type]
        old_snapshot = log.counter_snapshot
        _counter, overflowed = block.increment(line)
        if overflowed:
            # Minor-counter overflow reset every minor under a new
            # major (Section 2.1): every other resident line of the
            # page still holds ciphertext under its *old* counter and
            # must be re-encrypted under its new one.
            self._reencrypt_page(page, line, old_snapshot)
        encoded = block.encode()
        # Osiris-style counter persistence: the architectural block is
        # written to NVM only every ``stride`` updates (the ECC check
        # value lets recovery search forward from the stale copy); the
        # Anubis shadow below always holds the fresh value.
        # Write-through counters (SuperMem) bypass the Osiris stride:
        # the architectural block is always fresh in NVM.
        if (
            self._write_through
            or block.updates % self.osiris.stride == 1
            or self.osiris.stride == 1
        ):
            self.nvm.region_write(COUNTER_REGION, page, encoded)
        # Integrity tree update.
        if self._merkle:
            updated = self.tree.update_leaf(page, encoded)
            self.registers.tree_root = self.tree.root
            log.tree_path = [
                (lvl, idx, self.tree.node_hash(lvl, idx)) for lvl, idx in updated
            ]
            # AGIT: shadow the updated (possibly cached-dirty) path nodes.
            for lvl, idx, digest in log.tree_path:
                self.shadow.record(
                    KIND_TREE_NODE, ShadowTracker.tree_key(lvl, idx), digest
                )
        else:
            assert self.toc is not None
            touched = self.toc.bump_leaf(page)
            version = self.toc.leaf_version(page)
            leaf_mac = mac_over_fields(
                self.keys.mac_key, "toc-leaf", page, encoded, version
            )
            self.nvm.region_write(TOC_LEAF_REGION, page, leaf_mac)
            # Persist the touched ToC nodes (lazily in hardware — via
            # the metadata cache; architecturally they live in NVM) and
            # mirror the root counter into its persistent register.
            for level, index in touched:
                node = self.toc._node(level, index)
                payload = b"".join(
                    c.to_bytes(8, "little") for c in node.counters
                ) + node.mac
                self.nvm.region_write(
                    TOC_NODE_REGION, ShadowTracker.tree_key(level, index), payload
                )
            self.registers.toc_root_counter = self.toc.root_counter
        # Anubis shadow for the counter block (both schemes).
        self.shadow.record(KIND_COUNTER, page, encoded)
        # Data, MAC, Osiris check value.
        assert log.ciphertext is not None and log.plaintext is not None
        self.nvm.write_line(address, log.ciphertext)
        self.data_macs.store(address, log.counter_value or 0, log.ciphertext)
        self.osiris.store_ecc(address, log.plaintext)
        if self.dedup is not None:
            self.dedup.record_write(address, log.plaintext)
        if self.deuce is not None:
            self.deuce.observe_write(address, log.plaintext)
        self.writes_processed += 1
        log.clear()

    @property
    def staged_address(self) -> Optional[int]:
        """Address of the write currently staged in the redo log.

        ``None`` when nothing is staged.  Lets instrumentation label an
        ``apply`` (Fig 11 step 3) with the address it commits — the log
        is cleared by the time ``apply`` returns.
        """
        log = self.registers.redo_log
        return log.address if log.ready else None

    def secure_write(self, address: int, plaintext: bytes) -> None:
        """Convenience: stage + apply in one call (normal run-time)."""
        self.stage(address, plaintext)
        self.apply()

    def _reencrypt_page(self, page: int, skip_line: int, old_snapshot) -> None:
        """Re-encrypt a page's resident lines after a counter overflow.

        Each line's ciphertext is decrypted with its pre-overflow
        counter (from the staged snapshot) and re-encrypted with the
        fresh post-reset counter; MACs and Osiris check values follow.
        The line being written (``skip_line``) is handled by the normal
        apply path.
        """
        from repro.crypto.counters import CounterBlock

        old_block = CounterBlock()
        old_block.restore(old_snapshot)
        new_block = self.counters.block_for_page(page)
        for line_index in range(64):
            if line_index == skip_line:
                continue
            line_address = (page << 12) | (line_index << 6)
            ciphertext = self.nvm.read_line(line_address)
            if ciphertext is None:
                continue
            old_counter = old_block.read(line_index).value
            old_pad = ctr_pad(
                self.keys.memory_key, line_address, old_counter, len(ciphertext)
            )
            plaintext = xor_bytes(ciphertext, old_pad)
            new_counter = new_block.read(line_index).value
            new_pad = ctr_pad(
                self.keys.memory_key, line_address, new_counter, len(ciphertext)
            )
            fresh = xor_bytes(plaintext, new_pad)
            self.nvm.write_line(line_address, fresh)
            self.data_macs.store(line_address, new_counter, fresh)
            self.osiris.store_ecc(line_address, plaintext)
        self.page_reencryptions += 1

    # ==================================================================
    # Functional read path
    # ==================================================================
    def secure_read(self, address: int, verify_tree: bool = True) -> bytes:
        """Read + decrypt + verify one line from NVM.

        Raises:
            IntegrityError: on MAC or tree-path mismatch, or if the
                line/metadata is missing (spoofed/erased).
        """
        if self.dedup is not None:
            address = self.dedup.resolve(address)
        ciphertext = self.nvm.read_line(address)
        if ciphertext is None:
            raise IntegrityError(f"no data at {address:#x}")
        page, line = CounterStore.locate(address)
        # Run-time reads use the architectural (on-chip cached) counter
        # block; the NVM copy may be up to one Osiris stride stale and
        # only matters at recovery.  The tree is verified against the
        # fresh block.
        block = self.counters.block_for_page(page)
        if verify_tree:
            self._verify_counter_block(page, block.encode())
        counter = block.read(line)
        if not self.data_macs.verify(address, counter.value, ciphertext):
            self.integrity_failures += 1
            raise IntegrityError(f"data MAC mismatch at {address:#x}")
        pad = ctr_pad(self.keys.memory_key, address, counter.value, len(ciphertext))
        self.reads_verified += 1
        return xor_bytes(ciphertext, pad)

    def _verify_counter_block(self, page: int, encoded: bytes) -> None:
        if self._merkle:
            if not self.tree.verify_leaf(page, encoded):
                self.integrity_failures += 1
                raise IntegrityError(f"Merkle path mismatch for page {page:#x}")
            if self.tree.root != self.registers.tree_root:
                self.integrity_failures += 1
                raise IntegrityError("tree root diverges from root register")
        else:
            assert self.toc is not None
            version = self.toc.leaf_version(page)
            stored_mac = self.nvm.region_read(TOC_LEAF_REGION, page)
            expect = mac_over_fields(
                self.keys.mac_key, "toc-leaf", page, encoded, version
            )
            if stored_mac is None or not macs_equal(stored_mac, expect):
                self.integrity_failures += 1
                raise IntegrityError(f"ToC leaf MAC mismatch for page {page:#x}")
            if not self.toc.verify_leaf_path(page):
                self.integrity_failures += 1
                raise IntegrityError(f"ToC path mismatch for page {page:#x}")

    # ==================================================================
    # Timing helpers (cycle costs; no functional effect)
    # ==================================================================
    def counter_access_latency(self, now: int, address: int, is_write: bool) -> int:
        """Cycles to obtain a verified counter for ``address``.

        Counter-cache hit: cache latency.  Miss: NVM metadata read plus
        a tree-path verification walk that stops at the first MT-cache
        hit (verified-on-chip nodes need no re-verification).
        """
        page = address >> 12  # CounterStore.locate, page part only
        cache_key = (
            self.morphable.cache_key(page) if self.morphable is not None else page
        )
        if self.counter_cache.access(cache_key, is_write):
            return self._counter_cache_latency
        return self._counter_miss_latency(now, cache_key, page)

    def _counter_miss_latency(self, now: int, cache_key: int, page: int) -> int:
        """A counter-cache miss: fetch the block from NVM, then verify it
        by a walk up the tree that stops at the first cached node.

        Each ancestor's key is derived as the walk climbs, so a walk
        that stops at the first level derives one key.
        """
        nvm = self.nvm
        mac_latency = self._mac_latency
        arity = self._arity
        mt_access = self.mt_cache.access
        # The cycle the walk has reached: the counter block's arrival,
        # then each level's MAC check and, on a miss, its node fetch.
        cycle = (
            nvm.timed_meta_access(now, cache_key, False) + self._counter_cache_latency
        )
        index = page
        for level_key in self._level_keys:
            index //= arity
            key = level_key | index
            hit = mt_access(key, False)
            cycle += mac_latency  # verify child against this node
            if hit:
                break
            cycle = nvm.timed_meta_access(cycle, key & 0xFFFFFFFF, False)
        return cycle - now

    def write_pipeline_latency(
        self, now: int, address: int, critical_path: bool = False
    ) -> int:
        """Step-2 cycles for one write: counter + AES + hash chain.

        Args:
            critical_path: when True, return the latency a *persist*
                must wait before entering the persistence domain (the
                pre-WPQ baseline's exposure).  Eager updates expose the
                full chain either way; lazy/Phoenix exposes only the
                shadow-root MACs while parallel engines finish the rest
                off-path.
        """
        latency = self.counter_access_latency(now, address, is_write=True)
        if self._write_through:
            # SuperMem: the updated counter line is written through to
            # NVM.  Consecutive writes hitting the same counter line
            # coalesce into one posted metadata write; a new line costs
            # the device's command+data acceptance on the critical path
            # while the media time is booked in the background.
            page = address >> 12
            if page != self._wt_last_page:
                self._wt_last_page = page
                self.nvm.timed_meta_access(now + latency, page, True)
                latency += self._wt_accept_latency
                self.counter_writes_through += 1
            else:
                self.counter_writes_coalesced += 1
        latency += self._aes_latency
        if critical_path:
            latency += self._critical_hash_latency
        else:
            latency += self._hash_latency
        # Touch the MT cache for the updated path (merkle family) — hits
        # keep the lump latency; misses were already charged via the
        # counter walk, so we only mark dirtiness here.
        if self._merkle:
            page = address >> 12
            keys, slots = self._walks.get(page) or self._page_walk(page)
            self.mt_cache.access_path(keys, slots, True)
        return latency

    def read_verify_latency(self, now: int, address: int) -> int:
        """Extra cycles security adds to a read (all schemes): a verified
        counter (:meth:`counter_access_latency`), then the data-MAC check.

        Decryption pad generation overlaps the NVM data read, so AES
        latency is hidden.
        """
        page = address >> 12
        cache_key = (
            self.morphable.cache_key(page) if self.morphable is not None else page
        )
        if self.counter_cache.access(cache_key, False):
            return self._read_hit_latency
        return self._counter_miss_latency(now, cache_key, page) + self._mac_latency

    # ==================================================================
    # Stats
    # ==================================================================
    def stats(self) -> Dict[str, int]:
        stats = {
            "writes_processed": self.writes_processed,
            "reads_verified": self.reads_verified,
            "integrity_failures": self.integrity_failures,
            "counter_cache_misses": self.counter_cache.misses,
            "mt_cache_misses": self.mt_cache.misses,
            "shadow_writes": self.shadow.shadow_writes,
            "dedup_cancelled_writes": self.dedup_cancelled_writes,
            "page_reencryptions": self.page_reencryptions,
        }
        if self._write_through:
            # Keyed only when the feature is on so legacy designs keep
            # their exact stats dictionaries (bit-identity contract).
            stats["counter_writes_through"] = self.counter_writes_through
            stats["counter_writes_coalesced"] = self.counter_writes_coalesced
        return stats
