"""The NVM module: functional byte store + banked timing model.

Functionally, the device is a sparse map of 64-byte lines (what an
attacker can scan or tamper with — everything here is *outside* the
TCB).  For timing, the device has ``num_banks`` independently busy
banks; an access to a busy bank queues behind it.  Timing uses a
busy-until bookkeeping scheme rather than processes, which keeps the
hot path allocation-free.

Security metadata that architecturally lives in NVM (counter blocks,
MT nodes, data MACs, the Anubis shadow table, drained WPQ images) is
stored in named *metadata regions* of the same device so that crash
and attack tests see one coherent persistent image.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from repro.config import CACHELINE_BYTES, NVMConfig
from repro.mem.cache import memo_copy


class NVMDevice:
    """PCM-like persistent memory with banked timing."""

    def __init__(self, config: Optional[NVMConfig] = None) -> None:
        self.config = config or NVMConfig()
        self._lines: Dict[int, bytes] = {}
        self._regions: Dict[str, Dict[int, bytes]] = {}
        # Separate per-bank calendars for reads and writes: the memory
        # controller schedules reads with priority (demand misses must
        # not sit behind the drained write stream), so reads contend
        # only with other reads while writes fill bank idle time.
        self._bank_free_at = [0] * self.config.num_banks
        self._read_free_at = [0] * self.config.num_banks
        # Latency constants hoisted off the config attribute chain —
        # timed_access runs once per memory operation.
        self._num_banks = self.config.num_banks
        self._read_latency = self.config.read_latency
        self._write_latency = self.config.write_latency
        self._accept_latency = self.config.accept_latency
        self.reads = 0
        self.writes = 0
        self.meta_reads = 0
        self.meta_writes = 0
        #: Per-line media write counts (endurance/wear levelling input).
        self._wear: Dict[int, int] = {}
        #: Fault-injection hook (:mod:`repro.faults`).  ``None`` in
        #: normal operation; when attached, the ADR drain consults it
        #: for a degraded energy budget and integrity checks report
        #: detections to it.  Media corruption itself goes through the
        #: ``corrupt_*`` helpers below.
        self.fault_injector = None

    def __deepcopy__(self, memo: dict) -> "NVMDevice":
        """Copy the device with C-level container copies (crash copies).

        Lines and region entries are immutable ``bytes`` and wear counts
        ints, so one ``dict.copy()`` per store copies it fully; the bank
        calendars are int lists.  Each copy goes through ``memo``
        (:func:`~repro.mem.cache.memo_copy`), the frozen config is
        shared and the fault injector deep-copied.
        """
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(self.__dict__)
        clone._lines = memo_copy(self._lines, memo)
        regions = memo.get(id(self._regions))
        if regions is None:
            regions = memo[id(self._regions)] = {
                name: memo_copy(region, memo)
                for name, region in self._regions.items()
            }
        clone._regions = regions
        clone._wear = memo_copy(self._wear, memo)
        clone._bank_free_at = memo_copy(self._bank_free_at, memo)
        clone._read_free_at = memo_copy(self._read_free_at, memo)
        clone.fault_injector = copy.deepcopy(self.fault_injector, memo)
        return clone

    # ------------------------------------------------------------------
    # Functional data plane
    # ------------------------------------------------------------------
    @staticmethod
    def line_address(address: int) -> int:
        return address & ~(CACHELINE_BYTES - 1)

    def read_line(self, address: int) -> Optional[bytes]:
        """Return the 64-byte line at ``address`` (line-aligned), if ever written."""
        return self._lines.get(self.line_address(address))

    def write_line(self, address: int, data: bytes) -> None:
        if len(data) != CACHELINE_BYTES:
            raise ValueError(f"line must be {CACHELINE_BYTES} bytes, got {len(data)}")
        line = self.line_address(address)
        self._lines[line] = data
        self._wear[line] = self._wear.get(line, 0) + 1

    def tamper_line(self, address: int, data: bytes) -> None:
        """Attacker-controlled overwrite (attack models use this)."""
        self.write_line(address, data)

    @property
    def resident_line_count(self) -> int:
        return len(self._lines)

    def resident_line_addresses(self) -> "List[int]":
        """Sorted addresses of every written line (fault-target census)."""
        return sorted(self._lines)

    # ------------------------------------------------------------------
    # Metadata regions (counters, MACs, tree nodes, shadow table, WPQ image)
    # ------------------------------------------------------------------
    def region(self, name: str) -> Dict[int, bytes]:
        reg = self._regions.get(name)
        if reg is None:
            reg = {}
            self._regions[name] = reg
        return reg

    def region_write(self, name: str, key: int, data: bytes) -> None:
        self.region(name)[key] = data
        self.meta_writes += 1

    def region_read(self, name: str, key: int) -> Optional[bytes]:
        self.meta_reads += 1
        return self.region(name).get(key)

    def region_clear(self, name: str) -> None:
        self.region(name).clear()

    def region_delete(self, name: str, key: int) -> bool:
        """Drop one region entry (fault/attack surface, not a data op).

        Returns ``True`` iff the entry existed.  Does not count toward
        ``meta_writes`` — this models media loss, not controller work.
        """
        return self.region(name).pop(key, None) is not None

    # ------------------------------------------------------------------
    # Fault injection (media corruption; see repro.faults)
    # ------------------------------------------------------------------
    def attach_fault_injector(self, injector) -> None:
        """Install a :class:`repro.faults.injector.FaultInjector`."""
        self.fault_injector = injector

    @staticmethod
    def _flip_bit(data: bytes, bit: int) -> bytes:
        byte = (bit // 8) % len(data)
        mask = 1 << (bit % 8)
        out = bytearray(data)
        out[byte] ^= mask
        return bytes(out)

    def corrupt_line(self, address: int, bit: int) -> bool:
        """XOR one bit of a stored data line (NVM media fault).

        Returns ``True`` iff the line existed.  Bypasses wear/stat
        accounting: this is a media event, not a controller write.
        """
        line = self.line_address(address)
        data = self._lines.get(line)
        if data is None:
            return False
        self._lines[line] = self._flip_bit(data, bit)
        return True

    def corrupt_region_entry(self, name: str, key: int, bit: int) -> bool:
        """XOR one bit of a stored metadata-region entry."""
        reg = self.region(name)
        data = reg.get(key)
        if data is None or not data:
            return False
        reg[key] = self._flip_bit(data, bit)
        return True

    # ------------------------------------------------------------------
    # Timing plane
    # ------------------------------------------------------------------
    # Banks are line-interleaved: a line's bank is (address >> 6) % banks.
    def timed_access(self, now: int, address: int, is_write: bool) -> int:
        """Book an access and return its completion cycle.

        The access starts when both the request has arrived (``now``)
        and the target bank is free; the bank stays busy until the
        access completes.
        """
        bank = (address >> 6) % self._num_banks
        if is_write:
            free = self._bank_free_at[bank]
            done = (now if now > free else free) + self._write_latency
            self._bank_free_at[bank] = done
            self.writes += 1
        else:
            free = self._read_free_at[bank]
            done = (now if now > free else free) + self._read_latency
            self._read_free_at[bank] = done
            self.reads += 1
        return done

    def timed_write_accept(self, now: int, address: int) -> "Tuple[int, int]":
        """Book a write; returns ``(accepted, done)``.

        ``accepted`` is when the device has taken the command + data
        (the WPQ slot can be reclaimed); ``done`` is media completion
        (the bank stays busy until then).
        """
        bank = (address >> 6) % self._num_banks
        free = self._bank_free_at[bank]
        start = now if now > free else free
        done = start + self._write_latency
        self._bank_free_at[bank] = done
        self.writes += 1
        return start + self._accept_latency, done

    def timed_meta_access(self, now: int, key: int, is_write: bool) -> int:
        """Timing for a security-metadata access (same banks, tagged stats)."""
        done = self.timed_access(now, key << 6, is_write)
        if is_write:
            self.meta_writes += 1
            self.writes -= 1
        else:
            self.meta_reads += 1
            self.reads -= 1
        return done

    def reset_timing(self) -> None:
        self._bank_free_at = [0] * self.config.num_banks
        self._read_free_at = [0] * self.config.num_banks

    # ------------------------------------------------------------------
    # Endurance / wear
    # ------------------------------------------------------------------
    def wear_of(self, address: int) -> int:
        """Media writes absorbed by the line at ``address``."""
        return self._wear.get(self.line_address(address), 0)

    def wear_summary(self) -> Dict[str, float]:
        """Aggregate wear statistics (endurance analysis).

        ``imbalance`` is max/mean — 1.0 means perfectly even wear; PCM
        endurance is limited by the most-written line, so high values
        flag wear-levelling trouble.
        """
        if not self._wear:
            return {"lines": 0, "total": 0, "max": 0, "mean": 0.0,
                    "imbalance": 0.0}
        values = self._wear.values()
        total = sum(values)
        peak = max(values)
        mean = total / len(self._wear)
        return {
            "lines": len(self._wear),
            "total": total,
            "max": peak,
            "mean": mean,
            "imbalance": peak / mean if mean else 0.0,
        }

    def stats(self) -> Dict[str, int]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "meta_reads": self.meta_reads,
            "meta_writes": self.meta_writes,
            "resident_lines": self.resident_line_count,
        }
