"""Power-failure injection.

A crash preserves exactly three things:

1. the NVM device contents (data lines + metadata regions + the freshly
   ADR-drained WPQ image);
2. the persistent on-chip registers (pad counter, WPQ root, tree root,
   redo log);
3. the processor's keys (inside the TCB).

Everything else — caches, metadata caches, the WPQ tag array, the WPQ
entries themselves (now only in the drained image) — is gone.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config import SimConfig
from repro.core.controller import MemoryController
from repro.core.registers import PersistentRegisters
from repro.crypto.keys import KeyStore
from repro.mem.nvm import NVMDevice
from repro.wpq.adr import DrainRecord


@dataclass
class CrashImage:
    """Everything that survives a power failure."""

    config: SimConfig
    nvm: NVMDevice
    registers: PersistentRegisters
    keys: KeyStore
    #: What ADR flushed (also present in the NVM image regions; kept
    #: here for test assertions about the drain itself).
    drained: List[DrainRecord] = field(default_factory=list)
    #: Oracle for tests: (address -> plaintext) of every write that was
    #: architecturally persisted at crash time (in WPQ or in NVM).
    persisted_oracle: Dict[int, bytes] = field(default_factory=dict)

    def clone(self) -> "CrashImage":
        """Independent copy of the crash image, built field by field.

        :func:`repro.recovery.recover.recover_system` *mutates* the
        image it recovers (clears the WPQ image region, advances the
        pad counter, rotates the WPQ key) — differential checks that
        recover the same crash twice (e.g. once clean and once after an
        attack mutation) need isolated copies.  The frozen config is
        shared; the device is deep-copied (its stores at C speed,
        :meth:`NVMDevice.__deepcopy__`); the registers copy themselves
        (:meth:`PersistentRegisters.snapshot`); the key store holds a
        bytes seed and an int epoch, and a drain record ints, bytes and
        a bool, so a shallow copy of each is a full one.
        """
        return CrashImage(
            config=self.config,
            nvm=copy.deepcopy(self.nvm),
            registers=self.registers.snapshot(),
            keys=copy.copy(self.keys),
            drained=[copy.copy(record) for record in self.drained],
            persisted_oracle=dict(self.persisted_oracle),
        )


def crash_system(
    controller: MemoryController,
    oracle: Optional[Dict[int, bytes]] = None,
    battery: bool = False,
    injector=None,
) -> CrashImage:
    """Simulate a power failure on a running controller.

    For Dolos-style controllers ADR drains the WPQ (completing at most
    one deferred Post-WPQ MAC); the pre-WPQ baseline has nothing to
    drain (security ran before insertion).  Then volatile state is
    conceptually discarded: the returned image carries only what
    hardware would preserve.

    Args:
        controller: the running controller to crash.
        oracle: optional address->plaintext map of persisted writes, for
            post-recovery verification by tests.
        battery: use the controller's battery-backed drain path
            (``battery_drain``) instead of plain ADR — required for
            :class:`~repro.core.controller.EADRSecureController`, whose
            ADR-only ``crash()`` correctly refuses (out of budget).
        injector: optional :class:`repro.faults.injector.FaultInjector`
            attached to the NVM *before* the drain runs, so
            drain-time faults (a degraded ADR budget) take effect.
            Media-corruption faults are applied separately, to the
            crash image, by the campaign.
    """
    if injector is not None:
        controller.nvm.attach_fault_injector(injector)
    if battery:
        drain = getattr(controller, "battery_drain", None)
        if drain is None:
            raise TypeError(
                f"{type(controller).__name__} has no battery-backed drain"
            )
        drained = drain()
    else:
        drained = controller.crash()
    return CrashImage(
        config=controller.config,
        nvm=controller.nvm,
        registers=controller.registers.snapshot(),
        keys=controller.keys,
        drained=drained,
        persisted_oracle=dict(oracle or {}),
    )
