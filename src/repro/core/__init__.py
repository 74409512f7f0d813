"""The paper's primary contribution: Dolos controllers and baselines.

* :mod:`repro.core.misu` — the Minor Security Unit (3 design options).
* :mod:`repro.core.masu` — the Major Security Unit (Anubis-style).
* :mod:`repro.core.composition` — controller-composition specs and the
  pluggable protection/update/domain strategy objects.
* :mod:`repro.core.controller` — the Figure 5 controller design space
  plus the Triad-NVM and SuperMem write-through designs.
* :mod:`repro.core.registers` — persistent on-chip registers.
* :mod:`repro.core.requests` — controller request types.
"""

from repro.core.composition import CONTROLLER_SPECS, ControllerSpec, controller_spec
from repro.core.controller import (
    DolosController,
    EADRSecureController,
    MemoryController,
    NonSecureIdealController,
    PostWPQHypotheticalController,
    PreWPQSecureController,
    TriadNVMController,
    WriteThroughController,
    make_controller,
)
from repro.core.masu import IntegrityError, MajorSecurityUnit
from repro.core.misu import (
    FullWPQMiSU,
    MinorSecurityUnit,
    PartialWPQMiSU,
    PostWPQMiSU,
    make_misu,
)
from repro.core.registers import PersistentRegisters, RedoLogBuffer
from repro.core.requests import WriteKind, WriteRequest

__all__ = [
    "CONTROLLER_SPECS",
    "ControllerSpec",
    "DolosController",
    "EADRSecureController",
    "FullWPQMiSU",
    "IntegrityError",
    "MajorSecurityUnit",
    "MemoryController",
    "MinorSecurityUnit",
    "NonSecureIdealController",
    "PartialWPQMiSU",
    "PersistentRegisters",
    "PostWPQHypotheticalController",
    "PostWPQMiSU",
    "PreWPQSecureController",
    "RedoLogBuffer",
    "TriadNVMController",
    "WriteKind",
    "WriteRequest",
    "WriteThroughController",
    "controller_spec",
    "make_controller",
    "make_misu",
]
