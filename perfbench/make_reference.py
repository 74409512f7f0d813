"""Write ``reference.json``: result digests of every benchmark unit.

Each unit of every workload is run once, directly through
``execute_unit`` with caches off, and its result digest stored under the
unit's label for the default seed and the held-out seed.  Rerun after a
deliberate change to simulated results, from the repository root::

    python3 perfbench/make_reference.py
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(Path(__file__).resolve().parent), str(ROOT / "src")]
os.environ["REPRO_TRACE_CACHE"] = "off"
os.environ["REPRO_UNIT_MEMO"] = "off"

from checks import REFERENCE_PATH, digest_of, unit_label  # noqa: E402
from repro.harness.parallel import execute_unit  # noqa: E402
from repro.harness.trace_store import TraceCache  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def main() -> int:
    reference = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        digests = {}
        for workload in WORKLOADS.values():
            for unit in workload.units(seed):
                digests[unit_label(unit)] = digest_of(execute_unit(unit, TraceCache(None)))
        reference[str(seed)] = dict(sorted(digests.items()))
        print(f"seed {seed}: {len(digests)} units")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
