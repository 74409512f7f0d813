"""The entry points load only the standard library and ``repro``.

Every process the repository starts (a CLI run, a sweep's pool worker,
``harness serve``, a fleet or chaos worker) imports one of these
modules first, so a third-party import here is start-up time and
memory paid by every one of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = (
    "repro.harness.experiments",
    "repro.service.server",
    "repro.fleet.dispatcher",
    "repro.chaos.campaign",
)

#: Run in a fresh interpreter: imports the modules named on the command
#: line and prints, as JSON, every module they loaded that is neither
#: ``repro`` nor built in nor a file of the standard library.  Modules
#: loaded before the imports (the interpreter's own ``site`` hooks) are
#: not checked; ``site-packages`` often sits inside the standard
#: library's directory, so it is ruled out first.
_PROBE = """
import importlib, json, sys, sysconfig
from pathlib import Path

before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
paths = sysconfig.get_paths()
site = [Path(paths[key]).resolve() for key in ("purelib", "platlib")]
stdlib = [Path(paths[key]).resolve() for key in ("stdlib", "platstdlib")]
foreign = []
for name, module in sorted(sys.modules.items()):
    if (
        name in before or module is None or name == "__mp_main__"
        or name == "repro" or name.startswith("repro.")
    ):
        continue
    spec = getattr(module, "__spec__", None)
    if name in sys.builtin_module_names or (
        spec is not None and spec.origin in ("built-in", "frozen")
    ):
        continue
    file = getattr(module, "__file__", None)
    path = Path(file).resolve() if file else None
    if (
        path is None
        or any(path.is_relative_to(root) for root in site)
        or not any(path.is_relative_to(root) for root in stdlib)
    ):
        foreign.append(f"{name} ({path})")
print(json.dumps(foreign))
"""


def test_entry_points_load_only_stdlib_and_repro():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *ENTRY_POINTS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    foreign = json.loads(done.stdout.strip().splitlines()[-1])
    assert foreign == [], f"{len(foreign)} non-stdlib modules: {foreign[:10]}"
