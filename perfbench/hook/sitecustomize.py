"""Layer probes for ``harness serve`` subprocesses of a traced run.

Python imports ``sitecustomize`` at start-up from ``PYTHONPATH``; the
traced run puts this directory there and sets ``PERFBENCH_TRACE_DIR``
for the servers it starts.  Without that variable this module does
nothing.  With it, the process profiles its main thread and the
scheduler's unit calls, times the layer functions of ``probe.TIMED``,
and writes what it saw to ``$PERFBENCH_TRACE_DIR/<pid>.json`` when its
graceful shutdown begins.  Writing then, not at exit, keeps the record
of a server whose drain stalls and which its owner has to kill.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import probe
    from repro.service.server import ExperimentServer

    _recorder = probe.Recorder()
    _shutdown = ExperimentServer.shutdown

    async def _write_then_shutdown(self):
        probe.write_payload(_recorder, Path(os.environ["PERFBENCH_TRACE_DIR"]))
        await _shutdown(self)

    ExperimentServer.shutdown = _write_then_shutdown
    probe.install(_recorder, profile_threads=True)
    _recorder.profiler().enable()
