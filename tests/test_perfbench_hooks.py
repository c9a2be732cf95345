"""The benchmark harness's tracer still finds every attribute it wraps.

perfbench/tracing.py replaces named module and class attributes of the
program in memory when a run is traced. A source change that drops or
renames one of them would only show up as a crash of a traced benchmark
run; here it fails the test suite instead. The harness is imported, never
modified.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, workloads)
        hooks = [(owner, attr) for owner, attr, _ in tracer._restore]
        assert hooks
    finally:
        tracer.restore()
    for owner, attr in hooks:
        assert getattr(getattr(owner, attr), "__name__", attr) != "traced", attr
