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


def test_the_peer_hook_sees_the_profiles_a_settle_makes_the_simulator_rebuild(
        monkeypatch):
    # run_scenario builds a moved balance's profile through the module name
    # the tracer wraps, so a traced run counts and times its validation
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    from credshare import EventKind, PeerProfile, ScenarioEvent, simulator

    peers = [PeerProfile("a", 400.0, 2.0), PeerProfile("b", 100.0, 1.0)]
    events = [ScenarioEvent(0.0, EventKind.JOIN, peer=peers[0]),
              ScenarioEvent(1.0, EventKind.JOIN, peer=peers[1]),
              ScenarioEvent(2.0, EventKind.SETTLE),
              ScenarioEvent(3.0, EventKind.JOIN, peer=PeerProfile("c", 1.0, 1.0))]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, workloads)
        timeline, ledger = simulator.run_scenario(2.5, events)
    finally:
        tracer.restore()
    payers = {entry.payer for entry in ledger.log}
    assert payers == {"a", "b"}
    # the game hook counts each epoch's roster; the rest is the peer hook's,
    # one per payer rebuilt for the last epoch
    rosters = sum(len(ep.game.peers) for ep in timeline.epochs)
    assert tracer.count["model.peers"] - rosters == len(payers)


def test_the_row_counter_sees_every_row_simulate_prints(monkeypatch):
    # the timeline and the ledger hand csv_text finished lines; the tracer
    # counts the rows it is handed, so they must be every data line printed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    scenario = Path(__file__).resolve().parent / "golden" / "churn30_scenario.json"
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, workloads)
        code, text = workloads.run_cli(["simulate", str(scenario)])
    finally:
        tracer.restore()
    assert code == 0
    timeline, ledger = text.split("== ledger ==\n")
    timeline_rows, ledger_rows = (part.count("\n") - 1 for part in (timeline, ledger))
    assert timeline_rows > 100 and ledger_rows > 30
    assert tracer.count["formatting.rows"] == timeline_rows + ledger_rows
