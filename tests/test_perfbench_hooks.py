"""The benchmark harness still runs against the program: its tracer finds
every attribute it wraps, and its gate checks accept what its ops produce.

perfbench/tracing.py replaces named module and class attributes of the
program in memory when a run is traced, and perfbench/workloads.py calls
the program's functions and CLI with fixed names and keywords. A source
change that drops or renames one of them would only show up as a crashed
or incorrect benchmark run; here it fails the test suite instead. The
harness is imported, never modified.
"""

import importlib
import random
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


def test_every_gate_check_accepts_one_cycle(monkeypatch, tmp_path):
    # each workload's first cycle, run and checked as a benchmark run gates
    # it, so a change the checks reject fails here rather than in a run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name, make_cycle in workloads.CYCLES.items():
        workdir = tmp_path / name
        workdir.mkdir()
        ops = make_cycle(random.Random(5), workdir, 0)
        assert ops, name
        for op in ops:
            raw = op.encode(op.run())
            problems, label = workloads.CHECKS[op.check](op.payload, raw)
            assert problems == [], (name, op.kind)
            assert label == ("refused" if op.kind == "over" else None), (name, op.kind)
