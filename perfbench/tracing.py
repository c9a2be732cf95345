"""Spans around the calls one credshare layer makes into another.

Only the traced run installs these wrappers; they replace module (or class)
attributes in memory and never touch a file. Each wrapper records a span
(id, parent id, name, start ns, end ns, op index) in an in-memory list,
charges its duration minus its children's to its layer's self time, and
hands the call's arguments and result to an observer that keeps the layer's
counts. Very frequent, tiny calls (peer and game validation, the oracle's
vectorised demand) are timed and counted the same way but kept out of the
span list, so the list stays small.
"""

import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

import credshare.cli as cli
import credshare.experiments as experiments
import credshare.formatting as formatting
import credshare.interchange as interchange
import credshare.oracle as oracle
import credshare.protocol as protocol
import credshare.simulator as simulator
import credshare.solver as solver


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.self_ns = Counter()
        self.count = Counter()
        self.samples = defaultdict(list)
        self.calls = Counter()
        self._stack = []     # open calls: [span id, children's ns]
        self._next_id = 0
        self._restore = []

    def wrap(self, owner, attr, layer, observe=None, record=True):
        original = getattr(owner, attr)
        name = f"{layer}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            tracer.calls[layer] += 1
            outcome = None
            start = perf_counter_ns()
            try:
                outcome = original(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                total = end - start
                tracer.self_ns[layer] += total - frame[1]
                if parent is not None:
                    parent[1] += total
                if record:
                    tracer.spans.append((frame[0], parent[0] if parent else None,
                                         name, start, end, tracer.op))
                if observe is not None:
                    observe(tracer, args, outcome, total, total - frame[1])

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- observers: (tracer, args, result or exception, total ns, self ns) ----

def _peer(t, args, out, ns, self_ns):
    t.count["model.peers"] += 1
    t.count["model.validate_ns"] += ns


def _game(t, args, out, ns, self_ns):
    if not isinstance(out, Exception):
        t.count["model.peers"] += len(out.peers)
    t.count["model.validate_ns"] += ns


def _curve(t, args, out, ns, self_ns):
    t.samples["model.curve_ns"].append(ns)
    t.count["model.curve_cells"] += len(out.segments) * len(out.peers)


def _solved(site):
    def observe(t, args, out, ns, self_ns):
        t.count["solver.calls"] += 1
        t.samples[f"solver.solve_ns.n{len(args[0].peers)}"].append(ns)
        t.count[f"{site}.solve_ns"] += ns
        t.count[f"{site}.solves"] += 1
    return observe


def _classified(t, args, out, ns, self_ns):
    t.count["solver.calls"] += 1


def _loaded(t, args, out, ns, self_ns):
    t.samples["interchange.load_ns"].append(ns)
    t.count["interchange.bytes"] += os.path.getsize(args[0])


def _simulated(t, args, out, ns, self_ns):
    t.samples["simulator.run_ns"].append(ns)
    t.count["simulator.run_ns"] += ns
    t.count["simulator.events"] += len(args[1])
    _, ledger = out
    t.count["simulator.ledger_entries"] += len(ledger.log)
    t.count["simulator.exhausted"] += len(ledger.exhausted)


def _bargained(t, args, out, ns, self_ns):
    if isinstance(out, Exception):   # a session that could not finish
        t.samples["protocol.refused_ns"].append(ns)
        return
    _, trace = out
    rounds = len(trace.rounds)
    t.samples["protocol.bargain_ns"].append(ns)
    t.count["protocol.sessions"] += 1
    t.count["protocol.rounds"] += rounds
    t.count["protocol.accepted"] += sum(r.accepted for r in trace.rounds)
    t.count["protocol.replies"] += rounds * len(args[0].peers)
    t.count["protocol.session_self_ns"] += self_ns


def _grid(t, args, out, ns, self_ns):
    t.samples["oracle.grid_ns"].append(ns)
    t.count["oracle.grid_ns"] += ns


def _grid_demand(t, args, out, ns, self_ns):
    game, prices = args
    peers = sum(1 for p in game.peers if p.credits > 0)
    t.count["oracle.grid_points"] += prices.size
    t.count["oracle.point_peers"] += prices.size * peers
    # float64 arrays demand_on_grid allocates: the total plus six per peer
    t.count["oracle.computed_bytes"] += prices.size * 8 * (6 * peers + 1)


def _rows(t, args, out, ns, self_ns):
    t.count["formatting.rows"] += len(args[1])


def install(tracer, workloads):
    """Wrap every cross-layer call the four workloads make."""
    w = tracer.wrap
    w(cli, "main", "cli")
    w(cli, "load_instance", "interchange", _loaded)
    w(cli, "load_scenario", "interchange", _loaded)
    w(cli, "run_scenario", "simulator", _simulated)
    w(cli, "ledger_csv", "simulator")
    w(simulator.TimelineRecord, "to_csv", "simulator")
    w(cli, "run_bargaining", "protocol", _bargained)
    w(protocol.ProtocolTrace, "to_csv", "protocol")
    w(cli, "capacity_sweep", "experiments")
    w(simulator, "solve", "solver", _solved("simulator"))
    w(experiments, "solve", "solver", _solved("experiments"))
    w(workloads, "solve", "solver", _solved("price"))
    w(protocol, "classify_region", "solver", _classified)
    w(solver, "build_demand_curve", "model", _curve)
    w(experiments, "grid_search_price", "oracle", _grid)
    w(experiments, "revenue_agreement", "oracle")
    w(oracle, "demand_on_grid", "oracle", _grid_demand, record=False)
    w(formatting, "csv_text", "formatting", _rows)
    w(experiments, "csv_text", "formatting", _rows)
    for module in (interchange, simulator, workloads):
        w(module, "PeerProfile", "model", _peer, record=False)
    for module in (interchange, simulator, experiments, solver, workloads):
        w(module, "GameInstance", "model", _game, record=False)


def _median_ms(samples):
    return statistics.median(samples) / 1e6 if samples else None


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(t, ops, refused):
    """Every per-layer metric; None where the layer did not run.

    Time metrics are medians per call or totals per operation as named;
    counts are per operation. `refused` is the number of operations the gate
    accepted as refused (over-scale sessions that exited with code 2).
    """
    c, s = t.count, t.samples
    m = {
        "model.validate_us_per_peer": _ratio(c["model.validate_ns"] / 1e3, c["model.peers"]),
        "model.curve_ms": _median_ms(s["model.curve_ns"]),
        "model.curve_cells": c["model.curve_cells"] / ops,
        "solver.solve_ms.n4": _median_ms(s["solver.solve_ns.n4"]),
        "solver.solve_ms.n100": _median_ms(s["solver.solve_ns.n100"]),
        "solver.solve_ms.n1000": _median_ms(s["solver.solve_ns.n1000"]),
        "solver.self_ms": t.self_ns["solver"] / 1e6 / ops,
        "solver.calls": c["solver.calls"] / ops,
        "oracle.grid_ms": _median_ms(s["oracle.grid_ns"]),
        "oracle.grid_points": c["oracle.grid_points"] / ops,
        "oracle.ns_per_point_peer": _ratio(c["oracle.grid_ns"], c["oracle.point_peers"]),
        "oracle.computed_mb": c["oracle.computed_bytes"] / 1e6 / ops,
        "protocol.bargain_ms": _median_ms(s["protocol.bargain_ns"]),
        "protocol.rounds": c["protocol.rounds"] / ops,
        "protocol.replies": c["protocol.replies"] / ops,
        "protocol.us_per_reply": _ratio(c["protocol.session_self_ns"] / 1e3, c["protocol.replies"]),
        "protocol.accepted_ratio": _ratio(c["protocol.accepted"], c["protocol.rounds"]),
        "protocol.refused": refused / ops,
        "protocol.refused_ms": _median_ms(s["protocol.refused_ns"]),
        "simulator.run_ms": _median_ms(s["simulator.run_ns"]),
        "simulator.self_ms": t.self_ns["simulator"] / 1e6 / ops,
        "simulator.solve_share": _ratio(c["simulator.solve_ns"], c["simulator.run_ns"]),
        "simulator.events": c["simulator.events"] / ops,
        "simulator.resolves": c["simulator.solves"] / ops,
        "simulator.ledger_entries": c["simulator.ledger_entries"] / ops,
        "simulator.exhausted": c["simulator.exhausted"] / ops,
        "experiments.sweep_self_ms": t.self_ns["experiments"] / 1e6 / ops,
        "experiments.points": c["experiments.solves"] / ops,
        "interchange.load_ms": _median_ms(s["interchange.load_ns"]),
        "interchange.bytes": c["interchange.bytes"] / ops,
        "formatting.rows": c["formatting.rows"] / ops,
        "formatting.us_per_row": _ratio(t.self_ns["formatting"] / 1e3, c["formatting.rows"]),
        "cli.self_ms": t.self_ns["cli"] / 1e6 / ops,
    }
    return {k: (v if t.calls[k.split(".")[0]] else None) for k, v in m.items()}
