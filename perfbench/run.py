"""credshare benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`. The
run draws its inputs from --seed, runs whole cycles of operations until
--seconds of operation wall time have passed, then gates every operation's
output in two child processes (gate.py) that it waits for. The last line of stdout is one JSON object
(`correct`, `attempted`, `failed`, `metrics`); the lines above it print
every metric by name with its unit, sample count and tail percentile.
--trace 0 reports the end-to-end metrics; --trace 1 first runs half the
time untraced, then re-runs the same operations with spans installed (see
tracing.py) and reports the per-layer metrics. Exit code: 0 when every
check passes, 1 when one fails, 2 when the checkout holds no program.
See README.md in this directory.
"""

import argparse
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 15
GATE_WORKERS = 2
TAIL_BEYOND = 10

# Shared virtual machines change speed under the benchmark: on the 2-vCPU
# Xeon VM this benchmark was built on, a fixed loop ran up to 2x slower for
# seconds to minutes at a time, which moved whole runs by up to 30%. So
# every time metric is reported in reference time: an interval's wall time
# times REFERENCE_PROBE_S over the wall time of a fixed, stdlib-only probe
# (the mean of the probes run just before and just after it, on the same
# pinned CPU). The probe runs no credshare code, so a change to the program
# moves reference times exactly as it moves wall times. REFERENCE_PROBE_S is
# about the probe's median time on that VM, so there a reference second is
# about a wall second on average. Raw wall times are printed beside them.
REFERENCE_PROBE_S = 1.6e-3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metrics in BENCHMARK.json. Every workload reports the same set.
# A count of an idle layer is a measured 0, so the counts are all here. A
# time of an idle layer measures nothing and would read 0 on every run, so
# only the times every workload exercises are here; the others are printed
# by the report (REPORT_UNITS) and recorded in baseline.json.
PER_LAYER_UNITS = {
    "model.validate_us_per_peer": "us",
    "model.curve_cells": "count",
    "solver.self_ms": "ms",
    "solver.calls": "count",
    "oracle.grid_points": "count",
    "oracle.computed_mb": "MB",
    "protocol.rounds": "count",
    "protocol.replies": "count",
    "protocol.refused": "count",
    "simulator.events": "count",
    "simulator.resolves": "count",
    "simulator.ledger_entries": "count",
    "simulator.exhausted": "count",
    "experiments.points": "count",
    "interchange.bytes": "B",
    "formatting.rows": "count",
    "trace.overhead_ratio": "ratio",
}

REPORT_UNITS = {
    "model.curve_ms": "ms", "solver.solve_ms.n4": "ms",
    "solver.solve_ms.n100": "ms", "solver.solve_ms.n1000": "ms",
    "oracle.grid_ms": "ms", "oracle.ns_per_point_peer": "ns",
    "protocol.bargain_ms": "ms", "protocol.us_per_reply": "us",
    "protocol.accepted_ratio": "ratio", "protocol.refused_ms": "ms",
    "simulator.run_ms": "ms",
    "simulator.self_ms": "ms", "simulator.solve_share": "ratio",
    "experiments.sweep_self_ms": "ms", "interchange.load_ms": "ms",
    "formatting.us_per_row": "us", "cli.self_ms": "ms",
}


def _probe_work():
    total = 0.0
    seen = {}
    rows = []
    for i in range(4000):
        row = (i, i * 0.5, str(i & 63))
        seen[row[2]] = row
        rows.append(row)
        total += row[1] / (1.0 + i % 7)
    return total + len(seen) + len(rows)


def probe():
    """Wall time of the fixed probe work, median of three."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Converts wall intervals to reference time with probes around each."""

    def __init__(self):
        self.last = probe()

    def scale(self):
        """Reference seconds per wall second since the previous call."""
        now = probe()
        factor = REFERENCE_PROBE_S / (0.5 * (self.last + now))
        self.last = now
        return factor


@contextmanager
def pinned():
    """Keep this process, and what it starts, on one CPU while it measures."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@dataclass
class Record:
    op: object
    wall: float          # seconds
    ref: float           # reference seconds
    out_path: Optional[Path]
    error: Optional[str]


def run_op(op, index, spill, tag, clock, tracer=None):
    """Time one operation; its output goes to a file, outside the timing."""
    if tracer is not None:
        tracer.op = index
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # an operation that raises counts as failed
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    ref = wall * clock.scale()
    out_path = None
    if error is None:
        out_path = spill / f"{tag}-{index}.out"
        out_path.write_text(op.encode(result), encoding="utf-8")
    return Record(op, wall, ref, out_path, error)


def run_cycles(make_cycle, rng, seconds, spill):
    """Closed loop over whole cycles until `seconds` of operation wall time."""
    records = []
    busy = 0.0
    index = 0
    clock = None
    while busy < seconds:
        cycle = make_cycle(rng, spill, index)
        if index == 0:
            cycle[0].run()   # untimed: lazy imports and first-call set-up
            clock = Clock()
        for op in cycle:
            records.append(run_op(op, len(records), spill, "a", clock))
            busy += records[-1].wall
        index += 1
    return records


def measure_setup():
    """Median time a fresh interpreter takes to import credshare.cli."""
    cmd = [sys.executable, "-c",
           f"import sys; sys.path.insert(0, {str(SRC)!r}); import credshare.cli"]
    subprocess.run(cmd, check=True, cwd=ROOT)   # warm bytecode and file caches
    clock = Clock()
    wall, ref = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        wall.append(time.perf_counter() - start)
        ref.append(wall[-1] * clock.scale())
    return statistics.median(ref), statistics.median(wall)


def check_in_workers(tasks, spill):
    """`workloads.check` on every task, in GATE_WORKERS child processes.

    The children are plain interpreters running gate.py, each on an
    interleaved share of the tasks, and every one is waited for (killed
    first if the run is leaving early), so none outlives the run.
    """
    procs = []
    try:
        for w in range(GATE_WORKERS):
            tasks_path = spill / f"gate-{w}.tasks"
            with open(tasks_path, "wb") as fh:
                pickle.dump(tasks[w::GATE_WORKERS], fh)
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "gate.py"), str(tasks_path),
                 str(spill / f"gate-{w}.verdicts")], cwd=ROOT))
        codes = [p.wait() for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    if any(codes):
        raise RuntimeError(f"gate workers exited with codes {codes}")
    verdicts = [None] * len(tasks)
    for w in range(GATE_WORKERS):
        with open(spill / f"gate-{w}.verdicts", "rb") as fh:
            verdicts[w::GATE_WORKERS] = pickle.load(fh)
    return verdicts


def gate(workloads, records, spill, twins=None):
    """Check every operation in child processes; returns (failures, refused)."""
    failures = []
    tasks = []
    labels = []
    for i, rec in enumerate(records):
        if rec.error is not None:
            failures.append(f"op {i} ({rec.op.kind}): {rec.error}")
            continue
        twin = twins[i].out_path if twins is not None else None
        if twins is not None and twin is None:
            failures.append(f"op {i} ({rec.op.kind}): failed in the untraced phase")
            continue
        labels.append((i, rec.op.kind))
        tasks.append((rec.op.check, rec.op.payload, str(rec.out_path),
                      None if twin is None else str(twin)))
    refused = 0
    for (i, kind), (problems, label) in zip(labels, check_in_workers(tasks, spill)):
        if problems:
            failures.append(f"op {i} ({kind}): " + "; ".join(problems))
        elif label == "refused":
            refused += 1
    return failures, refused


def latency_stats(seconds):
    """Throughput, median and tail of one list of op latencies."""
    lat = sorted(seconds)
    n = len(lat)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    return {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[tail_index] * 1e3,
        "samples": n,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "beyond": n - 1 - tail_index,
    }


def by_kind(records):
    kinds = {}
    for r in records:
        kinds.setdefault(r.op.kind, []).append(r.ref)
    return ", ".join(f"{k} {len(v)} ops p50 {statistics.median(v) * 1e3:.3f} ms"
                     for k, v in kinds.items())


def fmt(value):
    return "n/a (layer not run)" if value is None else f"{value:.6g}"


def untraced(args, workloads, spill):
    rng = random.Random(args.seed)
    with pinned():
        records = run_cycles(workloads.CYCLES[args.workload], rng, args.seconds, spill)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s, setup_wall = measure_setup()
    failures, refused = gate(workloads, records, spill)
    st = latency_stats([r.ref for r in records])
    raw = latency_stats([r.wall for r in records])
    n = st["samples"]
    print(f"  ops_per_s    {st['ops_per_s']:.6g} 1/s  ({n} ops, "
          f"{sum(r.ref for r in records):.3f} s of op time; wall {raw['ops_per_s']:.6g})")
    print(f"  op_p50_ms    {st['op_p50_ms']:.6g} ms  ({n} samples; wall {raw['op_p50_ms']:.6g})")
    print(f"  op_tail_ms   {st['op_tail_ms']:.6g} ms  (p{st['tail_percentile']:.1f}: "
          f"{st['beyond']} of {n} samples beyond it; wall {raw['op_tail_ms']:.6g})")
    print(f"  failed_ratio {len(failures) / n:.6g}  ({len(failures)} of {n} attempted)")
    print(f"  peak_rss_mb  {peak_rss_mb:.6g} MB  (ru_maxrss of this process)")
    print(f"  setup_s      {setup_s:.6g} s  (median of {SETUP_RUNS} fresh interpreters; "
          f"wall {setup_wall:.6g})")
    print(f"  by kind (reference ms): {by_kind(records)}")
    if args.workload == "bargain":
        print(f"  refused      {refused} of {n} ops  (over-scale sessions, exit code 2)")
    values = {"ops_per_s": st["ops_per_s"], "op_p50_ms": st["op_p50_ms"],
              "op_tail_ms": st["op_tail_ms"], "peak_rss_mb": peak_rss_mb,
              "setup_s": setup_s}
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return n, failures, metrics


def traced(args, workloads, spill):
    import tracing

    rng = random.Random(args.seed)
    tracer = tracing.Tracer()
    with pinned():
        plain = run_cycles(workloads.CYCLES[args.workload], rng, args.seconds / 2, spill)
        tracing.install(tracer, workloads)
        try:
            clock = Clock()
            spans = [run_op(r.op, i, spill, "b", clock, tracer)
                     for i, r in enumerate(plain)]
        finally:
            tracer.restore()
    span_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(span_file)
    failures, refused = gate(workloads, spans, spill, twins=plain)
    n = len(spans)
    layer = tracing.layer_metrics(tracer, n, refused)
    layer["trace.overhead_ratio"] = (sum(r.ref for r in plain)
                                     / sum(r.ref for r in spans))
    print(f"  {n} ops traced; {len(tracer.spans)} spans written to "
          f"{span_file.relative_to(ROOT)}")
    print(f"  failed_ratio {len(failures) / n:.6g}  ({len(failures)} of {n} attempted)")
    print(f"  by kind (reference ms): {by_kind(spans)}")
    units = {**PER_LAYER_UNITS, **REPORT_UNITS}
    for name in layer:
        print(f"  {name:28s} {fmt(layer[name])} {units[name]}")
    metrics = {k: {"value": layer[k] if layer[k] is not None else 0, "unit": u}
               for k, u in PER_LAYER_UNITS.items()}
    return n, failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("price", "churn", "bargain", "sweep-oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "credshare" / "__init__.py").is_file():
        print(f"perfbench: no program in this checkout ({SRC} has no credshare)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import credshare
    if Path(credshare.__file__).resolve().parent != SRC / "credshare":
        print(f"perfbench: imported credshare from {credshare.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    spill = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    spill.mkdir()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        run = traced if args.trace else untraced
        attempted, failures, metrics = run(args, workloads, spill)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
