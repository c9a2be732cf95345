"""Seeded inputs, operations and correctness checks of the four workloads.

Each workload is a cycle of operations drawn from fixed strata (peer counts,
populations, session kinds), so a run covers whole cycles and its latency
distribution has the same shape on every seed; the seed changes only the
random details of each input. The program sees only the generated inputs:
`GameInstance` objects built from raw numbers (`price`) or JSON files
written with `save_instance` / `save_scenario` (the CLI workloads).

Every check below holds by design, which is why a failure is a defect:

* price: `solve` returns the largest price with demand equal to capacity and
  `_assemble` allocates `best_response` at that price, so the residual, the
  per-peer equality and the total hold; demand just above the price falls
  because a peer leaves saturation there; `run_direct` solves the same
  priority-sorted game and `replay` re-solves it.
* churn: the CLI prints `to_csv` and `ledger_csv` of the same deterministic
  `run_scenario`; transfers move credit between accounts, so the total is
  conserved; event times strictly increase, so epochs abut; each epoch was
  solved from the game it records.
* bargain: the CLI prints the trace of the same seeded `run_bargaining`; the
  walk accepts the first round that reaches capacity within epsilon, after
  a round below capacity at a price within one step above it. Over-scale
  sessions cannot finish within `--max-rounds`, so exit code 2 is their
  correct result (the diagnostic text is not pinned).
* sweep-oracle: the CLI prints `format_sig(solve(...).price)` at the
  capacities `lo + span * k / steps`; recomputing them gives the same
  text. Oracle agreement is not checked: on a saturation plateau the
  clearing price is not the revenue optimum, and "no" is the documented
  answer there.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from credshare import cli
from credshare.formatting import format_sig
from credshare.interchange import (
    load_instance,
    load_scenario,
    save_instance,
    save_scenario,
)
from credshare.model import GameInstance, PeerProfile, aggregate_demand, best_response
from credshare.protocol import BargainConfig, replay, run_bargaining, run_direct
from credshare.simulator import EventKind, ScenarioEvent, ledger_csv, run_scenario
from credshare.solver import SolverConfig, solve

LN2 = math.log(2.0)

# price: equal thirds of fresh oversubscribed games at these peer counts
PRICE_SIZES = (4, 100, 1000)

# churn: peak populations; after growth, PEAK // 4 rounds of settles + join/leave
CHURN_PEAKS = (30, 60, 100)

# bargain: desk-scale sessions at these peer counts, then one over-scale
BARGAIN_MAX_ROUNDS = 10_000
BARGAIN_DESK_ROUNDS = 1_000
BARGAIN_DESK_SIZES = (4, 5, 6, 7, 8)
BARGAIN_STEP = BargainConfig().step

# sweep-oracle: example3-like games at these peer counts
SWEEP_SIZES = (4, 12, 32)
SWEEP_STEPS = 120


@dataclass(frozen=True)
class Op:
    """One operation: `run` is timed, `encode` turns its result into text."""

    kind: str
    run: Callable[[], object]
    encode: Callable[[object], str]
    check: str        # name of the checker in CHECKS
    payload: object   # picklable input of the checker


def run_cli(argv):
    """One in-process CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _encode_cli(result):
    code, text = result
    return f"{code}\n{text}"


def _decode_cli(raw):
    code, _, text = raw.partition("\n")
    return int(code), text


def _random_peer_numbers(rng, n):
    credits = tuple(rng.uniform(1.0, 500.0) for _ in range(n))
    capacities = tuple(rng.uniform(0.1, 5.0) for _ in range(n))
    return credits, capacities


def _demand(credits, capacities, price):
    """Aggregate demand from the paper's piecewise rule, derived here anew.

    The generator does not call `aggregate_demand` or `solve`, so the inputs
    a seed gives stay the same when a later change to the model or solver
    moves a result in its last bits.
    """
    total = 0.0
    for c, d in zip(credits, capacities):
        cutoff = c / (d * LN2)
        if price <= 0.5 * cutoff:
            total += d
        elif price <= cutoff:
            total += min(d, max(0.0, c / (price * LN2) - d))
    return total


# --- price ---------------------------------------------------------------

@dataclass(frozen=True)
class PriceInput:
    credits: tuple
    capacities: tuple
    uploader_capacity: float


def price_input(rng, n):
    """Like `random_oversubscribed` in tests/conftest.py, at a fixed n."""
    credits, capacities = _random_peer_numbers(rng, n)
    total = sum(capacities)
    u_k = rng.uniform(0.0, total)
    while not 0.0 < u_k < total:
        u_k = rng.uniform(0.0, total)
    return PriceInput(credits, capacities, u_k)


def price_game(inp):
    peers = [
        PeerProfile(f"p{i}", c, d)
        for i, (c, d) in enumerate(zip(inp.credits, inp.capacities))
    ]
    return GameInstance(inp.uploader_capacity, peers)


def _encode_price(eq):
    return json.dumps({"price": eq.price, "alloc": list(eq.allocation.amounts.values())})


def price_cycle(rng, workdir, index):
    ops = []
    for n in PRICE_SIZES:
        inp = price_input(rng, n)
        # price_game and solve are looked up at call time, so the traced
        # run can wrap them as this module's attributes
        ops.append(Op(f"n{n}", lambda inp=inp: solve(price_game(inp)),
                      _encode_price, "price", inp))
    return ops


def check_price(inp, raw):
    out = json.loads(raw)
    price, alloc = out["price"], out["alloc"]
    game = price_game(inp)
    u_k = game.uploader_capacity
    problems = []
    residual = abs(aggregate_demand(game, price) - u_k)
    if residual > SolverConfig().residual_tolerance * max(1.0, abs(u_k)):
        problems.append(f"residual {residual}")
    if len(alloc) != len(game.peers) or any(
        x != best_response(p, price) for p, x in zip(game.peers, alloc)
    ):
        problems.append("allocation differs from best_response")
    if abs(sum(alloc) - u_k) > 1e-9 * u_k:
        problems.append(f"total allocation {sum(alloc)} != capacity {u_k}")
    if not aggregate_demand(game, price * (1 + 1e-6)) < u_k:
        problems.append("demand above the price still reaches capacity")
    direct_eq, trace = run_direct(game)
    if direct_eq.price != price:
        problems.append(f"run_direct price {direct_eq.price!r} != {price!r}")
    if not replay(trace, game):
        problems.append("direct trace fails replay")
    return problems, None


# --- churn ---------------------------------------------------------------

def _churn_scenario(rng, peak):
    """Joins up to `peak` peers, then 1-2 settles alternating with a join or leave."""
    serial = 0
    present = []
    events = []
    time = 0.0

    def join():
        nonlocal serial, time
        serial += 1
        credits, capacities = _random_peer_numbers(rng, 1)
        peer = PeerProfile(f"peer{serial}", credits[0], capacities[0])
        present.append(peer)
        events.append(ScenarioEvent(time, EventKind.JOIN, peer=peer))

    for _ in range(peak):
        time += 1.0
        join()
    capacity = rng.uniform(0.3, 0.7) * sum(p.capacity for p in present)
    for _ in range(peak // 4):
        # a second settle on the same equilibrium can charge more than a payer
        # kept after the first, so some payers run out of credit
        for _ in range(rng.randint(1, 2)):
            time += 1.0
            events.append(ScenarioEvent(time, EventKind.SETTLE, duration=1.0))
        time += 1.0
        if len(present) >= peak or (len(present) > peak - 5 and rng.random() < 0.5):
            gone = present.pop(rng.randrange(len(present)))
            events.append(ScenarioEvent(time, EventKind.LEAVE, peer_id=gone.id))
        else:
            join()
    return capacity, events


def churn_cycle(rng, workdir, index):
    ops = []
    for peak in CHURN_PEAKS:
        capacity, events = _churn_scenario(rng, peak)
        path = str(workdir / f"scenario-{index}-{peak}.json")
        save_scenario(capacity, events, path)
        ops.append(Op(f"peak{peak}", lambda path=path: run_cli(["simulate", path]),
                      _encode_cli, "churn", path))
    return ops


def check_churn(path, raw):
    code, text = _decode_cli(raw)
    capacity, events = load_scenario(path)
    timeline, ledger = run_scenario(capacity, events)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if text != timeline.to_csv() + "== ledger ==\n" + ledger_csv(ledger):
        problems.append("CLI text differs from run_scenario rendered by the library")
    endowed = sum(ev.peer.credits for ev in events if ev.kind is EventKind.JOIN)
    if abs(ledger.total() - endowed) > 1e-9 * max(1.0, endowed):
        problems.append(f"ledger total {ledger.total()} != endowment {endowed}")
    epochs = timeline.epochs
    if (epochs[0].start != events[0].time or epochs[-1].end != math.inf
            or any(a.end != b.start for a, b in zip(epochs, epochs[1:]))):
        problems.append("epochs are not contiguous")
    for ep in epochs:
        if ep.equilibrium is None or solve(ep.game).price != ep.equilibrium.price:
            problems.append(f"epoch at {ep.start} does not match solve on its game")
            break
    return problems, None


# --- bargain -------------------------------------------------------------

def _clearing_price(credits, capacities, u_k):
    """Largest price with demand >= u_k, by bisection on the generator's rule."""
    lo, hi = 0.0, max(c / (d * LN2) for c, d in zip(credits, capacities))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _demand(credits, capacities, mid) >= u_k:
            lo = mid
        else:
            hi = mid
    return lo


def _desk_game(rng, n):
    """n peers, capacity a uniform 0.2-0.8 fraction of total demand.

    Games whose clearing price is below half the top cutoff are redrawn.
    Credits are then scaled by one factor so the walk from the top cutoff
    down to the clearing price takes BARGAIN_DESK_ROUNDS steps: scaling
    every credit scales every threshold and the clearing price alike and
    keeps the ratio spread and the capacity fraction. The clearing price
    then stays at least as far above zero as the walk is long, so the walk
    and its refinements never reach zero.
    """
    while True:
        credits, capacities = _random_peer_numbers(rng, n)
        u_k = rng.uniform(0.2, 0.8) * sum(capacities)
        top = max(c / (d * LN2) for c, d in zip(credits, capacities))
        price = _clearing_price(credits, capacities, u_k)
        if price >= 0.5 * top:   # keeps the scaled clearing price >= 1000 steps
            break
    scale = BARGAIN_DESK_ROUNDS * BARGAIN_STEP / (top - price)
    peers = [PeerProfile(f"p{i}", scale * c, d)
             for i, (c, d) in enumerate(zip(credits, capacities))]
    return GameInstance(u_k, peers)


def _over_scale_game(rng):
    """Two peers with 1e6 credits: the walk from the top cutoff is ~1e8 steps."""
    credits = (1e6, 1e6)
    capacities = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
    u_k = rng.uniform(0.3, 0.9) * sum(capacities)
    top = max(c / (d * LN2) for c, d in zip(credits, capacities))
    predicted = (top - _clearing_price(credits, capacities, u_k)) / BARGAIN_STEP
    if predicted < 10 * BARGAIN_MAX_ROUNDS:
        raise AssertionError("over-scale game would converge within max_rounds")
    peers = [PeerProfile(f"p{i}", c, d)
             for i, (c, d) in enumerate(zip(credits, capacities))]
    return GameInstance(u_k, peers)


def bargain_cycle(rng, workdir, index):
    ops = []
    games = [("desk", _desk_game(rng, n)) for n in BARGAIN_DESK_SIZES]
    games.append(("over", _over_scale_game(rng)))
    for slot, (kind, game) in enumerate(games):
        path = str(workdir / f"instance-{index}-{slot}.json")
        save_instance(game, path)
        seed = rng.randrange(1 << 30)
        argv = ["bargain", path, "--seed", str(seed),
                "--max-rounds", str(BARGAIN_MAX_ROUNDS)]
        ops.append(Op(kind, lambda argv=argv: run_cli(argv), _encode_cli,
                      "bargain", (kind, path, seed)))
    return ops


def check_bargain(payload, raw):
    kind, path, seed = payload
    code, text = _decode_cli(raw)
    if kind == "over":
        return ([] if code == 2 else [f"over-scale session exit code {code}, not 2"]), "refused"
    game = load_instance(path)
    cfg = BargainConfig(max_rounds=BARGAIN_MAX_ROUNDS)
    eq, trace = run_bargaining(game, cfg, seed=seed)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if text != trace.to_csv():
        problems.append("CLI trace differs from run_bargaining's trace")
    if not replay(trace, game):
        problems.append("trace fails replay")
    if not abs(trace.rounds[-1].total - game.uploader_capacity) < cfg.tolerance:
        problems.append("terminal demand outside epsilon of capacity")
    gap = solve(game).price - eq.price
    if not 0.0 <= gap < cfg.step:
        problems.append(f"solve price minus terminal price is {gap}")
    return problems, None


# --- sweep-oracle --------------------------------------------------------

def _sweep_game(rng, n):
    peers = [PeerProfile(f"peer{i}", rng.uniform(50.0, 300.0), rng.uniform(100.0, 200.0))
             for i in range(1, n + 1)]
    return GameInstance(0.5 * sum(p.capacity for p in peers), peers)


def sweep_cycle(rng, workdir, index):
    ops = []
    for n in SWEEP_SIZES:
        path = str(workdir / f"sweep-{index}-{n}.json")
        save_instance(_sweep_game(rng, n), path)
        argv = ["sweep", path, "--sweep", "capacity", "--oracle"]
        ops.append(Op(f"n{n}", lambda argv=argv: run_cli(argv), _encode_cli,
                      "sweep", path))
    return ops


def check_sweep(path, raw):
    code, text = _decode_cli(raw)
    game = load_instance(path)
    lines = text.splitlines()
    ids = [p.id for p in game.peers]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not lines or lines[0].split(",") != [
        "uploader_capacity", "price", *ids, "oracle_price", "oracle_agrees"
    ]:
        return problems + ["unexpected header"], None
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != SWEEP_STEPS:
        problems.append(f"{len(rows)} rows, expected {SWEEP_STEPS}")
    span = game.total_capacity - 0.0
    for k, row in enumerate(rows, start=1):
        u_k = 0.0 + span * k / SWEEP_STEPS
        expected = format_sig(solve(GameInstance(u_k, game.peers)).price)
        if row[0] != format_sig(u_k) or row[1] != expected or row[-1] not in ("yes", "no"):
            problems.append(f"row {k}: {row[:2]} != {[format_sig(u_k), expected]}")
            break
    return problems, None


CYCLES = {
    "price": price_cycle,
    "churn": churn_cycle,
    "bargain": bargain_cycle,
    "sweep-oracle": sweep_cycle,
}

CHECKS = {
    "price": check_price,
    "churn": check_churn,
    "bargain": check_bargain,
    "sweep": check_sweep,
}


def check(task):
    """Gate one operation; returns (problems, label). Runs in a worker process.

    `task` is (checker name, payload, output path, twin output path or None);
    a twin is the same operation's output from another phase of the run and
    must be byte-identical.
    """
    name, payload, out_path, twin_path = task
    with open(out_path, encoding="utf-8") as fh:
        raw = fh.read()
    if twin_path is not None:
        with open(twin_path, encoding="utf-8") as fh:
            if fh.read() != raw:
                return ["traced and untraced outputs differ"], None
    try:
        return CHECKS[name](payload, raw)
    except Exception as exc:  # a checker that crashes is a failed check
        return [f"check raised {type(exc).__name__}: {exc}"], None
