"""Built-in experiment reproductions and sweep machinery.

Five canned setups, kept bit-for-bit stable so their CSV outputs can serve
as golden files:

* example1: four peers, equal capacity 150, credits [100, 150, 200, 250];
  demand per peer swept over price (service differentiation by credits).
* example2: four peers, equal credits 150, capacities [100, 150, 200, 250];
  demand swept over price (bias toward small capacities).
* example3: example1's peers; the solved allocation swept over the
  uploader's capacity from 0 to the total demand.
* example4: capacity 2; peers (400,2), (300,1.5), (200,1), (100,0.5)
  joining at t = 20, 40, 60, 80 s; churn timeline plus ledger.
* example5: the same four peers joining at t = 20 s and leaving one by one
  (peer4 at 40, peer3 at 60, peer2 at 80); the mirror image of example4.

Every --oracle cross-check (solve, the capacity sweep and the churn
timeline) goes through cross_check.
"""

import math
from typing import List, Optional, Tuple

from .errors import ValidationError
from .formatting import csv_text
from .model import GameInstance, PeerProfile, demands_at
from .oracle import GridSpec, grid_search_price, revenue_agreement
from .simulator import EventKind, ScenarioEvent, ledger_csv, run_scenario
from .solver import solve

EXAMPLE_NAMES = ("example1", "example2", "example3", "example4", "example5")

PRICE_SWEEP_STEPS = 200
CAPACITY_SWEEP_STEPS = 120


def _peers(creds, caps):
    return [
        PeerProfile(f"peer{i}", c, d)
        for i, (c, d) in enumerate(zip(creds, caps), start=1)
    ]


def example_game(name: str) -> GameInstance:
    if name == "example1" or name == "example3":
        return GameInstance(300.0, _peers([100, 150, 200, 250], [150] * 4))
    if name == "example2":
        return GameInstance(300.0, _peers([150] * 4, [100, 150, 200, 250]))
    if name == "example4":
        return GameInstance(2.0, _peers([400, 300, 200, 100], [2, 1.5, 1, 0.5]))
    raise ValidationError(f"no instance form for {name!r}")


def example_scenario(name: str) -> Tuple[float, Tuple[ScenarioEvent, ...]]:
    peers = _peers([400, 300, 200, 100], [2, 1.5, 1, 0.5])
    if name == "example4":
        events = tuple(
            ScenarioEvent(t, EventKind.JOIN, peer=p)
            for t, p in zip((20.0, 40.0, 60.0, 80.0), peers)
        )
        return 2.0, events
    if name == "example5":
        joins = tuple(ScenarioEvent(20.0, EventKind.JOIN, peer=p) for p in peers)
        leaves = tuple(
            ScenarioEvent(t, EventKind.LEAVE, peer_id=pid)
            for t, pid in zip((40.0, 60.0, 80.0), ("peer4", "peer3", "peer2"))
        )
        return 2.0, joins + leaves
    raise ValidationError(f"no scenario form for {name!r}")


def cross_check(game: GameInstance, revenue: float,
                grids: Optional[dict] = None) -> Tuple[float, float, bool]:
    """The grid oracle's best price and revenue on the game, and whether
    `revenue` agrees with that revenue within one grid cell. grids is the
    priced windows that searches of these peers share (grid_search_price)."""
    spec = GridSpec.for_game(game)
    oracle_price, oracle_revenue = grid_search_price(game, spec, grids)
    return (oracle_price, oracle_revenue,
            revenue_agreement(game, revenue, oracle_revenue, spec))


def _finite_span(lo: float, hi: float, steps: int) -> float:
    """hi - lo for bounds with 0 <= lo < hi; raises unless hi and every
    grid offset span * k (k <= steps) are finite."""
    span = hi - lo
    try:
        finite = math.isfinite(span * steps)
    except OverflowError:  # steps beyond the float range
        finite = False
    if not finite:
        raise ValidationError(f"sweep range [{lo}, {hi}] over {steps} steps "
                              "is not finite")
    return span


def price_sweep(game: GameInstance, lo: Optional[float] = None,
                hi: Optional[float] = None,
                steps: int = PRICE_SWEEP_STEPS) -> str:
    """Per-peer demand and its priority-order total at each grid price, as
    CSV; by default from half the saturation floor to 1.1x the market top."""
    if lo is None or hi is None:
        if not game.credited():
            raise ValidationError("no credited peers; the demand curve is empty")
        lo = 0.5 * game.saturation_floor if lo is None else lo
        hi = 1.1 * game.market_top if hi is None else hi
    if not (0 < lo < hi):
        raise ValidationError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    span = _finite_span(lo, hi, steps)
    header = ("price", *(p.id for p in game.peers), "total_demand")
    rows = []
    for k in range(steps + 1):
        price = lo + span * k / steps
        demands, total = demands_at(game, price)
        rows.append((price, *(demands[p.id] for p in game.peers), total))
    return csv_text(header, rows)


def capacity_sweep(game: GameInstance, lo: float = 0.0,
                   hi: Optional[float] = None,
                   steps: int = CAPACITY_SWEEP_STEPS,
                   oracle: bool = False) -> str:
    """Solved price and allocation at each capacity grid point, as CSV.

    The lower endpoint is excluded when lo == 0 (the game needs positive
    capacity); the upper endpoint is included.
    """
    if hi is None:
        hi = game.total_capacity
    if not (0 <= lo < hi):
        raise ValidationError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    header = ["uploader_capacity", "price", *(p.id for p in game.peers)]
    if oracle:
        header += ["oracle_price", "oracle_agrees"]
    span = _finite_span(lo, hi, steps)
    rows = []
    # every capacity has the same peers, so the same oracle window: price it once
    grids = {}
    for k in range(1 if lo == 0 else 0, steps + 1):
        u_k = lo + span * k / steps
        inst = game.at_capacity(u_k)
        eq = solve(inst)
        row = [u_k, eq.price, *(eq.allocation[p.id] for p in game.peers)]
        if oracle:
            oracle_price, _, agrees = cross_check(inst, eq.revenue, grids)
            row += [oracle_price, "yes" if agrees else "no"]
        rows.append(tuple(row))
    return csv_text(tuple(header), rows)


def run_example(name: str, oracle: bool = False) -> List[Tuple[str, str]]:
    """Produce the named experiment's CSV artifacts as (filename, text)."""
    if name in ("example1", "example2"):
        if oracle:
            raise ValidationError(f"{name} is a price sweep; it has no solves to check")
        return [(f"{name}_price_sweep.csv", price_sweep(example_game(name)))]
    if name == "example3":
        game = example_game(name)
        csv = capacity_sweep(game, 0.0, game.total_capacity, oracle=oracle)
        return [(f"{name}_capacity_sweep.csv", csv)]
    if name in ("example4", "example5"):
        capacity, events = example_scenario(name)
        timeline, ledger = run_scenario(capacity, events)
        return [
            (f"{name}_timeline.csv", timeline.to_csv(oracle_check=oracle)),
            (f"{name}_ledger.csv", ledger_csv(ledger)),
        ]
    raise ValidationError(f"unknown example {name!r}")
