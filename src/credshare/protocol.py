"""Two realizations of the pricing game as an exchange between the uploader
and n downloaders:

* direct: one round. The uploader prices the game with solve(), posts the
  price, and checks each downloader's demand reply against that game's
  demand at the price. Its equilibrium is solve() of the game.
* bargaining: the uploader starts above every cutoff price and walks the
  price down a fixed step per round until total demand meets its capacity,
  accepting the first crossing inside the tolerance band. A crossing that
  lands outside the band triggers a step refinement (resume from the last
  under-capacity price with a ten times smaller step) so coarse steps still
  terminate near the optimum. The uploader never computes a closed form;
  it only compares demand to capacity.

Both runs emit an auditable trace of rounds and diagnostics: every price
posted with the per-peer demands it drew and their total, numbered by
position; a line for each refinement and failure; and the terminal
equilibrium. Each round's demands are listed and totalled in the game's
priority order. A bargaining round that overshot is kept with
accepted=False: it is the refinement, and the step it overshot with is the
configured step divided by ten once for each rejected round before it.
Both runs are deterministic.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple

from .errors import ConvergenceError, ProtocolAbort, ValidationError
from .model import (Equilibrium, GameInstance, _require_finite, aggregate_demand,
                    demands_at)
# classify_region is not called here: perfbench/tracing.py wraps it as an attribute
from .solver import classify_region, equilibrium_at, solve  # noqa: F401


@dataclass(frozen=True)
class BargainConfig:
    """Knobs for the iterative scheme.

    initial_price None means "just above the market": the largest cutoff
    price over the request set, where demand is exactly zero. The step,
    the tolerance and a given initial price must be finite; max_rounds and
    max_refinements must be integers. The step and
    tolerance defaults suit desk-scale games like the built-in experiments.
    """

    initial_price: Optional[float] = None
    step: float = 0.01
    tolerance: float = 0.001
    max_rounds: int = 100_000
    max_refinements: int = 6

    def __post_init__(self):
        _require_finite("step", self.step)
        _require_finite("tolerance", self.tolerance)
        if self.initial_price is not None:
            _require_finite("initial_price", self.initial_price)
        if self.step <= 0:
            raise ValidationError(f"step must be > 0, got {self.step}")
        if self.tolerance <= 0:
            raise ValidationError(f"tolerance must be > 0, got {self.tolerance}")
        for name in ("max_rounds", "max_refinements"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.max_rounds < 1:
            raise ValidationError("max_rounds must be >= 1")
        if self.max_refinements < 0:
            raise ValidationError("max_refinements must be >= 0")


@dataclass(frozen=True)
class TraceRound:
    price: float
    demands: Mapping[str, float]
    total: float
    accepted: bool  # False for overshoot probes rolled back by refinement


@dataclass
class ProtocolTrace:
    protocol: str  # "direct" or "bargaining"
    rounds: List[TraceRound] = field(default_factory=list)  # round k is rounds[k - 1]
    diagnostics: List[str] = field(default_factory=list)
    equilibrium: Optional[Equilibrium] = None
    config: Optional[BargainConfig] = None

    def to_csv(self):
        from .formatting import csv_text, format_sig

        rows = []
        for number, r in enumerate(self.rounds, 1):
            # formatted once per round, not once per peer
            index, price, total = str(number), format_sig(r.price), format_sig(r.total)
            for peer_id, demand in r.demands.items():
                rows.append((index, price, peer_id, demand, total))
        if self.rounds:
            rows.append(("summary", price, "", "", total))
        return csv_text(("round", "price", "peer_id", "demand", "total_demand"), rows)


def run_direct(game: GameInstance,
               misreport: Optional[Mapping[str, Callable[[float], float]]] = None,
               ) -> Tuple[Equilibrium, ProtocolTrace]:
    """One-round scheme: price the game, post the price, check the replies.

    The uploader prices `game` with solve(), so every honest demand reply
    is that game's demand at the posted price. Downloaders reply honestly
    unless `misreport` maps their id to a hook that corrupts the demand they
    send. The replies are checked in the game's listing order, and the
    first that differs from its sender's demand raises ProtocolAbort; the
    hooks of later downloaders are not called. ProtocolAbort is raised too
    when the equilibrium price draws no demand at all.
    """
    trace = ProtocolTrace(protocol="direct")
    misreport = misreport or {}

    # the trace lists the solved demands in priority order
    eq = solve(game)
    demands = {p.id: eq.allocation[p.id] for p in game.sorted_by_priority()}
    total = eq.total_allocation

    for p in game.peers:
        expected = demands[p.id]
        hook = misreport.get(p.id)
        reply = expected if hook is None else hook(expected)
        if reply != expected:
            diag = (f"demand reply from {p.id} is {reply!r}, "
                    f"expected {expected!r} at price {eq.price!r}")
            trace.diagnostics.append(diag)
            raise ProtocolAbort(diag, trace)

    trace.rounds.append(TraceRound(price=eq.price, demands=demands,
                                   total=total, accepted=True))
    if total == 0.0:
        diag = "no demand at the equilibrium price; nothing to stream"
        trace.diagnostics.append(diag)
        raise ProtocolAbort(diag, trace)

    trace.equilibrium = eq
    return eq, trace


def _refusal(game: GameInstance, cfg: BargainConfig, mu0: float) -> Optional[str]:
    """The diagnostic for a walk that cannot end within cfg.max_rounds, or None.

    `floor` lies at or below every price the first max_rounds rounds reach,
    and the one after them. Float demand does not rise with the price, so
    if the round sum at `floor` is still below capacity, `floor` is above
    the game's saturation floor, and round 1 is not accepted, no round
    can accept, overshoot, saturate or reach zero before max_rounds runs
    out: the walk would end in the max_rounds error.
    """
    u_k = game.uploader_capacity
    # a round lowers the price by at most step plus half an ulp of mu0; the
    # spare ulps cover the rounding of floor itself
    stride = cfg.step + 2.0 * math.ulp(mu0)
    try:
        floor = mu0 - cfg.max_rounds * stride
    except OverflowError:  # a walk that may run past the float range
        return None
    if not floor > game.saturation_floor:  # also when floor is nan
        return None
    if aggregate_demand(game, floor) >= u_k:
        return None
    if abs(aggregate_demand(game, mu0) - u_k) < cfg.tolerance:
        return None  # round 1 is accepted
    # no round stops above a price whose round sum is below capacity, so the
    # walk needs at least as many rounds as reaching it takes
    try:
        lowest = solve(game).price + cfg.step
    except ConvergenceError:  # an unpriceable game; floor still bounds the walk
        lowest = floor
    if not (game.saturation_floor < lowest < floor
            and aggregate_demand(game, lowest) < u_k):
        lowest = floor
    needed = max(int((mu0 - lowest) / stride), cfg.max_rounds + 1)
    return (f"no convergence within max_rounds={cfg.max_rounds}: demand stays "
            f"below capacity {u_k} down to price {lowest}, so the walk from "
            f"{mu0} by step {cfg.step} needs at least {needed} rounds; "
            f"refused before the first round")


def run_bargaining(game: GameInstance, config: Optional[BargainConfig] = None,
                   seed: int = 0) -> Tuple[Equilibrium, ProtocolTrace]:
    """Iterative scheme: walk the price down until demand meets capacity.

    Accepts the first round whose total demand has reached the capacity and
    sits inside the tolerance band. A round that jumps past the band
    triggers a refinement: resume from the previous under-capacity price
    with a tenth of the step; a first round past the band has no such price
    and raises ConvergenceError. Demand below the band is accepted only when
    it can no longer rise (every credited peer already at capacity) or on
    the very first round (capacity already within tolerance of zero demand).
    A session that provably cannot end within max_rounds raises
    ConvergenceError before its first round, with a trace of no rounds, and
    a step too small to move the price raises it as soon as it leaves the
    price unchanged, rather than repeating the round until max_rounds.

    The walk is deterministic; `seed` is ignored. It stays only so that
    existing callers still run, until ROADMAP item 1 drops it with the
    CLI's --seed.
    """
    cfg = config or BargainConfig()
    if not game.credited():
        raise ValidationError("no credited peers; demand is identically zero")
    mu0 = cfg.initial_price if cfg.initial_price is not None else game.market_top
    if mu0 < game.market_top:
        raise ValidationError(
            f"initial price {mu0} is below the largest cutoff {game.market_top}"
        )
    u_k = game.uploader_capacity

    trace = ProtocolTrace(protocol="bargaining", config=cfg)

    def fail(diag):
        trace.diagnostics.append(diag)
        return ConvergenceError(diag, trace)

    diag = _refusal(game, cfg, mu0)
    if diag is not None:
        raise fail(diag)

    price = mu0
    step = cfg.step
    refinements_used = 0
    prev_price = None  # last under-capacity price, the refinement anchor

    for round_index in range(1, cfg.max_rounds + 1):
        demands, total = demands_at(game, price)

        in_band = abs(total - u_k) < cfg.tolerance
        crossed = total >= u_k
        saturated_all = price <= game.saturation_floor

        if in_band and (crossed or saturated_all or round_index == 1):
            trace.rounds.append(TraceRound(price, demands, total, True))
            eq = equilibrium_at(game, price)
            trace.equilibrium = eq
            return eq, trace

        if crossed:
            trace.rounds.append(TraceRound(price, demands, total, False))
            if prev_price is None:
                # no under-capacity price to resume from, and every later
                # round would lie lower still and overshoot as well
                raise fail(f"round 1: demand {total} at the initial price {price} "
                           f"overshot capacity {u_k} beyond tolerance "
                           f"{cfg.tolerance}; the walk only lowers the price")
            if refinements_used >= cfg.max_refinements:
                raise fail(f"round {round_index}: demand {total} overshot capacity "
                           f"{u_k} beyond tolerance {cfg.tolerance} and no "
                           f"refinements remain (step {step})")
            old_step, step = step, step / 10.0
            refinements_used += 1
            trace.diagnostics.append(
                f"round {round_index}: overshoot at price {price} "
                f"(demand {total} > capacity {u_k}); refining step "
                f"{old_step} -> {step}"
            )
            zero = "refined price walked to zero before demand met capacity"
        else:
            if saturated_all:
                raise fail(f"round {round_index}: demand saturated at {total}, "
                           f"below capacity {u_k} minus tolerance; unreachable")
            trace.rounds.append(TraceRound(price, demands, total, True))
            prev_price = price
            zero = "price walked to zero before demand met capacity"

        # both branches step down from the anchor: a refinement resumes from
        # it with the smaller step, a plain round has just become it
        price = prev_price - step
        if price == prev_price:
            raise fail(f"round {round_index}: step {step} leaves the price {price} "
                       f"unchanged; the walk cannot move")
        if price <= 0:
            raise fail(zero)

    raise fail(f"no convergence within max_rounds={cfg.max_rounds}")


def replay(trace: ProtocolTrace, game: GameInstance) -> bool:
    """Recompute every demand and price step in a trace; True iff all match.

    Demands must equal the best response bit for bit; prices must follow
    the protocol rule (the solved price for direct; for bargaining, a step
    down from the last accepted price, a tenth as long after each rejected
    round, which needs such a price and a refinement to spare). A trace
    with an equilibrium must end in an accepted round (for bargaining, one
    within the tolerance band), and the equilibrium must be the one that
    round's price induces. A malformed trace replays False rather than
    raising.
    """
    def demands_match(r):
        if not r.price > 0:  # no demand is defined there
            return False
        demands, total = demands_at(game, r.price)
        return r.demands == demands and r.total == total

    if trace.protocol == "direct":
        if len(trace.rounds) != 1:
            return False
        r = trace.rounds[0]
        if not r.accepted or not demands_match(r) or r.price != solve(game).price:
            return False
        band = math.inf
    elif trace.protocol == "bargaining" and trace.config is not None:
        cfg = trace.config
        expected = cfg.initial_price if cfg.initial_price is not None else game.market_top
        step = cfg.step
        refinements_used = 0
        prev_price = None
        for r in trace.rounds:
            if r.price != expected or not demands_match(r):
                return False
            if not r.accepted:
                if prev_price is None or refinements_used >= cfg.max_refinements:
                    return False
                refinements_used += 1
                step = step / 10.0
            else:
                prev_price = r.price
            expected = prev_price - step
        band = cfg.tolerance
    else:
        return False

    if trace.equilibrium is None:
        return True
    if not trace.rounds:
        return False
    last = trace.rounds[-1]
    return (last.accepted and abs(last.total - game.uploader_capacity) < band
            and trace.equilibrium == equilibrium_at(game, last.price))
