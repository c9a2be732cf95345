"""Message-passing realizations of the pricing game.

Two schemes, both between the uploader and n downloaders exchanging
messages in one seeded session:

* direct: one round. Each downloader requests with its (credits,
  capacity); the uploader prices the game whose peers sent those requests
  with solve(), broadcasts the price, checks each demand reply against
  that game's demand at the price, grants the demands, and streams. Its
  equilibrium is solve() of the game.
* bargaining: the uploader starts above every cutoff price and walks the
  price down a fixed step per round until total demand meets its capacity,
  accepting the first crossing inside the tolerance band. A crossing that
  lands outside the band triggers a step refinement (resume from the last
  under-capacity price with a ten times smaller step) so coarse steps still
  terminate near the optimum. The uploader never computes a closed form;
  it only compares demand to capacity.

Both runs emit an auditable trace: every broadcast price with the per-peer
demands it drew, refinement events, and the terminal equilibrium. Each
round's demands are listed and totalled in the game's priority order. The
session numbers each sender's messages and delivers every batch in an
order shuffled by a seed, which must not affect the outcome; the uploader
proceeds only after a full round of replies. The direct scheme always logs
its messages. Bargaining computes each round's demands directly from the
best responses and builds its PRICE, DEMAND and STREAM_START messages (and
shuffles them) only when log_messages is on.
"""

import math
import numbers
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Mapping, Optional, Tuple

from .errors import ConvergenceError, ProtocolAbort, ValidationError
from .model import (UPLOADER_ID, Equilibrium, GameInstance, _require_finite,
                    aggregate_demand, demands_at)
# classify_region is not called here: perfbench/tracing.py wraps it as an attribute
from .solver import classify_region, equilibrium_at, solve  # noqa: F401


class MessageKind(Enum):
    REQUEST = "request"            # downloader -> uploader: credits, capacity
    PRICE = "price"                # uploader -> downloader: posted price
    DEMAND = "demand"              # downloader -> uploader: purchase at price
    GRANT = "grant"                # uploader -> downloader: granted bandwidth
    STREAM_START = "stream_start"  # uploader -> downloader: session begins


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    sender: str
    receiver: str
    seq: int
    price: Optional[float] = None
    bandwidth: Optional[float] = None
    credits: Optional[float] = None
    capacity: Optional[float] = None
    round_index: Optional[int] = None


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
    log_messages: bool = False

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
    index: int
    price: float
    demands: Mapping[str, float]
    total: float
    accepted: bool  # False for overshoot probes rolled back by refinement


@dataclass(frozen=True)
class RefinementEvent:
    round_index: int   # the probe round that overshot
    price: float
    total: float
    old_step: float
    new_step: float


@dataclass
class ProtocolTrace:
    protocol: str  # "direct" or "bargaining"
    rounds: List[TraceRound] = field(default_factory=list)
    refinements: List[RefinementEvent] = field(default_factory=list)
    messages: List[Message] = field(default_factory=list)
    diagnostics: List[str] = field(default_factory=list)
    equilibrium: Optional[Equilibrium] = None
    config: Optional[BargainConfig] = None

    def accepted_rounds(self):
        return [r for r in self.rounds if r.accepted]

    def to_csv(self):
        from .formatting import csv_text, format_sig

        rows = []
        for r in self.rounds:
            # formatted once per round, not once per peer
            index, price, total = str(r.index), format_sig(r.price), format_sig(r.total)
            for peer_id, demand in r.demands.items():
                rows.append((index, price, peer_id, demand, total))
        if self.rounds:
            rows.append(("summary", price, "", "", total))
        return csv_text(("round", "price", "peer_id", "demand", "total_demand"), rows)


class _Session:
    """The messages between the uploader and a game's downloaders.

    Each sender numbers its own messages from 1. Every batch is shuffled by
    the seeded delivery order and appended to the log as delivered.
    """

    def __init__(self, game: GameInstance, seed: int, log: List[Message]):
        self._rng = random.Random(seed)
        self._log = log
        self._ids = [p.id for p in game.peers]
        self._seq = dict.fromkeys([UPLOADER_ID, *self._ids], 0)

    def send(self, kind, sender, receiver, **payload) -> Message:
        self._seq[sender] += 1
        return Message(kind=kind, sender=sender, receiver=receiver,
                       seq=self._seq[sender], **payload)

    def deliver(self, batch) -> List[Message]:
        batch = list(batch)
        self._rng.shuffle(batch)
        self._log.extend(batch)
        return batch

    def broadcast(self, kind, bandwidths=None, **payload) -> List[Message]:
        """One message from the uploader to each downloader; `bandwidths`,
        keyed by peer id, gives each its own bandwidth field."""
        return self.deliver(
            self.send(kind, UPLOADER_ID, pid, **payload,
                      bandwidth=None if bandwidths is None else bandwidths[pid])
            for pid in self._ids
        )

    def round(self, price: float, round_index: int, reply: Callable[[str], float]):
        """A PRICE to every downloader, then its DEMAND of reply(peer id),
        in delivery order; returns the delivered replies."""
        return self.deliver(
            self.send(MessageKind.DEMAND, m.receiver, UPLOADER_ID,
                      bandwidth=reply(m.receiver), price=price,
                      round_index=round_index)
            for m in self.broadcast(MessageKind.PRICE, price=price,
                                    round_index=round_index)
        )


def run_direct(game: GameInstance, seed: int = 0,
               misreport: Optional[Mapping[str, Callable[[float], float]]] = None,
               ) -> Tuple[Equilibrium, ProtocolTrace]:
    """One-round scheme: collect requests, price the game, broadcast, grant.

    The uploader prices `game`, the game whose peers sent the requests, so
    every honest demand reply is that game's demand at the posted price.
    Downloaders reply honestly unless `misreport` maps their id to a hook
    that corrupts the demand they send. Raises ProtocolAbort when a demand
    reply differs from the game's demand for its sender (misreporting
    downloader), or when the equilibrium price draws no demand at all.
    """
    trace = ProtocolTrace(protocol="direct")
    session = _Session(game, seed, trace.messages)
    misreport = misreport or {}

    # stage 1: each downloader requests with its (credits, capacity)
    session.deliver(
        session.send(MessageKind.REQUEST, p.id, UPLOADER_ID,
                     credits=p.credits, capacity=p.capacity)
        for p in game.peers
    )

    # stage 2: the uploader prices the requesting peers' game; the trace
    # lists the solved demands in priority order
    eq = solve(game)
    demands = {p.id: eq.allocation[p.id] for p in game.sorted_by_priority()}
    total = eq.total_allocation

    # stage 3: demand replies, each checked against the game's demand
    def reply(pid):
        hook = misreport.get(pid)
        return demands[pid] if hook is None else hook(demands[pid])

    for m in session.round(eq.price, 1, reply):
        expected = demands[m.sender]
        if m.bandwidth != expected:
            diag = (f"demand reply from {m.sender} is {m.bandwidth!r}, "
                    f"expected {expected!r} at price {eq.price!r}")
            trace.diagnostics.append(diag)
            raise ProtocolAbort(diag, trace)

    trace.rounds.append(TraceRound(index=1, price=eq.price, demands=demands,
                                   total=total, accepted=True))
    if total == 0.0:
        diag = "no demand at the equilibrium price; nothing to stream"
        trace.diagnostics.append(diag)
        raise ProtocolAbort(diag, trace)

    # stage 4: grants, then streaming
    session.broadcast(MessageKind.GRANT, demands)
    session.broadcast(MessageKind.STREAM_START)

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
    floor = mu0 - cfg.max_rounds * stride
    if not floor > game.saturation_floor:  # also when floor is nan
        return None
    if aggregate_demand(game, floor) >= u_k:
        return None
    if abs(aggregate_demand(game, mu0) - u_k) < cfg.tolerance:
        return None  # round 1 is accepted
    # no round stops above a price whose round sum is below capacity, so the
    # walk needs at least as many rounds as reaching it takes
    lowest = solve(game).price + cfg.step
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
    ConvergenceError before its first round, with a trace of no rounds.
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
    diag = _refusal(game, cfg, mu0)
    if diag is not None:
        trace.diagnostics.append(diag)
        raise ConvergenceError(diag, trace)
    # each logged reply carries the demand the walk already computed for its
    # sender, so logging changes nothing but trace.messages
    log = _Session(game, seed, trace.messages) if cfg.log_messages else None

    price = mu0
    step = cfg.step
    refinements_used = 0
    prev_price = None  # last under-capacity price, the refinement anchor

    for round_index in range(1, cfg.max_rounds + 1):
        demands, total = demands_at(game, price)
        if log is not None:
            log.round(price, round_index, demands.__getitem__)

        in_band = abs(total - u_k) < cfg.tolerance
        crossed = total >= u_k
        saturated_all = price <= game.saturation_floor

        if in_band and (crossed or saturated_all or round_index == 1):
            trace.rounds.append(TraceRound(round_index, price, demands, total, True))
            eq = equilibrium_at(game, price)
            trace.equilibrium = eq
            if log is not None:
                log.broadcast(MessageKind.STREAM_START)
            return eq, trace

        if crossed:
            trace.rounds.append(TraceRound(round_index, price, demands, total, False))
            if prev_price is None:
                # no under-capacity price to resume from, and every later
                # round would lie lower still and overshoot as well
                diag = (f"round 1: demand {total} at the initial price {price} "
                        f"overshot capacity {u_k} beyond tolerance "
                        f"{cfg.tolerance}; the walk only lowers the price")
                trace.diagnostics.append(diag)
                raise ConvergenceError(diag, trace)
            if refinements_used >= cfg.max_refinements:
                diag = (f"round {round_index}: demand {total} overshot capacity "
                        f"{u_k} beyond tolerance {cfg.tolerance} and no "
                        f"refinements remain (step {step})")
                trace.diagnostics.append(diag)
                raise ConvergenceError(diag, trace)
            old_step, step = step, step / 10.0
            refinements_used += 1
            trace.refinements.append(
                RefinementEvent(round_index, price, total, old_step, step)
            )
            trace.diagnostics.append(
                f"round {round_index}: overshoot at price {price} "
                f"(demand {total} > capacity {u_k}); refining step "
                f"{old_step} -> {step}"
            )
            price = prev_price - step
            if price <= 0:
                diag = "refined price walked to zero before demand met capacity"
                trace.diagnostics.append(diag)
                raise ConvergenceError(diag, trace)
            continue

        if saturated_all:
            diag = (f"round {round_index}: demand saturated at {total}, "
                    f"below capacity {u_k} minus tolerance; unreachable")
            trace.diagnostics.append(diag)
            raise ConvergenceError(diag, trace)

        trace.rounds.append(TraceRound(round_index, price, demands, total, True))
        prev_price = price
        price = price - step
        if price <= 0:
            diag = "price walked to zero before demand met capacity"
            trace.diagnostics.append(diag)
            raise ConvergenceError(diag, trace)

    diag = f"no convergence within max_rounds={cfg.max_rounds}"
    trace.diagnostics.append(diag)
    raise ConvergenceError(diag, trace)


def replay(trace: ProtocolTrace, game: GameInstance) -> bool:
    """Recompute every demand and price step in a trace; True iff all match.

    Demands must equal the best response bit for bit; prices must follow
    the protocol rule (the solved price for direct, stepping with recorded
    refinements for bargaining).
    """
    def demands_match(r):
        demands, total = demands_at(game, r.price)
        return r.demands == demands and r.total == total

    if trace.protocol == "direct":
        if len(trace.rounds) != 1:
            return False
        r = trace.rounds[0]
        if not r.accepted or not demands_match(r):
            return False
        return r.price == solve(game).price

    if trace.protocol != "bargaining" or trace.config is None:
        return False
    cfg = trace.config
    expected = cfg.initial_price if cfg.initial_price is not None else game.market_top
    step = cfg.step
    refinements = {ev.round_index: ev for ev in trace.refinements}
    prev_price = None
    for r in trace.rounds:
        if r.price != expected or not demands_match(r):
            return False
        if not r.accepted:
            ev = refinements.get(r.index)
            if ev is None or ev.old_step != step or ev.price != r.price:
                return False
            step = ev.new_step
            if prev_price is None:
                return False
            expected = prev_price - step
        else:
            prev_price = r.price
            expected = r.price - step
    if trace.equilibrium is not None:
        last = trace.rounds[-1]
        if not last.accepted or trace.equilibrium.price != last.price:
            return False
        if abs(last.total - game.uploader_capacity) >= cfg.tolerance:
            return False
    return True
