"""Message-passing realizations of the pricing game.

Two schemes, both between one uploader actor and n downloader actors over a
deterministic in-process transport:

* direct: one round. Downloaders report (credits, capacity); the uploader
  solves for the optimal price, broadcasts it, collects the induced
  demands, grants them, and streams. The result is bit-identical to
  solve() on the same data.
* bargaining: the uploader starts above every cutoff price and walks the
  price down a fixed step per round until total demand meets its capacity,
  accepting the first crossing inside the tolerance band. A crossing that
  lands outside the band triggers a step refinement (resume from the last
  under-capacity price with a ten times smaller step) so coarse steps still
  terminate near the optimum. The uploader never computes a closed form;
  it only compares demand to capacity.

Both runs emit an auditable trace: every broadcast price with the per-peer
demands it drew, refinement events, and the terminal equilibrium. Delivery
order of concurrent messages is shuffled by a seed and must not affect the
outcome; the uploader proceeds only after a full round of replies. The
direct scheme always logs its messages. Bargaining computes each round's
demands directly from the best responses and builds its PRICE, DEMAND and
STREAM_START messages (and shuffles them) only when log_messages is on.
"""

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Mapping, Optional, Tuple

from .errors import ConvergenceError, ProtocolAbort, ValidationError
from .model import UPLOADER_ID, Equilibrium, GameInstance, PeerProfile, best_response
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
    price over the request set, where demand is exactly zero. The step and
    tolerance defaults suit desk-scale games like the built-in experiments.
    """

    initial_price: Optional[float] = None
    step: float = 0.01
    tolerance: float = 0.001
    max_rounds: int = 100_000
    max_refinements: int = 6
    log_messages: bool = False

    def __post_init__(self):
        if self.step <= 0:
            raise ValidationError(f"step must be > 0, got {self.step}")
        if self.tolerance <= 0:
            raise ValidationError(f"tolerance must be > 0, got {self.tolerance}")
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


class _Actor:
    def __init__(self, name):
        self.name = name
        self._seq = 0

    def _send(self, kind, receiver, **payload):
        self._seq += 1
        return Message(kind=kind, sender=self.name, receiver=receiver,
                       seq=self._seq, **payload)


class DownloaderActor(_Actor):
    """Honest by default; a misreport hook can corrupt demand replies."""

    def __init__(self, profile: PeerProfile,
                 misreport: Optional[Callable[[float], float]] = None):
        super().__init__(profile.id)
        self.profile = profile
        self.misreport = misreport

    def request(self, uploader: str) -> Message:
        return self._send(MessageKind.REQUEST, uploader,
                          credits=self.profile.credits,
                          capacity=self.profile.capacity)

    def on_price(self, msg: Message) -> Message:
        demand = best_response(self.profile, msg.price)
        if self.misreport is not None:
            demand = self.misreport(demand)
        return self._send(MessageKind.DEMAND, msg.sender, bandwidth=demand,
                          price=msg.price, round_index=msg.round_index)


class _Transport:
    """Delivers one round of messages in seeded order and logs them."""

    def __init__(self, seed: int, log: List[Message]):
        self._rng = random.Random(seed)
        self._log = log

    def deliver(self, batch):
        batch = list(batch)
        self._rng.shuffle(batch)
        self._log.extend(batch)
        return batch


class _BargainLog:
    """The messages of a logged bargaining run, in seeded delivery order.

    Each reply carries the demand the walk already computed for its sender,
    so logging changes nothing but trace.messages.
    """

    def __init__(self, game: GameInstance, seed: int, log: List[Message]):
        self._transport = _Transport(seed, log)
        self._uploader = _Actor(UPLOADER_ID)
        self._downloaders = {p.id: _Actor(p.id) for p in game.peers}

    def round(self, price: float, round_index: int, demands: Mapping[str, float]):
        price_msgs = self._transport.deliver(
            self._uploader._send(MessageKind.PRICE, pid, price=price,
                                 round_index=round_index)
            for pid in self._downloaders
        )
        self._transport.deliver(
            self._downloaders[m.receiver]._send(
                MessageKind.DEMAND, UPLOADER_ID, bandwidth=demands[m.receiver],
                price=price, round_index=round_index)
            for m in price_msgs
        )

    def stream_start(self):
        self._transport.deliver(
            self._uploader._send(MessageKind.STREAM_START, pid)
            for pid in self._downloaders
        )


def _check_ids(game: GameInstance):
    if any(p.id == UPLOADER_ID for p in game.peers):
        raise ValidationError(f"peer id {UPLOADER_ID!r} is reserved for the uploader")


def run_direct(game: GameInstance, seed: int = 0,
               misreport: Optional[Mapping[str, Callable[[float], float]]] = None,
               ) -> Tuple[Equilibrium, ProtocolTrace]:
    """One-round scheme: collect profiles, solve, broadcast, grant.

    Raises ProtocolAbort when a demand reply disagrees with the reported
    profile's best response (misreporting downloader), or when the
    equilibrium price draws no demand at all.
    """
    _check_ids(game)
    trace = ProtocolTrace(protocol="direct")
    transport = _Transport(seed, trace.messages)
    misreport = misreport or {}
    downloaders = {p.id: DownloaderActor(p, misreport.get(p.id)) for p in game.peers}
    uploader = _Actor(UPLOADER_ID)

    # stage 1: requests carry (credits, capacity)
    requests = transport.deliver(d.request(UPLOADER_ID) for d in downloaders.values())
    profiles = {
        m.sender: PeerProfile(m.sender, m.credits, m.capacity) for m in requests
    }

    # stage 2: the uploader prices the round from the reported profiles,
    # keyed in game order like solve(); the trace lists them by priority
    eq = solve(GameInstance(game.uploader_capacity,
                            [profiles[p.id] for p in game.peers]))
    roster = sorted(profiles.values(), key=lambda p: (-p.ratio, p.id))
    price_msgs = transport.deliver(
        uploader._send(MessageKind.PRICE, pid, price=eq.price, round_index=1)
        for pid in downloaders
    )

    # stage 3: demand replies, each checked against the reported profile
    replies = transport.deliver(
        downloaders[m.receiver].on_price(m) for m in price_msgs
    )
    for m in replies:
        expected = best_response(profiles[m.sender], eq.price)
        if m.bandwidth != expected:
            diag = (f"demand reply from {m.sender} is {m.bandwidth!r}, "
                    f"expected {expected!r} at price {eq.price!r}")
            trace.diagnostics.append(diag)
            raise ProtocolAbort(diag, trace)
    # every reply equals its best response, so the checked demands are these
    demands, total = _round_demands(roster, eq.price)

    trace.rounds.append(TraceRound(index=1, price=eq.price, demands=demands,
                                   total=total, accepted=True))
    if total == 0.0:
        diag = "no demand at the equilibrium price; nothing to stream"
        trace.diagnostics.append(diag)
        raise ProtocolAbort(diag, trace)

    # stage 4: grants, then streaming
    transport.deliver(
        uploader._send(MessageKind.GRANT, pid, bandwidth=demands[pid])
        for pid in downloaders
    )
    transport.deliver(
        uploader._send(MessageKind.STREAM_START, pid) for pid in downloaders
    )

    trace.equilibrium = eq
    return eq, trace


def _round_demands(roster, price):
    """One round's demands and their total, summed in roster order."""
    demands = {}
    total = 0.0
    for p in roster:
        x = best_response(p, price)
        demands[p.id] = x
        total += x
    return demands, total


def _refusal(game: GameInstance, cfg: BargainConfig, roster, mu0: float,
             min_saturation: float) -> Optional[str]:
    """The diagnostic for a walk that cannot end within cfg.max_rounds, or None.

    `floor` lies at or below every price the first max_rounds rounds reach,
    and the one after them. Float demand does not rise with the price, so
    if the round sum at `floor` is still below capacity, `floor` is above
    the smallest saturation price, and round 1 is not accepted, no round
    can accept, overshoot, saturate or reach zero before max_rounds runs
    out: the walk would end in the max_rounds error.
    """
    u_k = game.uploader_capacity
    # a round lowers the price by at most step plus half an ulp of mu0; the
    # spare ulps cover the rounding of floor itself
    stride = cfg.step + 2.0 * math.ulp(mu0)
    floor = mu0 - cfg.max_rounds * stride
    if not floor > min_saturation:  # also when floor is nan
        return None
    if _round_demands(roster, floor)[1] >= u_k:
        return None
    if abs(_round_demands(roster, mu0)[1] - u_k) < cfg.tolerance:
        return None  # round 1 is accepted
    # no round stops above a price whose round sum is below capacity, so the
    # walk needs at least as many rounds as reaching it takes
    lowest = solve(game).price + cfg.step
    if not (min_saturation < lowest < floor
            and _round_demands(roster, lowest)[1] < u_k):
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
    _check_ids(game)
    cfg = config or BargainConfig()
    credited = [p for p in game.peers if p.credits > 0]
    if not credited:
        raise ValidationError("no credited peers; demand is identically zero")
    market_top = max(p.cutoff_price for p in game.peers)
    mu0 = cfg.initial_price if cfg.initial_price is not None else market_top
    if mu0 < market_top:
        raise ValidationError(
            f"initial price {mu0} is below the largest cutoff {market_top}"
        )
    min_saturation = min(p.saturation_price for p in credited)
    u_k = game.uploader_capacity

    trace = ProtocolTrace(protocol="bargaining", config=cfg)
    roster = game.sorted_by_priority()
    diag = _refusal(game, cfg, roster, mu0, min_saturation)
    if diag is not None:
        trace.diagnostics.append(diag)
        raise ConvergenceError(diag, trace)
    log = _BargainLog(game, seed, trace.messages) if cfg.log_messages else None

    price = mu0
    step = cfg.step
    refinements_used = 0
    prev_price = None  # last under-capacity price, the refinement anchor

    for round_index in range(1, cfg.max_rounds + 1):
        demands, total = _round_demands(roster, price)
        if log is not None:
            log.round(price, round_index, demands)

        in_band = abs(total - u_k) < cfg.tolerance
        crossed = total >= u_k
        saturated_all = price <= min_saturation

        if in_band and (crossed or saturated_all or round_index == 1):
            trace.rounds.append(TraceRound(round_index, price, demands, total, True))
            eq = equilibrium_at(game, price)
            trace.equilibrium = eq
            if log is not None:
                log.stream_start()
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
    roster = game.sorted_by_priority()

    def demands_match(r):
        demands, total = _round_demands(roster, r.price)
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
    market_top = max(p.cutoff_price for p in game.peers)
    expected = cfg.initial_price if cfg.initial_price is not None else market_top
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
