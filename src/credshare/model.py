"""Core domain model: peers, games, demand.

A downloader with credit balance c and download capacity d reacts to a
posted bandwidth price mu with a piecewise demand: full capacity below its
saturation price c/(2 d ln2), the hyperbola c/(mu ln2) - d between that and
its cutoff price c/(d ln2), and nothing above. Summing over a request set
gives a continuous, nonincreasing aggregate demand curve whose breakpoints
are the peers' two thresholds; the solver searches them for the segment
that brackets the capacity and inverts it. DemandCurve materializes every
segment, for inspection only.

A game owns one priority order of its peers (ratio descending, id
ascending on ties) and the market window read off it, both computed once.
Every demand total, demands_at's included, is summed in that order, so no
total, price or region label depends on the order the peers are listed in.
The game also holds one opaque slot for the solver's breakpoint table,
which solver.py alone builds and reads; at_capacity copies share it.

Threshold values are computed once per peer from the priority ratio
h = c/d (cutoff = h/ln2, saturation = cutoff/2, exact halving) so equal
ratios yield bitwise-equal thresholds and tie merging is exact. Every
comparison elsewhere in the package uses these stored values.
"""

import copy
import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

from .errors import ValidationError

LN2 = math.log(2.0)

# ledger account of the uploader; no downloader may take it
UPLOADER_ID = "uploader"

# per-peer branch codes inside a demand segment
SAT = 0   # price at or below saturation threshold: demands full capacity
ACT = 1   # price between thresholds: demands c/(mu ln2) - d
ZERO = 2  # price above cutoff (or no credits): demands nothing


def _require_finite(name, value):
    """value as a finite float, or ValidationError. Only real numbers count:
    neither booleans nor numeric strings do."""
    number = math.nan
    # float and int first: the abstract numbers.Real check is ten times slower
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return number


def _require_capacity(value):
    capacity = _require_finite("uploader_capacity", value)
    if capacity <= 0:
        raise ValidationError(f"uploader_capacity must be > 0, got {capacity}")
    return capacity


@dataclass(frozen=True)
class PeerProfile:
    """A downloader: identity, credit balance, and download capacity.

    The id may not be the uploader's; a credited peer's thresholds must be
    positive and finite, and its demand quotient credits / (price ln2)
    finite just above its saturation price."""

    id: str
    credits: float
    capacity: float
    ratio: float = field(init=False, repr=False, compare=False)
    cutoff_price: float = field(init=False, repr=False, compare=False)
    saturation_price: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("peer id must be a non-empty string")
        if self.id == UPLOADER_ID:
            raise ValidationError(f"peer id {UPLOADER_ID!r} is reserved for the uploader")
        object.__setattr__(self, "credits", _require_finite("credits", self.credits))
        object.__setattr__(self, "capacity", _require_finite("capacity", self.capacity))
        if self.credits < 0:
            raise ValidationError(f"credits must be >= 0, got {self.credits}")
        if self.capacity <= 0:
            raise ValidationError(f"capacity must be > 0, got {self.capacity}")
        ratio = self.credits / self.capacity
        cutoff = ratio / LN2
        saturation = 0.5 * cutoff
        if self.credits > 0 and not (saturation > 0.0 and cutoff < math.inf):
            raise ValidationError(f"peer {self.id!r}: threshold prices [{saturation}, "
                                  f"{cutoff}] outside the positive, finite range")
        # demand is credits / (price ln2) - capacity between the thresholds,
        # and the quotient is largest just above the saturation price
        if self.credits > 0 and not self.credits / (saturation * LN2) < math.inf:
            raise ValidationError(f"peer {self.id!r}: demand credits / (price ln2) "
                                  f"overflows above the saturation price {saturation}")
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "cutoff_price", cutoff)
        object.__setattr__(self, "saturation_price", saturation)


@dataclass(frozen=True)
class GameInstance:
    """One pricing round: an uploader's capacity and its request set, the
    peers' total_capacity (summed in listing order; its sum with the
    uploader's capacity must be finite, as must the peers' total credits),
    and the market window, from
    saturation_floor (the lowest saturation price of a credited peer; None
    without one) up to market_top (the top cutoff)."""

    uploader_capacity: float
    peers: tuple
    total_capacity: float = field(init=False, repr=False, compare=False)
    market_top: float = field(init=False, repr=False, compare=False)
    saturation_floor: Optional[float] = field(init=False, repr=False, compare=False)
    _priority: tuple = field(init=False, repr=False, compare=False)
    _credited: tuple = field(init=False, repr=False, compare=False)
    # solver.py's breakpoint table, shared by at_capacity copies
    _table_slot: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "uploader_capacity",
                           _require_capacity(self.uploader_capacity))
        object.__setattr__(self, "peers", tuple(self.peers))
        if not self.peers:
            raise ValidationError("peer set must be non-empty")
        seen = set()
        total_capacity = total_credits = 0.0  # in listing order
        for peer in self.peers:
            if not isinstance(peer, PeerProfile):
                raise ValidationError("peers must be PeerProfile instances")
            if peer.id in seen:
                raise ValidationError(f"duplicate peer id {peer.id!r}")
            seen.add(peer.id)
            total_capacity += peer.capacity
            total_credits += peer.credits
        object.__setattr__(self, "total_capacity", total_capacity)
        self._require_finite_sum(self.uploader_capacity)
        # the solver inverts at the active peers' summed credits
        if not math.isfinite(total_credits):
            raise ValidationError(
                f"the peers' total credits {total_credits} is not finite")
        priority = tuple(sorted(self.peers, key=lambda p: (-p.ratio, p.id)))
        # a credited peer's ratio is > 0 and a free rider's 0.0, so the credited
        # peers are the prefix of the priority order with -ratio below 0.0
        credited = priority[:bisect_left(priority, 0.0, key=lambda p: -p.ratio)]
        object.__setattr__(self, "_priority", priority)
        object.__setattr__(self, "_credited", credited)
        object.__setattr__(self, "market_top", priority[0].cutoff_price)
        object.__setattr__(self, "saturation_floor",
                           credited[-1].saturation_price if credited else None)
        object.__setattr__(self, "_table_slot", [None])

    def at_capacity(self, u_k):
        """GameInstance(u_k, self.peers), sharing rather than redoing all
        that derives from the peers alone, the breakpoint table included."""
        u_k = _require_capacity(u_k)
        self._require_finite_sum(u_k)
        game = copy.copy(self)
        object.__setattr__(game, "uploader_capacity", u_k)
        return game

    def _require_finite_sum(self, u_k):
        # the solver inverts at u_k plus the active peers' capacity
        if not math.isfinite(u_k + self.total_capacity):
            raise ValidationError(
                f"uploader_capacity {u_k} plus the peers' total capacity "
                f"{self.total_capacity} is not finite")

    @property
    def oversubscribed(self):
        """True when the request set could absorb more than the supply."""
        return self.total_capacity > self.uploader_capacity

    def sorted_by_priority(self):
        """Peers by priority ratio descending, id ascending on ties.

        The order every demand total is summed in.
        """
        return self._priority

    def credited(self):
        """The peers with credits, in priority order."""
        return self._credited


@dataclass(frozen=True)
class Allocation:
    """Granted bandwidth keyed by peer id, in the game's peer order."""

    amounts: Mapping[str, float]

    def __getitem__(self, peer_id):
        return self.amounts[peer_id]

    def __iter__(self):
        return iter(self.amounts)

    def items(self):
        return self.amounts.items()


class RegionLabel(Enum):
    """Capacity regime at the solved price."""

    INSUFFICIENT = "insufficient"  # at least one requester priced out
    BALANCE = "balance"            # everyone served, nobody at capacity
    SUFFICIENT = "sufficient"      # someone downloads at full capacity
    SATURATED = "saturated"        # supply covers every request entirely


@dataclass(frozen=True)
class Equilibrium:
    """A price, the induced allocation, and the resulting payoffs.

    total_allocation is the allocation's total summed in priority order,
    so revenue == price * total_allocation whatever the peers' listing."""

    price: float
    allocation: Allocation
    total_allocation: float
    revenue: float
    utilities: Mapping[str, float]
    region: RegionLabel


def best_response(peer: PeerProfile, price: float) -> float:
    """Utility-maximizing purchase for one peer at the given price.

    Full capacity at or below the saturation price, the interior hyperbola
    between the thresholds, zero above the cutoff. Always in [0, capacity].
    """
    if price <= 0:
        raise ValidationError(f"price must be > 0, got {price}")
    if price <= peer.saturation_price:
        return peer.capacity
    if price <= peer.cutoff_price:
        raw = peer.credits / (price * LN2) - peer.capacity
        return min(peer.capacity, max(0.0, raw))
    return 0.0


def satisfaction(peer: PeerProfile, bandwidth: float) -> float:
    """Perceived service quality in [0, 1]: log2(1 + x/d)."""
    if bandwidth < 0 or bandwidth > peer.capacity:
        raise ValidationError(
            f"bandwidth {bandwidth} outside [0, {peer.capacity}] for {peer.id}"
        )
    return math.log2(1.0 + bandwidth / peer.capacity)


def downloader_utility(peer: PeerProfile, bandwidth: float, price: float) -> float:
    """Credit-weighted satisfaction minus the cost of the purchase."""
    if price <= 0:
        raise ValidationError(f"price must be > 0, got {price}")
    return peer.credits * satisfaction(peer, bandwidth) - price * bandwidth


def aggregate_demand(game: GameInstance, price: float) -> float:
    """Total demand at a price, summed in priority order; nonincreasing and
    continuous in price."""
    total = 0.0
    for peer in game.sorted_by_priority():
        total += best_response(peer, price)
    return total


def demands_at(game: GameInstance, price: float):
    """Every peer's demand at a price, keyed in priority order, and their
    total summed in that order (bitwise equal to aggregate_demand)."""
    demands = {}
    total = 0.0
    for p in game.sorted_by_priority():
        x = best_response(p, price)
        demands[p.id] = x
        total += x
    return demands, total


@dataclass(frozen=True)
class DemandSegment:
    """One maximal price interval (lo, hi] with a fixed peer classification."""

    lo: float
    hi: float
    codes: tuple  # per-peer branch codes (SAT, ACT, ZERO), aligned with curve.peers


@dataclass(frozen=True)
class DemandCurve:
    """Aggregate demand materialized as breakpoints plus segments.

    An inspection utility: it holds (2n + 1) x n branch codes, and solve()
    does not build it.

    Segment k covers (breakpoints[k-1], breakpoints[k]] (left bound 0 for
    the first); one trailing segment covers prices above every cutoff.
    The peers are listed in priority order, and evaluation walks them with
    the same arithmetic as best_response, so demand_at is bitwise equal to
    aggregate_demand.
    """

    peers: tuple
    breakpoints: tuple
    segments: tuple

    def segment_index(self, price: float) -> int:
        if price <= 0:
            raise ValidationError(f"price must be > 0, got {price}")
        return bisect_left(self.breakpoints, price)

    def segment_demand(self, index: int, price: float) -> float:
        """Evaluate segment index's formula at price (price need not lie in it)."""
        codes = self.segments[index].codes
        total = 0.0
        for peer, code in zip(self.peers, codes):
            if code == SAT:
                total += peer.capacity
            elif code == ACT:
                raw = peer.credits / (price * LN2) - peer.capacity
                total += min(peer.capacity, max(0.0, raw))
        return total

    def demand_at(self, price: float) -> float:
        return self.segment_demand(self.segment_index(price), price)


def build_demand_curve(game: GameInstance) -> DemandCurve:
    """Materialize the breakpoint/segment structure of aggregate demand.

    Breakpoints are the distinct positive thresholds over all peers; equal
    thresholds (tied priority ratios) merge into a single breakpoint.
    """
    peers = game.sorted_by_priority()
    breakpoints = tuple(sorted({t for p in game.credited()
                                for t in (p.saturation_price, p.cutoff_price)}))

    segments = []
    bounds = [0.0, *breakpoints, math.inf]
    for lo, hi in zip(bounds, bounds[1:]):
        codes = []
        for p in peers:
            if p.credits > 0 and p.saturation_price >= hi:
                codes.append(SAT)
            elif p.credits > 0 and p.cutoff_price >= hi:
                codes.append(ACT)
            else:
                codes.append(ZERO)
        segments.append(DemandSegment(lo=lo, hi=hi, codes=tuple(codes)))
    return DemandCurve(peers=peers, breakpoints=breakpoints, segments=tuple(segments))
