"""Core domain model: peers, games, demand.

A downloader with credit balance c and download capacity d reacts to a
posted bandwidth price mu with a piecewise demand: full capacity below its
saturation price c/(2 d ln2), the hyperbola c/(mu ln2) - d between that and
its cutoff price c/(d ln2), and nothing above. Summing over a request set
gives a continuous, nonincreasing aggregate demand curve whose breakpoints
are the peers' two thresholds; the solver scans them from the top and
inverts the one segment that brackets the capacity. DemandCurve materializes
every segment, for inspection only.

Threshold values are computed once per peer from the priority ratio
h = c/d (cutoff = h/ln2, saturation = cutoff/2, exact halving) so equal
ratios yield bitwise-equal thresholds and tie merging is exact. Every
comparison elsewhere in the package uses these stored values.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import ValidationError

LN2 = math.log(2.0)

# account and actor name of the uploader; no downloader may take it
UPLOADER_ID = "uploader"

# per-peer branch codes inside a demand segment
SAT = 0   # price at or below saturation threshold: demands full capacity
ACT = 1   # price between thresholds: demands c/(mu ln2) - d
ZERO = 2  # price above cutoff (or no credits): demands nothing


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PeerProfile:
    """A downloader: identity, credit balance, and download capacity."""

    id: str
    credits: float
    capacity: float
    ratio: float = field(init=False, repr=False, compare=False)
    cutoff_price: float = field(init=False, repr=False, compare=False)
    saturation_price: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("peer id must be a non-empty string")
        object.__setattr__(self, "credits", float(self.credits))
        object.__setattr__(self, "capacity", float(self.capacity))
        _require_finite("credits", self.credits)
        _require_finite("capacity", self.capacity)
        if self.credits < 0:
            raise ValidationError(f"credits must be >= 0, got {self.credits}")
        if self.capacity <= 0:
            raise ValidationError(f"capacity must be > 0, got {self.capacity}")
        ratio = self.credits / self.capacity
        cutoff = ratio / LN2
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "cutoff_price", cutoff)
        object.__setattr__(self, "saturation_price", 0.5 * cutoff)


@dataclass(frozen=True)
class GameInstance:
    """One pricing round: an uploader's capacity and its request set."""

    uploader_capacity: float
    peers: tuple

    def __post_init__(self):
        object.__setattr__(self, "uploader_capacity", float(self.uploader_capacity))
        object.__setattr__(self, "peers", tuple(self.peers))
        _require_finite("uploader_capacity", self.uploader_capacity)
        if self.uploader_capacity <= 0:
            raise ValidationError(
                f"uploader_capacity must be > 0, got {self.uploader_capacity}"
            )
        if not self.peers:
            raise ValidationError("peer set must be non-empty")
        seen = set()
        for peer in self.peers:
            if not isinstance(peer, PeerProfile):
                raise ValidationError("peers must be PeerProfile instances")
            if peer.id in seen:
                raise ValidationError(f"duplicate peer id {peer.id!r}")
            seen.add(peer.id)

    @property
    def total_capacity(self):
        return sum(p.capacity for p in self.peers)

    @property
    def oversubscribed(self):
        """True when the request set could absorb more than the supply."""
        return self.total_capacity > self.uploader_capacity

    def peer(self, peer_id):
        for p in self.peers:
            if p.id == peer_id:
                return p
        raise KeyError(peer_id)

    def sorted_by_priority(self):
        """Peers by priority ratio descending, id ascending on ties."""
        return tuple(sorted(self.peers, key=lambda p: (-p.ratio, p.id)))


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

    @property
    def total(self):
        return sum(self.amounts.values())

    def validate_for(self, game: GameInstance, slack=1e-9):
        for p in game.peers:
            x = self.amounts[p.id]
            if x < 0 or x > p.capacity * (1 + slack):
                raise ValidationError(
                    f"allocation {x} for {p.id} outside [0, {p.capacity}]"
                )
        if self.total > game.uploader_capacity * (1 + slack):
            raise ValidationError("allocation exceeds uploader capacity")


class RegionLabel(Enum):
    """Capacity regime at the solved price."""

    INSUFFICIENT = "insufficient"  # at least one requester priced out
    BALANCE = "balance"            # everyone served, nobody at capacity
    SUFFICIENT = "sufficient"      # someone downloads at full capacity
    SATURATED = "saturated"        # supply covers every request entirely


@dataclass(frozen=True)
class Equilibrium:
    """A price, the induced allocation, and the resulting payoffs."""

    price: float
    allocation: Allocation
    revenue: float
    utilities: Mapping[str, float]
    region: RegionLabel

    @property
    def total_allocation(self):
        return self.allocation.total


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
    """Total demand at a price; nonincreasing and continuous in price."""
    total = 0.0
    for peer in game.peers:
        total += best_response(peer, price)
    return total


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
    Evaluation walks peers in game order with the same arithmetic as
    best_response, so demand_at is bitwise equal to aggregate_demand.
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
    thresholds = set()
    for p in game.peers:
        if p.credits > 0:
            thresholds.add(p.saturation_price)
            thresholds.add(p.cutoff_price)
    breakpoints = tuple(sorted(thresholds))

    segments = []
    bounds = [0.0, *breakpoints, math.inf]
    for lo, hi in zip(bounds, bounds[1:]):
        codes = []
        for p in game.peers:
            if p.credits > 0 and p.saturation_price >= hi:
                codes.append(SAT)
            elif p.credits > 0 and p.cutoff_price >= hi:
                codes.append(ACT)
            else:
                codes.append(ZERO)
        segments.append(DemandSegment(lo=lo, hi=hi, codes=tuple(codes)))
    return DemandCurve(peers=game.peers, breakpoints=breakpoints, segments=tuple(segments))
