"""Exact clearing-price equilibria and their closed-form special cases.

The solution concept is the market-clearing Stackelberg point: the largest
price at which aggregate demand equals the upload capacity. It allocates
the entire uplink, every follower best-responds, and it is the point both
distributed protocol realizations converge to. (It maximizes the
uploader's revenue within the clearing regime; with widely spread
priority ratios a saturation plateau above it can out-earn it while
leaving capacity idle, which the brute-force oracle measures.)

Demand is piecewise hyperbolic between threshold breakpoints and strictly
decreasing wherever some peer is price sensitive, so the solver walks the
sorted breakpoints, evaluating aggregate_demand at each it reaches, to the
one segment that brackets the capacity, and inverts that segment in closed
form:

    mu = sum(c, active) / ((u_k - sum(d, saturated) + sum(d, active)) * ln2)

No iterative root finding is involved, and no DemandCurve is built: that
structure is an inspection utility, not part of the solve path. Where
demand is flat at exactly the capacity (a plateau), the supremum price of
the plateau is returned, since revenue mu * u_k rises with mu along it.

The walk starts at the segment holding a hint price (solve's near=), else
at the bracket the game's last solve found, else at the top, and goes up or
down from there; float demand never rises with the price, so every start
gives the same segment. A cold solve without a hint reads the
breakpoints from the top down, while a churn re-solve hinted with the last
price, or a re-solve of the same game, reads the few around its bracket.

The sorted breakpoints and the demand at each depend only on the peers, so
they live on the game with the last bracket, each demand summed the first
time a walk reads it, and GameInstance.at_capacity copies share them. The
lowest breakpoint's demand, which decides saturation, is never summed: a
fresh table holds it as the credited capacities' priority-order sum, the
bits aggregate_demand gives there. A capacity sweep sorts its breakpoints
once, sums each breakpoint's demand at most once, and starts each
capacity's walk at the previous one's bracket.

Every sum is taken in the game's priority order
(GameInstance.sorted_by_priority), so the price, the revenue and the
region label do not depend on the order the peers are listed in.

Closed forms for special structures (two peers, the all-interior balance
region, a fully interleaved threshold order) are provided as independently
testable entry points and must agree with solve() on their domains.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ConvergenceError, ValidationError
from .model import (
    LN2,
    Allocation,
    Equilibrium,
    GameInstance,
    PeerProfile,
    RegionLabel,
    aggregate_demand,
    best_response,
    downloader_utility,
)
# build_demand_curve is not called here: perfbench/tracing.py wraps it as an attribute
from .model import build_demand_curve  # noqa: F401

__all__ = [
    "SolverConfig",
    "RegionLabel",
    "solve",
    "classify_region",
    "equilibrium_at",
    "two_peer_price",
    "balance_region_price",
    "ordered_threshold_price",
    "verify_se",
    "VerificationReport",
]


@dataclass(frozen=True)
class SolverConfig:
    """Numeric policy for solve(). Ties go to the highest clearing price."""

    residual_tolerance: float = 1e-9   # on |D(mu*) - u_k|, scaled as solve() says

    def __post_init__(self):
        if self.residual_tolerance <= 0:
            raise ValidationError("residual_tolerance must be > 0")


DEFAULT_CONFIG = SolverConfig()


def _region(game: GameInstance, amounts, total: float) -> RegionLabel:
    """Capacity regime from every peer's response and their priority-order total."""
    credited = game.credited()
    if not credited:
        return RegionLabel.INSUFFICIENT
    if (all(amounts[p.id] == p.capacity for p in credited)
            and total <= game.uploader_capacity):
        return RegionLabel.SATURATED
    if any(x == 0.0 for x in amounts.values()):
        return RegionLabel.INSUFFICIENT
    if any(amounts[p.id] == p.capacity for p in game.peers):
        return RegionLabel.SUFFICIENT
    return RegionLabel.BALANCE


def classify_region(game: GameInstance, price: float) -> RegionLabel:
    """Label the capacity regime at a price, from the game alone.

    Saturated: every credited peer downloads at capacity and supply covers
    it. Insufficient: someone (including free riders) is priced out.
    Sufficient: someone is at capacity. Balance: everyone strictly interior.
    """
    return equilibrium_at(game, price).region


def equilibrium_at(game: GameInstance, price: float) -> Equilibrium:
    """The equilibrium the posted price induces: every peer best-responds.

    Each peer's response is computed once. The allocation and utilities are
    keyed in game order; the total behind the revenue and the region label
    is summed in priority order, so neither depends on the order the peers
    are listed in.
    """
    amounts = {p.id: best_response(p, price) for p in game.peers}
    total = 0.0
    for p in game.sorted_by_priority():
        total += amounts[p.id]
    return Equilibrium(
        price=price,
        allocation=Allocation(amounts),
        total_allocation=total,
        revenue=price * total,
        utilities={
            p.id: downloader_utility(p, amounts[p.id], price) for p in game.peers
        },
        region=_region(game, amounts, total),
    )


def _demand_at(game: GameInstance, breakpoints, demand, i: int) -> float:
    """aggregate_demand at breakpoints[i], summed the first time it is read."""
    value = demand[i]
    if value is None:
        value = demand[i] = aggregate_demand(game, breakpoints[i])
    return value


def solve(game: GameInstance, config: SolverConfig = DEFAULT_CONFIG, *,
          near: Optional[float] = None) -> Equilibrium:
    """Compute the clearing price and the equilibrium it induces.

    Oversubscribed games get the largest price with demand equal to supply.
    Games whose (credited) demand cannot exceed supply get the saturated
    price, the largest price at which every credited peer still buys its
    full capacity. Games with no credits at all get a unit price, an empty
    allocation, and the insufficient label.

    near, a price, only says where to start looking for the bracketing
    segment: at the segment that holds it. Without it the search starts at
    the bracket the game's breakpoint table recorded at its last solve, or
    at the top for a fresh table. The result never depends on the start.

    Raises ConvergenceError when the price misses the capacity by more than
    the residual tolerance, relative to max(1, u_k + the capacity of the
    bracketed segment's price-sensitive peers), as subnormal prices can.
    """
    u_k = game.uploader_capacity
    credited = game.credited()

    if not credited:
        return equilibrium_at(game, 1.0)

    # every credited peer buys its full capacity up to the lowest saturation
    # price, which is the lowest breakpoint; a fresh table holds the demand
    # there already, summed from the credited capacities
    breakpoints, demand, recorded = game._breakpoint_table()
    credited_capacity = demand[0]
    if credited_capacity <= u_k:
        return equilibrium_at(game, game.saturation_floor)

    # Segment j is (breakpoints[j-1], breakpoints[j]]. Demand at the top
    # cutoff is 0 in theory and taken as 0.0; the lowest segment's lower end
    # demands credited_capacity > u_k. A segment stops the search when its
    # lower end demands more than u_k (it brackets u_k) or when both its
    # ends demand exactly u_k (a plateau). Float demand never rises with
    # the price, so the segments that stop it are exactly those at or below
    # one index, and the answer is that highest stopping segment, wherever
    # the walk to it starts.
    last = len(breakpoints) - 1

    def lower(j):
        return _demand_at(game, breakpoints, demand, j - 1) if j else credited_capacity

    def stops(j):
        lo_val = lower(j)
        return lo_val > u_k or (lo_val == u_k and j < last and lower(j + 1) == u_k)

    j = recorded[0] if near is None else min(bisect_left(breakpoints, near), last)
    if stops(j):
        while j < last and stops(j + 1):
            j += 1
    else:
        j -= 1
        while not stops(j):
            j -= 1
    recorded[0] = j

    # on a plateau, the supremum price of the flat stretch; on a flat
    # segment whose endpoint evaluations straddle u_k by rounding only, the
    # supremum price clears it too
    price = top = breakpoints[j]
    active_capacity = 0.0  # a plateau or flat segment has no active peer
    if lower(j) > u_k:
        active = [p for p in credited
                  if p.saturation_price < top <= p.cutoff_price]
        if active:
            sat_capacity = sum(p.capacity for p in credited
                               if p.saturation_price >= top)
            active_credits = sum(p.credits for p in active)
            active_capacity = sum(p.capacity for p in active)
            price = active_credits / ((u_k - sat_capacity + active_capacity) * LN2)

    # evaluating demand at price cancels c/(mu ln2) against d for each
    # active peer, so its rounding scales with u_k plus their capacity
    residual = abs(aggregate_demand(game, price) - u_k)
    if residual > config.residual_tolerance * max(1.0, u_k + active_capacity):
        raise ConvergenceError(
            f"solver residual {residual} exceeds tolerance at price {price}"
        )
    return equilibrium_at(game, price)


def two_peer_price(p1: PeerProfile, p2: PeerProfile, uploader_capacity: float) -> float:
    """Closed-form optimal price for exactly two peers, p1 of higher ratio.

    The threshold order splits in two: when the low-ratio peer's cutoff sits
    above the high-ratio peer's saturation threshold (h2 > h1/2) the demand
    regions interleave and the price walks through lone-buyer, shared, and
    capped-leader forms; otherwise the leader is served fully before the
    follower sees any bandwidth.
    """
    u_k = float(uploader_capacity)
    if u_k <= 0:
        raise ValidationError(f"uploader capacity must be > 0, got {u_k}")
    if not (p1.ratio > p2.ratio):
        raise ValidationError("requires strictly ordered ratios: c1/d1 > c2/d2")
    c1, d1 = p1.credits, p1.capacity
    c2, d2 = p2.credits, p2.capacity
    if u_k > d1 + d2:
        raise ValidationError(
            "capacity exceeds total demand; use solve() for the saturated case"
        )
    if p2.ratio > 0.5 * p1.ratio:
        # interleaved thresholds
        lone_top = c1 / p2.ratio - d1
        shared_top = 2.0 * c2 / p1.ratio + d1 - d2
        if u_k <= lone_top:
            return c1 / ((u_k + d1) * LN2)
        if u_k <= shared_top:
            return (c1 + c2) / ((u_k + d1 + d2) * LN2)
        return c2 / ((u_k - d1 + d2) * LN2)
    # separated thresholds: follower enters only after the leader saturates
    if u_k <= d1:
        return c1 / ((u_k + d1) * LN2)
    return c2 / ((u_k - d1 + d2) * LN2)


def balance_region_price(game: GameInstance) -> Optional[float]:
    """All-interior closed form, when every peer can sit between thresholds.

    Applicable only when min ratio >= max ratio / 2 and the capacity lies in
    the window that keeps every peer strictly price sensitive (strict lower
    bound, inclusive upper bound); None otherwise. Sums run in priority order.
    """
    peers = game.sorted_by_priority()
    if any(p.credits <= 0 for p in peers):
        return None
    ratios = [p.ratio for p in peers]
    h_min, h_max = min(ratios), max(ratios)
    if h_min < 0.5 * h_max:
        return None
    total_credits = sum(p.credits for p in peers)
    total_capacity = sum(p.capacity for p in peers)
    lower = total_credits / h_min - total_capacity
    upper = 2.0 * total_credits / h_max - total_capacity
    u_k = game.uploader_capacity
    if not (lower < u_k <= upper):
        return None
    return total_credits / ((u_k + total_capacity) * LN2)


def ordered_threshold_price(game: GameInstance) -> float:
    """Region-table price for a fully interleaved strict threshold order.

    Requires h_1 > ... > h_n > h_1 / 2 after sorting by ratio descending
    (so every saturation threshold sits below every cutoff). Within that
    order, capacity windows T_K (all of the top K interior, the rest priced
    out) and R_K (peers above K saturated, the rest interior) tile
    (0, total capacity] and each window has a closed-form price.
    """
    peers = sorted(game.peers, key=lambda p: -p.ratio)
    n = len(peers)
    if any(p.credits <= 0 for p in peers):
        raise ValidationError("ordered-threshold form requires positive credits")
    ratios = [p.ratio for p in peers]
    for a, b in zip(ratios, ratios[1:]):
        if not a > b:
            raise ValidationError("threshold order hypothesis violated: ratios tie")
    if not ratios[-1] > 0.5 * ratios[0]:
        raise ValidationError(
            "threshold order hypothesis violated: min ratio <= max ratio / 2"
        )
    u_k = game.uploader_capacity

    credits = [p.credits for p in peers]
    caps = [p.capacity for p in peers]
    prefix_c = [0.0]
    prefix_d = [0.0]
    for c, d in zip(credits, caps):
        prefix_c.append(prefix_c[-1] + c)
        prefix_d.append(prefix_d[-1] + d)
    suffix_c = [0.0] * (n + 2)
    suffix_d = [0.0] * (n + 2)
    for k in range(n, 0, -1):
        suffix_c[k] = suffix_c[k + 1] + credits[k - 1]
        suffix_d[k] = suffix_d[k + 1] + caps[k - 1]

    def t_bound(k):
        return prefix_c[k] / ratios[k - 1] - prefix_d[k]

    def r_bound(k):
        return 2.0 * suffix_c[k] / ratios[k - 1] + prefix_d[k - 1] - suffix_d[k]

    def q_price(k):
        return prefix_c[k] / ((u_k + prefix_d[k]) * LN2)

    def p_price(k):
        return suffix_c[k] / ((u_k - prefix_d[k - 1] + suffix_d[k]) * LN2)

    for k in range(1, n):
        if u_k <= t_bound(k + 1):
            return q_price(k)
    if u_k <= r_bound(1):
        return q_price(n)
    for k in range(2, n + 1):
        if u_k <= r_bound(k):
            return p_price(k)
    raise ValidationError(
        "capacity exceeds total demand; use solve() for the saturated case"
    )


@dataclass(frozen=True)
class VerificationReport:
    price_samples: int
    feasible_price_samples: int
    deviation_samples: int
    max_revenue_gain: float
    max_utility_gain: float
    holds: bool


def verify_se(game: GameInstance, eq: Equilibrium, samples: int,
              seed: int = 0) -> Tuple[bool, VerificationReport]:
    """Sampled no-deviation check of an equilibrium.

    Leader side: at `samples` random feasible prices (demand within supply),
    revenue with re-best-responded demand never beats the equilibrium
    revenue beyond tolerance. Follower side: per peer, `samples` random
    feasible purchases never beat the equilibrium utility beyond tolerance.
    Vacuously true with samples = 0.
    """
    rng = random.Random(seed)
    u_k = game.uploader_capacity
    price_cap = 1.05 * game.market_top
    if price_cap <= 0:
        price_cap = 2.0 * eq.price
    rev_tol = 1e-9 * (1.0 + abs(eq.revenue))

    max_rev_gain = 0.0
    feasible = 0
    for _ in range(samples):
        mu = rng.uniform(0.0, price_cap)
        if mu <= 0.0:
            continue
        demand = aggregate_demand(game, mu)
        if demand > u_k:
            continue
        feasible += 1
        max_rev_gain = max(max_rev_gain, mu * demand - eq.revenue)

    max_util_gain = 0.0
    worst_util_excess = 0.0  # gain beyond the per-peer tolerance
    deviations = 0
    for peer in game.peers:
        base = eq.utilities[peer.id]
        util_tol = 1e-9 * (1.0 + abs(base))
        for _ in range(samples):
            x = rng.uniform(0.0, peer.capacity)
            deviations += 1
            gain = downloader_utility(peer, x, eq.price) - base
            max_util_gain = max(max_util_gain, gain)
            worst_util_excess = max(worst_util_excess, gain - util_tol)

    holds = max_rev_gain <= rev_tol and worst_util_excess <= 0.0
    report = VerificationReport(
        price_samples=samples,
        feasible_price_samples=feasible,
        deviation_samples=deviations,
        max_revenue_gain=max_rev_gain,
        max_utility_gain=max_util_gain,
        holds=holds,
    )
    return holds, report
