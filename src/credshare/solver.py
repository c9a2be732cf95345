"""Exact clearing-price equilibria.

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

The search starts at the segment holding a hint price (solve's near=),
else at the bracket the game's last solve found, else at the top. From a
hint it gallops: steps of 1, 2, 4, ... segments up or down until it passes
the bracket, then a bisection inside the last step, so a churn re-solve
hinted with the last price reads about 2 log2(d) breakpoints when the
bracket lies d segments away. From a recorded bracket or the top it walks
one segment at a time, so a re-solve of the same game reads only around
its bracket and a cold solve reads the breakpoints from the top down.
Float demand never rises with the price, so every start and either search
gives the same segment.

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

The closed forms for special structures (two peers, the all-interior
balance region, a fully interleaved threshold order) and the sampled
no-deviation check are independent references that solve() must agree
with on their domains; no command runs them, so they live with the tests,
in tests/reference.py.
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .errors import ConvergenceError, ValidationError
from .model import (
    LN2,
    Allocation,
    Equilibrium,
    GameInstance,
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


def _gallop(stops, j: int, last: int) -> int:
    """The highest index in [0, last] that stops, searched from j.

    Steps of 1, 2, 4, ... indices go up while the index stops, or down
    until it does; a bisection inside the last step then finds the index.
    stops(0) holds and stops holds at no index above one that fails it.
    """
    step = 1
    if stops(j):
        lo = j
        while lo + step <= last and stops(lo + step):
            lo += step
            step *= 2
        hi = min(lo + step, last + 1)
    else:
        hi = j
        while not stops(max(hi - step, 0)):
            hi -= step
            step *= 2
        lo = max(hi - step, 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stops(mid):
            lo = mid
        else:
            hi = mid
    return lo


def solve(game: GameInstance, config: SolverConfig = DEFAULT_CONFIG, *,
          near: Optional[float] = None) -> Equilibrium:
    """Compute the clearing price and the equilibrium it induces.

    Oversubscribed games get the largest price with demand equal to supply.
    Games whose (credited) demand cannot exceed supply get the saturated
    price, the largest price at which every credited peer still buys its
    full capacity. Games with no credits at all get a unit price, an empty
    allocation, and the insufficient label.

    near, a price, only says where to start looking for the bracketing
    segment: at the segment that holds it, galloping from there. Without
    it the search walks a segment at a time from the bracket the game's
    breakpoint table recorded at its last solve, or down from the top for
    a fresh table. The result never depends on the start or the search.

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

    if near is None:
        # a step at a time from the recorded bracket, or down from the top:
        # a faster search here would make capacity sweeps and cold solves
        # finish sooner, which waits on ROADMAP items 1 and 10
        j = recorded[0]
        if stops(j):
            while j < last and stops(j + 1):
                j += 1
        else:
            j -= 1
            while not stops(j):
                j -= 1
    else:
        j = _gallop(stops, min(bisect_left(breakpoints, near), last), last)
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
