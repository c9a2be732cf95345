"""Exact clearing-price equilibria.

The solution concept is the market-clearing Stackelberg point: the largest
price at which aggregate demand equals the upload capacity. It allocates
the entire uplink, every follower best-responds, and it is the point both
distributed protocol realizations converge to. (It maximizes the
uploader's revenue within the clearing regime; with widely spread
priority ratios a saturation plateau above it can out-earn it while
leaving capacity idle, which the brute-force oracle measures.)

Demand is piecewise hyperbolic between threshold breakpoints and strictly
decreasing wherever some peer is price sensitive, so the solver searches the
sorted breakpoints, evaluating aggregate_demand at each it reaches, to the
one segment that brackets the capacity, and inverts that segment in closed
form:

    mu = sum(c, active) / ((u_k - sum(d, saturated) + sum(d, active)) * ln2)

No iterative root finding is involved, and no DemandCurve is built: that
structure is an inspection utility, not part of the solve path. Where
demand is flat at exactly the capacity (a plateau), the supremum price of
the plateau is returned, since revenue mu * u_k rises with mu along it.

The search starts at the segment holding a start price: a hint (solve's
near=), else the price of the bracket the game's last solve found. From
either it gallops: steps of 1, 2, 4, ... segments up or down until it
passes the bracket, then a bisection inside the last step, so it reads
about 2 log2(d) breakpoints when the bracket lies d segments away. A fresh
table without a hint has no start price, and its search walks down from
the top one segment at a time. Float demand never rises with the price,
so every start and either search gives the same segment. The equilibrium
at the answer is evaluated once, and its total allocation is the residual
check's demand.

The sorted breakpoints and the demand at each depend only on the peers, so
they live with the last bracket's price in the game's table slot, which
GameInstance.at_capacity copies share; each demand is summed the first
time a search reads it. The lowest breakpoint's demand, which decides
saturation, is never summed: a fresh table holds it as the credited
capacities' priority-order sum, the bits aggregate_demand gives there. A
capacity sweep sorts its breakpoints once, sums each breakpoint's demand
at most once, and gallops from the previous capacity's bracket.

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


def _breakpoint_table(game: GameInstance):
    """The game's table, built into its shared slot on first use: the
    credited peers' sorted distinct thresholds, the demand at each (None
    until a search sums it; the lowest holds the credited capacities'
    priority-order sum), and a one-element list holding the price of the
    last solve's bracket (None until then). Published whole by one
    assignment; every demand is a function of the peers alone."""
    table = game._table_slot[0]
    if table is None:
        credited = game.credited()
        breakpoints = sorted({t for p in credited
                              for t in (p.saturation_price, p.cutoff_price)})
        demand = [None] * len(breakpoints)
        if breakpoints:
            credited_capacity = 0.0
            for p in credited:
                credited_capacity += p.capacity
            demand[0] = credited_capacity
        table = game._table_slot[0] = (breakpoints, demand, [None])
    return table


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

    The search for the bracketing segment starts at the segment holding
    near, a price, if given, else the last bracket the game's breakpoint
    table recorded, and gallops from there. A fresh table without a hint
    walks down from the top one segment at a time. The result never
    depends on the start.

    Raises ConvergenceError when the equilibrium's total misses u_k by more
    than the residual tolerance, relative to max(1, u_k + the capacity of
    the bracketed segment's price-sensitive peers), as subnormal prices can.
    """
    u_k = game.uploader_capacity
    credited = game.credited()

    if not credited:
        return equilibrium_at(game, 1.0)

    # every credited peer buys its full capacity up to the lowest saturation
    # price, which is the lowest breakpoint; a fresh table holds the demand
    # there already, summed from the credited capacities
    breakpoints, demand, recorded = _breakpoint_table(game)
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
    # the search for it starts.
    last = len(breakpoints) - 1

    def lower(j):
        if j == 0:
            return credited_capacity
        value = demand[j - 1]
        if value is None:
            value = demand[j - 1] = aggregate_demand(game, breakpoints[j - 1])
        return value

    def stops(j):
        lo_val = lower(j)
        return lo_val > u_k or (lo_val == u_k and j < last and lower(j + 1) == u_k)

    start = recorded[0] if near is None else near
    if start is None:
        # down from the top a segment at a time: a faster cold search would
        # make cold solves finish sooner, which waits on ROADMAP items 1 and 10
        j = last
        while not stops(j):
            j -= 1
    else:
        j = _gallop(stops, min(bisect_left(breakpoints, start), last), last)

    # on a plateau, the supremum price of the flat stretch; on a flat
    # segment whose endpoint evaluations straddle u_k by rounding only, the
    # supremum price clears it too
    price = top = recorded[0] = breakpoints[j]
    active_capacity = 0.0  # a plateau or flat segment has no active peer
    if lower(j) > u_k:
        sat_capacity = active_credits = 0.0
        for p in credited:  # in priority order, as every total
            if p.saturation_price >= top:
                sat_capacity += p.capacity
            elif p.cutoff_price >= top:
                active_credits += p.credits
                active_capacity += p.capacity
        if active_capacity:
            price = active_credits / ((u_k - sat_capacity + active_capacity) * LN2)

    # the allocation's total at price cancels c/(mu ln2) against d for each
    # active peer, so its rounding scales with u_k plus their capacity
    eq = equilibrium_at(game, price)
    residual = abs(eq.total_allocation - u_k)
    if residual > config.residual_tolerance * max(1.0, u_k + active_capacity):
        raise ConvergenceError(
            f"solver residual {residual} exceeds tolerance at price {price}"
        )
    return eq
