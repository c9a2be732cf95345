"""Independent references the tests hold solve() and the simulator to.

None of these runs in a credshare command; each is a second route to an
answer the engine computes another way:

- closed-form prices for special structures (two peers, the all-interior
  balance region, a fully interleaved threshold order), which must agree
  with solve() on their domains;
- a sampled no-deviation check of an equilibrium (verify_se);
- a revenue comparison across one churn event (churn_check);
- a grid search over one downloader's purchases from the raw utility
  (deviation_probe), which certifies best_response.

The exact Fraction clearing price lives in tests/test_exact_reference.py,
and the curve-based bracket step in tests/test_solver_scan.py.
"""

import random
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from credshare.errors import ValidationError
from credshare.model import (
    LN2,
    Equilibrium,
    GameInstance,
    PeerProfile,
    aggregate_demand,
    downloader_utility,
)


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
    total_credits = total_capacity = 0.0
    for p in peers:
        total_credits += p.credits
        total_capacity += p.capacity
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


def churn_check(old: Optional[Equilibrium], new: Optional[Equilibrium],
                departed_contribution: Optional[float] = None,
                tolerance: float = 1e-9) -> bool:
    """Compare uploader revenue across a churn event.

    With departed_contribution given (a leave), checks the revenue of the
    new equilibrium is at least the old one minus the departed peer's
    contribution; this holds for every instance of this game. Without it
    (a join), reports whether revenue strictly increased, which need not
    hold (a joining peer with a low enough priority ratio is simply
    rejected and the equilibrium is sustained).
    """
    old_rev = old.revenue if old is not None else 0.0
    new_rev = new.revenue if new is not None else 0.0
    if departed_contribution is not None:
        return new_rev >= old_rev - departed_contribution - tolerance
    return new_rev > old_rev + tolerance


class ProbeResult(NamedTuple):
    utility: float
    bandwidth: float


def deviation_probe(peer: PeerProfile, price: float, steps: int) -> ProbeResult:
    """Best utility over a uniform purchase grid on [0, capacity].

    Certifies best_response from the raw objective: credit-weighted
    satisfaction minus cost, evaluated at steps+1 grid points.
    """
    if price <= 0:
        raise ValidationError(f"price must be > 0, got {price}")
    if steps < 2:
        raise ValidationError(f"steps must be >= 2, got {steps}")
    import numpy as np

    x = np.linspace(0.0, peer.capacity, steps + 1)
    utility = peer.credits * np.log2(1.0 + x / peer.capacity) - price * x
    idx = int(np.argmax(utility))
    return ProbeResult(float(utility[idx]), float(x[idx]))
