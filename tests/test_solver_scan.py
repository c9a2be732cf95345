"""solve()'s top-down breakpoint scan against the curve-based bracket step
it replaced, plus seeded property loops over the clearing price."""

import random

import pytest

import credshare.model
import credshare.solver
from credshare import GameInstance, PeerProfile, ValidationError, solve
from credshare.model import ACT, LN2, SAT, build_demand_curve

from conftest import make_game, random_oversubscribed


def solve_price_reference(game):
    """solve()'s price before its top-down scan, kept as the reference.

    It builds the whole DemandCurve, evaluates demand at every breakpoint
    and inverts the bracketed segment. The segment's saturated and active
    peers come from its codes, which is what its frozensets held. Returns
    the price and the branch that produced it.
    """
    canonical = GameInstance(game.uploader_capacity, game.sorted_by_priority())
    u_k = game.uploader_capacity
    credited = [p for p in canonical.peers if p.credits > 0]
    if not credited:
        return 1.0, "no credits"
    credited_capacity = sum(p.capacity for p in credited)
    if credited_capacity <= u_k:
        return min(p.saturation_price for p in credited), "saturated"

    curve = build_demand_curve(canonical)
    breakpoints = curve.breakpoints
    vals = [credited_capacity]
    vals.extend(curve.demand_at(t) for t in breakpoints)

    bracket = None
    plateau = None
    n_brackets = 0
    for j in range(len(breakpoints), 0, -1):
        hi_val, lo_val = vals[j], vals[j - 1]
        if hi_val == u_k and lo_val == u_k:
            if plateau is None and bracket is None:
                plateau = breakpoints[j - 1]
        elif hi_val <= u_k < lo_val:
            n_brackets += 1
            if bracket is None and plateau is None:
                bracket = j
    if n_brackets != 1 and not (n_brackets == 0 and plateau is not None):
        raise RuntimeError(
            f"demand bracketing is not unique: {n_brackets} candidate segments"
        )

    if plateau is not None:
        return plateau, "plateau"
    codes = curve.segments[bracket - 1].codes
    saturated = {p.id for p, c in zip(canonical.peers, codes) if c == SAT}
    active = [p for p, c in zip(canonical.peers, codes) if c == ACT]
    if not active:
        return breakpoints[bracket - 1], "flat"
    sat_capacity = sum(p.capacity for p in canonical.peers if p.id in saturated)
    active_credits = sum(p.credits for p in active)
    active_capacity = sum(p.capacity for p in active)
    price = active_credits / ((u_k - sat_capacity + active_capacity) * LN2)
    return price, "bracket"


def _plateau_prone_game(rng):
    """A game with zero-credit peers, exact ratio ties, ratios spread over
    five decades, and often a capacity equal to the priority-order sum of
    the top peers' capacities, so that demand can sit exactly on it."""
    n = rng.randint(1, 7)
    ratios = [10.0 ** rng.uniform(-1.0, 4.0) for _ in range(n)]
    peers = []
    for i in range(n):
        d = rng.choice((0.5, 1.0, 1.5, 2.0, rng.uniform(0.1, 5.0)))
        roll = rng.random()
        if roll < 0.15:
            credits = 0.0
        elif roll < 0.35 and peers:
            credits = peers[-1].ratio * d  # the previous peer's ratio: a tie
        else:
            credits = ratios[i] * d
        peers.append(PeerProfile(f"p{i}", credits, d))
    roster = sorted(peers, key=lambda p: (-p.ratio, p.id))
    if rng.random() < 0.6:
        top = roster[:rng.randint(1, n)]
        u_k = sum(p.capacity for p in top)
    else:
        u_k = rng.uniform(0.0, 1.2 * sum(p.capacity for p in peers))
    return GameInstance(max(u_k, 1e-3), peers)


def test_scan_matches_the_curve_based_bracket_bit_for_bit():
    rng = random.Random(6)
    branches = {"no credits": 0, "saturated": 0, "plateau": 0, "flat": 0,
                "bracket": 0}
    for draw in range(6000):
        game = (_plateau_prone_game(rng) if draw % 3
                else random_oversubscribed(rng, max_peers=8))
        expected, branch = solve_price_reference(game)
        branches[branch] += 1
        assert solve(game).price.hex() == expected.hex(), (branch, game)
    assert branches["plateau"] > 100, branches
    assert branches["flat"] > 10, branches
    assert branches["bracket"] > 1000, branches
    assert branches["saturated"] > 100, branches


@pytest.mark.parametrize("u_k, specs, price, branch", [
    # flat: the bracketed segment has no active peer
    (0.5, [(2.0, 2.0), (59.72580287996148, 0.5), (1.0, 1.0),
           (24.4513227003758, 0.5)], 86.16611962803219, "flat"),
    # plateau: demand equals the capacity from 1/ln2 up to 100/(2 ln2)
    (3.0, [(300.0, 3.0), (1.5, 1.5)], 72.13475204444818, "plateau"),
])
def test_scan_branches_on_fixed_instances(u_k, specs, price, branch):
    game = make_game(u_k, specs)
    assert solve_price_reference(game) == (price, branch)
    assert solve(game).price == price


def test_tiny_capacity_brackets_the_top_segment():
    # demand at the top cutoff rounds to 4.44e-16, above the capacity; the
    # curve-based bracket found no segment for it
    game = make_game(1e-16, [(418.046786856015, 2.220558632734762)])
    with pytest.raises(RuntimeError, match="not unique"):
        solve_price_reference(game)
    assert solve(game).price == 271.6046391956624


def test_underflowing_ratio_fails_with_a_validation_error():
    # 1e-320 / 1e10 rounds to a zero ratio: both thresholds are 0.0, so the
    # scan ends on its lowest segment and the price 0.0 is rejected
    game = make_game(1.0, [(1e-320, 1e10), (0.0, 1.0)])
    with pytest.raises(ValidationError, match="price must be > 0"):
        solve(game)


def test_solve_does_not_build_the_demand_curve(monkeypatch, example4_game):
    def refuse(game):
        raise AssertionError("solve built the demand curve")

    expected = solve(example4_game)
    monkeypatch.setattr(credshare.model, "build_demand_curve", refuse)
    monkeypatch.setattr(credshare.solver, "build_demand_curve", refuse)
    assert solve(example4_game) == expected
    assert solve(make_game(3.0, [(300.0, 3.0), (1.5, 1.5)])).price == 72.13475204444818


# --- properties, as seeded loops ----------------------------------------------

def test_permuting_peers_keeps_price_and_revenue_bits():
    rng = random.Random(17)
    for draw in range(1500):
        game = (_plateau_prone_game(rng) if draw % 2
                else random_oversubscribed(rng, max_peers=8))
        eq = solve(game)
        peers = list(game.peers)
        for _ in range(3):
            rng.shuffle(peers)
            shuffled = solve(GameInstance(game.uploader_capacity, peers))
            assert shuffled.price.hex() == eq.price.hex()
            assert shuffled.revenue.hex() == eq.revenue.hex()


def test_price_does_not_rise_with_capacity():
    rng = random.Random(23)
    for draw in range(1500):
        game = (_plateau_prone_game(rng) if draw % 2
                else random_oversubscribed(rng, max_peers=8))
        total = sum(p.capacity for p in game.peers)
        capacities = sorted(rng.uniform(1e-3, 1.2 * total) for _ in range(8))
        prices = [solve(GameInstance(u_k, game.peers)).price for u_k in capacities]
        for u_k, a, b in zip(capacities[1:], prices, prices[1:]):
            assert b <= a, (u_k, game)
