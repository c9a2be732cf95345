import math
import random

import pytest

from credshare import (
    GameInstance,
    PeerProfile,
    ValidationError,
    aggregate_demand,
    best_response,
    build_demand_curve,
    downloader_utility,
    satisfaction,
)
from credshare.model import ACT, SAT, ZERO

from conftest import make_game, random_oversubscribed
from reference import deviation_probe


def test_peer_profile_validation():
    with pytest.raises(ValidationError):
        PeerProfile("p", -1.0, 2.0)
    with pytest.raises(ValidationError):
        PeerProfile("p", 10.0, 0.0)
    with pytest.raises(ValidationError):
        PeerProfile("", 10.0, 1.0)
    p = PeerProfile("p", 100.0, 50.0)
    assert p.ratio == 2.0
    assert p.saturation_price == 0.5 * p.cutoff_price


def test_game_instance_validation():
    with pytest.raises(ValidationError):
        GameInstance(1.0, [])
    with pytest.raises(ValidationError):
        GameInstance(0.0, [PeerProfile("p", 1, 1)])
    with pytest.raises(ValidationError):
        GameInstance(1.0, [PeerProfile("p", 1, 1), PeerProfile("p", 2, 1)])
    g = make_game(2.0, [(400, 2), (300, 1.5)])
    assert g.oversubscribed
    assert not make_game(5.0, [(400, 2), (300, 1.5)]).oversubscribed


# --- best_response -----------------------------------------------------------

def test_best_response_full_capacity_branch():
    peer = PeerProfile("p", 100.0, 150.0)
    # 0.4 is below the saturation price 100/(300 ln2) = 0.4809
    assert best_response(peer, 0.4) == 150.0


def test_best_response_cutoff_boundary_is_zero():
    peer = PeerProfile("p", 400.0, 2.0)
    x = best_response(peer, peer.cutoff_price)
    assert 0.0 <= x <= 1e-9
    assert best_response(peer, peer.cutoff_price * (1 + 1e-12)) == 0.0


def test_best_response_interior_value():
    peer = PeerProfile("p", 400.0, 2.0)
    assert best_response(peer, 206.099) == pytest.approx(0.800, abs=1e-3)


def test_best_response_domain_error():
    peer = PeerProfile("p", 400.0, 2.0)
    with pytest.raises(ValidationError):
        best_response(peer, 0.0)
    with pytest.raises(ValidationError):
        best_response(peer, -3.0)


def test_best_response_zero_credit_peer_never_buys():
    peer = PeerProfile("p", 0.0, 5.0)
    for mu in (1e-9, 0.1, 1.0, 1e6):
        assert best_response(peer, mu) == 0.0


def test_best_response_monotone_and_bounded():
    rng = random.Random(7)
    for _ in range(200):
        peer = PeerProfile("p", rng.uniform(0, 500), rng.uniform(0.1, 5))
        mus = sorted(rng.uniform(1e-3, 2 * peer.cutoff_price + 1) for _ in range(10))
        values = [best_response(peer, mu) for mu in mus]
        for x in values:
            assert 0.0 <= x <= peer.capacity
        for a, b in zip(values, values[1:]):
            assert a >= b


def test_best_response_continuity_at_thresholds():
    rng = random.Random(11)
    for _ in range(100):
        peer = PeerProfile("p", rng.uniform(1, 500), rng.uniform(0.1, 5))
        for t in (peer.saturation_price, peer.cutoff_price):
            left = best_response(peer, math.nextafter(t, 0.0))
            right = best_response(peer, math.nextafter(t, math.inf))
            at = best_response(peer, t)
            scale = max(1.0, peer.capacity)
            assert abs(left - at) <= 1e-12 * scale
            assert abs(right - at) <= 1e-12 * scale


def test_more_credits_never_less_bandwidth():
    # equal capacity, higher credits: allocation is nondecreasing in credits
    rng = random.Random(13)
    for _ in range(200):
        d = rng.uniform(0.1, 5)
        c_low = rng.uniform(0, 400)
        c_high = c_low + rng.uniform(0.01, 100)
        mu = rng.uniform(1e-3, 500)
        assert best_response(PeerProfile("hi", c_high, d), mu) >= best_response(
            PeerProfile("lo", c_low, d), mu
        )


def test_smaller_capacity_favored_in_interior():
    # equal credits, interior prices: allocation is nonincreasing in capacity
    rng = random.Random(17)
    for _ in range(200):
        c = rng.uniform(1, 500)
        d_small = rng.uniform(0.1, 3)
        d_big = d_small + rng.uniform(0.01, 2)
        small = PeerProfile("s", c, d_small)
        big = PeerProfile("b", c, d_big)
        # interior for both: above both saturation prices
        lo = max(small.saturation_price, big.saturation_price)
        hi = max(small.cutoff_price, big.cutoff_price)
        mu = rng.uniform(lo * (1 + 1e-9), hi)
        assert best_response(small, mu) >= best_response(big, mu)


# --- satisfaction / utility --------------------------------------------------

def test_satisfaction_endpoints_and_midpoint():
    peer = PeerProfile("p", 10.0, 150.0)
    assert satisfaction(peer, 0.0) == 0.0
    assert satisfaction(peer, 150.0) == 1.0
    assert satisfaction(peer, 75.0) == pytest.approx(0.58496, abs=1e-5)
    with pytest.raises(ValidationError):
        satisfaction(peer, -0.1)
    with pytest.raises(ValidationError):
        satisfaction(peer, 150.1)


def test_downloader_utility_values():
    peer = PeerProfile("p", 100.0, 150.0)
    assert downloader_utility(peer, 0.0, 5.0) == 0.0
    rich = PeerProfile("r", 400.0, 2.0)
    assert downloader_utility(rich, 2.0, 144.2695) == pytest.approx(111.461, abs=1e-3)


def test_best_response_maximizes_utility_against_nudges():
    peer = PeerProfile("p", 400.0, 2.0)
    rng = random.Random(19)
    for _ in range(100):
        mu = rng.uniform(1.0, 1.2 * peer.cutoff_price)
        x_star = best_response(peer, mu)
        u_star = downloader_utility(peer, x_star, mu)
        for delta in (-0.01 * peer.capacity, 0.01 * peer.capacity):
            x = min(peer.capacity, max(0.0, x_star + delta))
            assert downloader_utility(peer, x, mu) <= u_star + 1e-9 * (1 + abs(u_star))


def test_best_response_maximizes_utility_against_random_feasible():
    rng = random.Random(23)
    for _ in range(30):
        peer = PeerProfile("p", rng.uniform(1, 500), rng.uniform(0.1, 5))
        mu = rng.uniform(1e-2, 1.5 * peer.cutoff_price)
        u_star = downloader_utility(peer, best_response(peer, mu), mu)
        for _ in range(100):
            x = rng.uniform(0.0, peer.capacity)
            assert downloader_utility(peer, x, mu) <= u_star + 1e-9 * (1 + abs(u_star))


def test_best_response_matches_probe_argmax_as_grid_refines():
    peer = PeerProfile("p", 400.0, 2.0)
    mu = 206.099
    x_star = best_response(peer, mu)
    errors = []
    for steps in (10**3, 10**4, 10**5):
        probe = deviation_probe(peer, mu, steps)
        errors.append(abs(probe.bandwidth - x_star))
    assert errors[0] >= errors[1] >= errors[2]


# --- aggregate demand --------------------------------------------------------

def test_aggregate_demand_example_values(example4_game):
    top = max(p.cutoff_price for p in example4_game.peers)
    assert aggregate_demand(example4_game, top) <= 1e-9
    assert aggregate_demand(example4_game, 100.0) == 5.0
    assert aggregate_demand(example4_game, 206.099) == pytest.approx(2.000, abs=1e-3)


def test_aggregate_demand_nonincreasing():
    rng = random.Random(29)
    for _ in range(50):
        game = random_oversubscribed(rng)
        top = max(p.cutoff_price for p in game.peers) * 1.2
        mus = sorted(rng.uniform(1e-6, top) for _ in range(20))
        values = [aggregate_demand(game, mu) for mu in mus]
        for a, b in zip(values, values[1:]):
            assert a >= b


# --- demand curve ------------------------------------------------------------

def test_curve_merges_tied_thresholds():
    game = make_game(1.0, [(400, 2), (300, 1.5)])  # both ratios 200
    curve = build_demand_curve(game)
    assert len(curve.breakpoints) == 2


def test_curve_single_peer_structure():
    game = make_game(1.0, [(400, 2)])
    curve = build_demand_curve(game)
    assert len(curve.breakpoints) == 2
    assert len(curve.segments) == 3  # saturated / interior / zero


def test_curve_breakpoint_counts():
    # equal capacities with a 2:1 credit pair: one cross-family collision,
    # so 7 distinct breakpoints rather than 8
    example1 = make_game(300.0, [(100, 150), (150, 150), (200, 150), (250, 150)])
    assert len(build_demand_curve(example1).breakpoints) == 7
    # no 2:1 ratios anywhere: the full 8 survive
    distinct = make_game(300.0, [(100, 150), (150, 150), (210, 150), (250, 150)])
    assert len(build_demand_curve(distinct).breakpoints) == 8


def test_curve_matches_aggregate_demand_bitwise():
    rng = random.Random(31)
    for _ in range(20):
        game = random_oversubscribed(rng)
        curve = build_demand_curve(game)
        top = curve.breakpoints[-1] * 1.3
        for _ in range(1000):
            mu = rng.uniform(1e-9, top)
            if mu <= 0:
                continue
            assert curve.demand_at(mu) == aggregate_demand(game, mu)


def test_curve_continuous_at_breakpoints():
    rng = random.Random(37)
    for _ in range(50):
        game = random_oversubscribed(rng)
        curve = build_demand_curve(game)
        for idx, t in enumerate(curve.breakpoints):
            left = curve.segment_demand(idx, t)
            right = curve.segment_demand(idx + 1, t)
            assert abs(left - right) <= 1e-12 * max(1.0, left, right)


def test_curve_saturates_low_and_vanishes_high():
    rng = random.Random(41)
    for _ in range(50):
        game = random_oversubscribed(rng)
        curve = build_demand_curve(game)
        # summed in priority order, the order every demand total uses
        total = sum(p.capacity for p in game.sorted_by_priority() if p.credits > 0)
        assert curve.demand_at(curve.breakpoints[0]) == total
        assert curve.demand_at(curve.breakpoints[-1] * (1 + 1e-12)) == 0.0


def test_allocation_validation():
    from credshare import solve

    game = make_game(2.0, [(400, 2), (300, 1.5)])
    eq = solve(game)
    for p in game.peers:
        assert 0.0 <= eq.allocation[p.id] <= p.capacity
    assert eq.total_allocation <= game.uploader_capacity


def test_curve_segment_sets_constant_and_partition():
    game = make_game(2.0, [(400, 2), (300, 1.5), (200, 1), (100, 0.5)])
    curve = build_demand_curve(game)
    assert curve.segments[0].lo == 0.0
    assert curve.segments[-1].hi == math.inf
    for seg, nxt in zip(curve.segments, curve.segments[1:]):
        assert seg.hi == nxt.lo
    for seg in curve.segments:
        assert len(seg.codes) == len(curve.peers)
        # the branch each peer takes is the same at the upper end and inside
        inner = seg.hi if seg.hi < math.inf else 2.0 * seg.lo
        for price in (seg.hi, 0.5 * (seg.lo + inner)):
            for peer, code in zip(curve.peers, seg.codes):
                if peer.saturation_price >= price:
                    assert code == SAT
                elif peer.cutoff_price >= price:
                    assert code == ACT
                else:
                    assert code == ZERO
