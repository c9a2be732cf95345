import random

import pytest

from credshare import (
    LN2,
    Equilibrium,
    GameInstance,
    PeerProfile,
    RegionLabel,
    SolverConfig,
    ValidationError,
    aggregate_demand,
    best_response,
    solve,
)

from conftest import make_game, random_interleaved, random_oversubscribed
from reference import (balance_region_price, ordered_threshold_price,
                       two_peer_price, verify_se)


def test_example4_equilibrium(example4_game):
    eq = solve(example4_game)
    assert eq.price == pytest.approx(1000.0 / (7.0 * LN2), abs=1e-3)
    expected = {"peer1": 0.8, "peer2": 0.6, "peer3": 0.4, "peer4": 0.2}
    for pid, x in expected.items():
        assert eq.allocation[pid] == pytest.approx(x, abs=1e-3)
    assert eq.revenue == pytest.approx(412.199, abs=1e-2)
    assert eq.region is RegionLabel.BALANCE


def test_single_peer_equilibrium():
    eq = solve(make_game(2.0, [(400, 2)]))
    assert eq.price == pytest.approx(400.0 / (4.0 * LN2), abs=1e-3)
    assert eq.allocation["peer1"] == 2.0
    assert eq.region is RegionLabel.SATURATED


def test_saturated_when_capacity_covers_everyone():
    game = make_game(100.0, [(400, 2), (10, 1), (77, 3)])
    eq = solve(game)
    for p in game.peers:
        assert eq.allocation[p.id] == p.capacity
    assert eq.price == min(p.saturation_price for p in game.peers)
    assert eq.region is RegionLabel.SATURATED


def test_all_zero_credits_insufficient():
    eq = solve(make_game(1.0, [(0, 2), (0, 1)]))
    assert eq.price > 0
    assert eq.revenue == 0.0
    assert eq.region is RegionLabel.INSUFFICIENT
    assert all(x == 0.0 for _, x in eq.allocation.items())


def test_zero_credit_peer_rejected_among_credited():
    # free rider rides along but never gets bandwidth
    game = make_game(2.0, [(400, 2), (0, 3)])
    eq = solve(game)
    assert eq.allocation["peer2"] == 0.0
    assert eq.allocation["peer1"] == pytest.approx(2.0, rel=1e-9)


def test_allocation_is_bitwise_recomputable():
    rng = random.Random(43)
    for _ in range(100):
        game = random_oversubscribed(rng)
        eq = solve(game)
        for p in game.peers:
            assert eq.allocation[p.id] == best_response(p, eq.price)


def test_solve_deterministic_and_permutation_invariant():
    rng = random.Random(47)
    for _ in range(50):
        game = random_oversubscribed(rng)
        eq1 = solve(game)
        eq2 = solve(game)
        assert eq1 == eq2
        shuffled = list(game.peers)
        rng.shuffle(shuffled)
        eq3 = solve(GameInstance(game.uploader_capacity, shuffled))
        assert eq3.price == eq1.price
        assert eq3.revenue == eq1.revenue
        for p in game.peers:
            assert eq3.allocation[p.id] == eq1.allocation[p.id]


def test_total_allocation_does_not_depend_on_the_listing():
    """The total is summed in priority order, the order the revenue uses,
    so relisting the peers leaves its bits alone although a listing-order
    sum of the same allocation changes on some games."""
    rng = random.Random(53)
    listing_sums_differ = 0
    for _ in range(400):
        game = random_oversubscribed(rng, 8)
        eq = solve(game)
        assert eq.revenue == eq.price * eq.total_allocation
        peers = list(game.peers)
        rng.shuffle(peers)
        relisted = solve(GameInstance(game.uploader_capacity, peers))
        assert relisted.total_allocation.hex() == eq.total_allocation.hex()
        listing_sums_differ += (sum(relisted.allocation[p.id] for p in peers)
                                != eq.total_allocation)
    assert listing_sums_differ >= 20


def test_price_bounds():
    rng = random.Random(53)
    for _ in range(200):
        game = random_oversubscribed(rng)
        eq = solve(game)
        credited = [p for p in game.peers if p.credits > 0]
        assert eq.price < max(p.cutoff_price for p in credited) * (1 + 1e-12)
        assert eq.price >= min(p.saturation_price for p in credited) * (1 - 1e-12)


def test_rejected_peers_have_lowest_ratios():
    rng = random.Random(59)
    for _ in range(200):
        game = random_oversubscribed(rng)
        eq = solve(game)
        served = [p.ratio for p in game.peers if eq.allocation[p.id] > 0.0]
        rejected = [p.ratio for p in game.peers if eq.allocation[p.id] == 0.0]
        if served and rejected:
            assert max(rejected) <= min(served)


def test_full_allocation_when_oversubscribed():
    rng = random.Random(61)
    for _ in range(200):
        game = random_oversubscribed(rng)
        eq = solve(game)
        if eq.region is RegionLabel.SATURATED or not game.oversubscribed:
            continue
        assert eq.total_allocation == pytest.approx(
            game.uploader_capacity, rel=1e-9
        )


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(residual_tolerance=0.0)


# --- two-peer closed form ----------------------------------------------------

CASE_I_P1 = PeerProfile("a", 200.0, 100.0)
CASE_I_P2 = PeerProfile("b", 150.0, 100.0)
CASE_II_P1 = PeerProfile("a", 400.0, 100.0)
CASE_II_P2 = PeerProfile("b", 100.0, 100.0)


@pytest.mark.parametrize(
    "p1,p2,u_k,expected",
    [
        # interleaved thresholds: lone-buyer, shared, capped-leader windows
        (CASE_I_P1, CASE_I_P2, 30.0, 200.0 / (130.0 * LN2)),
        (CASE_I_P1, CASE_I_P2, 100.0, 350.0 / (300.0 * LN2)),
        (CASE_I_P1, CASE_I_P2, 180.0, 150.0 / (180.0 * LN2)),
        # separated thresholds: leader-only, then follower enters
        (CASE_II_P1, CASE_II_P2, 80.0, 400.0 / (180.0 * LN2)),
        (CASE_II_P1, CASE_II_P2, 150.0, 100.0 / (150.0 * LN2)),
    ],
)
def test_two_peer_price_branches(p1, p2, u_k, expected):
    assert two_peer_price(p1, p2, u_k) == pytest.approx(expected, abs=1e-4)


def test_two_peer_case_i_a_allocation():
    price = two_peer_price(CASE_I_P1, CASE_I_P2, 30.0)
    assert best_response(CASE_I_P1, price) == pytest.approx(30.0, rel=1e-9)
    assert best_response(CASE_I_P2, price) == 0.0


def test_two_peer_requires_strict_order_and_demand():
    equal = PeerProfile("c", 200.0, 100.0)
    with pytest.raises(ValidationError):
        two_peer_price(CASE_I_P1, equal, 50.0)
    with pytest.raises(ValidationError):
        two_peer_price(CASE_I_P1, CASE_I_P2, 500.0)
    with pytest.raises(ValidationError):
        two_peer_price(CASE_I_P1, CASE_I_P2, 0.0)


def test_two_peer_agrees_with_solve_on_random_instances():
    rng = random.Random(67)
    checked = 0
    while checked < 200:
        c1, c2 = rng.uniform(1, 500), rng.uniform(1, 500)
        d1, d2 = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
        p1, p2 = PeerProfile("a", c1, d1), PeerProfile("b", c2, d2)
        if p1.ratio <= p2.ratio:
            p1, p2 = p2, p1
        if p1.ratio == p2.ratio:
            continue
        u_k = rng.uniform(1e-3, p1.capacity + p2.capacity)
        game = GameInstance(u_k, [p1, p2])
        assert two_peer_price(p1, p2, u_k) == pytest.approx(
            solve(game).price, rel=1e-9
        )
        checked += 1


# --- balance-region closed form ----------------------------------------------

def test_balance_region_on_tied_ratio_instance(example4_game):
    price = balance_region_price(example4_game)
    assert price == pytest.approx(1000.0 / (7.0 * LN2), abs=1e-3)


def test_balance_region_window_bounds(example4_game):
    peers = example4_game.peers
    assert balance_region_price(GameInstance(6.0, peers)) is None  # above 5
    assert balance_region_price(GameInstance(5.0, peers)) is not None  # inclusive top
    # lower bound is 0 here (all ratios equal); tiny capacity stays inside
    assert balance_region_price(GameInstance(1e-6, peers)) is not None


def test_balance_region_excludes_small_capacity_for_spread_ratios():
    # distinct ratios push the window's lower bound to 350/150 - 2 = 1/3
    game = make_game(0.2, [(200, 1.0), (150, 1.0)])
    assert balance_region_price(game) is None
    inside = make_game(0.5, [(200, 1.0), (150, 1.0)])
    assert balance_region_price(inside) == pytest.approx(solve(inside).price, rel=1e-9)


def test_balance_region_requires_narrow_ratio_spread():
    game = make_game(2.0, [(400, 1.0), (10, 1.0)])
    assert balance_region_price(game) is None


def test_balance_region_agrees_with_solve_when_present():
    rng = random.Random(71)
    present = 0
    for _ in range(1000):
        game = (random_interleaved if rng.random() < 0.5 else random_oversubscribed)(rng)
        price = balance_region_price(game)
        if price is None:
            continue
        present += 1
        assert price == pytest.approx(solve(game).price, rel=1e-9)
    assert present >= 100  # the generator must actually exercise the form


def test_balance_region_gives_solves_bits_in_any_listing_order():
    rng = random.Random(5)
    present = 0
    for _ in range(400):
        game = random_interleaved(rng)
        peers = list(game.peers)
        rng.shuffle(peers)
        game = GameInstance(game.uploader_capacity, peers)
        price = balance_region_price(game)
        if price is None:
            continue
        present += 1
        assert price.hex() == solve(game).price.hex(), game
    assert present >= 100


# --- ordered-threshold closed form --------------------------------------------

def test_ordered_threshold_two_peer_windows():
    game_mid = GameInstance(100.0, [CASE_I_P1, CASE_I_P2])
    assert ordered_threshold_price(game_mid) == pytest.approx(
        350.0 / (300.0 * LN2), abs=1e-4
    )
    game_high = GameInstance(180.0, [CASE_I_P1, CASE_I_P2])
    assert ordered_threshold_price(game_high) == pytest.approx(
        150.0 / (180.0 * LN2), abs=1e-4
    )


def test_ordered_threshold_single_peer():
    game = make_game(1.0, [(400, 2)])
    assert ordered_threshold_price(game) == pytest.approx(
        400.0 / ((1.0 + 2.0) * LN2), rel=1e-12
    )


def test_ordered_threshold_rejects_bad_hypothesis():
    with pytest.raises(ValidationError):
        ordered_threshold_price(GameInstance(150.0, [CASE_II_P1, CASE_II_P2]))
    tied = make_game(2.0, [(400, 2), (300, 1.5)])
    with pytest.raises(ValidationError):
        ordered_threshold_price(tied)


def test_ordered_threshold_agrees_with_solve():
    rng = random.Random(73)
    checked = 0
    while checked < 200:
        game = random_interleaved(rng)
        ratios = sorted((p.ratio for p in game.peers), reverse=True)
        if len(set(ratios)) < len(ratios):
            continue
        assert ordered_threshold_price(game) == pytest.approx(
            solve(game).price, rel=1e-9
        )
        checked += 1


# --- plateau tie-break --------------------------------------------------------

def test_plateau_resolves_to_supremum_price():
    # separated ratios with capacity exactly at the leader's full demand:
    # demand is flat there, and the highest price on the flat stretch wins
    game = GameInstance(100.0, [CASE_II_P1, CASE_II_P2])
    eq = solve(game)
    assert eq.price == CASE_II_P1.saturation_price
    assert eq.allocation["a"] == 100.0
    assert eq.allocation["b"] == 0.0
    assert eq.region is RegionLabel.INSUFFICIENT
    assert two_peer_price(CASE_II_P1, CASE_II_P2, 100.0) == pytest.approx(
        eq.price, rel=1e-9
    )


def test_exact_prefix_capacity_plateaus():
    # capacity equal to an exact partial-capacity sum lands on a demand
    # plateau whose endpoint evaluations may differ by rounding only;
    # the solver must still clear it at the plateau's top price
    rng = random.Random(5)
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 5)
        ratios = sorted((rng.uniform(1, 1000) for _ in range(n)), reverse=True)
        peers = [
            PeerProfile(f"p{i}", r * d, d)
            for i, (r, d) in enumerate(
                zip(ratios, (rng.uniform(0.1, 5) for _ in range(n))), 1
            )
        ]
        total = sum(p.capacity for p in peers)
        by_ratio = sorted(peers, key=lambda q: -q.ratio)
        for k in range(1, n):
            u_k = sum(p.capacity for p in by_ratio[:k])
            if not 0 < u_k < total:
                continue
            game = GameInstance(u_k, peers)
            eq = solve(game)
            assert abs(aggregate_demand(game, eq.price) - u_k) <= 1e-9 * max(1, u_k)
            checked += 1
    assert checked > 500


# --- equilibrium verification ---------------------------------------------------

def test_verify_se_accepts_example4(example4_game):
    eq = solve(example4_game)
    holds, report = verify_se(example4_game, eq, 1000)
    assert holds
    assert report.feasible_price_samples > 0


def test_verify_se_rejects_perturbed_price(example4_game):
    eq = solve(example4_game)
    price = eq.price * 1.05
    amounts = {p.id: best_response(p, price) for p in example4_game.peers}
    from credshare import Allocation, downloader_utility
    from credshare.solver import classify_region

    perturbed = Equilibrium(
        price=price,
        allocation=Allocation(amounts),
        total_allocation=sum(amounts.values()),
        revenue=price * sum(amounts.values()),
        utilities={
            p.id: downloader_utility(p, amounts[p.id], price)
            for p in example4_game.peers
        },
        region=classify_region(example4_game, price),
    )
    holds, report = verify_se(example4_game, perturbed, 1000)
    assert not holds
    assert report.max_revenue_gain > 0


def test_verify_se_vacuous_with_zero_samples():
    game = make_game(2.0, [(400, 2)])
    holds, report = verify_se(game, solve(game), 0)
    assert holds
    assert report.deviation_samples == 0


def test_residual_tolerance_honored():
    rng = random.Random(79)
    cfg = SolverConfig(residual_tolerance=1e-9)
    for _ in range(100):
        game = random_oversubscribed(rng)
        eq = solve(game, cfg)
        if game.oversubscribed and eq.region is not RegionLabel.SATURATED:
            residual = abs(aggregate_demand(game, eq.price) - game.uploader_capacity)
            assert residual <= 1e-9 * max(1.0, game.uploader_capacity)


def test_residual_tolerance_scales_with_the_cancelled_capacity():
    # one ulp of d in c/(mu ln2) - d is 1.9e-9, above 1e-9 * max(1, u_k);
    # the price is the closed form's, so the solve may not be refused
    game = make_game(1.0, [(1.0, 15067326.0)])
    eq = solve(game)
    assert eq.price == 1.0 / ((1.0 + 15067326.0) * LN2)
    residual = abs(aggregate_demand(game, eq.price) - 1.0)
    assert 1e-9 < residual <= 1e-9 * (1.0 + 15067326.0)
