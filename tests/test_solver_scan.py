"""solve()'s breakpoint search (from the top, for a cold solve) against the
curve-based bracket step it replaced, plus seeded property loops over the
clearing price. tests/test_solver_start.py covers the other start points."""

import itertools
import random

import pytest

import credshare.model
import credshare.solver
from credshare import (GameInstance, PeerProfile, RegionLabel, ValidationError,
                       aggregate_demand, classify_region, solve)
from credshare.model import ACT, LN2, SAT, build_demand_curve, demands_at
from credshare.simulator import run_scenario

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
    # 1e-320 / 1e10 rounds to a zero ratio: both thresholds of a credited
    # peer would be 0.0, so the peer is rejected before any game is priced
    with pytest.raises(ValidationError, match="'peer1'.*positive, finite"):
        make_game(1.0, [(1e-320, 1e10), (0.0, 1.0)])


def test_solve_does_not_build_the_demand_curve(monkeypatch, example4_game):
    def refuse(game):
        raise AssertionError("solve built the demand curve")

    expected = solve(example4_game)
    monkeypatch.setattr(credshare.model, "build_demand_curve", refuse)
    monkeypatch.setattr(credshare.solver, "build_demand_curve", refuse)
    assert solve(example4_game) == expected
    assert solve(make_game(3.0, [(300.0, 3.0), (1.5, 1.5)])).price == 72.13475204444818


# --- properties, as seeded loops ----------------------------------------------

def _exact_sum_game(rng):
    """A game with zero-credit peers and decimal capacities whose sum rounds
    differently in different orders; the uploader's capacity is the credited
    peers' capacities added up in a random listing order."""
    peers = []
    for i in range(rng.randint(2, 7)):
        d = rng.choice((0.1, 0.2, 0.3, 0.7, rng.uniform(0.1, 5.0)))
        credits = 0.0 if rng.random() < 0.15 else 10.0 ** rng.uniform(-1.0, 4.0) * d
        peers.append(PeerProfile(f"p{i}", credits, d))
    credited = [p for p in peers if p.credits > 0]
    rng.shuffle(credited)
    u_k = 0.0
    for p in credited:
        u_k += p.capacity
    return GameInstance(max(u_k, 1e-3), peers)


def _window(game):
    """The game's market window, checked bit for bit against a brute-force
    filter, max and min over the peers as listed."""
    credited = [p for p in game.peers if p.credits > 0]
    assert set(game.credited()) == set(credited)
    assert list(game.credited()) == [p for p in game.sorted_by_priority()
                                     if p.credits > 0]
    top = max(p.cutoff_price for p in game.peers)
    assert game.market_top.hex() == top.hex()
    floor = min((p.saturation_price for p in credited), default=None)
    assert game.saturation_floor == floor
    return ([p.id for p in game.credited()], top.hex(),
            None if floor is None else floor.hex())


def _demands(game, price):
    """demands_at in bits and listing order; its total is aggregate_demand's."""
    demands, total = demands_at(game, price)
    assert total.hex() == aggregate_demand(game, price).hex()
    return [(pid, x.hex()) for pid, x in demands.items()], total.hex()


def _outcome(game):
    """Everything solve(), classify_region, demands_at and the market window
    report, in bits, keyed by id."""
    eq = solve(game)
    prices = (eq.price, 0.5 * eq.price, 2.0 * eq.price)
    return (eq.price.hex(), eq.revenue.hex(), eq.region,
            {pid: x.hex() for pid, x in eq.allocation.items()},
            {pid: u.hex() for pid, u in eq.utilities.items()},
            [classify_region(game, mu) for mu in prices],
            [_demands(game, mu) for mu in prices], _window(game))


def test_permuting_peers_keeps_price_and_revenue_bits():
    rng = random.Random(17)
    for draw in range(1500):
        game = (_plateau_prone_game(rng), random_oversubscribed(rng, max_peers=8),
                _exact_sum_game(rng))[draw % 3]
        expected = _outcome(game)
        peers = list(game.peers)
        for _ in range(3):
            rng.shuffle(peers)
            assert _outcome(GameInstance(game.uploader_capacity, peers)) == expected, game


def test_listing_order_does_not_move_the_saturated_label():
    # listed p0, p1, p2 the capacities add up to exactly 0.6; in priority
    # order (p2, p1, p0) they add up to 0.6000000000000001
    peers = [PeerProfile("p0", 300.0, 0.2), PeerProfile("p1", 463.0, 0.3),
             PeerProfile("p2", 350.0, 0.1)]
    for order in itertools.permutations(peers):
        game = GameInstance(0.6, order)
        eq = solve(game)
        assert eq.price == 1082.0212806667225
        assert eq.region is RegionLabel.SUFFICIENT
        assert classify_region(game, eq.price) is RegionLabel.SUFFICIENT


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


# --- the breakpoint table kept across solves of one peer set ------------------

def _bits(eq):
    return (eq.price.hex(), eq.revenue.hex(), eq.region,
            [(pid, x.hex()) for pid, x in eq.allocation.items()])


def test_kept_breakpoint_table_gives_cold_and_reference_bits():
    """Solves of at_capacity copies, which share their peer set's table,
    agree in bits with a solve of a freshly built game and with the
    curve-based reference, over interleaved peer sets: plateau-prone ones
    (zero-credit peers, tied ratios, capacities on a priority-order sum), a
    rebuilt equal copy and a reversed listing, each with a table of its own."""
    rng = random.Random(31)
    peer_sets = []
    for draw in range(12):
        game = (_plateau_prone_game(rng) if draw % 3
                else random_oversubscribed(rng, max_peers=8))
        peer_sets.append(game.peers)
    for peers in peer_sets[:4]:
        peer_sets.append(tuple(PeerProfile(p.id, p.credits, p.capacity)
                               for p in peers))
        peer_sets.append(peers[::-1])
    shared = [GameInstance(1.0, peers) for peers in peer_sets]
    index = 0
    hits = misses = 0
    for _ in range(3000):
        if rng.random() < 0.2:
            index = rng.randrange(len(peer_sets))
        peers = peer_sets[index]
        total = sum(p.capacity for p in peers)
        if rng.random() < 0.3:
            roster = shared[index].sorted_by_priority()
            u_k = sum(p.capacity for p in roster[:rng.randint(1, len(roster))])
        else:
            u_k = rng.uniform(1e-3, 1.2 * total)
        game = shared[index].at_capacity(u_k)
        if game.credited():
            built = game._table_slot[0] is not None
            hits += built
            misses += not built
        warm = _bits(solve(game))
        cold = GameInstance(u_k, peers)
        assert warm == _bits(solve(cold)), game
        assert warm[0] == solve_price_reference(cold)[0].hex(), game
    assert misses <= len(peer_sets), misses  # each table is built once
    assert hits > 2800, hits


def test_capacity_sweep_sums_each_breakpoint_demand_once(monkeypatch):
    # 4 peers give 8 breakpoints, and none of the 120 solves sums demand
    # beyond them (691 sums when every solve scanned from the top and summed
    # demand again for its residual check)
    from credshare.experiments import capacity_sweep, example_game

    calls = []
    original = credshare.solver.aggregate_demand

    def counting(game, price):
        calls.append(price)
        return original(game, price)

    monkeypatch.setattr(credshare.solver, "aggregate_demand", counting)
    game = example_game("example3")
    assert len(game.peers) == 4
    capacity_sweep(game, 0.0, game.total_capacity)
    assert len(calls) <= 8, len(calls)


# --- at_capacity: the same peers at another capacity --------------------------

@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), 0, -1, True, "2", 10**400],
    ids=["nan", "inf", "0", "-1", "True", "'2'", "10**400"])
def test_at_capacity_and_run_scenario_reject_what_the_constructor_rejects(
        value, example4_game):
    with pytest.raises(ValidationError) as built:
        GameInstance(value, example4_game.peers)
    with pytest.raises(ValidationError) as copied:
        example4_game.at_capacity(value)
    with pytest.raises(ValidationError) as simulated:
        run_scenario(value, ())
    assert str(copied.value) == str(simulated.value) == str(built.value)


def test_at_capacity_rejects_a_capacity_sum_the_constructor_rejects():
    # each capacity is below the ~9e307 whose demand quotient PeerProfile refuses
    game = make_game(1.0, [(1.0, 7e307), (1.0, 5e307)])
    with pytest.raises(ValidationError) as built:
        GameInstance(7e307, game.peers)
    with pytest.raises(ValidationError) as copied:
        game.at_capacity(7e307)
    assert str(copied.value) == str(built.value)
    assert "total capacity 1.2e+308 is not finite" in str(built.value)


def test_at_capacity_equals_and_hashes_as_a_built_game(example4_game):
    for u_k in (0.5, 2, 3.75, 5.0, 1e-9):
        copy = example4_game.at_capacity(u_k)
        built = GameInstance(u_k, example4_game.peers)
        assert copy == built and hash(copy) == hash(built)
        assert copy.uploader_capacity == u_k and type(copy.uploader_capacity) is float
        assert copy.sorted_by_priority() is example4_game.sorted_by_priority()
        assert copy != example4_game.at_capacity(u_k + 1.0)
    assert example4_game.at_capacity(2.0) == example4_game


@pytest.mark.parametrize("first", [0, 1, 2])
def test_at_capacity_copies_share_one_table_whichever_solves_first(first, example4_game):
    games = [example4_game, example4_game.at_capacity(1.0),
             example4_game.at_capacity(3.5).at_capacity(0.25)]
    solve(games[first])
    tables = {id(credshare.solver._breakpoint_table(g)) for g in games}
    assert len(tables) == 1
    assert credshare.solver._breakpoint_table(GameInstance(2.0, example4_game.peers)) \
        is not credshare.solver._breakpoint_table(example4_game)


def test_a_game_keeps_its_table_across_solves_of_other_games(monkeypatch, example4_game):
    # solving A, then B, then A again sums no demand for A the second time:
    # its search reads the demands its first search summed
    calls = []
    original = credshare.solver.aggregate_demand

    def counting(game, price):
        calls.append(game)
        return original(game, price)

    monkeypatch.setattr(credshare.solver, "aggregate_demand", counting)
    a = GameInstance(1.0, example4_game.peers)
    b = make_game(1.0, [(300.0, 3.0), (150.0, 2.0), (10.0, 1.0)])
    expected = solve(a)
    solve(b)
    calls.clear()
    assert solve(a) == expected
    assert calls == []
