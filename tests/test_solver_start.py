"""Where solve() starts its search for the bracketing segment.

The start is a hint price (near=), else the bracket the game's breakpoint
table recorded at its last solve, else the top. The search walks from it to
the highest segment whose lower end demands more than u_k or which lies on
a plateau at u_k. That segment is unique because float demand never rises
with the price, so no start can change the result; these tests check both
claims, and count the demand sums the start saves.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import credshare.solver
from credshare import (EventKind, GameInstance, PeerProfile, RegionLabel,
                       ScenarioEvent, aggregate_demand, run_scenario, solve)

from conftest import make_game, random_oversubscribed
from test_exact_reference import EXACT_LN2, _gamma, exact_clearing
from test_solver_scan import _bits, _plateau_prone_game, solve_price_reference


def _breakpoints(game):
    return sorted({t for p in game.credited()
                   for t in (p.saturation_price, p.cutoff_price)})


def _hints(game):
    """None, prices outside the market window and around every breakpoint,
    and the values a caller should not pass but might."""
    points = _breakpoints(game)
    floor, top = (points[0], points[-1]) if points else (1.0, 1.0)
    hints = [None, 0.5 * floor, 2.0 * top, 0.0, -1.0, math.nan, math.inf,
             -math.inf, 5e-324, *points]
    hints.extend(0.5 * (a + b) for a, b in zip(points, points[1:]))
    return hints


def _fresh(game):
    return GameInstance(game.uploader_capacity, game.peers)


def _tied_game(rng):
    """Several peers on each of a few priority ratios, some free riders."""
    ratios = [10.0 ** rng.uniform(-1.0, 3.0) for _ in range(rng.randint(1, 3))]
    specs = []
    for _ in range(rng.randint(2, 8)):
        d = rng.uniform(0.1, 5.0)
        specs.append((0.0 if rng.random() < 0.2 else rng.choice(ratios) * d, d))
    return make_game(rng.uniform(1e-3, sum(d for _, d in specs)), specs)


def test_a_hint_never_changes_the_result():
    rng = random.Random(41)
    families = (random_oversubscribed, _plateau_prone_game, _tied_game)
    branches = set()
    for draw in range(900):
        family = families[draw % 3]
        game = family(rng, 8) if family is random_oversubscribed else family(rng)
        cold = _bits(solve(_fresh(game)))
        price, branch = solve_price_reference(game)
        branches.add(branch)
        assert cold[0] == price.hex(), game
        for hint in _hints(game):
            assert _bits(solve(_fresh(game), near=hint)) == cold, (hint, game)
            # one shared table, its recorded bracket moved by every hint
            assert _bits(solve(game, near=hint)) == cold, (hint, game)
            assert _bits(solve(game)) == cold, (hint, game)
    assert branches == {"no credits", "saturated", "plateau", "flat", "bracket"}


# named games on which the price is a breakpoint, not an inversion
NAMED = {
    # demand is 3 from 1/ln2 (b's cutoff) up to 100/(2 ln2) (a's saturation)
    "plateau": (3.0, [(300.0, 3.0), (1.5, 1.5)], 1.0, 30.0, 100.0),
    # as above with a's capacity split across two peers of a's ratio
    "tied plateau": (3.0, [(200.0, 2.0), (100.0, 1.0), (1.5, 1.5)], 1.0, 30.0, 100.0),
    # demand is 0.5 on (70.55, 86.17], but at 70.55 the peer whose cutoff it
    # is rounds to a demand above 0: the flat segment brackets u_k
    "flat": (0.5, [(2.0, 2.0), (59.72580287996148, 0.5), (1.0, 1.0),
                   (24.4513227003758, 0.5)], 50.0, 80.0, 100.0),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_plateau_and_flat_games_hold_the_exact_bound(name):
    u_k, specs, below, inside, above = NAMED[name]
    game = make_game(u_k, specs)
    exact, forms = exact_clearing(game)
    branch = solve_price_reference(game)[1]
    assert branch == name.split()[-1]
    assert forms is None  # the exact price is a point of the scan too
    # a stored threshold is exact; an exact one, c / (2 d ln2) or
    # c / (d ln2), is stored after two roundings: the ratio and the quotient
    exact_thresholds = {Fraction(p.credits) / (k * Fraction(p.capacity) * EXACT_LN2)
                        for p in game.credited() for k in (1, 2)}
    bound = _gamma(2) * exact if exact in exact_thresholds else 0
    for hint in (None, below, inside, above):
        price = solve(make_game(u_k, specs), near=hint).price
        assert abs(Fraction(price) - exact) <= bound, hint


@st.composite
def _games(draw):
    """Up to 8 peers, free riders and ratio ties among them, at a capacity
    drawn freely or equal to a priority-order sum of the top capacities."""
    specs = []
    for _ in range(draw(st.integers(1, 8))):
        d = draw(st.floats(1e-3, 1e3))
        kind = draw(st.sampled_from(("free", "tie", "own")))
        if kind == "free":
            specs.append((0.0, d))
        elif kind == "tie" and specs:
            specs.append((specs[-1][0] / specs[-1][1] * d, d))
        else:
            specs.append((draw(st.floats(1e-2, 1e4)), d))
    total = sum(d for _, d in specs)
    roster = sorted(specs, key=lambda s: -s[0] / s[1])
    u_k = draw(st.one_of(
        st.floats(1e-3, 1.2 * total),
        st.integers(1, len(specs)).map(
            lambda k: max(1e-3, sum(d for _, d in roster[:k])))))
    return make_game(u_k, specs)


def _outcome(game, **hint):
    try:
        return _bits(solve(game, **hint))
    except credshare.solver.ConvergenceError as error:
        return str(error)


@given(st.data())
def test_property_a_hint_never_changes_the_result(data):
    game = data.draw(_games())
    points = _breakpoints(game) or [1.0]
    hint = data.draw(st.one_of(st.floats(), st.sampled_from(points)))
    cold = _outcome(_fresh(game))
    assert _outcome(_fresh(game), near=hint) == cold
    assert _outcome(game, near=hint) == cold
    assert _outcome(game) == cold
    if not isinstance(cold, str):
        assert cold[0] == solve_price_reference(game)[0].hex()


# --- float demand never rises with the price -----------------------------------

def _assert_nonincreasing_around(game, price):
    below, above = math.nextafter(price, 0.0), math.nextafter(price, math.inf)
    values = [aggregate_demand(game, mu) for mu in (below, price, above)]
    assert values[0] >= values[1] >= values[2], (price, values, game)


def test_float_demand_never_rises_at_adjacent_prices():
    rng = random.Random(43)
    for draw in range(600):
        game = (random_oversubscribed(rng, 8), _plateau_prone_game(rng),
                _tied_game(rng))[draw % 3]
        points = _breakpoints(game)
        values = [aggregate_demand(game, t) for t in points]
        for a, b in zip(values, values[1:]):
            assert a >= b, game
        for t in points:
            _assert_nonincreasing_around(game, t)
        for a, b in zip(points, points[1:]):
            _assert_nonincreasing_around(game, rng.uniform(a, b))


@given(_games(), st.floats(1e-300, 1e6))
def test_property_float_demand_never_rises_with_the_price(game, price):
    _assert_nonincreasing_around(game, price)
    for t in _breakpoints(game):
        _assert_nonincreasing_around(game, t)


# --- demand sums ----------------------------------------------------------------

@pytest.fixture
def summed(monkeypatch):
    """The prices at which solve sums aggregate demand, in call order."""
    prices = []
    original = credshare.solver.aggregate_demand

    def counting(game, price):
        prices.append(price)
        return original(game, price)

    monkeypatch.setattr(credshare.solver, "aggregate_demand", counting)
    return prices


def _top_scan_prices(game):
    """The breakpoints at which the top-down scan sums demand, in order, for
    an oversubscribed game: each segment's lower end from the top down until
    one brackets u_k or lies on a plateau at it, except the lowest
    breakpoint, whose demand a fresh table holds from the credited
    capacities."""
    points = _breakpoints(game)
    u_k = game.uploader_capacity
    prices = []
    hi_val = 0.0
    for j in range(len(points) - 1, 0, -1):
        lo_val = aggregate_demand(game, points[j - 1])
        if j > 1:  # the lowest breakpoint's demand is never summed
            prices.append(points[j - 1])
        if hi_val == u_k == lo_val or lo_val > u_k:
            break
        hi_val = lo_val
    return prices


def _saturated_game(rng):
    """Credited capacity at most u_k, sometimes exactly u_k."""
    game = random_oversubscribed(rng, 8)
    credited_capacity = 0.0
    for p in game.credited():
        credited_capacity += p.capacity
    return GameInstance(credited_capacity * rng.choice((1.0, 1.0, 1.5)), game.peers)


def _free_rider_game(rng):
    game = random_oversubscribed(rng, 6)
    riders = [PeerProfile(f"f{i}", 0.0, rng.uniform(0.1, 5.0))
              for i in range(rng.randint(1, 3))]
    return GameInstance(game.uploader_capacity, game.peers + tuple(riders))


def _assert_table_holds_the_lowest_demand(game):
    """Solve a fresh game, then compare its table's lowest-breakpoint demand
    with a sum of every peer's demand there; the solve's region, or the
    error it raised."""
    outcome = _outcome(game)
    breakpoints, demand, _ = game._breakpoint_table()
    assert demand[0].hex() == aggregate_demand(game, breakpoints[0]).hex(), game
    return outcome if isinstance(outcome, str) else outcome[2]


@pytest.mark.parametrize("family", [random_oversubscribed, _saturated_game,
                                    _free_rider_game, _tied_game],
                         ids=["oversubscribed", "saturated", "free riders", "tied"])
def test_a_fresh_table_holds_the_lowest_breakpoint_demand(family):
    rng = random.Random(53)
    regions = []
    for _ in range(400):
        game = family(rng)
        if game.credited():
            regions.append(_assert_table_holds_the_lowest_demand(game))
    saturated = regions.count(RegionLabel.SATURATED)
    if family is _saturated_game:
        assert saturated == len(regions) == 400
    else:
        assert len(regions) > 300 and saturated < len(regions), (family, saturated)


@given(_games())
def test_property_a_fresh_table_holds_the_lowest_breakpoint_demand(game):
    if game.credited():
        _assert_table_holds_the_lowest_demand(game)


@pytest.mark.parametrize("n, games", [(100, 6), (1000, 2)])
def test_a_cold_solve_sums_demand_where_the_top_scan_did(n, games, summed):
    rng = random.Random(n)
    for _ in range(games):
        peers = [PeerProfile(f"p{i}", rng.uniform(1.0, 500.0), rng.uniform(0.1, 5.0))
                 for i in range(n)]
        game = GameInstance(rng.uniform(0.05, 0.95) * sum(p.capacity for p in peers),
                            peers)
        summed.clear()
        price = solve(game).price
        assert summed == _top_scan_prices(game) + [price]  # and the residual check


def test_a_hinted_solve_gallops_to_the_bracket(summed):
    """A bracket d breakpoints above or below the hint's segment costs at most
    2 ceil(log2(d + 1)) + 2 breakpoint demand sums, then the residual check."""
    rng = random.Random(59)
    farthest = {"above": 0, "below": 0}
    for _ in range(6):
        peers = [PeerProfile(f"p{i}", rng.uniform(1.0, 500.0), rng.uniform(0.1, 5.0))
                 for i in range(100)]
        game = GameInstance(rng.uniform(0.2, 0.8) * sum(p.capacity for p in peers),
                            peers)
        cold = _bits(solve(game))
        breakpoints, _, recorded = game._breakpoint_table()
        bracket = recorded[0]
        for start, hint in enumerate(breakpoints):
            d = abs(bracket - start)
            summed.clear()
            eq = solve(_fresh(game), near=hint)
            assert _bits(eq) == cold, hint
            assert summed[-1] == eq.price  # the residual check
            assert len(summed) - 1 <= 2 * math.ceil(math.log2(d + 1)) + 2, (d, summed)
            side = "above" if bracket > start else "below"
            farthest[side] = max(farthest[side], d)
    assert min(farthest.values()) >= 64, farthest


def _churn_scenario(rng, peak):
    """Joins up to `peak` peers, then `peak // 4` rounds of one or two
    settles followed by a join or a leave."""
    serial = 0
    present, events = [], []
    time = 0.0

    def join():
        nonlocal serial
        serial += 1
        peer = PeerProfile(f"peer{serial}", rng.uniform(1.0, 500.0),
                           rng.uniform(0.1, 5.0))
        present.append(peer)
        events.append(ScenarioEvent(time, EventKind.JOIN, peer=peer))

    for _ in range(peak):
        time += 1.0
        join()
    capacity = rng.uniform(0.3, 0.7) * sum(p.capacity for p in present)
    for _ in range(peak // 4):
        for _ in range(rng.randint(1, 2)):
            time += 1.0
            events.append(ScenarioEvent(time, EventKind.SETTLE))
        time += 1.0
        if len(present) >= peak or (len(present) > peak - 5 and rng.random() < 0.5):
            gone = present.pop(rng.randrange(len(present)))
            events.append(ScenarioEvent(time, EventKind.LEAVE, peer_id=gone.id))
        else:
            join()
    return capacity, events


def test_churn_re_solves_start_at_the_previous_price(summed):
    capacity, events = _churn_scenario(random.Random(47), 100)
    timeline, _ = run_scenario(capacity, events)
    warm = len(summed)
    # the same games solved cold, from the top of fresh tables
    summed.clear()
    for ep in timeline.epochs:
        assert _bits(solve(_fresh(ep.game))) == _bits(ep.equilibrium)
    cold = len(summed)
    # one residual check per oversubscribed epoch; beyond those the searches
    # sum 214 breakpoint demands here galloping from the hint (237 walking
    # from it a segment at a time, 5 514 from the top)
    checks = sum(ep.equilibrium.region is not RegionLabel.SATURATED
                 for ep in timeline.epochs)
    assert warm - checks <= 225 and cold > 10 * warm, (warm, checks, cold)
    # each epoch's table recorded its bracket: re-solving it from there sums
    # demand only for the residual check
    for ep in timeline.epochs:
        summed.clear()
        eq = solve(ep.game)
        assert _bits(eq) == _bits(ep.equilibrium)
        saturated = eq.region is RegionLabel.SATURATED
        assert summed == ([] if saturated else [eq.price]), ep.start
