import math
import random

import pytest
from hypothesis import given, strategies as st

import credshare.experiments as experiments
from credshare import (
    LN2,
    ConvergenceError,
    GameInstance,
    GridSpec,
    OracleError,
    PeerProfile,
    ValidationError,
    aggregate_demand,
    grid_search_price,
    solve,
)
from credshare.oracle import demand_on_grid, revenue_agreement

import numpy as np

from conftest import ldexp_normal, make_game, random_oversubscribed
from reference import deviation_probe
from test_solver_scan import _plateau_prone_game


def test_grid_spec_defaults(example4_game):
    spec = GridSpec.for_game(example4_game)
    sat = min(p.saturation_price for p in example4_game.peers)
    cut = max(p.cutoff_price for p in example4_game.peers)
    assert spec.price_min == 0.5 * sat
    assert spec.price_max == cut
    assert spec.resolution == pytest.approx(1e-4 * (cut - 0.5 * sat))


def test_grid_spec_validation():
    with pytest.raises(ValidationError):
        GridSpec(2.0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        GridSpec(1.0, 2.0, 0.0)


def test_grid_search_example4(example4_game):
    spec = GridSpec.for_game(example4_game)
    price, revenue = grid_search_price(example4_game, GridSpec(
        spec.price_min, spec.price_max, 1e-3))
    assert price == pytest.approx(1000.0 / (7.0 * LN2), abs=2e-3)
    assert revenue == pytest.approx(412.20, abs=0.5)


def test_grid_search_single_peer():
    game = make_game(2.0, [(400, 2)])
    spec = GridSpec.for_game(game)
    price, _ = grid_search_price(game, GridSpec(spec.price_min, spec.price_max, 1e-3))
    assert price == pytest.approx(400.0 / (4.0 * LN2), abs=2e-3)


def test_grid_search_finer_resolution_never_loses_revenue():
    rng = random.Random(83)
    for _ in range(20):
        game = random_oversubscribed(rng)
        spec = GridSpec.for_game(game)
        _, coarse = grid_search_price(game, spec)
        fine = GridSpec(spec.price_min, spec.price_max, spec.resolution / 2)
        _, refined = grid_search_price(game, fine)
        assert refined >= coarse - 1e-9 * (1 + abs(coarse))


def test_grid_search_widens_window_upward_once(example4_game):
    # window below the clearing price: everything draws too much demand
    found_price, _ = grid_search_price(example4_game, GridSpec(150.0, 180.0, 0.5))
    assert found_price >= 180.0
    # widened window still short of admissibility: give up
    with pytest.raises(OracleError):
        grid_search_price(example4_game, GridSpec(150.0, 160.0, 0.5))


def test_grid_search_refuses_a_widened_window_past_the_float_range():
    # 2 * price_max - price_min is inf; the window's own prices are finite
    game = GameInstance(1e-300, [PeerProfile("a", 7.110912344954049e+307,
                                             0.7120188127602907)])
    spec = GridSpec.for_game(game)
    with pytest.raises(OracleError) as caught:
        grid_search_price(game, spec)
    assert str(caught.value) == (
        f"no admissible price in [{spec.price_min}, {spec.price_max}], "
        "and widening the window overflows the float range")


def test_grid_spec_refuses_a_window_whose_step_rounds_to_0():
    # the thresholds are subnormal, so a 1e-4 share of the window's width is 0
    game = GameInstance(3.718988270294969e+47, [PeerProfile(
        "p0", 5.0808749081930105e-148, 1.840270162021928e+175)])
    price_min, price_max = 0.5 * game.saturation_floor, game.market_top
    assert 0.0 < price_min < price_max and 1e-4 * (price_max - price_min) == 0.0
    with pytest.raises(OracleError) as caught:
        GridSpec.for_game(game)
    assert str(caught.value) == \
        f"the grid step over [{price_min}, {price_max}] rounds to 0"
    with pytest.raises(OracleError):
        grid_search_price(game)
    # a spec built directly with a zero step is still a validation problem
    with pytest.raises(ValidationError):
        GridSpec(price_min, price_max, 0.0)


def _searched(game, spec, grids=None):
    try:
        price, revenue = grid_search_price(game, spec, grids)
    except OracleError as exc:
        return str(exc)
    return price.hex(), revenue.hex()


@pytest.mark.parametrize("spec, expected", [
    # widens once, then finds the price in the widened window
    (GridSpec(150.0, 180.0, 0.5), (206.5, 410.19504088896355)),
    # the widened window is still short of admissibility
    (GridSpec(150.0, 160.0, 0.5),
     "no admissible price in [150.0, 160.0] or the widened window"),
])
def test_repeated_widening_search_prices_each_window_once(monkeypatch, example4_game,
                                                          spec, expected):
    """Searches that share one dict of priced windows price the window and
    its widening once between them; a search without one prices its own."""
    import credshare.oracle as oracle

    priced = []
    original = oracle.demand_on_grid

    def counting(game, prices):
        priced.append(prices.size)
        return original(game, prices)

    monkeypatch.setattr(oracle, "demand_on_grid", counting)
    if isinstance(expected, tuple):
        expected = tuple(x.hex() for x in expected)
    grids = {}
    for _ in range(3):
        assert _searched(example4_game, spec, grids) == expected
    assert len(priced) == len(grids) == 2  # the window and its widening
    assert _searched(example4_game, spec) == expected
    assert len(priced) == 4 and len(grids) == 2


def test_sweep_oracle_columns_equal_fresh_cross_checks(monkeypatch):
    """A capacity sweep shares one dict of priced windows across its
    capacities; every oracle result it reports equals, in bits, a fresh
    cross_check on GameInstance(u_k, peers), on seeded peer sets (some with
    a free rider) over full ranges and over tiny ones whose window widens.
    Each sweep prices at most its window and that window's widening."""
    import credshare.experiments as experiments
    import credshare.oracle as oracle

    priced = []
    original_grid = oracle.demand_on_grid

    def counting(game, prices):
        priced.append(prices.size)
        return original_grid(game, prices)

    checks = []
    original_check = experiments.cross_check

    def recording(game, revenue, grids=None):
        found = original_check(game, revenue, grids)
        checks.append((game.uploader_capacity, game.peers, revenue, found))
        return found

    monkeypatch.setattr(oracle, "demand_on_grid", counting)
    monkeypatch.setattr(experiments, "cross_check", recording)
    rng = random.Random(101)
    widened = 0
    for _ in range(24):
        peers = list(random_oversubscribed(rng).peers)
        if rng.random() < 0.5:
            peers.append(PeerProfile("free", 0.0, rng.uniform(0.1, 5.0)))
        game = GameInstance(1.0, peers)
        hi = game.total_capacity * rng.choice((1.0, 1e-9))
        del priced[:], checks[:]
        experiments.capacity_sweep(game, 0.0, hi, 6, oracle=True)
        assert len(checks) == 6 and len(priced) in (1, 2)
        widened += len(priced) == 2
        for u_k, peers_seen, revenue, found in checks:
            fresh = original_check(GameInstance(u_k, peers), revenue)
            assert peers_seen == tuple(peers)
            assert (found[0].hex(), found[1].hex(), found[2]) == (
                fresh[0].hex(), fresh[1].hex(), fresh[2])
    assert widened >= 3


def test_vectorized_demand_matches_scalar():
    rng = random.Random(89)
    for _ in range(20):
        game = random_oversubscribed(rng)
        top = max(p.cutoff_price for p in game.peers) * 1.2
        prices = np.array([rng.uniform(1e-6, top) for _ in range(200)])
        vector = demand_on_grid(game, prices)
        for mu, d in zip(prices, vector):
            assert d == pytest.approx(aggregate_demand(game, float(mu)), rel=1e-12)


def test_deviation_probe_examples():
    peer = PeerProfile("p", 400.0, 2.0)
    probe = deviation_probe(peer, 206.099, 10**5)
    from credshare import downloader_utility

    assert probe.utility == pytest.approx(
        downloader_utility(peer, 0.8, 206.099), abs=1e-6
    )
    high = deviation_probe(peer, peer.cutoff_price * 1.5, 1000)
    assert high.bandwidth == 0.0
    assert high.utility == 0.0
    low = deviation_probe(peer, 1e-9, 1000)
    assert low.bandwidth == peer.capacity


def test_deviation_probe_validation():
    peer = PeerProfile("p", 400.0, 2.0)
    with pytest.raises(ValidationError):
        deviation_probe(peer, 0.0, 100)
    with pytest.raises(ValidationError):
        deviation_probe(peer, 1.0, 1)


def test_oracle_certifies_solver_in_clearing_regime():
    """Where the admissible revenue maximizer itself clears the capacity,
    the closed-form price must sit within one grid cell of it.

    (With widely spread priority ratios the uploader's true optimum can sit
    on a saturation plateau with demand strictly below capacity; there the
    clearing price is not the revenue maximizer and no agreement is
    expected. See the acceptance suite for the unrestricted comparison.)
    """
    rng = random.Random(97)
    agreeing = 0
    for _ in range(200):
        game = random_oversubscribed(rng)
        spec = GridSpec.for_game(game)
        oracle_price, oracle_revenue = grid_search_price(game, spec)
        demand_at_best = aggregate_demand(game, oracle_price)
        slope = sum(p.credits for p in game.peers) / (oracle_price**2 * LN2)
        clearing = abs(demand_at_best - game.uploader_capacity) <= (
            slope * spec.resolution * 2 + 1e-9
        )
        if not clearing:
            continue
        eq = solve(game)
        assert abs(eq.price - oracle_price) <= spec.resolution + 1e-9 * eq.price
        assert revenue_agreement(game, eq.revenue, oracle_revenue, spec)
        agreeing += 1
    assert agreeing >= 50


def test_oracle_equivalence_below_saturation_regime():
    """With capacity below what demand is when the top peer unsaturates,
    nobody is saturated at or above the clearing price, so revenue strictly
    falls away from it and brute force must agree with the closed form.
    (Above that regime the uploader can profit from parking the price on a
    saturation plateau; see the acceptance suite's unrestricted check.)"""
    rng = random.Random(101)
    for _ in range(100):
        base = random_oversubscribed(rng)
        top_saturation = max(
            p.saturation_price for p in base.peers if p.credits > 0
        )
        ceiling = aggregate_demand(base, top_saturation * (1 + 1e-12))
        u_k = rng.uniform(0.05, 0.95) * ceiling
        if u_k <= 0:
            continue
        game = GameInstance(u_k, base.peers)
        spec = GridSpec.for_game(game)
        oracle_price, oracle_revenue = grid_search_price(game, spec)
        eq = solve(game)
        assert eq.revenue >= oracle_revenue - (
            spec.resolution * (2 * u_k + game.total_capacity)
            + 1e-9 * (1 + abs(eq.revenue))
        )
        assert abs(eq.price - oracle_price) <= spec.resolution + 1e-9 * eq.price


# --- scaling a capacity sweep by a power of two ------------------------------

SCALINGS = (-8, -3, 1, 5, 20)


def _scaled_game(game, k):
    """The game with every credit, capacity and u_k times 2**k, or None when
    a scaled input, the sweep's top capacity included, leaves the normal
    range."""
    numbers = [game.uploader_capacity, game.total_capacity]
    for p in game.peers:
        numbers += [p.credits, p.capacity]
    if any(ldexp_normal(x, k) is None for x in numbers):
        return None
    return GameInstance(ldexp_normal(game.uploader_capacity, k),
                        [PeerProfile(p.id, ldexp_normal(p.credits, k),
                                     ldexp_normal(p.capacity, k))
                         for p in game.peers])


def _recorded_sweep(game, steps, oracle):
    """Each capacity sweep row's capacity and equilibrium, plus the oracle's
    price, revenue and flag with oracle set; or the type of the error the
    sweep raised."""
    rows = []
    solve_row, check_row = experiments.solve, experiments.cross_check

    def solving(inst):
        eq = solve_row(inst)
        rows.append([inst.uploader_capacity, eq])
        return eq

    def checking(inst, revenue, grids=None):
        found = check_row(inst, revenue, grids)
        rows[-1].append(found)
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "solve", solving)
        patch.setattr(experiments, "cross_check", checking)
        try:
            experiments.capacity_sweep(game, steps=steps, oracle=oracle)
        except (ConvergenceError, OracleError, ValidationError) as error:
            return type(error)
    return rows


def _assert_sweep_scales_exactly(game, k, steps, oracle):
    """Every capacity, revenue, allocation and utility times 2**k exactly;
    the same price bits and region; with the oracle, the same oracle price
    and flag and its revenue times 2**k. Returns the rows checked."""
    scaled = _scaled_game(game, k)
    if scaled is None:
        return 0
    base, other = _recorded_sweep(game, steps, oracle), _recorded_sweep(scaled, steps, oracle)
    if isinstance(base, type):
        assert other is base
        return 0
    factor = math.ldexp(1.0, k)
    assert len(other) == len(base) == steps
    for (u_k, eq, *found), (u_k2, eq2, *found2) in zip(base, other):
        assert u_k2 == u_k * factor
        assert eq2.price.hex() == eq.price.hex() and eq2.region is eq.region
        assert eq2.revenue == eq.revenue * factor
        assert dict(eq2.allocation.items()) == {
            pid: x * factor for pid, x in eq.allocation.items()}
        assert eq2.utilities == {pid: u * factor for pid, u in eq.utilities.items()}
        if oracle:
            (price, revenue, agrees), (price2, revenue2, agrees2) = found[0], found2[0]
            assert price2.hex() == price.hex()
            assert revenue2 == revenue * factor
            assert agrees2 == agrees
    return len(base)


def _sweep_game(rng, n):
    """An example3-like game, as the sweep-oracle benchmark draws them."""
    return make_game(1.0, [(rng.uniform(50.0, 300.0), rng.uniform(100.0, 200.0))
                           for _ in range(n)])


def test_scaling_a_game_scales_its_capacity_sweep_exactly():
    rng = random.Random(183)
    games = [(random_oversubscribed(rng, 8), False) for _ in range(12)]
    games += [(_plateau_prone_game(rng), False) for _ in range(12)]
    games += [(_sweep_game(rng, n), True) for n in (4, 12, 32, 4, 12, 32)]
    rows = oracle_rows = 0
    for game, oracle in games:
        for k in SCALINGS:
            checked = _assert_sweep_scales_exactly(game, k, 120, oracle)
            rows += checked
            oracle_rows += checked if oracle else 0
    assert (rows, oracle_rows) == (len(games) * len(SCALINGS) * 120,
                                   6 * len(SCALINGS) * 120)


@st.composite
def _scalable_games(draw):
    specs = [(draw(st.sampled_from((0.0, 1.0))) * draw(st.floats(1e-3, 1e3)),
              draw(st.floats(1e-2, 10.0)))
             for _ in range(draw(st.integers(1, 5)))]
    if not any(c for c, _ in specs):
        specs[0] = (1.0, specs[0][1])
    return make_game(draw(st.floats(0.05, 1.3)) * sum(d for _, d in specs), specs)


@given(_scalable_games(), st.sampled_from(SCALINGS), st.integers(1, 30), st.booleans())
def test_property_scaling_a_game_scales_its_capacity_sweep(game, k, steps, oracle):
    _assert_sweep_scales_exactly(game, k, steps, oracle)
