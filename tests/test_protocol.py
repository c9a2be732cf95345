import dataclasses
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from credshare import (
    BargainConfig,
    ConvergenceError,
    GameInstance,
    LN2,
    PeerProfile,
    ProtocolAbort,
    ValidationError,
    replay,
    run_bargaining,
    run_direct,
    solve,
)

from conftest import ldexp_normal, make_game, random_oversubscribed


# --- direct scheme -----------------------------------------------------------

def test_direct_single_round_matches_solve(example4_game):
    eq, trace = run_direct(example4_game)
    assert eq == solve(example4_game)
    assert len(trace.rounds) == 1
    assert trace.rounds[0].price == eq.price
    assert replay(trace, example4_game)


def test_a_direct_round_takes_its_demands_from_the_solved_equilibrium(monkeypatch):
    # run_direct makes no second demand pass at the solved price: its round
    # lists the equilibrium's allocation in priority order, with the bits and
    # the total a fresh demands_at gives there
    import credshare.protocol
    from credshare.model import demands_at

    rng = random.Random(14)
    games = [random_oversubscribed(rng, 8) for _ in range(40)]
    expected = [demands_at(game, solve(game).price) for game in games]

    def second_pass(game, price):
        raise AssertionError("run_direct summed demand again")

    monkeypatch.setattr(credshare.protocol, "demands_at", second_pass)
    for game, (demands, total) in zip(games, expected):
        eq, trace = run_direct(game)
        (round_,) = trace.rounds
        assert list(round_.demands) == [p.id for p in game.sorted_by_priority()]
        assert [x.hex() for x in round_.demands.values()] == \
            [x.hex() for x in demands.values()]
        assert round_.total.hex() == total.hex() == eq.total_allocation.hex()


def test_direct_aborts_on_misreport(example4_game):
    with pytest.raises(ProtocolAbort) as exc:
        run_direct(example4_game, misreport={"peer2": lambda x: x + 0.5})
    eq = solve(example4_game)
    honest = eq.allocation["peer2"]
    diag = (f"demand reply from peer2 is {honest + 0.5!r}, "
            f"expected {honest!r} at price {eq.price!r}")
    assert str(exc.value) == diag
    assert exc.value.trace.diagnostics == [diag]
    assert exc.value.trace.rounds == []


def test_direct_names_the_first_misreporter_in_listing_order(example4_game):
    by_id = {p.id: p for p in example4_game.peers}
    for order, liars in [(["peer1", "peer2", "peer3", "peer4"], ("peer2", "peer4")),
                         (["peer4", "peer2", "peer3", "peer1"], ("peer3", "peer1"))]:
        game = GameInstance(2.0, [by_id[pid] for pid in order])
        with pytest.raises(ProtocolAbort) as exc:
            run_direct(game, misreport={pid: lambda x: x + 0.5 for pid in liars})
        assert str(exc.value).startswith(f"demand reply from {liars[0]} is ")


def test_direct_calls_no_hook_after_the_first_misreporter(example4_game):
    called = []

    def hook(pid, shift):
        def reply(x):
            called.append(pid)
            return x + shift
        return reply

    misreport = {pid: hook(pid, 0.5 if pid in ("peer2", "peer4") else 0.0)
                 for pid in ("peer1", "peer2", "peer3", "peer4")}
    with pytest.raises(ProtocolAbort, match="^demand reply from peer2 is "):
        run_direct(example4_game, misreport=misreport)
    assert called == ["peer1", "peer2"]
    eq, trace = run_direct(example4_game, misreport={"peer3": lambda x: x})
    assert eq == solve(example4_game) and replay(trace, example4_game)


def test_replay_of_a_direct_trace_reuses_the_solved_table(monkeypatch):
    # run_direct solves the game it is given, so replay's solve of that game
    # reads the breakpoint demands already summed and sums none
    import credshare.solver

    rng = random.Random(12)
    specs = [(rng.uniform(1.0, 500.0), rng.uniform(0.1, 5.0)) for _ in range(12)]
    game = make_game(0.5 * sum(d for _, d in specs), specs)
    _, trace = run_direct(game)
    calls = []
    original = credshare.solver.aggregate_demand

    def counting(game, price):
        calls.append(price)
        return original(game, price)

    monkeypatch.setattr(credshare.solver, "aggregate_demand", counting)
    assert replay(trace, game)
    assert calls == []


def test_direct_aborts_without_demand():
    game = make_game(1.0, [(0, 2), (0, 1)])
    with pytest.raises(ProtocolAbort):
        run_direct(game)


def test_direct_single_peer():
    game = make_game(2.0, [(400, 2)])
    eq, trace = run_direct(game)
    assert eq == solve(game)
    assert len(trace.rounds) == 1


def test_tampered_trace_fails_replay(example4_game):
    from credshare.protocol import TraceRound

    _, trace = run_direct(example4_game)
    r = trace.rounds[0]
    demands = dict(r.demands)
    demands["peer1"] += 1e-9
    trace.rounds[0] = TraceRound(r.price, demands, r.total, r.accepted)
    assert not replay(trace, example4_game)


def test_replay_checks_the_round_total(example4_game):
    from credshare.protocol import TraceRound

    _, trace = run_direct(example4_game)
    r = trace.rounds[0]
    trace.rounds[0] = TraceRound(r.price, r.demands,
                                 math.nextafter(r.total, 0.0), r.accepted)
    assert not replay(trace, example4_game)


def test_replay_checks_the_direct_equilibrium(example4_game):
    from credshare.protocol import TraceRound

    _, trace = run_direct(example4_game)
    eq, (r,) = trace.equilibrium, trace.rounds
    trace.equilibrium = dataclasses.replace(eq, price=2.0 * eq.price)
    assert not replay(trace, example4_game)
    trace.equilibrium = dataclasses.replace(eq, revenue=math.nextafter(eq.revenue, 0.0))
    assert not replay(trace, example4_game)
    trace.equilibrium = eq
    assert replay(trace, example4_game)
    # no demand is defined at a price of zero
    trace.rounds = [TraceRound(0.0, r.demands, r.total, r.accepted)]
    assert not replay(trace, example4_game)


def test_replay_checks_the_bargaining_equilibrium(example4_game):
    _, trace = run_bargaining(example4_game, BargainConfig(step=1.0))
    rounds, eq = trace.rounds, trace.equilibrium
    assert replay(trace, example4_game)
    trace.rounds = []  # an equilibrium that no round accepted
    assert not replay(trace, example4_game)
    trace.rounds = rounds
    trace.equilibrium = dataclasses.replace(eq, total_allocation=eq.total_allocation + 1.0)
    assert not replay(trace, example4_game)


# --- bargaining scheme -------------------------------------------------------

def test_bargaining_walks_down_to_the_solved_price(example4_game):
    eq, trace = run_bargaining(example4_game)
    mu_star = solve(example4_game).price
    assert trace.rounds[0].price == max(
        p.cutoff_price for p in example4_game.peers
    )
    assert abs(eq.total_allocation - 2.0) < 0.001
    assert abs(eq.price - mu_star) < 0.01
    assert len(trace.rounds) <= 8300
    assert all(r.accepted for r in trace.rounds)  # no refinement
    assert replay(trace, example4_game)


def test_bargaining_single_peer():
    game = make_game(2.0, [(400, 2)])
    eq, _ = run_bargaining(game)
    assert abs(eq.price - 400.0 / (4.0 * LN2)) < 0.01


def test_bargaining_trace_monotone(example4_game):
    _, trace = run_bargaining(example4_game, BargainConfig(step=0.5))
    accepted = [r for r in trace.rounds if r.accepted]
    for a, b in zip(accepted, accepted[1:]):
        assert b.price < a.price
        assert b.total >= a.total


def test_bargaining_coarse_step_refines(example4_game):
    eq, trace = run_bargaining(example4_game, BargainConfig(step=50.0))
    # each refinement is the rejected round that caused it, with one line
    rejected = [k for k, r in enumerate(trace.rounds, 1) if not r.accepted]
    assert rejected and len(trace.diagnostics) == len(rejected)
    for k, line in zip(rejected, trace.diagnostics):
        assert line.startswith(f"round {k}: overshoot at price {trace.rounds[k - 1].price} ")
    assert abs(eq.total_allocation - 2.0) < 0.001
    assert replay(trace, example4_game)
    # probe rounds are recorded but rolled back
    assert any(not r.accepted for r in trace.rounds)


def test_bargaining_refinement_disabled_raises(example4_game):
    with pytest.raises(ConvergenceError) as exc:
        run_bargaining(example4_game, BargainConfig(step=50.0, max_refinements=0))
    assert exc.value.trace is not None
    assert exc.value.trace.diagnostics


def test_bargaining_max_rounds_exceeded(example4_game):
    # example4 needs 8245 rounds at the default step; one short of that, the
    # walk's lowest price is too close to the clearing price to refuse early
    with pytest.raises(ConvergenceError) as exc:
        run_bargaining(example4_game, BargainConfig(max_rounds=8244))
    assert len(exc.value.trace.rounds) == 8244
    assert exc.value.trace.diagnostics == ["no convergence within max_rounds=8244"]


def test_bargaining_refuses_a_walk_that_cannot_finish(example4_game):
    with pytest.raises(ConvergenceError) as exc:
        run_bargaining(example4_game, BargainConfig(max_rounds=10))
    trace = exc.value.trace
    assert trace.rounds == [] and trace.equilibrium is None
    [diag] = trace.diagnostics
    assert "max_rounds=10" in diag
    needed = int(re.search(r"needs at least (\d+) rounds", diag).group(1))
    assert 10 < needed <= 8245
    assert trace.to_csv() == "round,price,peer_id,demand,total_demand\n"


def test_bargaining_refuses_a_walk_over_a_game_solve_cannot_price():
    # solve misses this capacity (its clearing price is subnormal), so the
    # refusal bounds the walk by its own floor instead of failing with it
    game = make_game(1.0, [(1e-09, 7.123700622330778e+307)])
    with pytest.raises(ConvergenceError, match="residual"):
        solve(game)
    with pytest.raises(ConvergenceError) as exc:
        run_bargaining(game, BargainConfig(initial_price=1.0, max_rounds=1))
    [diag] = exc.value.trace.diagnostics
    assert diag.startswith("no convergence within max_rounds=1: ")
    assert "refused before the first round" in diag


def test_bargaining_round_one_overshoot_raises():
    # demand at the top cutoff rounds to 4.44e-16, already past a 1e-16
    # capacity by more than the tolerance: no lower price can fall back
    game = make_game(1e-16, [(418.046786856015, 2.220558632734762)])
    with pytest.raises(ConvergenceError) as exc:
        run_bargaining(game, BargainConfig(tolerance=1e-17))
    trace = exc.value.trace
    [probe] = trace.rounds  # round 1
    assert not probe.accepted and probe.total > 1e-16
    assert trace.equilibrium is None
    [diag] = trace.diagnostics  # the failure; no refinement line
    assert diag.startswith("round 1: demand ") and "overshot capacity" in diag


def test_bargaining_stalls_on_a_step_that_leaves_the_price_unchanged(example4_game):
    # 1e-300 is far below half an ulp of the top cutoff: round 1 cannot move
    cfg = BargainConfig(step=1e-300, max_rounds=10**400)
    with pytest.raises(ConvergenceError) as exc:
        run_bargaining(example4_game, cfg)
    trace = exc.value.trace
    [probe] = trace.rounds
    assert probe.price == example4_game.market_top
    assert trace.diagnostics == [
        f"round 1: step 1e-300 leaves the price {probe.price} unchanged; "
        f"the walk cannot move"]
    assert replay(trace, example4_game)


def test_bargaining_stalls_on_a_refined_step_that_leaves_the_price_unchanged():
    # one 1e-13 step below the cutoff overshoots a 1e-17 capacity; a tenth
    # of it cannot move the price back off the cutoff
    game = make_game(1e-17, [(400.0, 2.0)])
    with pytest.raises(ConvergenceError) as exc:
        run_bargaining(game, BargainConfig(step=1e-13, tolerance=1e-20))
    trace = exc.value.trace
    first, probe = trace.rounds
    assert first.accepted and not probe.accepted
    # one refinement, of the rejected round 2, to a step of 1e-14
    assert trace.diagnostics[0] == (
        f"round 2: overshoot at price {probe.price} (demand {probe.total} > "
        f"capacity 1e-17); refining step 1e-13 -> 1e-14")
    assert trace.diagnostics[-1] == (
        f"round 2: step 1e-14 leaves the price {game.market_top} unchanged; "
        f"the walk cannot move")
    assert replay(trace, game)


def test_bargaining_tolerance_larger_than_capacity_stops_at_start(example4_game):
    eq, trace = run_bargaining(example4_game, BargainConfig(tolerance=5.0))
    assert len(trace.rounds) == 1
    assert eq.total_allocation == 0.0


def test_bargaining_initial_price_below_market_rejected(example4_game):
    with pytest.raises(ValidationError):
        run_bargaining(example4_game, BargainConfig(initial_price=100.0))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step": 0.0},
        {"step": -1.0},
        {"tolerance": 0.0},
        {"max_rounds": 0},
        {"max_refinements": -1},
        {"step": math.nan},
        {"tolerance": math.nan},
        {"tolerance": math.inf},
        {"initial_price": math.inf},
        {"initial_price": math.nan},
        {"max_rounds": math.nan},
        {"max_rounds": 10.5},
        {"max_rounds": True},
        {"max_refinements": math.nan},
        {"max_refinements": 2.0},
        {"max_refinements": False},
    ],
)
def test_bargain_config_field_validation(kwargs):
    with pytest.raises(ValidationError):
        BargainConfig(**kwargs)


def test_bargaining_requires_credited_peers():
    with pytest.raises(ValidationError):
        run_bargaining(make_game(1.0, [(0, 2)]))


def test_bargaining_round_budget(example4_game):
    cfg = BargainConfig()
    _, trace = run_bargaining(example4_game, cfg)
    mu0 = trace.rounds[0].price
    mu_star = solve(example4_game).price
    decrements = sum(r.accepted for r in trace.rounds) - 1
    assert decrements <= (mu0 - mu_star) / cfg.step + 1


def test_both_schemes_agree_on_random_instances():
    rng = random.Random(103)
    checked = 0
    while checked < 100:
        game = random_oversubscribed(rng)
        direct_eq, direct = run_direct(game)
        assert replay(direct, game)
        top = max(p.cutoff_price for p in game.peers if p.credits > 0)
        bottom = min(p.saturation_price for p in game.peers if p.credits > 0)
        step = max((top - 0.5 * bottom) * 1e-3, 1e-9)
        cfg = BargainConfig(
            step=step,
            tolerance=max(1e-4 * game.uploader_capacity, 1e-9),
            max_rounds=100_000,
            max_refinements=14,
        )
        bargain_eq, trace = run_bargaining(game, cfg)
        assert replay(trace, game)
        # a converged walk refined once per rejected round
        final_step = step
        for r in trace.rounds:
            if not r.accepted:
                final_step = final_step / 10.0
        assert abs(bargain_eq.price - direct_eq.price) <= step + 1e-9
        # per-peer agreement within the local demand slope over the final step
        for p in game.peers:
            low = min(bargain_eq.price, direct_eq.price)
            slope = p.credits / (low * low * LN2)
            bound = slope * (final_step + 1e-12) + 1e-9
            assert abs(
                bargain_eq.allocation[p.id] - direct_eq.allocation[p.id]
            ) <= bound
        checked += 1


def test_bargaining_saturated_capacity_within_band():
    # capacity equal to total demand: the walk ends exactly at saturation
    game = make_game(3.0, [(400, 2), (50, 1)])
    eq, _ = run_bargaining(game, BargainConfig(step=0.05, tolerance=1e-3))
    assert abs(eq.total_allocation - 3.0) < 1e-3


def test_bargaining_unreachable_capacity_errors():
    # demand can never reach the capacity: all peers saturate below it
    game = make_game(3.5, [(400, 2), (50, 1)])
    with pytest.raises(ConvergenceError):
        run_bargaining(game, BargainConfig(step=0.05, tolerance=1e-3))


def test_equilibria_keep_the_game_order_of_peers(example4_game):
    by_id = {p.id: p for p in example4_game.peers}
    order = ["peer4", "peer1", "peer3", "peer2"]
    game = GameInstance(2.0, [by_id[pid] for pid in order])
    for eq in (solve(game), run_direct(game)[0], run_bargaining(game)[0]):
        assert list(eq.allocation) == order
        assert list(eq.utilities) == order


# --- refusing walks that cannot finish ---------------------------------------

def _bargaining_session(rng):
    """A game and config knobs whose walk ends within a few hundred rounds.

    Draws zero-credit peers, exact ratio ties (a repeated profile), and
    capacities past the credited total, where the walk saturates.
    """
    peers = []
    for i in range(1, rng.randint(1, 5) + 1):
        draw = rng.random()
        if draw < 0.15:
            c, d = 0.0, rng.uniform(0.1, 5.0)
        elif draw < 0.35 and peers:
            c, d = peers[0].credits, peers[0].capacity
        else:
            c, d = rng.uniform(1.0, 500.0), rng.uniform(0.1, 5.0)
        peers.append(PeerProfile(f"p{i}", c, d))
    if all(p.credits == 0 for p in peers):
        peers[0] = PeerProfile("p1", rng.uniform(1.0, 500.0), peers[0].capacity)
    credited = sum(p.capacity for p in peers if p.credits > 0)
    game = GameInstance(rng.uniform(0.05, 1.3) * credited, peers)
    top = max(p.cutoff_price for p in peers)
    initial = None if rng.random() < 0.5 else top * rng.uniform(1.0, 1.5)
    span = (initial or top) - solve(game).price
    knobs = dict(initial_price=initial,
                 step=span / rng.uniform(2.0, 300.0),
                 tolerance=game.uploader_capacity * 10 ** rng.uniform(-5.0, 0.3),
                 max_refinements=rng.randint(0, 6))
    return game, knobs


def _bargaining_outcome(game, cfg):
    try:
        eq, trace = run_bargaining(game, cfg)
        error = None
    except ConvergenceError as exc:
        eq, trace, error = None, exc.trace, str(exc)
    return dict(error=error, price=eq.price.hex() if eq else None,
                csv=trace.to_csv(), rounds=trace.rounds,
                diagnostics=trace.diagnostics)


def test_refusal_only_replaces_walks_that_reach_max_rounds():
    rng = random.Random(307)
    refused = walked_to_limit = 0
    for _ in range(120):
        game, knobs = _bargaining_session(rng)
        ref = _bargaining_outcome(game, BargainConfig(max_rounds=10**5, **knobs))
        assert "max_rounds" not in (ref["error"] or "")
        # the round the session ends in; a saturation failure records no row
        needed = len(ref["rounds"]) + ("unreachable" in (ref["error"] or ""))
        for max_rounds in range(max(1, needed - 2), needed + 4):
            out = _bargaining_outcome(game, BargainConfig(max_rounds=max_rounds, **knobs))
            if needed <= max_rounds:
                assert out == ref
                continue
            limit = f"no convergence within max_rounds={max_rounds}"
            if out["rounds"]:
                walked_to_limit += 1
                # the refinements are the rejected rounds among these
                assert out["rounds"] == ref["rounds"][:max_rounds]
                assert out["diagnostics"][:-1] == [
                    line for line in ref["diagnostics"] if "refining step" in line
                    and int(line.split(":")[0].split()[1]) <= max_rounds]
                assert out["diagnostics"][-1] == limit
            else:
                refused += 1
                [diag] = out["diagnostics"]  # no round, so no refinement
                assert diag.startswith(limit + ":")
                stated = int(re.search(r"needs at least (\d+) rounds", diag).group(1))
                assert max_rounds < stated <= needed
    assert refused > 40 and walked_to_limit > 40


# --- scaling credits, step and initial price by a power of two ---------------

SCALINGS = (-8, -3, 1, 5, 20)


def _desk_session(rng):
    """A perfbench-like desk game (4-8 peers, capacity 0.2-0.8 of total
    demand) whose walk from the top cutoff at the default step takes about
    1 000 rounds, and knobs that keep the default step and tolerance."""
    while True:
        n = rng.randint(4, 8)
        specs = [(rng.uniform(1.0, 500.0), rng.uniform(0.1, 5.0)) for _ in range(n)]
        game = make_game(rng.uniform(0.2, 0.8) * sum(d for _, d in specs), specs)
        price, top = solve(game).price, game.market_top
        if price >= 0.5 * top:
            break
    scale = 1000 * BargainConfig().step / (top - price)
    game = make_game(game.uploader_capacity, [(scale * c, d) for c, d in specs])
    return game, dict(max_refinements=rng.randint(0, 6))


def _scaled_session(game, knobs, k):
    """The game and knobs with every credit, the step and the initial price
    times 2**k, or None when a scaled input leaves the normal range."""
    knobs = {**knobs, "step": knobs.get("step", BargainConfig().step)}
    for name in ("step", "initial_price"):
        if knobs.get(name) is not None:
            knobs[name] = ldexp_normal(knobs[name], k)
            if knobs[name] is None:
                return None
    peers = []
    for p in game.peers:
        credits = ldexp_normal(p.credits, k)
        if credits is None:
            return None
        peers.append(PeerProfile(p.id, credits, p.capacity))
    return GameInstance(game.uploader_capacity, peers), knobs


def _numbers_blanked(lines):
    return [re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?", "#", line) for line in lines]


def _assert_bargaining_scales_exactly(game, knobs, k):
    """Every round's price times 2**k exactly; the same demands, totals and
    accepted flags, the same outcome and the same diagnostics apart from
    their numbers."""
    scaled = _scaled_session(game, knobs, k)
    if scaled is None:
        return False
    base = _bargaining_outcome(game, BargainConfig(**knobs))
    other = _bargaining_outcome(scaled[0], BargainConfig(**scaled[1]))
    factor = math.ldexp(1.0, k)
    assert (other["error"] is None) == (base["error"] is None)
    if base["price"] is not None:
        assert float.fromhex(other["price"]) == float.fromhex(base["price"]) * factor
    assert len(other["rounds"]) == len(base["rounds"])
    for r, r2 in zip(base["rounds"], other["rounds"]):
        assert r2.price == r.price * factor
        assert (r2.demands, r2.total, r2.accepted) == (r.demands, r.total, r.accepted)
    assert _numbers_blanked(other["diagnostics"]) == _numbers_blanked(base["diagnostics"])
    return True


def test_scaling_credits_step_and_initial_price_scales_every_round_exactly():
    rng = random.Random(181)
    sessions = [_desk_session(rng) for _ in range(10)]
    for _ in range(100):
        # a walk that ends, one refused at once, one cut at its round limit
        game, knobs = _bargaining_session(rng)
        sessions.append((game, dict(knobs, max_rounds=rng.choice((5, 50, 10**5)))))
    checked = 0
    for game, knobs in sessions:
        for k in SCALINGS:
            checked += _assert_bargaining_scales_exactly(game, knobs, k)
    assert checked == len(sessions) * len(SCALINGS)


@st.composite
def _scalable_sessions(draw):
    specs = [(draw(st.sampled_from((0.0, 1.0))) * draw(st.floats(1e-3, 1e3)),
              draw(st.floats(1e-2, 10.0)))
             for _ in range(draw(st.integers(1, 5)))]
    if not any(c for c, _ in specs):
        specs[0] = (1.0, specs[0][1])
    credited = sum(d for c, d in specs if c)
    game = make_game(draw(st.floats(0.05, 1.3)) * credited, specs)
    initial = draw(st.none() | st.floats(1.0, 1.5).map(lambda f: f * game.market_top))
    span = (initial or game.market_top) - 0.5 * game.saturation_floor
    knobs = dict(initial_price=initial,
                 step=span / draw(st.floats(2.0, 300.0)),
                 tolerance=game.uploader_capacity * 10 ** draw(st.floats(-5.0, 0.3)),
                 max_rounds=draw(st.integers(1, 2000)),
                 max_refinements=draw(st.integers(0, 6)))
    return game, knobs


@given(_scalable_sessions(), st.sampled_from(SCALINGS))
def test_property_scaling_credits_step_and_initial_price(session, k):
    _assert_bargaining_scales_exactly(*session, k)
