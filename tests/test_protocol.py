import math
import random
import re
from collections import Counter

import pytest

from credshare import (
    BargainConfig,
    ConvergenceError,
    GameInstance,
    LN2,
    MessageKind,
    PeerProfile,
    ProtocolAbort,
    ValidationError,
    replay,
    run_bargaining,
    run_direct,
    solve,
)

from conftest import make_game, random_oversubscribed


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


def test_direct_is_delivery_order_insensitive(example4_game):
    equilibria = {run_direct(example4_game, seed=s)[0].price for s in range(5)}
    assert len(equilibria) == 1
    base = run_direct(example4_game, seed=0)[0]
    for s in range(1, 5):
        other = run_direct(example4_game, seed=s)[0]
        assert other == base


def test_direct_message_flow_and_sequencing(example4_game):
    _, trace = run_direct(example4_game)
    kinds = [m.kind for m in trace.messages]
    assert kinds.count(MessageKind.REQUEST) == 4
    assert kinds.count(MessageKind.PRICE) == 4
    assert kinds.count(MessageKind.DEMAND) == 4
    assert kinds.count(MessageKind.GRANT) == 4
    assert kinds.count(MessageKind.STREAM_START) == 4
    by_sender = {}
    for m in trace.messages:
        by_sender.setdefault(m.sender, []).append(m.seq)
    for sender, seqs in by_sender.items():
        # strictly increasing as assigned; delivery order shuffles batches
        assert sorted(seqs) == list(range(1, len(seqs) + 1))
        if sender != "uploader":
            assert seqs == sorted(seqs)  # one message per round per downloader
    # a downloader's first message is its request
    for m in trace.messages:
        if m.seq == 1 and m.sender != "uploader":
            assert m.kind is MessageKind.REQUEST


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
    trace.rounds[0] = TraceRound(r.index, r.price, demands, r.total, r.accepted)
    assert not replay(trace, example4_game)


def test_replay_checks_the_round_total(example4_game):
    from credshare.protocol import TraceRound

    _, trace = run_direct(example4_game)
    r = trace.rounds[0]
    trace.rounds[0] = TraceRound(r.index, r.price, r.demands,
                                 math.nextafter(r.total, 0.0), r.accepted)
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
    assert not trace.refinements
    assert replay(trace, example4_game)


def test_bargaining_single_peer():
    game = make_game(2.0, [(400, 2)])
    eq, _ = run_bargaining(game)
    assert abs(eq.price - 400.0 / (4.0 * LN2)) < 0.01


def test_bargaining_trace_monotone(example4_game):
    _, trace = run_bargaining(example4_game, BargainConfig(step=0.5))
    accepted = trace.accepted_rounds()
    for a, b in zip(accepted, accepted[1:]):
        assert b.price < a.price
        assert b.total >= a.total


def test_bargaining_coarse_step_refines(example4_game):
    eq, trace = run_bargaining(example4_game, BargainConfig(step=50.0))
    assert trace.refinements
    assert trace.diagnostics
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
        run_bargaining(example4_game, BargainConfig(max_rounds=10, log_messages=True))
    trace = exc.value.trace
    assert trace.rounds == [] and trace.messages == [] and trace.equilibrium is None
    [diag] = trace.diagnostics
    assert "max_rounds=10" in diag
    needed = int(re.search(r"needs at least (\d+) rounds", diag).group(1))
    assert 10 < needed <= 8245
    assert trace.to_csv() == "round,price,peer_id,demand,total_demand\n"


def test_bargaining_round_one_overshoot_raises():
    # demand at the top cutoff rounds to 4.44e-16, already past a 1e-16
    # capacity by more than the tolerance: no lower price can fall back
    game = make_game(1e-16, [(418.046786856015, 2.220558632734762)])
    with pytest.raises(ConvergenceError) as exc:
        run_bargaining(game, BargainConfig(tolerance=1e-17))
    trace = exc.value.trace
    [probe] = trace.rounds
    assert probe.index == 1 and not probe.accepted and probe.total > 1e-16
    assert trace.refinements == [] and trace.equilibrium is None
    [diag] = trace.diagnostics
    assert diag.startswith("round 1: demand ") and "overshot capacity" in diag


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
    decrements = len(trace.accepted_rounds()) - 1
    assert decrements <= (mu0 - mu_star) / cfg.step + 1


def test_bargaining_message_log_optional(example4_game):
    _, lean = run_bargaining(example4_game, BargainConfig(step=1.0))
    assert not lean.messages
    _, logged = run_bargaining(
        example4_game, BargainConfig(step=1.0, log_messages=True)
    )
    assert logged.messages
    by_sender = {}
    for m in logged.messages:
        by_sender.setdefault(m.sender, []).append(m.seq)
    for sender, seqs in by_sender.items():
        assert sorted(seqs) == list(range(1, len(seqs) + 1))
        if sender != "uploader":
            assert seqs == sorted(seqs)


def test_both_schemes_agree_on_random_instances():
    rng = random.Random(103)
    checked = 0
    while checked < 100:
        game = random_oversubscribed(rng)
        direct_eq, _ = run_direct(game)
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
        final_step = trace.refinements[-1].new_step if trace.refinements else step
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


def test_message_logging_changes_only_the_message_log():
    rng = random.Random(211)
    reordered = False
    for _ in range(60):
        game = random_oversubscribed(rng)
        top = max(p.cutoff_price for p in game.peers)
        bottom = min(p.saturation_price for p in game.peers)
        knobs = dict(step=(top - 0.5 * bottom) / 100.0,
                     tolerance=max(1e-4 * game.uploader_capacity, 1e-9),
                     max_refinements=14)
        logs = []
        for seed in (0, 1, 2):
            lean_eq, lean = run_bargaining(game, BargainConfig(**knobs), seed=seed)
            eq, trace = run_bargaining(
                game, BargainConfig(log_messages=True, **knobs), seed=seed)
            assert not lean.messages and trace.messages
            assert eq == lean_eq
            assert trace.to_csv() == lean.to_csv()
            assert trace.rounds == lean.rounds
            assert trace.refinements == lean.refinements
            assert trace.diagnostics == lean.diagnostics
            assert replay(lean, game) and replay(trace, game)
            by_round = {r.index: r.demands for r in trace.rounds}
            assert all(m.bandwidth == by_round[m.round_index][m.sender]
                       for m in trace.messages if m.kind is MessageKind.DEMAND)
            logs.append(trace.messages)
        # the seed reorders deliveries but never changes what is sent
        assert Counter(logs[0]) == Counter(logs[1]) == Counter(logs[2])
        reordered = reordered or logs[0] != logs[1]
    assert reordered


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
                diagnostics=trace.diagnostics, refinements=trace.refinements)


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
                assert out["rounds"] == ref["rounds"][:max_rounds]
                assert out["diagnostics"][-1] == limit
                assert out["refinements"] == [
                    ev for ev in ref["refinements"] if ev.round_index <= max_rounds]
            else:
                refused += 1
                [diag] = out["diagnostics"]
                assert diag.startswith(limit + ":") and not out["refinements"]
                stated = int(re.search(r"needs at least (\d+) rounds", diag).group(1))
                assert max_rounds < stated <= needed
    assert refused > 40 and walked_to_limit > 40
