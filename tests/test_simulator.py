import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import credshare.simulator
from credshare import (
    ConvergenceError,
    Epoch,
    EventKind,
    GameInstance,
    Ledger,
    PeerProfile,
    ScenarioEvent,
    TimelineRecord,
    ValidationError,
    apply_transaction,
    ledger_csv,
    run_scenario,
    solve,
)
from credshare.experiments import example_scenario
from credshare.simulator import validate_scenario

from conftest import ldexp_normal, make_game
from reference import churn_check
from test_solver_scan import _bits

# per-epoch expectations for the staggered-join scenario, from the
# all-interior closed form mu = sum(c) / ((u_k + sum(d)) ln2)
EPOCH_TABLE = [
    (144.26950408889635, {"peer1": 2.0}),
    (183.61573247677717, {"peer1": 8.0 / 7.0, "peer2": 6.0 / 7.0}),
    (199.75777489231803, {"peer1": 8.0 / 9.0, "peer2": 6.0 / 9.0, "peer3": 4.0 / 9.0}),
    (206.09929155556623, {"peer1": 0.8, "peer2": 0.6, "peer3": 0.4, "peer4": 0.2}),
]


def test_staggered_join_timeline():
    capacity, events = example_scenario("example4")
    timeline, ledger = run_scenario(capacity, events)
    assert [ep.start for ep in timeline.epochs] == [20.0, 40.0, 60.0, 80.0]
    assert [ep.end for ep in timeline.epochs] == [40.0, 60.0, 80.0, math.inf]
    for ep, (price, allocs) in zip(timeline.epochs, EPOCH_TABLE):
        assert ep.equilibrium.price == pytest.approx(price, abs=1e-3)
        for pid, x in allocs.items():
            assert ep.equilibrium.allocation[pid] == pytest.approx(x, abs=1e-3)
    assert not ledger.log  # no settle events


def test_staggered_leave_mirrors_join_epochs():
    tl_join, _ = run_scenario(*example_scenario("example4"))
    tl_leave, _ = run_scenario(*example_scenario("example5"))
    by_count_join = {len(ep.peer_ids): ep.equilibrium for ep in tl_join.epochs}
    by_count_leave = {len(ep.peer_ids): ep.equilibrium for ep in tl_leave.epochs}
    assert set(by_count_join) == set(by_count_leave) == {1, 2, 3, 4}
    for count, eq in by_count_join.items():
        other = by_count_leave[count]
        assert other.price == eq.price
        assert dict(other.allocation.items()) == dict(eq.allocation.items())


def test_every_oversubscribed_epoch_fully_allocated():
    for name in ("example4", "example5"):
        timeline, _ = run_scenario(*example_scenario(name))
        for ep in timeline.epochs:
            if ep.game is not None and ep.game.oversubscribed:
                assert ep.equilibrium.total_allocation == pytest.approx(
                    2.0, rel=1e-9
                )


def test_tied_ratio_epochs_allocate_proportionally_to_credits():
    timeline, _ = run_scenario(*example_scenario("example4"))
    for ep in timeline.epochs:
        eq = ep.equilibrium
        peers = {p.id: p for p in ep.game.peers}
        ids = list(ep.peer_ids)
        if len(ids) < 2:
            continue
        for a in ids:
            for b in ids:
                if a == b or eq.allocation[b] == 0.0:
                    continue
                ratio = eq.allocation[a] / eq.allocation[b]
                assert ratio == pytest.approx(
                    peers[a].credits / peers[b].credits, abs=1e-6
                )


def test_empty_event_list():
    timeline, ledger = run_scenario(2.0, [])
    assert timeline.epochs == ()
    assert ledger.balances == {"uploader": 0.0}
    assert not ledger.log


def test_sole_peer_leaving_creates_empty_epoch():
    peer = PeerProfile("peer1", 400.0, 2.0)
    events = [
        ScenarioEvent(10.0, EventKind.JOIN, peer=peer),
        ScenarioEvent(30.0, EventKind.LEAVE, peer_id="peer1"),
    ]
    timeline, _ = run_scenario(2.0, events)
    assert len(timeline.epochs) == 2
    assert timeline.epochs[1].equilibrium is None
    assert timeline.epochs[1].peer_ids == ()


def test_leave_of_absent_peer_rejected_before_execution():
    events = [ScenarioEvent(10.0, EventKind.LEAVE, peer_id="ghost")]
    with pytest.raises(ValidationError):
        run_scenario(2.0, events)


def test_out_of_order_events_rejected():
    p = PeerProfile("peer1", 400.0, 2.0)
    events = [
        ScenarioEvent(10.0, EventKind.JOIN, peer=p),
        ScenarioEvent(5.0, EventKind.SETTLE),
    ]
    with pytest.raises(ValidationError):
        run_scenario(2.0, events)


def test_an_event_kind_that_is_not_an_event_kind_is_refused():
    p = PeerProfile("peer1", 400.0, 2.0)
    with pytest.raises(ValidationError, match="got 'join'"):
        run_scenario(1.0, [ScenarioEvent(1.0, "join", peer=p)])


@pytest.mark.parametrize("peer", [None, "peer1",
                                  {"id": "peer1", "credits": 400.0, "capacity": 2.0}])
def test_a_join_without_a_peer_profile_is_refused(peer):
    with pytest.raises(ValidationError, match="requires a peer profile, got "):
        run_scenario(1.0, [ScenarioEvent(1.0, EventKind.JOIN, peer=peer)])


# --- transactions ------------------------------------------------------------

def test_settlement_of_four_peer_equilibrium(example4_game):
    eq = solve(example4_game)
    ledger = Ledger()
    for p in example4_game.peers:
        ledger.register(p.id, p.credits)
    total_before = ledger.total()
    apply_transaction(ledger, eq, 90.0)
    debits = {
        "peer1": 164.88, "peer2": 123.66, "peer3": 82.44, "peer4": 41.22,
    }
    peers = {p.id: p for p in example4_game.peers}
    for pid, debit in debits.items():
        peer = peers[pid]
        assert ledger.balance(pid) == pytest.approx(peer.credits - debit, abs=0.01)
    assert ledger.balance("uploader") == pytest.approx(412.20, abs=0.01)
    assert ledger.total() == pytest.approx(total_before, abs=1e-9)
    assert len(ledger.log) == 4
    assert all(e.time == 90.0 and e.payee == "uploader" for e in ledger.log)


def test_zero_allocation_peer_not_charged():
    game = make_game(2.0, [(400, 2), (0, 3)])
    eq = solve(game)
    ledger = Ledger()
    ledger.register("peer1", 400.0)
    ledger.register("peer2", 0.0)
    apply_transaction(ledger, eq, 1.0)
    assert ledger.balance("peer2") == 0.0
    assert all(e.payer != "peer2" for e in ledger.log)


def test_repeated_settlement_truncates_at_exhaustion():
    peer = PeerProfile("peer1", 400.0, 2.0)
    events = [
        ScenarioEvent(0.0, EventKind.JOIN, peer=peer),
        ScenarioEvent(10.0, EventKind.SETTLE),
        ScenarioEvent(20.0, EventKind.SETTLE),
        ScenarioEvent(30.0, EventKind.SETTLE),
    ]
    timeline, ledger = run_scenario(2.0, events)
    assert ledger.balance("peer1") == pytest.approx(0.0, abs=1e-9)
    assert ledger.balance("uploader") == pytest.approx(400.0, abs=1e-9)
    assert "peer1" in ledger.exhausted
    assert ledger.total() == pytest.approx(400.0, abs=1e-9)


def test_spending_lowers_priority_at_next_churn():
    p1 = PeerProfile("peer1", 400.0, 2.0)
    p2 = PeerProfile("peer2", 300.0, 1.5)
    p3 = PeerProfile("peer3", 200.0, 1.0)
    events = [
        ScenarioEvent(0.0, EventKind.JOIN, peer=p1),
        ScenarioEvent(10.0, EventKind.JOIN, peer=p2),
        ScenarioEvent(20.0, EventKind.SETTLE),
        ScenarioEvent(30.0, EventKind.JOIN, peer=p3),
    ]
    timeline, ledger = run_scenario(2.0, events)
    final = timeline.epochs[-1]
    expected = solve(
        GameInstance(2.0, [
            PeerProfile("peer1", ledger.balance("peer1"), 2.0),
            PeerProfile("peer2", ledger.balance("peer2"), 1.5),
            PeerProfile("peer3", 200.0, 1.0),
        ])
    )
    assert final.equilibrium.price == expected.price
    assert dict(final.equilibrium.allocation.items()) == dict(
        expected.allocation.items()
    )
    # the settle really drained the first epoch's payers
    assert ledger.balance("peer1") < 400.0
    assert ledger.balance("peer2") < 300.0


def test_settle_before_any_join_is_noop():
    events = [ScenarioEvent(0.0, EventKind.SETTLE)]
    timeline, ledger = run_scenario(2.0, events)
    assert timeline.epochs == ()
    assert not ledger.log


def test_determinism():
    capacity, events = example_scenario("example4")
    first = run_scenario(capacity, events)
    second = run_scenario(capacity, events)
    assert first[0] == second[0]
    assert first[1].balances == second[1].balances
    assert first[1].log == second[1].log


def test_epochs_contiguous_and_match_solve():
    rng = random.Random(109)
    for _ in range(20):
        capacity, events = _random_scenario(rng)
        timeline, _ = run_scenario(capacity, events)
        for a, b in zip(timeline.epochs, timeline.epochs[1:]):
            assert a.end == b.start
            assert a.start < a.end
        for ep in timeline.epochs:
            if ep.game is None:
                continue
            again = solve(ep.game)
            assert again.price == ep.equilibrium.price
            assert dict(again.allocation.items()) == dict(
                ep.equilibrium.allocation.items()
            )


# --- churn checks --------------------------------------------------------------

def test_churn_check_on_departure():
    tl, _ = run_scenario(*example_scenario("example5"))
    four, three = tl.epochs[0].equilibrium, tl.epochs[1].equilibrium
    contribution = four.price * four.allocation["peer4"]
    assert churn_check(four, three, departed_contribution=contribution)


def test_churn_check_low_ratio_join_sustains_equilibrium():
    lone = solve(make_game(2.0, [(400, 2)]))
    joined = solve(
        GameInstance(2.0, [PeerProfile("peer1", 400, 2), PeerProfile("drifter", 1, 100)])
    )
    assert joined.price == pytest.approx(lone.price, rel=1e-12)
    assert joined.allocation["drifter"] == 0.0
    assert not churn_check(lone, joined)  # no strict revenue increase


def test_churn_check_join_into_empty_network():
    eq = solve(make_game(2.0, [(400, 2)]))
    assert churn_check(None, eq)


# --- conservation over random scenarios ----------------------------------------

def _random_scenario(rng: random.Random):
    events = []
    time = 0.0
    present = {}
    next_id = 1
    for _ in range(rng.randint(1, 25)):
        time += rng.uniform(0.1, 10.0)
        roll = rng.random()
        if roll < 0.5 or not present:
            pid = f"p{next_id}"
            next_id += 1
            peer = PeerProfile(pid, rng.uniform(0, 500), rng.uniform(0.1, 5))
            present[pid] = peer
            events.append(ScenarioEvent(time, EventKind.JOIN, peer=peer))
        elif roll < 0.75:
            pid = rng.choice(sorted(present))
            del present[pid]
            events.append(ScenarioEvent(time, EventKind.LEAVE, peer_id=pid))
        else:
            events.append(
                ScenarioEvent(time, EventKind.SETTLE, duration=rng.uniform(0.1, 5))
            )
    return rng.uniform(0.5, 10.0), events


def test_credit_conservation_over_random_scenarios():
    rng = random.Random(107)
    for _ in range(100):
        capacity, events = _random_scenario(rng)
        joined_credits = sum(
            ev.peer.credits for ev in events if ev.kind is EventKind.JOIN
        )
        _, ledger = run_scenario(capacity, events)
        slack = max(1e-9, 1e-9 * len(ledger.log))
        assert ledger.total() == pytest.approx(joined_credits, abs=slack)
        assert all(b >= -1e-12 for b in ledger.balances.values())


# --- profiles kept across epochs -----------------------------------------------

def _reference_run(uploader_capacity, events):
    """run_scenario as it was before profiles were kept: every re-solve builds
    a fresh profile for every present peer from its ledger balance."""
    events = list(events)
    validate_scenario(events)
    ledger = Ledger()
    epochs, present = [], {}
    open_start, open_eq, open_game = None, None, None
    for ev in events:
        if ev.kind is EventKind.SETTLE:
            if open_eq is not None:
                apply_transaction(ledger, open_eq, ev.time)
            continue
        if open_start is not None and ev.time > open_start:
            epochs.append(Epoch(open_start, ev.time, open_eq, open_game))
        if ev.kind is EventKind.JOIN:
            ledger.register(ev.peer.id, ev.peer.credits)
            present[ev.peer.id] = ev.peer
        else:
            del present[ev.peer_id]
        open_start, open_eq, open_game = ev.time, None, None
        if present:
            open_game = GameInstance(uploader_capacity, [
                PeerProfile(p.id, ledger.balance(p.id), p.capacity)
                for p in present.values()])
            open_eq = solve(open_game)
    if open_start is not None:
        epochs.append(Epoch(open_start, math.inf, open_eq, open_game))
    return TimelineRecord(tuple(epochs)), ledger


def _roster_bits(game):
    if game is None:
        return None
    return [(p.id, p.credits.hex(), p.capacity.hex()) for p in game.peers]


def _run_outcome(run, capacity, events):
    """Every epoch's bits and roster, the timeline and ledger text, or the
    error the run raised."""
    try:
        timeline, ledger = run(capacity, events)
    except (ValidationError, ConvergenceError) as error:
        return type(error).__name__, str(error)
    epochs = [(ep.start, ep.end, ep.peer_ids, _roster_bits(ep.game),
               None if ep.equilibrium is None else _bits(ep.equilibrium))
              for ep in timeline.epochs]
    return epochs, timeline.to_csv(), ledger_csv(ledger)


def _settle_heavy_scenario(rng):
    """Joins, double settles that run payers dry, leaves, rejoins of
    departed peers under their first profile, and zero-credit joiners."""
    events, present, departed = [], {}, []
    time, serial = 0.0, 0
    for _ in range(rng.randint(4, 40)):
        time += rng.choice((0.0, 0.5, 1.0))
        roll = rng.random()
        if roll < 0.3 or not present:
            if departed and rng.random() < 0.3:
                peer = departed.pop(rng.randrange(len(departed)))
            else:
                serial += 1
                d = rng.uniform(0.1, 5.0)
                credits = 0.0 if rng.random() < 0.15 else 10 ** rng.uniform(-1, 3) * d
                peer = PeerProfile(f"p{serial}", credits, d)
            present[peer.id] = peer
            events.append(ScenarioEvent(time, EventKind.JOIN, peer=peer))
        elif roll < 0.45:
            peer = present.pop(rng.choice(sorted(present)))
            departed.append(peer)
            events.append(ScenarioEvent(time, EventKind.LEAVE, peer_id=peer.id))
        else:
            for _ in range(rng.randint(1, 3)):
                events.append(ScenarioEvent(time, EventKind.SETTLE))
    total = sum(p.capacity for p in present.values()) or 1.0
    return rng.uniform(0.1, 1.2) * total, events


def test_kept_profiles_give_the_bits_of_rebuilt_ones():
    rng = random.Random(113)
    rejoined_after_paying = exhausted = zero_joins = 0
    for _ in range(150):
        capacity, events = _settle_heavy_scenario(rng)
        kept = _run_outcome(run_scenario, capacity, events)
        assert kept == _run_outcome(_reference_run, capacity, events)
        _, ledger = run_scenario(capacity, events)
        seen = set()
        for ev in events:
            if ev.kind is EventKind.JOIN:
                rejoined_after_paying += ev.peer.id in seen and any(
                    e.payer == ev.peer.id and e.time < ev.time for e in ledger.log)
                zero_joins += ev.peer.credits == 0.0
                seen.add(ev.peer.id)
        exhausted += bool(ledger.exhausted)
    assert min(rejoined_after_paying, exhausted, zero_joins) >= 50, (
        rejoined_after_paying, exhausted, zero_joins)


@st.composite
def _scenarios(draw):
    """Joins, leaves, rejoins and runs of settles on small extreme-ish games."""
    events, present, departed = [], {}, []
    serial = 0
    for step in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(("join", "join", "leave", "settle")))
        if kind == "join" or not present:
            if departed and draw(st.booleans()):
                peer = departed.pop()
            else:
                serial += 1
                peer = PeerProfile(f"p{serial}",
                                   draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e4))),
                                   draw(st.floats(1e-2, 1e2)))
            present[peer.id] = peer
            events.append(ScenarioEvent(float(step), EventKind.JOIN, peer=peer))
        elif kind == "leave":
            peer = present.pop(draw(st.sampled_from(sorted(present))))
            departed.append(peer)
            events.append(ScenarioEvent(float(step), EventKind.LEAVE, peer_id=peer.id))
        else:
            events.extend(ScenarioEvent(float(step), EventKind.SETTLE)
                          for _ in range(draw(st.integers(1, 3))))
    return draw(st.floats(1e-2, 1e3)), events


@given(_scenarios())
def test_property_kept_profiles_give_the_bits_of_rebuilt_ones(scenario):
    capacity, events = scenario
    assert (_run_outcome(run_scenario, capacity, events)
            == _run_outcome(_reference_run, capacity, events))


@pytest.fixture
def built(monkeypatch):
    """The ids run_scenario builds a PeerProfile for, in call order."""
    ids = []
    original = credshare.simulator.PeerProfile

    def counting(peer_id, *args):
        ids.append(peer_id)
        return original(peer_id, *args)

    monkeypatch.setattr(credshare.simulator, "PeerProfile", counting)
    return ids


def test_growth_rebuilds_no_profile(built):
    rng = random.Random(127)
    events = [ScenarioEvent(float(t), EventKind.JOIN,
                            peer=PeerProfile(f"p{t}", rng.uniform(1.0, 500.0),
                                             rng.uniform(0.1, 5.0)))
              for t in range(30)]
    timeline, _ = run_scenario(10.0, events)
    assert len(timeline.epochs) == 30
    assert built == []


def test_a_join_after_a_settle_rebuilds_exactly_the_charged_payers(built):
    rng = random.Random(131)
    peers = [PeerProfile(f"p{i}", rng.uniform(1.0, 500.0), rng.uniform(0.1, 5.0))
             for i in range(12)]
    events = [ScenarioEvent(float(t), EventKind.JOIN, peer=p)
              for t, p in enumerate(peers)]
    events.append(ScenarioEvent(12.0, EventKind.SETTLE))
    events.append(ScenarioEvent(13.0, EventKind.JOIN,
                                peer=PeerProfile("late", 100.0, 1.0)))
    capacity = 0.5 * sum(p.capacity for p in peers)
    _, ledger = run_scenario(capacity, events)
    payers = [entry.payer for entry in ledger.log]
    assert 0 < len(payers) < len(peers)  # some peers were priced out
    assert sorted(built) == sorted(payers)


# --- scaling every joiner's credits by a power of two ------------------------

SCALINGS = (-8, -3, 1, 5, 20)


def _scaled(events, k):
    """The events with every joiner's credits times 2**k, or None when a
    scaled credit would leave the normal range."""
    scaled = []
    for ev in events:
        if ev.kind is EventKind.JOIN:
            credits = ldexp_normal(ev.peer.credits, k)
            if credits is None:
                return None
            ev = ScenarioEvent(ev.time, ev.kind,
                               peer=PeerProfile(ev.peer.id, credits, ev.peer.capacity))
        scaled.append(ev)
    return scaled


def _counted_run(capacity, events):
    """run_scenario's timeline and ledger and the count of profiles it
    rebuilt, or the type of the error it raised."""
    original = credshare.simulator.PeerProfile
    rebuilt = []

    def counting(peer_id, *args):
        rebuilt.append(peer_id)
        return original(peer_id, *args)

    credshare.simulator.PeerProfile = counting
    try:
        timeline, ledger = run_scenario(capacity, events)
    except (ValidationError, ConvergenceError) as error:
        return type(error)
    finally:
        credshare.simulator.PeerProfile = original
    return timeline, ledger, len(rebuilt)


def _assert_scales_exactly(capacity, events, k):
    """Prices, utilities, ledger amounts and balances times 2**k exactly;
    allocations, exhausted payers and rebuilt profiles unchanged. A game
    without a credited peer posts solve's nominal price 1.0 at any scale."""
    scaled = _scaled(events, k)
    if scaled is None:
        return False
    base, other = _counted_run(capacity, events), _counted_run(capacity, scaled)
    if isinstance(base, type):
        assert other is base
        return True
    (timeline, ledger, rebuilt), (timeline2, ledger2, rebuilt2) = base, other
    factor = math.ldexp(1.0, k)
    assert len(timeline2.epochs) == len(timeline.epochs)
    for ep, ep2 in zip(timeline.epochs, timeline2.epochs):
        assert (ep2.start, ep2.end, ep2.peer_ids) == (ep.start, ep.end, ep.peer_ids)
        eq, eq2 = ep.equilibrium, ep2.equilibrium
        if eq is None:
            assert eq2 is None
            continue
        assert eq2.price == (eq.price * factor if ep.game.credited() else 1.0)
        assert dict(eq2.allocation.items()) == dict(eq.allocation.items())
        assert eq2.utilities == {pid: u * factor for pid, u in eq.utilities.items()}
    assert ledger2.log == [(time, payer, payee, amount * factor)
                           for time, payer, payee, amount in ledger.log]
    assert ledger2.balances == {a: b * factor for a, b in ledger.balances.items()}
    assert ledger2.exhausted == ledger.exhausted
    assert rebuilt2 == rebuilt
    return True


def test_scaling_joiner_credits_by_a_power_of_two_scales_every_price_exactly():
    rng = random.Random(137)
    checked = 0
    for _ in range(40):
        capacity, events = _settle_heavy_scenario(rng)
        for k in SCALINGS:
            checked += _assert_scales_exactly(capacity, events, k)
    assert checked == 40 * len(SCALINGS)


@given(_scenarios(), st.sampled_from(SCALINGS))
def test_property_scaling_joiner_credits_by_a_power_of_two(scenario, k):
    _assert_scales_exactly(*scenario, k)
