"""Entry points either work or fail fast with a diagnosis, on numbers from
anywhere in the positive float range (5e-324 to 1.7e308).

`credshare bargain`: every session either exits 0 with a trace that
replays and ends within epsilon of the capacity, or exits 1 (a validation
problem) or 2 (a walk that cannot converge) with diagnostic lines only,
never a traceback. A --max-rounds past the float range changes nothing
for a session that ended within a smaller limit, and a step too small to
move the opening price ends the session at once even under that limit.

`credshare simulate`: every scenario either exits 0 with the library's
rendering of run_scenario and a conserved ledger, or exits 1 or 2 with
exactly one `credshare:` line, never a traceback.

`credshare solve` (with and without --oracle) and both sweeps: every
instance either exits 0 with the library's result and nothing on stderr,
or exits 1 or 2 with exactly one `credshare:` line.

Every call shows each warning it raises on its stderr, so a numpy
overflow warning fails an exit 0 as a traceback would.
"""

import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, strategies as st

from credshare.cli import main
from credshare.experiments import capacity_sweep, price_sweep
from credshare.formatting import format_sig
from credshare.interchange import load_instance, load_scenario
from credshare.model import LN2, UPLOADER_ID
from credshare.protocol import BargainConfig, replay, run_bargaining
from credshare.simulator import EventKind, Ledger, ledger_csv, run_scenario
from credshare.solver import solve

POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308)
BEYOND_FLOAT_RANGE = 10 ** 400


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call; every warning
    the call raises is shown on its stderr, as a command line run shows it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


def _bargain(path, knobs):
    """(exit code, stdout, stderr) of `credshare bargain path` with knobs."""
    argv = ["bargain", str(path)]
    for flag, value in knobs.items():
        argv += [flag, str(value)]
    return _cli(argv)


@st.composite
def bargain_sessions(draw):
    peers = [{"id": f"p{i}", "credits": draw(POSITIVE), "capacity": draw(POSITIVE)}
             for i in range(draw(st.integers(1, 4)))]
    instance = {"uploader_capacity": draw(POSITIVE), "peers": peers}
    knobs = {flag: draw(st.none() | POSITIVE)
             for flag in ("--step", "--epsilon", "--initial-price")}
    knobs["--max-rounds"] = draw(st.integers(1, 2000))
    knobs["--max-refinements"] = draw(st.integers(0, 20))
    # the opening price: the initial price, or the largest cutoff as
    # PeerProfile computes it
    mu0 = knobs["--initial-price"] or max(
        p["credits"] / p["capacity"] / LN2 for p in peers)
    sub_ulp = math.ulp(mu0) * draw(st.floats(2.0 ** -60, 0.25))
    if draw(st.booleans()) and 0.0 < sub_ulp and mu0 - sub_ulp == mu0:
        # a step that leaves the opening price unchanged ends the walk in
        # round 1 even when no round limit could
        knobs["--step"] = sub_ulp
        knobs["--max-rounds"] = BEYOND_FLOAT_RANGE
    return instance, {flag: value for flag, value in knobs.items() if value is not None}


@given(session=bargain_sessions())
def test_bargain_works_or_fails_fast(session, tmp_path_factory):
    instance, knobs = session
    path = tmp_path_factory.getbasetemp() / "bargain_instance.json"
    path.write_text(json.dumps(instance))
    code, out, err = _bargain(path, knobs)
    lines = err.splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("credshare: "), err
        return
    assert code in (0, 2), err
    assert all(line.startswith("bargain: ") for line in lines), err
    if code == 0:
        game = load_instance(str(path))
        cfg = BargainConfig(initial_price=knobs.get("--initial-price"),
                            step=knobs.get("--step", 0.01),
                            tolerance=knobs.get("--epsilon", 0.001),
                            max_rounds=knobs["--max-rounds"],
                            max_refinements=knobs["--max-refinements"])
        _, trace = run_bargaining(game, cfg)
        assert out == trace.to_csv()
        assert replay(trace, game)
        assert abs(trace.rounds[-1].total - game.uploader_capacity) < cfg.tolerance
    else:
        assert lines, "exit 2 without a diagnostic"
    if code == 2 and "max_rounds=" in err:
        return  # a larger limit may let this walk run on
    huge = {**knobs, "--max-rounds": BEYOND_FLOAT_RANGE}
    assert _bargain(path, huge) == (code, out, err)


@st.composite
def churn_scenarios(draw):
    """Joins, leaves, rejoins and settles at sorted times, every number
    drawn from the whole positive float range."""
    times = sorted(draw(st.lists(POSITIVE, min_size=1, max_size=12)))
    events, present, departed = [], [], []
    for time in times:
        kind = draw(st.sampled_from(("join", "join", "leave", "settle")))
        if kind == "join" or not present:
            if departed and draw(st.booleans()):
                peer = departed.pop()
            else:
                peer = {"id": f"p{len(events)}", "credits": draw(POSITIVE),
                        "capacity": draw(POSITIVE)}
            present.append(peer)
            events.append({"time": time, "kind": "join", "peer": peer})
        elif kind == "leave":
            peer = present.pop(draw(st.integers(0, len(present) - 1)))
            departed.append(peer)
            events.append({"time": time, "kind": "leave", "peer": {"id": peer["id"]}})
        else:
            events.append({"time": time, "kind": "settle", "duration": draw(POSITIVE)})
    return {"uploader_capacity": draw(POSITIVE), "events": events}


def _assert_conserved(ledger, events):
    """Replaying the log on the endowments lands on the ledger's balances
    bit for bit, no payer pays more than it holds, and the total stays
    within rounding of the endowment."""
    endowments = {UPLOADER_ID: 0.0}
    for ev in events:
        if ev.kind is EventKind.JOIN:
            endowments.setdefault(ev.peer.id, ev.peer.credits)
    replayed = dict(endowments)
    for _, payer, payee, amount in ledger.log:
        assert 0.0 < amount <= replayed[payer], (payer, amount, replayed[payer])
        replayed[payer] -= amount
        replayed[payee] += amount
    assert replayed == ledger.balances
    assert all(balance >= 0.0 for balance in ledger.balances.values())
    total, endowed = ledger.total(), Ledger(endowments).total()
    assert total == endowed or abs(total - endowed) <= 1e-9 * endowed, (total, endowed)


@given(scenario=churn_scenarios())
def test_simulate_works_or_fails_fast(scenario, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "churn_scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = _cli(["simulate", str(path)])
    if code != 0:
        assert code in (1, 2), err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("credshare: "), err
        return
    assert err == ""
    capacity, events = load_scenario(str(path))
    timeline, ledger = run_scenario(capacity, events)
    assert out == timeline.to_csv() + "== ledger ==\n" + ledger_csv(ledger)
    _assert_conserved(ledger, events)


@st.composite
def instances(draw):
    peers = [{"id": f"p{i}", "credits": draw(POSITIVE | st.just(0.0)),
              "capacity": draw(POSITIVE)}
             for i in range(draw(st.integers(1, 4)))]
    return {"uploader_capacity": draw(POSITIVE), "peers": peers}


def _instance_cli(tmp_path_factory, instance, argv):
    """(exit code, stdout, instance path) of `credshare argv[0] path
    argv[1:]`; an exit 1 or 2 must print exactly one `credshare:` line, and
    an exit 0 nothing on stderr."""
    path = tmp_path_factory.getbasetemp() / "instance.json"
    path.write_text(json.dumps(instance))
    code, out, err = _cli([argv[0], str(path), *argv[1:]])
    if code == 0:
        assert err == "", err
    else:
        assert code in (1, 2), err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("credshare: "), err
    return code, out, str(path)


# two peers whose demand quotient credits / (price ln2) is far from
# overflow, and one whose quotient overflowed just above its saturation
# price: the grid oracle multiplied an infinite demand and warned
_QUOTIENT_OVERFLOW = {"uploader_capacity": 1e-150, "peers": [
    {"id": "p0", "credits": 1e150, "capacity": 1e300},
    {"id": "p1", "credits": 1.7e308, "capacity": 1.7e308},
    {"id": "p2", "credits": 0.0, "capacity": 1e-9}]}


@given(instance=instances(), oracle=st.booleans())
@example(instance=_QUOTIENT_OVERFLOW, oracle=True)
def test_solve_works_or_fails_fast(instance, oracle, tmp_path_factory):
    argv = ["solve", "--oracle"] if oracle else ["solve"]
    code, out, path = _instance_cli(tmp_path_factory, instance, argv)
    if code == 0:
        eq = solve(load_instance(path))
        assert out.startswith(f"price: {format_sig(eq.price)}\nregion: {eq.region.value}\n")
        assert ("oracle_agrees: " in out) == oracle


@given(instance=instances(), steps=st.integers(1, 4),
       bounds=st.none() | st.tuples(POSITIVE, POSITIVE))
def test_price_sweep_works_or_fails_fast(instance, steps, bounds, tmp_path_factory):
    argv = ["sweep", "--sweep", "price", "--steps", str(steps)]
    if bounds is not None:
        argv += ["--range", *map(repr, sorted(bounds))]
    code, out, path = _instance_cli(tmp_path_factory, instance, argv)
    if code == 0:
        lo, hi = sorted(bounds) if bounds else (None, None)
        assert out == price_sweep(load_instance(path), lo, hi, steps)


@given(instance=instances(), steps=st.integers(1, 4), oracle=st.booleans(),
       bounds=st.none() | st.tuples(POSITIVE | st.just(0.0), POSITIVE))
def test_capacity_sweep_works_or_fails_fast(instance, steps, oracle, bounds,
                                            tmp_path_factory):
    argv = ["sweep", "--sweep", "capacity", "--steps", str(steps)]
    if bounds is not None:
        argv += ["--range", *map(repr, sorted(bounds))]
    if oracle:
        argv.append("--oracle")
    code, out, path = _instance_cli(tmp_path_factory, instance, argv)
    if code == 0:
        lo, hi = sorted(bounds) if bounds else (0.0, None)
        assert out == capacity_sweep(load_instance(path), lo, hi, steps, oracle=oracle)
