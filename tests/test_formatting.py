import math
import random
import struct

import numpy
import pytest

from credshare import BargainConfig, ConvergenceError, PeerProfile, run_bargaining
from credshare.experiments import example_game, example_scenario
from credshare.formatting import NUMBER, SIG_DIGITS, csv_text, format_sig
from credshare.oracle import GridSpec, grid_search_price, revenue_agreement
from credshare.simulator import EventKind, ScenarioEvent, ledger_csv, run_scenario


def format_sig_reference(value):
    """format_sig before its float fast path, kept as the reference."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    if value == 0.0:
        return "0"
    return "{:.{p}g}".format(float(value), p=SIG_DIGITS)


def _random_doubles(rng, count):
    """Floats from raw 64-bit patterns. Half keep the pattern as drawn; the
    rest clear or fill the exponent (and maybe the mantissa) to reach ±0.0,
    subnormals, ±inf and nans, which raw patterns hit once in 2048 draws."""
    exponent, mantissa = 0x7FF << 52, (1 << 52) - 1
    for _ in range(count):
        bits = rng.getrandbits(64)
        edge = rng.randrange(8)
        if edge in (0, 1):
            bits &= ~exponent
        elif edge in (2, 3):
            bits |= exponent
        if edge in (1, 3):
            bits &= ~mantissa
        yield struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def test_format_sig_floats_match_the_reference():
    rng = random.Random(5)
    values = [*_random_doubles(rng, 20000), -0.0, -math.nan, 5e-324]
    kinds = {"zero": 0, "subnormal": 0, "inf": 0, "nan": 0}
    for value in values:
        for x in (value, numpy.float64(value)):
            assert format_sig(x) == format_sig_reference(x)
        if value == 0.0:
            kinds["zero"] += 1
        elif 0.0 < abs(value) < 2.2250738585072014e-308:
            kinds["subnormal"] += 1
        elif math.isinf(value):
            kinds["inf"] += 1
        elif math.isnan(value):
            kinds["nan"] += 1
    assert min(kinds.values()) > 100


def test_format_sig_fixed_cases():
    cases = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
             10**7, True, False, None, "x,y", "", numpy.float64(-0.0),
             numpy.float64(1234567.5), numpy.float64("nan"), 1e16, 0.1]
    for value in cases:
        assert format_sig(value) == format_sig_reference(value)
    assert format_sig(10**7) == "10000000"
    assert format_sig(True) == "True"
    assert format_sig(-0.0) == format_sig(numpy.float64(-0.0)) == "0"


def test_number_pattern_renders_every_float_as_format_sig():
    # the simulator's row writers apply NUMBER to `x or 0.0` in one
    # %-operation per row instead of calling format_sig per field
    rng = random.Random(7)
    fixed = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
             -5e-324, 2.2250738585072009e-308, 1e16, 0.1, 1234567.5]
    for value in [*_random_doubles(rng, 20000), *fixed]:
        assert NUMBER % (value or 0.0) == format_sig(value), value.hex()
    row = f"x,{NUMBER},%s,{NUMBER}"
    assert row % (-0.0 or 0.0, "a%sb", math.nan or 0.0) == "x,0,a%sb,nan"


def test_csv_text_takes_a_str_row_as_a_finished_line():
    rows = [(1, 2.5, None, -0.0, math.inf, -math.inf, math.nan, "x,y", ""),
            "a,1.23456789,,nan,-0.0",
            (numpy.float64(1234567.5), 1e-310, True, numpy.float64(-0.0)),
            ""]
    assert csv_text(("h", 0.1), rows) == (
        "h,0.1\n"
        "1,2.5,,0,inf,-inf,nan,x,y,\n"
        "a,1.23456789,,nan,-0.0\n"
        "1.23457e+06,1e-310,True,0\n"
        "\n")
    # a row of fields renders field by field, as format_sig_reference does
    lines = csv_text(("h",), rows).split("\n")
    for row, line in zip(rows, lines[1:]):
        if not isinstance(row, str):
            assert line == ",".join(map(format_sig_reference, row))


def _plain_trace_csv(trace):
    """ProtocolTrace.to_csv as csv_text over unformatted rows."""
    rows = [(k, r.price, pid, x, r.total)
            for k, r in enumerate(trace.rounds, 1) for pid, x in r.demands.items()]
    if trace.rounds:
        rows.append(("summary", trace.rounds[-1].price, "", "", trace.rounds[-1].total))
    return csv_text(("round", "price", "peer_id", "demand", "total_demand"), rows)


def test_trace_csv_matches_plain_rows():
    game = example_game("example4")
    _, refined = run_bargaining(game, BargainConfig(step=50.0))
    assert not all(r.accepted for r in refined.rounds)  # it refined
    with_zero = type(game)(game.uploader_capacity,
                          [*game.peers, PeerProfile("idle", 0.0, 1.0)])
    _, walked = run_bargaining(with_zero, BargainConfig(step=1.0))
    with pytest.raises(ConvergenceError) as exc:
        run_bargaining(game, BargainConfig(max_rounds=10))
    refused = exc.value.trace
    assert not refused.rounds
    for trace in (refined, walked, refused):
        assert trace.to_csv() == _plain_trace_csv(trace)


def _agreement(ep):
    if ep.equilibrium is None or ep.game is None:
        return ""
    spec = GridSpec.for_game(ep.game)
    _, oracle_revenue = grid_search_price(ep.game, spec)
    close = revenue_agreement(ep.game, ep.equilibrium.revenue, oracle_revenue, spec)
    return "yes" if close else "no"


def _plain_timeline_csv(timeline, oracle_check):
    """TimelineRecord.to_csv as csv_text over unformatted rows."""
    rows = []
    for ep in timeline.epochs:
        extra = (_agreement(ep),) if oracle_check else ()
        if ep.equilibrium is None:
            rows.append((ep.start, ep.end, "", "", "", "", *extra))
            continue
        eq = ep.equilibrium
        rows.extend((ep.start, ep.end, eq.price, pid, eq.allocation[pid],
                     eq.utilities[pid], *extra) for pid in sorted(ep.peer_ids))
    header = ("epoch_start", "epoch_end", "price", "peer_id", "allocation", "utility")
    return csv_text(header + (("oracle_agrees",) if oracle_check else ()), rows)


def test_timeline_csv_matches_plain_rows():
    capacity, events = example_scenario("example4")
    joined = events[0].peer
    gap = (ScenarioEvent(0.0, EventKind.JOIN, peer=joined),
           ScenarioEvent(1.5, EventKind.LEAVE, peer_id=joined.id),
           ScenarioEvent(2.25, EventKind.JOIN, peer=joined))
    for capacity, events in ((capacity, events), (capacity, gap)):
        timeline, _ = run_scenario(capacity, events)
        for oracle_check in (False, True):
            assert timeline.to_csv(oracle_check=oracle_check) == \
                _plain_timeline_csv(timeline, oracle_check)
    assert any(ep.equilibrium is None for ep in timeline.epochs)


def _plain_ledger_csv(ledger):
    """ledger_csv as csv_text over unformatted rows."""
    rows = [("transaction", e.time, e.payer, e.payee, e.amount) for e in ledger.log]
    rows.extend(("balance", "", "", account, ledger.balances[account])
                for account in sorted(ledger.balances))
    return csv_text(("record", "time", "payer", "payee", "amount"), rows)


def test_ledger_csv_matches_plain_rows():
    a, b = PeerProfile("a", 400.0, 2.0), PeerProfile("b", 300.0, 1.5)
    events = [ScenarioEvent(0.0, EventKind.JOIN, peer=a),
              ScenarioEvent(1.0, EventKind.JOIN, peer=b),
              ScenarioEvent(1.5, EventKind.SETTLE),
              ScenarioEvent(2.0, EventKind.LEAVE, peer_id="b"),
              ScenarioEvent(3.0, EventKind.LEAVE, peer_id="a"),
              ScenarioEvent(4.25, EventKind.JOIN, peer=a),
              *(ScenarioEvent(5.0 + k, EventKind.SETTLE) for k in range(3)),
              ScenarioEvent(8.0, EventKind.JOIN, peer=b),
              ScenarioEvent(9.0, EventKind.SETTLE)]
    timeline, ledger = run_scenario(2.0, events)
    # the last leave emptied the roster, a rejoined having spent, and a's
    # last payment took what was left of its balance
    assert any(ep.equilibrium is None for ep in timeline.epochs)
    assert ledger.exhausted == {"a"} and ledger.balance("a") == 0.0
    assert [e.payer for e in ledger.log] == ["a", "b", "a", "a", "b"]
    assert ledger_csv(ledger) == _plain_ledger_csv(ledger)
    assert timeline.to_csv() == _plain_timeline_csv(timeline, False)
    empty = type(ledger)()
    assert ledger_csv(empty) == _plain_ledger_csv(empty) == \
        "record,time,payer,payee,amount\nbalance,,,uploader,0\n"
