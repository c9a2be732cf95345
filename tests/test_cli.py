import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import credshare
from credshare.cli import build_parser, main
from credshare.experiments import example_game, example_scenario
from credshare.interchange import save_instance, save_scenario
from credshare.model import LN2

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "example4.json"
    save_instance(example_game("example4"), path)
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "example4_scenario.json"
    capacity, events = example_scenario("example4")
    save_scenario(capacity, events, path)
    return str(path)


def _rows(csv_text):
    lines = [l for l in csv_text.strip().splitlines() if l]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_solve_report(instance_file, capsys):
    assert main(["solve", instance_file]) == 0
    out = capsys.readouterr().out
    assert "price: 206.099" in out
    assert "region: balance" in out
    for token in ("0.8", "0.6", "0.4", "0.2"):
        assert f",{token}," in out
    assert "revenue: 412.199" in out


def test_solve_with_oracle_agrees(instance_file, capsys):
    assert main(["solve", instance_file, "--oracle"]) == 0
    assert "oracle_agrees: yes" in capsys.readouterr().out


def test_solve_saturated_report(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({
        "uploader_capacity": 100,
        "peers": [{"id": "a", "credits": 10, "capacity": 1}],
    }))
    assert main(["solve", str(path)]) == 0
    assert "region: saturated" in capsys.readouterr().out


def test_solve_rejects_empty_peers(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"uploader_capacity": 2, "peers": []}))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == 1
    assert "credshare:" in capsys.readouterr().err


def test_unknown_flag_exits_1(instance_file, capsys):
    assert main(["solve", instance_file, "--format", "xml"]) == 1


def test_price_sweep_orders_by_credits(tmp_path, capsys):
    path = tmp_path / "example1.json"
    save_instance(example_game("example1"), path)
    assert main(["sweep", str(path), "--sweep", "price"]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header[:5] == ["price", "peer1", "peer2", "peer3", "peer4"]
    for row in rows:
        x = [float(v) for v in row[1:5]]
        # credits rise peer1 -> peer4, so allocations must too
        assert x[3] >= x[2] >= x[1] >= x[0]


def test_price_sweep_inverse_capacity_order_in_interior(tmp_path, capsys):
    path = tmp_path / "example2.json"
    game = example_game("example2")
    save_instance(game, path)
    assert main(["sweep", str(path), "--sweep", "price"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    interior_floor = max(p.saturation_price for p in game.peers)
    seen_interior = 0
    for row in rows:
        price = float(row[0])
        if price <= interior_floor:
            continue
        seen_interior += 1
        x = [float(v) for v in row[1:5]]
        # capacities rise peer1 -> peer4; interior allocations invert that
        assert x[0] >= x[1] >= x[2] >= x[3]
    assert seen_interior > 10


def test_price_sweeps_reject_oracle_flag(instance_file, capsys):
    assert main(["sweep", instance_file, "--sweep", "price", "--oracle"]) == 1
    assert "--oracle" in capsys.readouterr().err
    assert main(["example", "example1", "--oracle"]) == 1
    assert "no solves to check" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["price", "capacity"])
def test_sweep_rejects_zero_steps(instance_file, sweep, capsys):
    assert main(["sweep", instance_file, "--sweep", sweep, "--steps", "0"]) == 1
    assert "steps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("sweep, lo, hi", [
    ("price", "1", "inf"),
    ("price", "1", "1e308"),  # finite bounds, but span * steps overflows
    ("capacity", "0", "inf"),
    ("capacity", "0", "1e308"),
])
def test_sweep_rejects_non_finite_range(instance_file, sweep, lo, hi, capsys):
    argv = ["sweep", instance_file, "--sweep", sweep, "--range", lo, hi, "--steps", "3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"credshare: sweep range [{float(lo)}, {float(hi)}] "
                            "over 3 steps is not finite\n")


@pytest.mark.parametrize("sweep, lo", [("price", "1"), ("capacity", "0")])
def test_sweep_rejects_steps_beyond_the_float_range(instance_file, sweep, lo, capsys):
    steps = "1" + "0" * 400  # span * steps cannot convert it to a float
    argv = ["sweep", instance_file, "--sweep", sweep, "--range", lo, "2", "--steps", steps]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"credshare: sweep range [{float(lo)}, 2.0] "
                            f"over {steps} steps is not finite\n")


def test_capacity_sweep_entering_order_and_saturation(tmp_path, capsys):
    path = tmp_path / "example3.json"
    game = example_game("example3")
    save_instance(game, path)
    assert main(["sweep", str(path), "--sweep", "capacity",
                 "--range", "0", "600"]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header[0] == "uploader_capacity"
    first_seen = {}
    for row in rows:
        u_k = float(row[0])
        for pid, val in zip(("peer1", "peer2", "peer3", "peer4"), row[2:6]):
            if float(val) > 0 and pid not in first_seen:
                first_seen[pid] = u_k
    # higher-ratio peers (higher credits here) enter the allocation first
    assert first_seen["peer4"] <= first_seen["peer3"]
    assert first_seen["peer3"] <= first_seen["peer2"]
    assert first_seen["peer2"] <= first_seen["peer1"]
    final = rows[-1]
    assert float(final[0]) == 600.0
    assert all(float(v) == 150.0 for v in final[2:6])


def test_capacity_sweep_oracle_agreement_below_plateau_regime(tmp_path, capsys):
    path = tmp_path / "example3.json"
    save_instance(example_game("example3"), path)
    assert main(["sweep", str(path), "--sweep", "capacity",
                 "--range", "0", "600", "--oracle"]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header[-1] == "oracle_agrees"
    for row in rows:
        if float(row[0]) <= 500.0:
            assert row[-1] == "yes"


def test_bargain_trace(instance_file, capsys):
    assert main(["bargain", instance_file]) == 0
    out = capsys.readouterr().out
    header, rows = _rows(out)
    assert header == ["round", "price", "peer_id", "demand", "total_demand"]
    assert rows[0][1] == "288.539"
    summary = rows[-1]
    assert summary[0] == "summary"
    assert abs(float(summary[1]) - 1000.0 / (7.0 * LN2)) < 0.01


def test_bargain_without_flags_runs_the_default_config(instance_file, monkeypatch):
    import credshare.cli
    from credshare.protocol import BargainConfig, run_bargaining

    configs = []

    def recording(game, config):
        configs.append(config)
        return run_bargaining(game, config)

    monkeypatch.setattr(credshare.cli, "run_bargaining", recording)
    assert main(["bargain", instance_file]) == 0
    assert configs == [BargainConfig()]


def test_bargain_coarse_step_reports_refinement(instance_file, capsys):
    assert main(["bargain", instance_file, "--step", "50"]) == 0
    captured = capsys.readouterr()
    assert "overshoot" in captured.err
    assert "refining step" in captured.err


def test_bargain_huge_epsilon_emits_one_round(instance_file, capsys):
    assert main(["bargain", instance_file, "--epsilon", "5"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    data_rows = [r for r in rows if r[0] != "summary"]
    assert len(data_rows) == 4  # one round, one row per peer
    assert all(r[0] == "1" for r in data_rows)


def test_bargain_rejects_oracle_flag(instance_file, capsys):
    assert main(["bargain", instance_file, "--oracle"]) == 1
    assert "--oracle" in capsys.readouterr().err


def test_bargain_convergence_failure_exits_2(instance_file, capsys):
    assert main(["bargain", instance_file, "--max-rounds", "3"]) == 2
    captured = capsys.readouterr()
    assert "max_rounds=3" in captured.err
    # refused before the first round: the trace is the header alone
    assert captured.out == "round,price,peer_id,demand,total_demand\n"
    assert "needs at least" in captured.err


def test_bargain_max_rounds_past_the_float_range_runs(instance_file, capsys):
    # a walk that may run past the float range cannot be refused, so the
    # session runs to its end as with the default limit: round 8245
    huge = "1" + "0" * 400
    assert main(["bargain", instance_file, "--max-rounds", huge]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert main(["bargain", instance_file]) == 0
    assert capsys.readouterr().out == captured.out
    _, rows = _rows(captured.out)
    assert rows[-2][0] == "8245"


@pytest.fixture
def tiny_capacity_file(tmp_path):
    # one peer whose demand at its cutoff rounds to 4.44e-16, above supply
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "uploader_capacity": 1e-16,
        "peers": [{"id": "a", "credits": 418.046786856015,
                   "capacity": 2.220558632734762}],
    }))
    return str(path)


def _run_python(*args, timeout=60):
    src = Path(credshare.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _run_cli(*argv, timeout=60):
    return _run_python("-m", "credshare", *argv, timeout=timeout)


def test_bargain_step_below_an_ulp_of_the_price_exits_2_at_once():
    # 1e-300 cannot move a price near 288, and no round limit can be
    # refused in advance past the float range: the walk must stop on the
    # first step that leaves the price where it was, not run forever
    instance = str(Path(__file__).parent / "golden" / "example4_instance.json")
    run = _run_cli("bargain", instance, "--step", "1e-300",
                   "--max-rounds", "1" + "0" * 400, timeout=15)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == [
        "bargain: round 1: step 1e-300 leaves the price 288.5390081777927 "
        "unchanged; the walk cannot move"]


def test_solve_tiny_capacity(tiny_capacity_file):
    run = _run_cli("solve", tiny_capacity_file)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert "price: 271.605" in run.stdout


def test_bargain_round_one_overshoot_exits_2(tiny_capacity_file):
    run = _run_cli("bargain", tiny_capacity_file, "--epsilon", "1e-17")
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert "bargain: round 1: demand" in run.stderr


@pytest.mark.parametrize("flag, value", [
    ("--step", "nan"), ("--initial-price", "inf"), ("--initial-price", "nan"),
    ("--epsilon", "nan"), ("--epsilon", "inf"),
])
def test_bargain_rejects_non_finite_knobs(instance_file, flag, value, capsys):
    assert main(["bargain", instance_file, flag, value]) == 1
    captured = capsys.readouterr()
    assert "must be a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, document", [
    ("solve", '{"uploader_capacity": "abc", '
              '"peers": [{"id": "a", "credits": 1, "capacity": 1}]}'),
    ("solve", '{"uploader_capacity": 1, '
              '"peers": [{"id": "a", "credits": null, "capacity": 1}]}'),
    ("simulate", '{"uploader_capacity": 1, "events": [{"time": "x", "kind": "join", '
                 '"peer": {"id": "a", "credits": 1, "capacity": 1}}]}'),
    ("simulate", '{"uploader_capacity": 1, "events": '
                 '[{"time": 1, "kind": "settle", "duration": "x"}]}'),
    ("simulate", '{"uploader_capacity": NaN, "events": []}'),
    ("simulate", '{"uploader_capacity": 1, "events": [{"time": NaN, "kind": "join", '
                 '"peer": {"id": "a", "credits": 1, "capacity": 1}}]}'),
    ("solve", '{"uploader_capacity": 1, '
              '"peers": [{"id": "a", "credits": true, "capacity": 1}]}'),
    ("solve", '{"uploader_capacity": 1, '
              '"peers": [{"id": "a", "credits": 1, "capacity": "1.5"}]}'),
    ("simulate", '{"uploader_capacity": 1, "events": '
                 '[{"time": 1, "kind": "settle", "duration": true}]}'),
], ids=["capacity-abc", "credits-null", "time-x", "duration-x", "capacity-nan",
        "join-time-nan", "credits-true", "capacity-str", "duration-true"])
def test_malformed_numbers_exit_1(tmp_path, command, document):
    path = tmp_path / "doc.json"
    path.write_text(document)
    run = _run_cli(command, str(path))
    assert run.returncode == 1, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("credshare: ")


def test_simulate_timeline_and_ledger(scenario_file, capsys):
    assert main(["simulate", scenario_file]) == 0
    out = capsys.readouterr().out
    timeline_text, ledger_text = out.split("== ledger ==\n")
    header, rows = _rows(timeline_text)
    assert header == ["epoch_start", "epoch_end", "price", "peer_id",
                      "allocation", "utility"]
    starts = sorted({r[0] for r in rows})
    assert starts == ["20", "40", "60", "80"]
    last_epoch = [r for r in rows if r[0] == "80"]
    assert [r[4] for r in last_epoch] == ["0.8", "0.6", "0.4", "0.2"]
    assert all(r[1] == "inf" for r in last_epoch)
    assert ledger_text.startswith("record,time,payer,payee,amount")


def test_simulate_with_oracle_column(scenario_file, capsys):
    assert main(["simulate", scenario_file, "--oracle"]) == 0
    out = capsys.readouterr().out.split("== ledger ==\n")[0]
    header, rows = _rows(out)
    assert header[-1] == "oracle_agrees"
    assert all(r[-1] == "yes" for r in rows)


def test_simulate_outputs_files(scenario_file, tmp_path, capsys):
    out_path = tmp_path / "timeline.csv"
    assert main(["simulate", scenario_file, "--output", str(out_path)]) == 0
    assert out_path.exists()
    ledger_path = tmp_path / "timeline.ledger.csv"
    assert ledger_path.exists()


def test_simulate_immediate_leave_shows_empty_epoch(tmp_path, capsys):
    path = tmp_path / "leave.json"
    path.write_text(json.dumps({
        "uploader_capacity": 2,
        "events": [
            {"time": 10, "kind": "join",
             "peer": {"id": "solo", "credits": 400, "capacity": 2}},
            {"time": 30, "kind": "leave", "peer": {"id": "solo"}},
        ],
    }))
    assert main(["simulate", str(path)]) == 0
    out = capsys.readouterr().out.split("== ledger ==\n")[0]
    _, rows = _rows(out)
    empty = [r for r in rows if r[0] == "30"]
    assert len(empty) == 1
    assert empty[0][2] == "" and empty[0][3] == ""


def test_example_outputs_are_stable(capsys):
    outputs = []
    for _ in range(2):
        assert main(["example", "example4"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "example4_timeline.csv" in outputs[0]
    assert "example4_ledger.csv" in outputs[0]


def test_example_writes_artifacts_to_directory(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert main(["example", "example5", "--output", str(out_dir)]) == 0
    assert (out_dir / "example5_timeline.csv").exists()
    assert (out_dir / "example5_ledger.csv").exists()


@pytest.mark.parametrize("argv, target", [
    (("solve", str(GOLDEN / "example4_instance.json")), "missing/out.txt"),
    (("simulate", str(GOLDEN / "churn30_scenario.json")), "missing/timeline.csv"),
    (("example", "example4"), "a_file"),  # the directory to make is a file
])
def test_unwritable_output_exits_1(tmp_path, argv, target, capsys):
    (tmp_path / "a_file").write_text("")
    path = tmp_path / target
    assert main([*argv, "--output", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"credshare: cannot write {path}: ")
    assert err.count("\n") == 1



def test_failed_bargain_with_unwritable_output_prints_its_diagnosis_first(
        instance_file, tmp_path, capsys):
    # a failed session prints its bargain: lines, then cannot write its trace
    path = tmp_path / "missing" / "trace.csv"
    assert main(["bargain", instance_file, "--max-rounds", "3",
                 "--output", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("bargain: no convergence within max_rounds=3: ")
    assert lines[1].startswith(f"credshare: cannot write {path}: ")

def test_example_timelines_mirror_each_other(capsys):
    assert main(["example", "example4"]) == 0
    four = capsys.readouterr().out
    assert main(["example", "example5"]) == 0
    five = capsys.readouterr().out

    def allocations(text):
        lines = [l for l in text.splitlines() if l and not l.startswith(("==", "epoch"))]
        rows = [l.split(",") for l in lines if l.count(",") == 5]
        out = {}
        for r in rows:
            out.setdefault(r[0], []).append((r[3], r[4]))
        return out

    by_start4 = allocations(four)
    by_start5 = allocations(five)
    # equal peer counts yield identical per-peer allocations
    assert sorted(by_start4["80"]) == sorted(by_start5["20"])
    assert sorted(by_start4["20"]) == sorted(by_start5["80"])


def test_unknown_example_name_exits_1(capsys):
    assert main(["example", "example9"]) == 1


_INSTANCE = '{{"uploader_capacity": 1, "peers": [{}, {{"id": "b", "credits": 10, "capacity": 1}}]}}'


@pytest.mark.parametrize("argv, document", [
    (["solve"], _INSTANCE.format('{"id": "uploader", "credits": 1, "capacity": 1}')),
    (["bargain"], _INSTANCE.format('{"id": "uploader", "credits": 1, "capacity": 1}')),
    (["simulate"], '{"uploader_capacity": 1, "events": [{"time": 1, "kind": "join", '
                   '"peer": {"id": "uploader", "credits": 1, "capacity": 1}}]}'),
], ids=["solve", "bargain", "simulate"])
def test_reserved_uploader_id_exits_1(tmp_path, argv, document, capsys):
    path = tmp_path / "doc.json"
    path.write_text(document)
    assert main([*argv, str(path)]) == 1
    assert "'uploader' is reserved" in capsys.readouterr().err


@pytest.mark.parametrize("argv, peer", [
    # infinite ratio: --oracle died on a NaN grid count, the sweep printed nan
    (["solve", "--oracle"], '{"id": "a", "credits": 1e308, "capacity": 1e-10}'),
    (["sweep"], '{"id": "a", "credits": 1e308, "capacity": 1e-10}'),
    # saturation price halves to 0.0: solve blamed a price of 0.0
    (["solve"], '{"id": "a", "credits": 5e-324, "capacity": 1}'),
], ids=["oracle-inf", "sweep-inf", "solve-subnormal"])
def test_out_of_range_thresholds_exit_1(tmp_path, argv, peer):
    path = tmp_path / "doc.json"
    path.write_text(_INSTANCE.format(peer))
    run = _run_cli(*argv, str(path))
    assert run.returncode == 1, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("credshare: peer 'a': threshold prices")


@pytest.mark.parametrize("credits", ["1e-320", "1e300"])
def test_extreme_but_in_range_credits_still_solve(tmp_path, credits):
    path = tmp_path / "doc.json"
    path.write_text(_INSTANCE.format(f'{{"id": "a", "credits": {credits}, "capacity": 1}}'))
    run = _run_cli("solve", str(path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("price: ")


# a's saturation price is subnormal, so the oracle grid starts below it
_SUBNORMAL = ('{{"uploader_capacity": {}, "peers": [{{"id": "a", "credits": 1e-320, '
              '"capacity": 1}}, {{"id": "b", "credits": 10, "capacity": 1}}]}}')


@pytest.mark.parametrize("capacity", ["0.5", "1", "2.5"])
def test_subnormal_saturation_price_solves_quietly(tmp_path, capacity):
    # credits / price overflows to inf there: no RuntimeWarning may reach stderr
    path = tmp_path / "doc.json"
    path.write_text(_SUBNORMAL.format(capacity))
    run = _run_cli("solve", str(path), "--oracle")
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert "oracle_price: " in run.stdout


def test_capacity_sum_overflow_exits_1(tmp_path):
    # u_k + d overflows: the inversion would price at 0.0. The peer's capacity
    # stays below the ~9e307 whose demand quotient PeerProfile refuses first
    path = tmp_path / "doc.json"
    path.write_text('{"uploader_capacity": 1.0136159179084475e308, "peers": [{"id": '
                    '"a", "credits": 1.0, "capacity": 7.840772169538683e307}]}')
    run = _run_cli("solve", str(path))
    assert run.returncode == 1
    assert run.stderr == ("credshare: uploader_capacity 1.0136159179084475e+308 plus "
                          "the peers' total capacity 7.840772169538683e+307 is not "
                          "finite\n")



def test_demand_quotient_overflow_exits_1(tmp_path, capsys):
    # credits / (price ln2) overflowed just above the saturation price 0.72,
    # so the sweep printed the full capacity 1.7e308 at 0.8, 1.0 and 1.2
    # where the demand is 1.37e308, 7.5e307 and 3.4e307
    path = tmp_path / "big.json"
    path.write_text('{"uploader_capacity": 1.0, "peers": [{"id": "p0", '
                    '"credits": 1.7e308, "capacity": 1.7e308}]}')
    assert main(["sweep", str(path), "--sweep", "price", "--range", "0.8", "1.4",
                 "--steps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("credshare: peer 'p0': demand credits / (price ln2) "
                            "overflows above the saturation price "
                            "0.7213475204444817\n")

def test_credit_sum_overflow_exits_1(tmp_path):
    # the inversion's credit sum overflows: the price would be inf and the
    # residual check would take the blame
    path = tmp_path / "doc.json"
    path.write_text('{"uploader_capacity": 1.5, "peers": [{"id": "a", "credits": '
                    '1e308, "capacity": 1}, {"id": "b", "credits": 1e308, '
                    '"capacity": 1}]}')
    run = _run_cli("solve", str(path))
    assert run.returncode == 1
    assert run.stderr == "credshare: the peers' total credits inf is not finite\n"


def test_subnormal_clearing_price_exits_2(tmp_path):
    # the clearing price at 1.5 is subnormal and misses the capacity
    path = tmp_path / "doc.json"
    path.write_text(_SUBNORMAL.format("1.5"))
    run = _run_cli("solve", str(path))
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("credshare: solver residual")
    assert run.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("solve", "--oracle"),
    ("sweep", "--sweep", "capacity", "--range", "1e-300", "1e-299", "--steps", "1",
     "--oracle"),
])
def test_oracle_window_overflow_exits_2(tmp_path, argv, capsys):
    # nothing in the window is admissible, and widening it reaches inf
    path = tmp_path / "doc.json"
    path.write_text('{"uploader_capacity": 1e-300, "peers": [{"id": "a", "credits": '
                    '7.110912344954049e+307, "capacity": 0.7120188127602907}]}')
    assert main([argv[0], str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("credshare: no admissible price in [")
    assert err.endswith("widening the window overflows the float range\n")


def test_oracle_window_with_a_zero_step_exits_2(tmp_path, capsys):
    # the game's thresholds are subnormal: solve prices it, but the grid
    # step over the oracle's window rounds to 0
    path = tmp_path / "doc.json"
    path.write_text('{"uploader_capacity": 3.718988270294969e+47, "peers": [{"id": '
                    '"p0", "credits": 5.0808749081930105e-148, "capacity": '
                    '1.840270162021928e+175}]}')
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(path), "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "credshare: the grid step over [1e-323, 4.4e-323] rounds to 0\n"


def test_cli_without_oracle_leaves_numpy_unloaded(instance_file):
    run = _run_python("-c", (
        "import sys\n"
        "import credshare, credshare.cli\n"
        "assert credshare.cli.main(['solve', sys.argv[1]]) == 0\n"
        "print('numpy' in sys.modules)\n"), instance_file)
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith("\nFalse\n")


def test_consecutive_main_calls_match_fresh_runs(instance_file, capsys):
    # main() reuses one parser per process; no flag of one call may leak
    # into the next
    calls = [
        ("solve", instance_file, "--oracle"),
        ("solve", instance_file),
        ("bargain", instance_file, "--step", "1"),
        ("solve", instance_file, "--steps", "3"),
        ("sweep", instance_file, "--sweep", "capacity"),
    ]
    in_process = []
    for argv in calls:
        code = main(list(argv))
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 1, 0]
    assert build_parser() is build_parser()
    for argv, result in zip(calls, in_process):
        run = _run_cli(*argv)
        assert result == (run.returncode, run.stdout, run.stderr), argv


def test_every_oracle_flag_searches_through_experiments(monkeypatch, instance_file,
                                                        scenario_file, capsys):
    # the benchmark tracer counts oracle work by wrapping these attributes
    import credshare.experiments as experiments
    import credshare.oracle as oracle

    searches = []
    grids = []
    original = experiments.grid_search_price
    original_grid = oracle.demand_on_grid

    def counting(game, spec, priced=None):
        searches.append(spec)
        return original(game, spec, priced)

    def counting_grid(game, prices):
        grids.append(prices.size)
        return original_grid(game, prices)

    monkeypatch.setattr(experiments, "grid_search_price", counting)
    monkeypatch.setattr(oracle, "demand_on_grid", counting_grid)
    assert main(["solve", instance_file, "--oracle"]) == 0
    assert (len(searches), len(grids)) == (1, 1)
    assert main(["sweep", instance_file, "--sweep", "capacity", "--steps", "3",
                 "--oracle"]) == 0
    assert (len(searches), len(grids)) == (4, 2)  # three capacities, one grid
    assert main(["simulate", scenario_file, "--oracle"]) == 0
    # one search and one grid per epoch of the four joins
    assert (len(searches), len(grids)) == (8, 6)
