import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import credshare
from credshare.cli import main
from credshare.experiments import example_game, example_scenario
from credshare.interchange import save_instance, save_scenario
from credshare.model import LN2


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


def _run_cli(*argv):
    src = Path(credshare.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "credshare", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


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
