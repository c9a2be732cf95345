"""Byte-for-byte CLI goldens.

The files under tests/golden/ are the stdout of the commands below as the
program printed it before the solver and protocol were reduced to one
assembly path; any change to them must be explained by the change that
makes it. example4_instance.json is the example4 game written by
save_instance, the input of the bargaining golden.

churn30_scenario.json is a seeded 30-peer churn scenario: double settles
that run payers dry, leaves, a zero-credit joiner and a rejoin after
spending. churn30_simulate.out is what `simulate` printed for it while
every re-solve still rebuilt every present peer's profile, and
churn30_simulate_oracle.out what `simulate --oracle` printed for it while
each timeline row was still joined from format_sig calls.
"""

from pathlib import Path

import pytest

from credshare.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["example", "example1"], "example1.out"),
    (["example", "example2"], "example2.out"),
    (["example", "example3"], "example3.out"),
    (["example", "example4"], "example4.out"),
    (["example", "example5"], "example5.out"),
    (["example", "example4", "--oracle"], "example4_oracle.out"),
    (["bargain", str(GOLDEN / "example4_instance.json"), "--step", "1", "--seed", "0"],
     "bargain_example4_step1_seed0.out"),
    (["simulate", str(GOLDEN / "churn30_scenario.json")], "churn30_simulate.out"),
    (["simulate", str(GOLDEN / "churn30_scenario.json"), "--oracle"],
     "churn30_simulate_oracle.out"),
]


@pytest.mark.parametrize("argv,golden", CASES, ids=[name for _, name in CASES])
def test_cli_stdout_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_bytes().decode("utf-8")
