"""Entry points either work or fail fast with a diagnosis, on numbers from
anywhere in the positive float range (5e-324 to 1.7e308).

`credshare bargain`: every session either exits 0 with a trace that
replays and ends within epsilon of the capacity, or exits 1 (a validation
problem) or 2 (a walk that cannot converge) with diagnostic lines only,
never a traceback. A --max-rounds past the float range changes nothing
for a session that ended within a smaller limit.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, strategies as st

from credshare.cli import main
from credshare.interchange import load_instance
from credshare.protocol import BargainConfig, replay, run_bargaining

POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308)
BEYOND_FLOAT_RANGE = 10 ** 400


def _bargain(path, knobs):
    """(exit code, stdout, stderr) of `credshare bargain path` with knobs."""
    argv = ["bargain", str(path)]
    for flag, value in knobs.items():
        argv += [flag, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def bargain_sessions(draw):
    peers = [{"id": f"p{i}", "credits": draw(POSITIVE), "capacity": draw(POSITIVE)}
             for i in range(draw(st.integers(1, 4)))]
    instance = {"uploader_capacity": draw(POSITIVE), "peers": peers}
    knobs = {flag: draw(st.none() | POSITIVE)
             for flag in ("--step", "--epsilon", "--initial-price")}
    knobs["--max-rounds"] = draw(st.integers(1, 2000))
    knobs["--max-refinements"] = draw(st.integers(0, 20))
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

