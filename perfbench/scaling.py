"""Per-n scaling table of the model, solver and oracle layers.

    python3 perfbench/scaling.py

Run from the root of a checkout. On games drawn like the `price` workload's
(credits U(1, 500), capacity U(0.1, 5), uploader capacity a uniform fraction
of total demand) it times, at n = 4, 100 and 1000 peers:

* model.validate: building the PeerProfiles and the GameInstance, per peer;
* model.curve: build_demand_curve;
* solver.solve: solve;
* oracle.grid: grid_search_price on GridSpec.for_game (about 10^4 prices).

The oracle also runs at n = 10^4. The curve and solve do not: the curve
holds (2n + 1) x n branch codes, 2e8 at n = 10^4, which takes minutes and
gigabytes at this commit. The games come from random.Random(SEED), so
every run times the same games. Each cell is the median of repeats that
together take about a second (at least three). Prints one row per cell,
then one JSON line with the same numbers.
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SIZES = (4, 100, 1000)
ORACLE_ONLY_SIZES = (10_000,)
SEED = 0


def _median_ms(fn, budget=1.0, least=3):
    times = []
    spent = 0.0
    while len(times) < least or spent < budget:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times) * 1e3, len(times)


def main():
    if not (SRC / "credshare" / "__init__.py").is_file():
        print(f"scaling: no credshare under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from credshare import GridSpec, build_demand_curve, grid_search_price, solve
    import workloads

    rng = random.Random(SEED)
    table = {}
    for n in SIZES + ORACLE_ONLY_SIZES:
        inp = workloads.price_input(rng, n)
        game = workloads.price_game(inp)
        cells = {"oracle.grid": lambda: grid_search_price(game, GridSpec.for_game(game))}
        if n in SIZES:
            cells.update({
                "model.validate": lambda: workloads.price_game(inp),
                "model.curve": lambda: build_demand_curve(game),
                "solver.solve": lambda: solve(game),
            })
        for name, fn in cells.items():
            ms, reps = _median_ms(fn)
            if name == "model.validate":
                name, ms = "model.validate_per_peer", ms / n
            table[f"{name}.n{n}"] = ms
            print(f"  {name:24s} n={n:<6d} {ms:12.6g} ms  (median of {reps})")
    ratio = table["solver.solve.n1000"] / table["solver.solve.n100"]
    print(f"  solve n=1000 / n=100: {ratio:.1f}x")
    print(json.dumps({"unit": "ms", "cells": table, "solve_n1000_over_n100": ratio}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
