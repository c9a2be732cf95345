"""Command-line front end.

Subcommands: solve, sweep, bargain, simulate, example. Instances and
scenarios come in as JSON, tabular results go out as CSV (stdout or
--output). Exit codes: 0 success, 1 validation problem (an unreadable
input or unwritable output included), 2 convergence, protocol or oracle
failure.
"""

import argparse
import functools
import os
import sys

from .errors import ConvergenceError, OracleError, ProtocolAbort, ValidationError
from .experiments import (
    CAPACITY_SWEEP_STEPS,
    EXAMPLE_NAMES,
    PRICE_SWEEP_STEPS,
    capacity_sweep,
    cross_check,
    price_sweep,
    run_example,
)
from .formatting import format_sig
from .interchange import load_instance, load_scenario
from .protocol import BargainConfig, run_bargaining
from .simulator import ledger_csv, run_scenario
from .solver import solve


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _write(text: str, output):
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _solve_report(game, oracle: bool) -> str:
    eq = solve(game)
    lines = [
        f"price: {format_sig(eq.price)}",
        f"region: {eq.region.value}",
        f"revenue: {format_sig(eq.revenue)}",
        f"total_allocation: {format_sig(eq.total_allocation)}",
    ]
    if oracle:
        oracle_price, oracle_revenue, agrees = cross_check(game, eq.revenue)
        lines.append(f"oracle_price: {format_sig(oracle_price)}")
        lines.append(f"oracle_revenue: {format_sig(oracle_revenue)}")
        lines.append(f"oracle_agrees: {'yes' if agrees else 'no'}")
    lines.append("peer_id,allocation,utility")
    for p in game.peers:
        lines.append(",".join((
            p.id,
            format_sig(eq.allocation[p.id]),
            format_sig(eq.utilities[p.id]),
        )))
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    game = load_instance(args.instance)
    _write(_solve_report(game, args.oracle), args.output)
    return 0


def cmd_sweep(args) -> int:
    game = load_instance(args.instance)
    lo, hi = (args.range if args.range else (None, None))
    if args.sweep == "price":
        if args.oracle:
            raise ValidationError("a price sweep has no solves to check; "
                                  "--oracle applies to --sweep capacity only")
        steps = args.steps if args.steps is not None else PRICE_SWEEP_STEPS
        text = price_sweep(game, lo, hi, steps)
    else:
        steps = args.steps if args.steps is not None else CAPACITY_SWEEP_STEPS
        text = capacity_sweep(game, lo if lo is not None else 0.0, hi,
                              steps, oracle=args.oracle)
    _write(text, args.output)
    return 0


def cmd_bargain(args) -> int:
    game = load_instance(args.instance)
    cfg = BargainConfig(
        initial_price=args.initial_price,
        step=args.step,
        tolerance=args.epsilon,
        max_rounds=args.max_rounds,
        max_refinements=args.max_refinements,
    )
    # every ConvergenceError from run_bargaining carries its trace and diagnosis
    try:
        _, trace = run_bargaining(game, cfg)
        code = 0
    except ConvergenceError as exc:
        trace, code = exc.trace, 2
    for line in trace.diagnostics:
        print(f"bargain: {line}", file=sys.stderr)
    _write(trace.to_csv(), args.output)
    return code


def _ledger_path(timeline_path: str) -> str:
    stem, ext = os.path.splitext(timeline_path)
    return f"{stem}.ledger{ext or '.csv'}"


def cmd_simulate(args) -> int:
    capacity, events = load_scenario(args.scenario)
    timeline, ledger = run_scenario(capacity, events)
    timeline_text = timeline.to_csv(oracle_check=args.oracle)
    ledger_text = ledger_csv(ledger)
    if args.output:
        _write(timeline_text, args.output)
        _write(ledger_text, _ledger_path(args.output))
        print(args.output)
        print(_ledger_path(args.output))
    else:
        sys.stdout.write(timeline_text)
        sys.stdout.write("== ledger ==\n")
        sys.stdout.write(ledger_text)
    return 0


def cmd_example(args) -> int:
    artifacts = run_example(args.name, oracle=args.oracle)
    if args.output:
        try:
            os.makedirs(args.output, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.output}: {exc}") from exc
        for filename, text in artifacts:
            path = os.path.join(args.output, filename)
            _write(text, path)
            print(path)
    else:
        for filename, text in artifacts:
            sys.stdout.write(f"== {filename} ==\n")
            sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and reused by every later
    main() call in the process (each parse fills a fresh namespace)."""
    parser = _Parser(
        prog="credshare",
        description="Credit-based bandwidth pricing: solver, protocols, churn simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write output to this path")

    def with_oracle(p):
        common(p)
        p.add_argument("--oracle", action="store_true",
                       help="cross-check solves against the grid oracle")

    p_solve = sub.add_parser("solve", help="price one instance")
    p_solve.add_argument("instance", help="instance JSON file")
    with_oracle(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="demand vs price, or allocation vs capacity")
    p_sweep.add_argument("instance", help="instance JSON file")
    p_sweep.add_argument("--sweep", choices=("price", "capacity"), default="price")
    p_sweep.add_argument("--range", nargs=2, type=float, metavar=("LO", "HI"))
    p_sweep.add_argument("--steps", type=int)
    with_oracle(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bargain = sub.add_parser("bargain", help="run the iterative pricing scheme")
    p_bargain.add_argument("instance", help="instance JSON file")
    p_bargain.add_argument("--step", type=float, default=0.01)
    p_bargain.add_argument("--epsilon", type=float, default=0.001)
    p_bargain.add_argument("--initial-price", type=float, default=None)
    p_bargain.add_argument("--max-rounds", type=int, default=100_000)
    p_bargain.add_argument("--max-refinements", type=int, default=6)
    p_bargain.add_argument("--seed", type=int, default=0,
                           help="ignored: the walk is deterministic (accepted "
                                "so that existing command lines still run)")
    common(p_bargain)
    p_bargain.set_defaults(func=cmd_bargain)

    p_sim = sub.add_parser("simulate", help="run a churn scenario")
    p_sim.add_argument("scenario", help="scenario JSON file")
    with_oracle(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ex = sub.add_parser("example", help="reproduce a built-in experiment")
    p_ex.add_argument("name", choices=EXAMPLE_NAMES)
    with_oracle(p_ex)
    p_ex.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"credshare: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, OracleError, ProtocolAbort) as exc:
        print(f"credshare: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
