"""Command line interface.

Three subcommands:

* ``run``        Monte Carlo simulation of one (scheme, attack) config
* ``exact``      sampling-free analysis by branch enumeration
* ``identities`` re-derive and check the state decomposition identities

Output goes to stdout as JSON (default) or CSV. Exit codes: 0 success, 1
usage/config error, 2 a failing ``identities`` check, 130 interrupted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import InvalidConfig, WqscError
from .harness import (
    ATTACKS,
    CHECK_BASIS_POLICIES,
    INIT_POLICIES,
    SCHEMES,
    RunConfig,
    exact_analyze,
    exact_result_to_dict,
    identity_reports_to_dict,
    run_monte_carlo,
    run_stats_to_dict,
    to_csv,
    to_json,
)
from .states import verify_identities


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for identity
    failures, so usage errors exit 1, on one line whatever they quote."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The flags that pick a (scheme, attack, policy) config."""
    parser.add_argument("--scheme", required=True, choices=SCHEMES)
    parser.add_argument("--attack", default="none", choices=ATTACKS)
    parser.add_argument("--init", default="random", choices=INIT_POLICIES)
    parser.add_argument("--check-basis", default="random", choices=CHECK_BASIS_POLICIES)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wqsc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="Monte Carlo simulation")
    _add_config_flags(run)
    run.add_argument("--rounds", type=int, default=100_000)
    run.add_argument("--check-fraction", type=float, default=0.5)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="annotate output with an abort recommendation; never alters statistics",
    )

    exact = sub.add_parser("exact", help="exact branch-enumeration analysis")
    _add_config_flags(exact)

    identities = sub.add_parser("identities", help="verify state decomposition identities")
    for command in (run, exact, identities):
        command.add_argument("--format", default="json", choices=("json", "csv"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            if args.threshold is not None and not math.isfinite(args.threshold):
                raise InvalidConfig(f"threshold must be a finite number, got {args.threshold}")
            config = RunConfig(
                scheme=args.scheme,
                attack=args.attack,
                rounds=args.rounds,
                check_fraction=args.check_fraction,
                master_seed=args.seed,
                init_policy=args.init,
                check_basis_policy=args.check_basis,
            )
            payload = run_stats_to_dict(run_monte_carlo(config))
            if args.threshold is not None:
                payload["threshold"] = args.threshold
                payload["threshold_exceeded"] = payload["error_rate"] > args.threshold
        elif args.command == "exact":
            result = exact_analyze(
                args.scheme, args.attack, init_policy=args.init, check_basis_policy=args.check_basis
            )
            payload = exact_result_to_dict(result)
        else:
            payload = identity_reports_to_dict(verify_identities())
    except WqscError as exc:
        print(f"wqsc: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("wqsc: interrupted", file=sys.stderr)
        return 130
    try:
        sys.stdout.write(to_json(payload) + "\n" if args.format == "json" else to_csv(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's flush at exit fails no more (Python's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # only an identity report can fail
    return 0 if payload.get("all_passed", True) else 2


if __name__ == "__main__":
    raise SystemExit(main())
