"""Command line interface.

Three subcommands:

* ``run``        Monte Carlo simulation of one (scheme, attack) config
* ``exact``      sampling-free analysis by branch enumeration
* ``identities`` re-derive and check the state decomposition identities

Output goes to stdout as JSON (default) or CSV. Exit codes: 0 success,
1 usage/config error, 2 when ``identities`` finds a failing identity.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import InvalidConfig, WqscError
from .harness import (
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

_ATTACK_CHOICES = ("none", "ir-z", "ir-x", "cnot", "cao-ir-z")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for
    identity failures, so usage errors exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="wqsc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="Monte Carlo simulation")
    run.add_argument("--scheme", required=True, choices=("present", "cao"))
    run.add_argument("--attack", default="none", choices=_ATTACK_CHOICES)
    run.add_argument("--rounds", type=int, default=100_000)
    run.add_argument("--check-fraction", type=float, default=0.5)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--init", default="random", choices=("random", "phi1", "phi2"))
    run.add_argument("--check-basis", default="random", choices=("random", "z", "x", "bell"))
    run.add_argument("--format", default="json", choices=("json", "csv"))
    run.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="annotate output with an abort recommendation; never alters statistics",
    )

    exact = sub.add_parser("exact", help="exact branch-enumeration analysis")
    exact.add_argument("--scheme", required=True, choices=("present", "cao"))
    exact.add_argument("--attack", default="none", choices=_ATTACK_CHOICES)
    exact.add_argument("--init", default="random", choices=("random", "phi1", "phi2"))
    exact.add_argument("--check-basis", default="random", choices=("random", "z", "x", "bell"))
    exact.add_argument("--format", default="json", choices=("json", "csv"))

    identities = sub.add_parser("identities", help="verify state decomposition identities")
    identities.add_argument("--format", default="json", choices=("json", "csv"))
    return parser


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(to_json(payload))
    else:
        sys.stdout.write(to_csv(payload))


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
                output_format=args.format,
            )
            payload = run_stats_to_dict(run_monte_carlo(config))
            if args.threshold is not None:
                payload["threshold"] = args.threshold
                payload["threshold_exceeded"] = payload["error_rate"] > args.threshold
            _emit(payload, args.format)
            return 0
        if args.command == "exact":
            result = exact_analyze(
                args.scheme,
                args.attack,
                init_policy=args.init,
                check_basis_policy=args.check_basis,
            )
            _emit(exact_result_to_dict(result), args.format)
            return 0
        payload = identity_reports_to_dict(verify_identities())
        _emit(payload, args.format)
        return 0 if payload["all_passed"] else 2
    except WqscError as exc:
        print(f"wqsc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
