"""Command-line interface.

Subcommands: div, bound, figure, samples, verify, dv. Single results print
as JSON (with +inf rendered as the string "inf"), curves as CSV files, the
verify suite as one deterministic line per report. Exit codes: 0 success,
1 validation, input or usage error (one line on stderr), 2 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds, divergence, figures, samples, variational, verify
from .distributions import load_distribution
from .errors import TvklError


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _print_json(obj) -> None:
    print(json.dumps(_jsonable(obj)))


def _global_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # The same flags are accepted before and after the subcommand name; the
    # subparser copies use SUPPRESS defaults so an omitted flag does not
    # wipe out a value given at the top level.
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit JSON instead of text tables",
        default=False if top else suppress,
    )
    parser.add_argument(
        "--renormalize",
        action="store_true",
        help="renormalize distribution files on load",
        default=False if top else suppress,
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        help="override the verification tolerance",
        default=None if top else suppress,
    )
    parser.add_argument(
        "--seed",
        type=int,
        help="seed for randomized checks (default 0)",
        default=0 if top else suppress,
    )


class _Parser(argparse.ArgumentParser):
    # A usage error is invalid input (exit 1, one line), not argparse's exit 2,
    # which means a verification failure. Subparsers inherit the class.
    def error(self, message):
        raise TvklError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tvkl",
        description="Total variation / KL divergence bounds toolkit",
    )
    _global_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_div = sub.add_parser("div", help="divergences between two distribution files")
    p_div.add_argument("file_p")
    p_div.add_argument("file_q")
    _global_flags(p_div, top=False)

    p_bound = sub.add_parser("bound", help="evaluate the bound family at one value")
    p_bound.add_argument("direction", choices=("forward", "inverse"))
    p_bound.add_argument(
        "value", type=float, help="KL (forward, 'inf' allowed) or TV (inverse)"
    )
    _global_flags(p_bound, top=False)

    p_fig = sub.add_parser("figure", help="emit CSV data for one of the bound plots")
    p_fig.add_argument("figure", choices=[f.value for f in figures.FigureId])
    p_fig.add_argument("--points", type=int, default=501)
    p_fig.add_argument("--out", required=True)
    _global_flags(p_fig, top=False)

    p_samples = sub.add_parser(
        "samples", help="coin-distinguishing sample-complexity lower bounds"
    )
    p_samples.add_argument("epsilon", type=float)
    p_samples.add_argument("delta", type=float)
    p_samples.add_argument("--ceil", action="store_true",
                           help="round the bounds up to whole tosses")
    _global_flags(p_samples, top=False)

    p_verify = sub.add_parser("verify", help="run an inequality verification suite")
    p_verify.add_argument(
        "suite",
        help="one of %s or a single inequality identifier"
        % ", ".join(verify.SUITE_NAMES),
    )
    p_verify.add_argument("--resolution", type=int, default=500)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--atoms", type=int, default=64)
    _global_flags(p_verify, top=False)

    p_dv = sub.add_parser(
        "dv", help="variational divergence value and random-witness check"
    )
    p_dv.add_argument("file_p")
    p_dv.add_argument("file_q")
    p_dv.add_argument("--trials", type=int, default=100)
    _global_flags(p_dv, top=False)

    return parser


def _cmd_div(args) -> int:
    p = load_distribution(args.file_p, renormalize=args.renormalize)
    q = load_distribution(args.file_q, renormalize=args.renormalize)
    min_sum, max_sum = divergence.overlap_identities(p, q)
    _print_json(
        {
            "tv": divergence.total_variation(p, q),
            "kl": divergence.kl_divergence(p, q),
            "hellinger_affinity": divergence.hellinger_affinity(p, q),
            "min_sum": min_sum,
            "max_sum": max_sum,
        }
    )
    return 0


def _cmd_bound(args) -> int:
    if args.direction == "forward":
        rows = bounds.compare_bounds(args.value)
    else:
        rows = [bounds.kl_lower(b, args.value) for b in bounds.INVERSE_ORDER]
    if args.json:
        _print_json(
            [
                {
                    "bound": r.bound.value,
                    "input": r.input,
                    "output": r.output,
                    "vacuous": r.vacuous,
                }
                for r in rows
            ]
        )
    else:
        width = max(len(r.bound.value) for r in rows)
        for r in rows:
            flag = "  (vacuous)" if r.vacuous else ""
            print(f"{r.bound.value:<{width}}  {r.output!r}{flag}")
    return 0


def _cmd_figure(args) -> int:
    figures.write_figure_csv(figures.FigureId(args.figure), args.points, args.out)
    return 0


def _cmd_samples(args) -> int:
    query = samples.SampleComplexityQuery(args.epsilon, args.delta)
    rep = samples.report(query)
    shape = math.ceil if args.ceil else (lambda x: x)
    fields = {
        "epsilon": rep.query.epsilon,
        "delta": rep.query.delta,
        "required_tv": rep.required_tv,
        "kl_per_toss": rep.kl_per_toss,
        "n_pinsker": shape(rep.n_pinsker),
        "n_bh": shape(rep.n_bh),
        "n_tsybakov": shape(rep.n_tsybakov),
        "n_bh_simplified": shape(rep.n_bh_simplified),
        "notes": list(rep.notes),
    }
    if args.json:
        _print_json(fields)
    else:
        for key, value in fields.items():
            if key == "notes":
                value = ",".join(rep.notes) if rep.notes else "-"
            print(f"{key:<16} {value}")
    return 0


def _cmd_verify(args) -> int:
    kwargs = {}
    if args.tolerance is not None:
        kwargs["grid_tolerance"] = args.tolerance
        kwargs["random_tolerance"] = args.tolerance
    reports = verify.run_suite(
        args.suite,
        seed=args.seed,
        resolution=args.resolution,
        trials=args.trials,
        atoms=args.atoms,
        **kwargs,
    )
    for rep in reports:
        if args.json:
            _print_json(rep.to_json_dict())
        else:
            print(f"{rep.inequality.value}: violations={rep.violations} "
                  f"worst_margin={rep.worst_margin!r} "
                  f"worst_point={list(rep.worst_point)} [{rep.grid}]")
    return 2 if any(r.violations for r in reports) else 0


def _cmd_dv(args) -> int:
    p = load_distribution(args.file_p, renormalize=args.renormalize)
    q = load_distribution(args.file_q, renormalize=args.renormalize)
    value, gaps = variational.dv_supremum(p, q, args.trials, args.seed)
    min_gap = min(gaps) if gaps else None
    _print_json({"value": value, "trials": args.trials, "min_gap": min_gap})
    return 0


_COMMANDS = {
    "div": _cmd_div,
    "bound": _cmd_bound,
    "figure": _cmd_figure,
    "samples": _cmd_samples,
    "verify": _cmd_verify,
    "dv": _cmd_dv,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (TvklError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
