"""Command-line interface.

Subcommands: div, bound, figure, samples, verify, dv. Single results print
as JSON (a non-finite float as the string of its repr: "inf", "-inf" or
"nan"), curves as CSV files, the verify suite as one deterministic line per
report. Exit codes: 0 success, 1 validation, input or usage error (one line
on stderr), 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import json
import math
import sys

# The parser reads figures for its choices; each command imports the
# modules it runs, so a call loads only those.
from . import figures
from .errors import TvklError


def _jsonable(value):
    # The one JSON form of every result: a non-finite float is its repr, an
    # enum its value and a dataclass its fields in declaration order.
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _print_json(obj) -> None:
    print(json.dumps(_jsonable(obj)))


class _Parser(argparse.ArgumentParser):
    # A usage error is invalid input (exit 1, one line), not argparse's exit 2,
    # which means a verification failure. Subparsers inherit the class.
    def error(self, message):
        raise TvklError(message)


# The flags every command takes, before or after its name. An omitted flag
# stays out of the namespace, so a subcommand never wipes out a value given
# before its name; main starts the parse from these defaults.
_DEFAULTS = {"json": False, "renormalize": False, "tolerance": None, "seed": 0}

#: The suites of ``verify.run_suite``, named in the verify help text.
SUITE_NAMES = ("all", "grid", "random", "kl_finite", "derivation")


def build_parser() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False,
                                    argument_default=argparse.SUPPRESS)
    flags.add_argument("--json", action="store_true",
                       help="emit JSON instead of text tables")
    flags.add_argument("--renormalize", action="store_true",
                       help="renormalize distribution files on load")
    flags.add_argument("--tolerance", type=float,
                       help="override the verification tolerance")
    flags.add_argument("--seed", type=int,
                       help="seed for randomized checks (default 0)")
    parser = _Parser(
        prog="tvkl",
        description="Total variation / KL divergence bounds toolkit",
        parents=[flags],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, parents=[flags])

    p_div = command("div", help="divergences between two distribution files")
    p_div.add_argument("file_p")
    p_div.add_argument("file_q")

    p_bound = command("bound", help="evaluate the bound family at one value")
    p_bound.add_argument("direction", choices=("forward", "inverse"))
    p_bound.add_argument(
        "value", type=float, help="KL (forward, 'inf' allowed) or TV (inverse)"
    )

    p_fig = command("figure", help="emit CSV data for one of the bound plots")
    p_fig.add_argument("figure", choices=[f.value for f in figures.FigureId])
    p_fig.add_argument("--points", type=int, default=501)
    p_fig.add_argument("--out", required=True)

    p_samples = command(
        "samples", help="coin-distinguishing sample-complexity lower bounds"
    )
    p_samples.add_argument("epsilon", type=float)
    p_samples.add_argument("delta", type=float)
    p_samples.add_argument("--ceil", action="store_true",
                           help="round the bounds up to whole tosses")

    p_verify = command("verify", help="run an inequality verification suite")
    p_verify.add_argument(
        "suite",
        help="one of %s or a single inequality identifier"
        % ", ".join(SUITE_NAMES),
    )
    p_verify.add_argument("--resolution", type=int, default=500)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--atoms", type=int, default=64)

    p_dv = command(
        "dv", help="variational divergence value and random-witness check"
    )
    p_dv.add_argument("file_p")
    p_dv.add_argument("file_q")
    p_dv.add_argument("--trials", type=int, default=100)

    return parser


def _load_pair(args):
    from .distributions import load_distribution
    return (load_distribution(args.file_p, renormalize=args.renormalize),
            load_distribution(args.file_q, renormalize=args.renormalize))


def _cmd_div(args) -> int:
    from . import divergence
    p, q = _load_pair(args)
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
    from . import bounds
    if args.direction == "forward":
        rows = bounds.compare_bounds(args.value)
    else:
        rows = [bounds.kl_lower(b, args.value) for b in bounds.INVERSE_ORDER]
    if args.json:
        _print_json(rows)
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
    from . import samples
    rep = samples.report(samples.SampleComplexityQuery(args.epsilon, args.delta))
    if args.ceil:
        rep = dataclasses.replace(rep, **{
            f.name: math.ceil(n) if math.isfinite(n := getattr(rep, f.name)) else n
            for f in dataclasses.fields(rep) if f.name.startswith("n_")})
    if args.json:
        _print_json(rep)
    else:
        for f in dataclasses.fields(rep):
            value = getattr(rep, f.name)
            if f.name == "notes":
                value = ",".join(value) or "-"
            print(f"{f.name:<16} {value}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    reports = verify.run_suite(
        args.suite,
        seed=args.seed,
        resolution=args.resolution,
        trials=args.trials,
        atoms=args.atoms,
        tolerance=args.tolerance,
    )
    for rep in reports:
        if args.json:
            _print_json(rep)
        else:
            print(f"{rep.inequality.value}: violations={rep.violations} "
                  f"worst_margin={rep.worst_margin!r} "
                  f"worst_point={list(rep.worst_point)} [{rep.grid}]")
    return 2 if any(r.violations for r in reports) else 0


def _cmd_dv(args) -> int:
    from . import variational
    p, q = _load_pair(args)
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
        args = parser.parse_args(argv, argparse.Namespace(**_DEFAULTS))
        return _COMMANDS[args.command](args)
    except (TvklError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
