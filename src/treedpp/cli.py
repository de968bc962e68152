"""Command-line front end.

Exit codes: 0 success, 1 verification/bounds failure, 2 input or parse
error, 3 enumeration or gadget minor cap exceeded.  All machine-readable
numbers are exact "p/q" strings; pass --decimal K, 0 <= K <=
MAX_DECIMAL_DIGITS, for an additional rounded rendering.  A negative or
larger K, or a negative --count, is a parse error (exit 2) before any
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio
from .dpp import sample_exact, z_forest, z_tree
from .errors import CapExceeded
from .graphs import count_perfect_matchings, count_spanning_trees
from .linalg import unconstrained_normalizer
from .mixed_disc import mixed_discriminant
from .rational import bit_length, format_decimal, format_rational
from .reductions import (
    DEFAULT_GADGET_MINOR_CAP,
    OracleSpec,
    apreduce_md_to_zf,
    apreduce_md_to_zt,
    count_pm_via_zt,
    zt_via_zf,
)
from .verify import run_verification


def _emit_value(args, value) -> int:
    print(format_rational(value))
    if args.decimal is not None:
        print(format_decimal(value, args.decimal))
    if args.json_path:
        jsonio.write_json(args.json_path, {"value": format_rational(value)})
    return 0


def _read(args):
    return jsonio.read_json(args.path)


def _graph_bundle(args, purpose):
    dpp = jsonio.load_bundle(_read(args))
    if dpp.graph is None:
        raise ValueError(f"bundle needs a graph for {purpose}")
    return dpp


# Handlers name library functions as module globals, looked up per call, so
# that rebinding a name here (tracing, negative controls) reaches them.


def _zt(args):
    dpp = _graph_bundle(args, "the tree normalizer")
    return _emit_value(args, z_tree(dpp.matrix, dpp.graph))


def _zf(args):
    dpp = _graph_bundle(args, "the forest normalizer")
    return _emit_value(args, z_forest(dpp.matrix, dpp.graph))


def _znorm(args):
    return _emit_value(args, unconstrained_normalizer(jsonio.load_weighted_psd(_read(args))))


def _count_trees(args):
    graph, weights = jsonio.load_graph(_read(args))
    return _emit_value(args, count_spanning_trees(graph, weights))


def _count_pm(args):
    return _emit_value(args, count_perfect_matchings(jsonio.load_bipartite(_read(args))))


def _mixed_disc(args):
    return _emit_value(args, mixed_discriminant(jsonio.load_md_instance(_read(args))))


def _sample(args):
    draws = sample_exact(jsonio.load_bundle(_read(args)), seed=args.seed, count=args.count)
    for subset in draws:
        print(json.dumps(list(subset)))
    if args.json_path:
        jsonio.write_json(args.json_path, {"samples": [list(s) for s in draws]})
    return 0


def _reduce_pm_zt(args):
    return _emit_value(args, count_pm_via_zt(jsonio.load_bipartite(_read(args))))


def _reduce_zt_zf(args):
    dpp = _graph_bundle(args, "interpolation")
    return _emit_value(args, zt_via_zf(dpp.matrix, dpp.graph))


def _apreduce(args):
    inst = jsonio.load_md_instance(_read(args))
    runner = apreduce_md_to_zt if args.command == "apreduce-zt" else apreduce_md_to_zf
    oracle = OracleSpec(
        mode=args.oracle_mode,
        noise=None if args.noise is None else jsonio.parse_rational(args.noise),
        seed=args.seed,
        direction=1 if args.direction == "up" else -1,
    )
    report = runner(inst, jsonio.parse_rational(args.epsilon), oracle=oracle)
    if report.declared_zero:
        print("D = 0")
    else:
        print(format_rational(report.estimate))
        if args.decimal is not None:
            print(format_decimal(report.estimate, args.decimal))
        print(f"x bits: {bit_length(report.x)}", file=sys.stderr)
        if report.y is not None:
            print(f"y bits: {bit_length(report.y)}", file=sys.stderr)
    if args.json_path:
        jsonio.write_json(args.json_path, jsonio.report_to_obj(report))
    return 0 if report.bounds_pass else 1


def _verify(args):
    results = run_verification(seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        if ok:
            print(f"PASS {name}")
        else:
            failed += 1
            print(f"FAIL {name}: {detail}")
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 0 if failed == 0 else 1


# The largest --decimal K: its rendering costs a 10^K multiplication.
MAX_DECIMAL_DIGITS = 10_000


def _bounded_int(low, high=None):
    """argparse type: an int in [low, high], or a parse error (exit 2)."""

    def parse(text):
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's name for an unparsable value
    return parse


# flag: argparse keywords.
_OPTIONS = {
    "--seed": dict(type=int, default=0),
    "--count": dict(type=_bounded_int(0), default=10),
    "--epsilon": dict(default="1/2", metavar="P/Q"),
    "--oracle": dict(dest="oracle_mode", default="exact",
                     choices=("exact", "noisy", "adversarial")),
    "--noise": dict(metavar="P/Q", help="override the simulated oracle tolerance"),
    "--direction": dict(default="up", choices=("up", "down"),
                        help="adversarial bias direction"),
}
_APREDUCE_OPTIONS = ("--epsilon", "--oracle", "--noise", "--seed", "--direction")
_APREDUCE_HELP = (
    "mixed discriminant estimate via {}; the closed-form gadget oracle "
    "enumerates no trees or forests, and a gadget with more than "
    f"{DEFAULT_GADGET_MINOR_CAP} nonempty left subsets (n >= 5) is refused "
    "with exit 3"
)

# The forest commands' refusal; DEFAULT_FAMILY_CAP lives in treedpp.dpp.
_FOREST_CAP_HELP = (
    "; a graph whose forest bound det(L + I) exceeds DEFAULT_FAMILY_CAP is "
    "refused with exit 3"
)

# name: (help, input file, options, handler).  A command offers only the
# options it reads, so any other is a parse error, not silently dropped.
COMMANDS = {
    "zt": ("tree-constrained normalizer of an instance bundle; a graph with "
           "more than DEFAULT_FAMILY_CAP spanning trees is refused with exit 3",
           "bundle", (), _zt),
    "zf": ("forest-constrained normalizer of an instance bundle" + _FOREST_CAP_HELP,
           "bundle", (), _zf),
    "znorm": ("unconstrained normalizer det(A + I) of a matrix file", "matrix",
              (), _znorm),
    "count-trees": ("weighted spanning-tree count of a graph file", "graph",
                    (), _count_trees),
    "count-pm": ("brute-force perfect matching count", "bipartite", (), _count_pm),
    "mixed-disc": ("brute-force mixed discriminant", "instance", (), _mixed_disc),
    "sample": ("draw subsets from a constrained DPP; a family of more than "
               "DEFAULT_FAMILY_CAP sets (for forests, det(L + I)) is refused "
               "with exit 3", "bundle", ("--seed", "--count"), _sample),
    "reduce-pm-zt": (
        "matching count via the gadget tree normalizer, from the closed-form "
        "gadget oracle; a gadget with more than "
        f"{DEFAULT_GADGET_MINOR_CAP} nonempty left subsets (over 16 bipartite "
        "edges) is refused with exit 3",
        "bipartite", (), _reduce_pm_zt),
    "reduce-zt-zf": ("tree normalizer via forest interpolation" + _FOREST_CAP_HELP,
                     "bundle", (), _reduce_zt_zf),
    "apreduce-zt": (_APREDUCE_HELP.format("zt"), "instance", _APREDUCE_OPTIONS,
                    _apreduce),
    "apreduce-zf": (_APREDUCE_HELP.format("zf"), "instance", _APREDUCE_OPTIONS,
                    _apreduce),
    "verify": ("run the seeded property suite", None, ("--seed",), _verify),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedpp",
        description=(
            "Exact normalizing constants for tree- and forest-constrained "
            "DPPs, with the reductions from the mixed discriminant."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, meta, options, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if meta is not None:
            p.add_argument("path", metavar=meta, help=f"path to the {meta} JSON file")
            p.add_argument("--decimal", type=_bounded_int(0, MAX_DECIMAL_DIGITS),
                           metavar="K",
                           help="also print a K-digit decimal rendering, "
                           f"0 <= K <= {MAX_DECIMAL_DIGITS}")
            p.add_argument("--json", dest="json_path", metavar="OUT",
                           help="write a JSON result to OUT")
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def run(args: argparse.Namespace) -> int:
    return args.handler(args)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
