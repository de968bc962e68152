"""Command-line front end.

Exit codes: 0 success, 1 verification/bounds failure, 2 input or parse
error, 3 enumeration or gadget minor cap exceeded.  All machine-readable
numbers are exact "p/q" strings; pass --decimal for an additional rounded
rendering.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import jsonio
from .dpp import sample_exact, z_forest, z_tree
from .errors import CapExceeded
from .graphs import count_perfect_matchings, count_spanning_trees
from .linalg import unconstrained_normalizer
from .mixed_disc import mixed_discriminant
from .rational import as_rational, bit_length, format_decimal, format_rational
from .reductions import (
    DEFAULT_GADGET_MINOR_CAP,
    OracleSpec,
    apreduce_md_to_zf,
    apreduce_md_to_zt,
    count_pm_via_zt,
    zt_via_zf,
)
from .verify import run_verification


@dataclass
class RunConfig:
    command: str
    inputs: list = field(default_factory=list)
    epsilon: object = None
    oracle_mode: str = "exact"
    noise: object = None
    seed: int = 0
    direction: str = "up"
    count: int = 10
    max_edges: int | None = None
    max_vertices: int | None = None
    json_path: str | None = None
    decimal: int | None = None
    size: int = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedpp",
        description=(
            "Exact normalizing constants for tree- and forest-constrained "
            "DPPs, with the reductions from the mixed discriminant."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *inputs, caps=()):
        """A subcommand offering only the cap flags in caps that it reads."""
        p = sub.add_parser(name, help=help_text)
        for meta in inputs:
            p.add_argument(meta, help=f"path to the {meta} JSON file")
        p.add_argument("--decimal", type=int, default=None, metavar="K",
                       help="also print a K-digit decimal rendering")
        p.add_argument("--json", dest="json_path", default=None, metavar="OUT",
                       help="write a JSON result to OUT")
        if "edges" in caps:
            p.add_argument("--max-edges", type=int, default=None, metavar="N",
                           help="override the forest (and matching gadget) edge cap")
        if "vertices" in caps:
            p.add_argument("--max-vertices", type=int, default=None, metavar="N",
                           help="override the spanning-tree vertex cap")
        return p

    add("zt", "tree-constrained normalizer of an instance bundle", "bundle",
        caps=("vertices",))
    add("zf", "forest-constrained normalizer of an instance bundle", "bundle",
        caps=("edges",))
    add("znorm", "unconstrained normalizer det(A + I) of a matrix file", "matrix")
    add("count-trees", "weighted spanning-tree count of a graph file", "graph")
    add("count-pm", "brute-force perfect matching count", "bipartite")
    add("mixed-disc", "brute-force mixed discriminant", "instance")
    p = add("sample", "draw subsets from a constrained DPP", "bundle",
            caps=("vertices", "edges"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    add("reduce-pm-zt", "matching count via the gadget tree normalizer", "bipartite",
        caps=("edges",))
    add("reduce-zt-zf", "tree normalizer via forest interpolation", "bundle",
        caps=("edges",))
    for name in ("apreduce-zt", "apreduce-zf"):
        p = add(
            name,
            f"mixed discriminant estimate via {name[-2:]}; the closed-form "
            f"gadget oracle enumerates no trees or forests, and a gadget with "
            f"more than {DEFAULT_GADGET_MINOR_CAP} nonempty left subsets "
            f"(n >= 5) is refused with exit 3",
            "instance",
        )
        p.add_argument("--epsilon", default="1/2", metavar="P/Q")
        p.add_argument("--oracle", dest="oracle_mode", default="exact",
                       choices=("exact", "noisy", "adversarial"))
        p.add_argument("--noise", default=None, metavar="P/Q",
                       help="override the simulated oracle tolerance")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--direction", default="up", choices=("up", "down"),
                       help="adversarial bias direction")
    p = sub.add_parser("verify", help="run the seeded property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", dest="size", type=int, default=3,
                   help="instance size knob for the heavier checks")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in (
        "epsilon", "oracle_mode", "noise", "seed", "direction", "count",
        "max_edges", "max_vertices", "json_path", "decimal", "size",
    ):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    for name in ("bundle", "matrix", "graph", "bipartite", "instance"):
        if hasattr(args, name):
            cfg.inputs.append(getattr(args, name))
    return cfg


def _emit_value(cfg: RunConfig, value, label="value") -> None:
    print(format_rational(value))
    if cfg.decimal is not None:
        print(format_decimal(value, cfg.decimal))
    if cfg.json_path:
        jsonio.write_json(cfg.json_path, {label: format_rational(value)})


def _oracle_spec(cfg: RunConfig) -> OracleSpec:
    return OracleSpec(
        mode=cfg.oracle_mode,
        noise=None if cfg.noise is None else as_rational(cfg.noise),
        seed=cfg.seed,
        direction=1 if cfg.direction == "up" else -1,
    )


def run(cfg: RunConfig) -> int:
    if cfg.command == "zt":
        dpp = jsonio.load_bundle(jsonio.read_json(cfg.inputs[0]))
        if dpp.graph is None:
            raise ValueError("bundle needs a graph for the tree normalizer")
        _emit_value(cfg, z_tree(dpp.matrix, dpp.graph, max_vertices=cfg.max_vertices))
        return 0
    if cfg.command == "zf":
        dpp = jsonio.load_bundle(jsonio.read_json(cfg.inputs[0]))
        if dpp.graph is None:
            raise ValueError("bundle needs a graph for the forest normalizer")
        _emit_value(cfg, z_forest(dpp.matrix, dpp.graph, max_edges=cfg.max_edges))
        return 0
    if cfg.command == "znorm":
        matrix = jsonio.load_weighted_psd(jsonio.read_json(cfg.inputs[0]))
        _emit_value(cfg, unconstrained_normalizer(matrix))
        return 0
    if cfg.command == "count-trees":
        graph, weights = jsonio.load_graph(jsonio.read_json(cfg.inputs[0]))
        _emit_value(cfg, count_spanning_trees(graph, weights))
        return 0
    if cfg.command == "count-pm":
        bip = jsonio.load_bipartite(jsonio.read_json(cfg.inputs[0]))
        _emit_value(cfg, count_perfect_matchings(bip))
        return 0
    if cfg.command == "mixed-disc":
        inst = jsonio.load_md_instance(jsonio.read_json(cfg.inputs[0]))
        _emit_value(cfg, mixed_discriminant(inst))
        return 0
    if cfg.command == "sample":
        dpp = jsonio.load_bundle(jsonio.read_json(cfg.inputs[0]))
        draws = sample_exact(
            dpp, seed=cfg.seed, count=cfg.count,
            max_vertices=cfg.max_vertices, max_edges=cfg.max_edges,
        )
        for subset in draws:
            print(json.dumps(list(subset)))
        if cfg.json_path:
            jsonio.write_json(cfg.json_path, {"samples": [list(s) for s in draws]})
        return 0
    if cfg.command == "reduce-pm-zt":
        bip = jsonio.load_bipartite(jsonio.read_json(cfg.inputs[0]))
        _emit_value(cfg, count_pm_via_zt(bip, max_edges=cfg.max_edges))
        return 0
    if cfg.command == "reduce-zt-zf":
        dpp = jsonio.load_bundle(jsonio.read_json(cfg.inputs[0]))
        if dpp.graph is None:
            raise ValueError("bundle needs a graph for interpolation")
        _emit_value(cfg, zt_via_zf(dpp.matrix, dpp.graph, max_edges=cfg.max_edges))
        return 0
    if cfg.command in ("apreduce-zt", "apreduce-zf"):
        inst = jsonio.load_md_instance(jsonio.read_json(cfg.inputs[0]))
        runner = apreduce_md_to_zt if cfg.command == "apreduce-zt" else apreduce_md_to_zf
        report = runner(inst, as_rational(cfg.epsilon), oracle=_oracle_spec(cfg))
        if report.declared_zero:
            print("D = 0")
        else:
            print(format_rational(report.estimate))
            if cfg.decimal is not None:
                print(format_decimal(report.estimate, cfg.decimal))
            print(f"x bits: {bit_length(report.x)}", file=sys.stderr)
            if report.y is not None:
                print(f"y bits: {bit_length(report.y)}", file=sys.stderr)
        if cfg.json_path:
            jsonio.write_json(cfg.json_path, jsonio.report_to_obj(report))
        return 0 if report.bounds_pass else 1
    if cfg.command == "verify":
        results = run_verification(seed=cfg.seed, size=cfg.size)
        failed = 0
        for name, ok, detail in results:
            if ok:
                print(f"PASS {name}")
            else:
                failed += 1
                print(f"FAIL {name}: {detail}")
        print(f"{len(results) - failed}/{len(results)} properties passed")
        return 0 if failed == 0 else 1
    raise ValueError(f"unknown command {cfg.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    try:
        return run(cfg)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
