"""JSON file formats: matrices, graphs, instance bundles, and reports.

Rationals travel as "p/q" (or plain integer) strings so every round trip is
bit-exact.  JSON floats are rejected outright.
"""

from __future__ import annotations

import json
import re
from typing import Mapping

from .dpp import ConstrainedDPP
from .graphs import BipartiteGraph, Graph
from .linalg import SymMatrix, WeightedPSD
from .mixed_disc import MDInstance
from .rational import Rat, _text_int, as_rational, bit_length, format_rational


# Forest-route reports at n = 4, epsilon = 1/2 carry ~20,000 digits per part;
# reading 100,000 takes tens of milliseconds.
MAX_LITERAL_DIGITS = 100_000


def parse_rational(value):
    """An integer, or a string of the form "p" or "p/q" with at most
    MAX_LITERAL_DIGITS digits per part; decimals, exponents, underscores,
    spaces and longer parts are refused before any conversion."""
    if isinstance(value, bool):
        raise ValueError("expected a rational as 'p/q' string or integer")
    if isinstance(value, int):
        return as_rational(value)
    if isinstance(value, str):
        match = re.fullmatch(r"(-?)([0-9]+)(?:/([0-9]+))?", value)
        if not match:
            raise ValueError(f"bad rational literal {value!r}")
        sign, num, den = match.groups(default="1")
        if max(len(num), len(den)) > MAX_LITERAL_DIGITS:
            raise ValueError(
                f"bad rational literal: a part has over {MAX_LITERAL_DIGITS} digits"
            )
        num, den = _text_int(num), _text_int(den)
        if den == 0:
            raise ValueError(f"bad rational literal {value!r}: zero denominator")
        return Rat(-num if sign else num, den)
    raise ValueError(f"expected a rational as 'p/q' string or integer, got {value!r}")


def _require(obj, key, kind):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{kind} object needs a {key!r} field")
    return obj[key]


_OBJECT = "an object"
_ARRAY = "an array"
_ARRAYS = "an array of arrays"
_LABELS = "an array of labels, all strings or all integers"
_KINDS = {
    _OBJECT: lambda v: isinstance(v, dict),
    _ARRAY: lambda v: isinstance(v, list),
    _ARRAYS: lambda v: isinstance(v, list) and all(isinstance(x, list) for x in v),
    # One label type, so labels both hash and sort.
    _LABELS: lambda v: isinstance(v, list)
    and ({type(a) for a in v} <= {str} or {type(a) for a in v} <= {int}),
}


def _typed(value, field, kind):
    """value if it has the JSON shape kind, else a ValueError naming field."""
    if not _KINDS[kind](value):
        raise ValueError(f"{field!r} must be {kind}")
    return value


def load_sym_matrix(obj) -> SymMatrix:
    rows = _typed(_require(obj, "rows", "matrix"), "rows", _ARRAYS)
    labels = obj.get("labels")
    if labels is None:
        labels = [str(i) for i in range(len(rows))]
    _typed(labels, "labels", _LABELS)
    return SymMatrix(labels, [[parse_rational(v) for v in row] for row in rows])


def _weighted(base: SymMatrix, weights) -> WeightedPSD:
    """The base with the optional 'weights' array, parallel to its labels."""
    if weights is None:
        return WeightedPSD(base)
    _typed(weights, "weights", _ARRAY)
    if len(weights) != base.dimension:
        raise ValueError("weights array must parallel the labels")
    return WeightedPSD(
        base, {a: parse_rational(w) for a, w in zip(base.labels, weights)}
    )


def load_weighted_psd(obj) -> WeightedPSD:
    return _weighted(load_sym_matrix(obj), obj.get("weights"))


def dump_sym_matrix(matrix: SymMatrix) -> dict:
    return {
        "labels": list(matrix.labels),
        "rows": [[format_rational(v) for v in row] for row in matrix.entries],
    }


def dump_weighted_psd(matrix: WeightedPSD) -> dict:
    obj = dump_sym_matrix(matrix.base)
    obj["weights"] = [format_rational(matrix.weights[a]) for a in matrix.labels]
    return obj


def _edge_list(edges, width):
    """The 'edges' array as tuples of width labels, one label type per place."""
    _typed(edges, "edges", _ARRAYS)
    if any(len(e) != width for e in edges) or not all(
        _KINDS[_LABELS](list(column)) for column in zip(*edges)
    ):
        raise ValueError(f"'edges' entries must be arrays of {width} labels, "
                         "one label type per place")
    return [tuple(e) for e in edges]


def load_graph(obj) -> tuple:
    """Returns (graph, edge-weight map or None)."""
    vertices = _typed(_require(obj, "vertices", "graph"), "vertices", _LABELS)
    graph = Graph(vertices, _edge_list(_require(obj, "edges", "graph"), 3))
    weights = obj.get("weights")
    if weights is not None:
        _typed(weights, "weights", _OBJECT)
        # JSON object keys are strings, so integer edge ids are keyed by str(id).
        unknown = set(weights) - {str(eid) for eid in graph.edge_by_id}
        if unknown:
            raise ValueError(f"weights reference unknown edges {sorted(unknown)!r}")
        weights = {eid: parse_rational(weights[str(eid)])
                   for eid in graph.edge_by_id if str(eid) in weights}
    return graph, weights


def dump_graph(graph: Graph, weights: Mapping | None = None) -> dict:
    obj = {
        "vertices": list(graph.vertices),
        "edges": [[eid, u, v] for eid, u, v in graph.edges],
    }
    if weights is not None:
        obj["weights"] = {str(eid): format_rational(w) for eid, w in weights.items()}
    return obj


def load_bipartite(obj) -> BipartiteGraph:
    kind = "bipartite graph"
    return BipartiteGraph(
        _typed(_require(obj, "left", kind), "left", _LABELS),
        _typed(_require(obj, "right", kind), "right", _LABELS),
        _edge_list(_require(obj, "edges", kind), 2),
    )


def dump_bipartite(graph: BipartiteGraph) -> dict:
    return {
        "left": list(graph.left),
        "right": list(graph.right),
        "edges": [[u, w] for u, w in graph.edges],
    }


def load_bundle(obj) -> ConstrainedDPP:
    constraint = _require(obj, "constraint", "instance bundle")
    base = load_sym_matrix(_require(obj, "matrix", "instance bundle"))
    matrix = _weighted(base, obj.get("weights"))
    graph = None
    if obj.get("graph") is not None:
        graph, _ = load_graph(obj["graph"])
    parts = obj.get("parts")
    if parts is not None:
        for part in _typed(parts, "parts", _ARRAYS):
            _typed(part, "parts", _LABELS)
    return ConstrainedDPP(matrix, constraint, graph=graph, parts=parts)


def dump_bundle(dpp: ConstrainedDPP) -> dict:
    obj = {
        "graph": dump_graph(dpp.graph) if dpp.graph is not None else None,
        "matrix": dump_sym_matrix(dpp.matrix.base),
        "weights": [format_rational(dpp.matrix.weights[a]) for a in dpp.matrix.labels],
        "constraint": dpp.constraint,
        "parts": [list(p) for p in dpp.parts] if dpp.parts is not None else None,
    }
    return obj


def load_md_instance(obj) -> MDInstance:
    mats = _require(obj, "matrices", "mixed-discriminant instance")
    _typed(mats, "matrices", _ARRAY)
    return MDInstance(tuple(load_sym_matrix(m) for m in mats))


def dump_md_instance(instance: MDInstance) -> dict:
    return {"matrices": [dump_sym_matrix(m) for m in instance.matrices]}


def _opt_rat(value):
    return None if value is None else format_rational(value)


def report_to_obj(report) -> dict:
    obj = {
        "target": report.target,
        "epsilon": format_rational(report.epsilon),
        "oracle_mode": report.oracle_mode,
        "declared_zero": report.declared_zero,
        "witness": list(report.witness) if report.witness is not None else None,
        "x": _opt_rat(report.x),
        "y": _opt_rat(report.y),
        "oracle_value": _opt_rat(report.oracle_value),
        "estimate": _opt_rat(report.estimate),
        "reference": format_rational(report.reference),
        "bounds_check": {
            "lower": format_rational(report.bounds_lower),
            "upper": format_rational(report.bounds_upper),
            "pass": report.bounds_pass,
        },
        "oracle_calls": [
            {"kind": kind, "delta": format_rational(delta)}
            for kind, delta in report.oracle_calls
        ],
    }
    if report.x is not None:
        obj["x_bits"] = bit_length(report.x)
    if report.y is not None:
        obj["y_bits"] = bit_length(report.y)
    return obj


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2, sort_keys=False)
        handle.write("\n")
