"""Exact normalizing constants and exact sampling for constrained DPPs.

One stream, _family, enumerates each constraint's family outright: spanning
trees, forests, transversals, or every subset.  The tree, forest and
partition normalizers are one sum of exact principal minors over it
(_normalizer), and sample_exact reads the same stream in the same order;
only the unconstrained normalizer has a closed form, det(L + I).  The point
is bit-exact ground truth at desk scale, not asymptotic efficiency: the
sum neither prunes zero minors nor updates them incrementally.

Tree and forest normalizers are #P-hard, so _family is also the one place
that caps an enumeration: before the first set it computes the family's
size and refuses (CapExceeded, CLI exit 3) a family of more than
DEFAULT_FAMILY_CAP sets.  Trees are counted by the matrix-tree theorem,
transversals by the product of the part sizes and subsets as 2^m; forests
are bounded above by det(L + I), the rooted-forest count, so a forest
family can be refused while its true size is under the cap.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from math import prod
from typing import Iterable, Sequence

from .errors import CapExceeded
from .graphs import (
    Graph,
    count_rooted_forests,
    count_spanning_trees,
    enumerate_forests,
    enumerate_spanning_trees,
)
from .linalg import WeightedPSD, unconstrained_normalizer
from .rational import Rat, Rational

# The most sets one family enumeration may visit; _family reads it per call.
DEFAULT_FAMILY_CAP = 200_000

CONSTRAINTS = ("tree", "forest", "partition", "none")


class ConstrainedDPP:
    """A weighted PSD kernel together with a subset constraint.

    constraint is one of "tree" / "forest" (requires a graph whose edge ids
    match the matrix labels), "partition" (one item per part), or "none".
    """

    def __init__(
        self,
        matrix: WeightedPSD,
        constraint: str,
        graph: Graph | None = None,
        parts: Sequence[Sequence] | None = None,
    ):
        if constraint not in CONSTRAINTS:
            raise ValueError(f"unknown constraint {constraint!r}")
        if constraint in ("tree", "forest"):
            if graph is None:
                raise ValueError(f"constraint {constraint!r} requires a graph")
            if set(matrix.labels) != set(graph.edge_by_id):
                raise ValueError("matrix labels do not match graph edge ids")
        if constraint == "partition":
            if parts is None:
                raise ValueError("constraint 'partition' requires parts")
            parts = tuple(tuple(p) for p in parts)
            flat = [a for part in parts for a in part]
            if len(flat) != len(set(flat)):
                raise ValueError("parts must be disjoint")
            if set(flat) != set(matrix.labels):
                raise ValueError("parts must cover exactly the matrix labels")
        self.matrix = matrix
        self.constraint = constraint
        self.graph = graph
        self.parts = parts

    def __repr__(self):
        return f"ConstrainedDPP(constraint={self.constraint!r}, m={self.matrix.dimension})"


def z_tree(matrix: WeightedPSD, graph: Graph) -> Rational:
    """Sum of weighted principal minors over all spanning trees; 0 if disconnected."""
    return _normalizer(ConstrainedDPP(matrix, "tree", graph=graph))


def z_forest(matrix: WeightedPSD, graph: Graph) -> Rational:
    """Sum of weighted principal minors over all forests, including the empty set."""
    return _normalizer(ConstrainedDPP(matrix, "forest", graph=graph))


def partition_constrained_sum(matrix: WeightedPSD, parts: Sequence[Sequence]) -> Rational:
    """Sum of minors over all transversals picking one label from each part."""
    return _normalizer(ConstrainedDPP(matrix, "partition", parts=parts))


class _SplitMix64:
    """Deterministic 64-bit generator (splitmix64), identical on every platform."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)


def _normalizer(dpp: ConstrainedDPP) -> Rational:
    """Sum of dpp.matrix.minor over dpp's family; det(L + I) when unconstrained."""
    if dpp.constraint == "none":
        return unconstrained_normalizer(dpp.matrix)
    total = Rat(0)
    for subset in _family(dpp):
        total += dpp.matrix.minor(subset)
    return total


def _family(dpp: ConstrainedDPP) -> Iterable[tuple]:
    """The family of dpp's constraint as label tuples, in a fixed order.

    Raises CapExceeded, before any set is produced, when the family's size
    (for forests, its upper bound det(L + I)) exceeds DEFAULT_FAMILY_CAP.
    """
    if dpp.constraint == "tree":
        size, what = int(count_spanning_trees(dpp.graph)), "spanning trees"
    elif dpp.constraint == "forest":
        size, what = count_rooted_forests(dpp.graph), "rooted forests, det(L + I),"
    elif dpp.constraint == "partition":
        size, what = prod(len(part) for part in dpp.parts), "transversals"
    else:
        size, what = 1 << dpp.matrix.dimension, "subsets"
    if size > DEFAULT_FAMILY_CAP:
        raise CapExceeded(
            f"enumeration cap: {size} {what} exceed DEFAULT_FAMILY_CAP = {DEFAULT_FAMILY_CAP}"
        )
    if dpp.constraint == "tree":
        return enumerate_spanning_trees(dpp.graph)
    if dpp.constraint == "forest":
        return enumerate_forests(dpp.graph)
    if dpp.constraint == "partition":
        return product(*(sorted(part) for part in dpp.parts))
    labels = sorted(dpp.matrix.labels)

    def subsets():
        for mask in range(1 << len(labels)):
            yield tuple(labels[i] for i in range(len(labels)) if mask >> i & 1)

    return subsets()


def sample_exact(dpp: ConstrainedDPP, seed: int, count: int) -> list:
    """Draw i.i.d. subsets with probability minor(S)/Z by inverse CDF.

    The generator is a seeded splitmix64 stream mapped to a rational in
    [0, 1) with 128-bit resolution, so runs are reproducible everywhere and
    the selection against exact cumulative sums never rounds.  Subsets with
    zero minor stay in the enumeration but are never selected.  The whole
    family is held in memory, which _family's cap bounds: at most
    DEFAULT_FAMILY_CAP outcomes and their cumulative sums.
    """
    if count < 0:
        raise ValueError(f"sample count must be nonnegative, got {count}")
    outcomes = []
    cums = []
    total = Rat(0)
    for subset in _family(dpp):
        mass = dpp.matrix.minor(subset)
        total += mass
        outcomes.append(tuple(sorted(subset)))
        cums.append(total)
    if total == 0:
        raise ValueError("empty support")
    gen = _SplitMix64(seed)
    draws = []
    for _ in range(count):
        r = (gen.next64() << 64) | gen.next64()
        threshold = Rat(r, 1 << 128) * total
        draws.append(outcomes[bisect_right(cums, threshold)])
    return draws
