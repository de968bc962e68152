"""Independence oracles and two-matroid intersection for witness searches.

Intersection is the classical exchange-graph scheme: breadth-first shortest
augmenting paths with lexicographic tie-breaking, so results are
deterministic.  Independence queries are memoized per oracle; exactness
comes from the rational minor tests underneath.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .linalg import WeightedPSD

if TYPE_CHECKING:  # pragma: no cover
    from .reductions import GadgetInstance


@dataclass(frozen=True)
class IndependenceOracle:
    ground: tuple
    is_independent: Callable
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def independent(self, subset: Iterable) -> bool:
        key = frozenset(subset)
        hit = self._cache.get(key)
        if hit is None:
            hit = bool(self.is_independent(key))
            self._cache[key] = hit
        return hit


def linear_matroid(matrix: WeightedPSD) -> IndependenceOracle:
    """Independence = strictly positive principal minor of the weighted Gram."""
    return IndependenceOracle(
        ground=tuple(matrix.labels),
        is_independent=lambda s: matrix.minor(s) > 0,
    )


def partition_matroid(parts: Sequence[Sequence], capacities: Sequence[int]) -> IndependenceOracle:
    """Independence = at most cap_i labels from each part P_i."""
    parts = tuple(tuple(p) for p in parts)
    caps = tuple(int(c) for c in capacities)
    if len(parts) != len(caps):
        raise ValueError("need one capacity per part")
    flat = [a for p in parts for a in p]
    if len(flat) != len(set(flat)):
        raise ValueError("parts must be disjoint")
    owner = {a: i for i, p in enumerate(parts) for a in p}

    def indep(subset: frozenset) -> bool:
        used = [0] * len(parts)
        for a in subset:
            i = owner.get(a)
            if i is None:
                return False
            used[i] += 1
            if used[i] > caps[i]:
                return False
        return True

    return IndependenceOracle(ground=tuple(flat), is_independent=indep)


def matroid_intersection(
    oracle1: IndependenceOracle,
    oracle2: IndependenceOracle,
    target_size: int,
) -> tuple | None:
    """A common independent set of the requested size, or None.

    Augments from the empty set along shortest exchange-graph paths.
    Exploration order is sorted by label, so the returned set is the same
    on every run.
    """
    if set(oracle1.ground) != set(oracle2.ground):
        raise ValueError("oracles must share a ground set")
    if not oracle1.independent(()) or not oracle2.independent(()):
        raise ValueError("malformed oracle: empty set must be independent")
    ground = sorted(set(oracle1.ground))
    current: set = set()
    while len(current) < target_size:
        path = _augmenting_path(oracle1, oracle2, ground, current)
        if path is None:
            return None
        current.symmetric_difference_update(path)
    return tuple(sorted(current))


def _augmenting_path(oracle1, oracle2, ground, current) -> list | None:
    """Shortest path from the addable-in-1 elements to the addable-in-2 ones.

    Arcs alternate exchanges: outside -> inside when dropping the inside
    element repairs independence in the second matroid, inside -> outside
    when it repairs the first.  Flipping a shortest path along these arcs
    grows the common independent set by one.
    """
    outside = [z for z in ground if z not in current]
    inside = [x for x in ground if x in current]
    parent: dict = {}
    queue: deque = deque()
    for z in outside:
        if oracle1.independent(current | {z}):
            parent[z] = None
            queue.append(z)
    while queue:
        node = queue.popleft()
        if node not in current:
            if oracle2.independent(current | {node}):
                path = [node]
                while parent[node] is not None:
                    node = parent[node]
                    path.append(node)
                return path
            for x in inside:
                if x not in parent and oracle2.independent((current - {x}) | {node}):
                    parent[x] = node
                    queue.append(x)
        else:
            for z in outside:
                if z not in parent and oracle1.independent((current - {node}) | {z}):
                    parent[z] = node
                    queue.append(z)
    return None


def find_witness(instance: "GadgetInstance") -> tuple | None:
    """An edge set containing all right edges whose minor is positive.

    Contracting the right edges (the kernel is block diagonal with an
    identity on them) reduces the search to a common independent transversal
    of the left-edge linear matroid and the one-per-part partition matroid.
    Independence is a positive minor of the gadget's source block
    (GadgetInstance.left_minor): no copy and no PSD test, and the moment
    search (gadget_moments) then reuses its determinant cache.
    Returns the full edge set, sorted, or None.
    """
    lin = IndependenceOracle(
        ground=tuple(instance.left_edges),
        is_independent=lambda s: instance.left_minor(s) > 0,
    )
    part = partition_matroid(instance.parts, [1] * len(instance.parts))
    picked = matroid_intersection(lin, part, len(instance.parts))
    if picked is None:
        return None
    return tuple(sorted(set(picked) | set(instance.right_edges)))
