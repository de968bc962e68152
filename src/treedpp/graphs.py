"""Simple undirected graphs, exhaustive tree/forest enumeration, and counting.

Enumeration is deletion/contraction with deterministic branching on the
lowest edge id.  It is uncapped here: dpp._family caps each family by its
size, which the two counts below give from one integer Laplacian
determinant each (Kirchhoff's matrix-tree theorem for spanning trees, the
matrix-forest theorem for the rooted-forest bound on forests).  Only the
brute-force perfect-matching count keeps a cap of its own.
"""

from __future__ import annotations

from itertools import permutations
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapExceeded
from .linalg import det_int
from .rational import ONE, Rat, Rational, as_rational

DEFAULT_MATCHING_SIZE_CAP = 10


class Graph:
    """Simple undirected graph with stable, ordered edge identifiers."""

    def __init__(self, vertices: Sequence, edges: Sequence):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex labels must be unique")
        vset = set(vertices)
        seen_ids = set()
        seen_pairs = set()
        norm = []
        for eid, u, v in edges:
            if eid in seen_ids:
                raise ValueError(f"duplicate edge id {eid!r}")
            seen_ids.add(eid)
            if u == v:
                raise ValueError(f"self-loop at {u!r} is not allowed")
            if u not in vset or v not in vset:
                raise ValueError(f"edge {eid!r} references an unknown vertex")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise ValueError(f"parallel edge {eid!r} is not allowed")
            seen_pairs.add(pair)
            norm.append((eid, u, v))
        self.vertices = vertices
        self.edges = tuple(norm)
        self.edge_by_id = {eid: (u, v) for eid, u, v in norm}

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self):
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"


class BipartiteGraph:
    """Balanced bipartite graph; edges run from the left side to the right."""

    def __init__(self, left: Sequence, right: Sequence, edges: Sequence):
        left = tuple(left)
        right = tuple(right)
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise ValueError("side labels must be unique")
        if set(left) & set(right):
            raise ValueError("sides must be disjoint")
        if len(left) != len(right):
            raise ValueError("sides must have equal size")
        lset, rset = set(left), set(right)
        seen = set()
        norm = []
        for u, w in edges:
            if u not in lset or w not in rset:
                raise ValueError(f"edge ({u!r}, {w!r}) must go left to right")
            if (u, w) in seen:
                raise ValueError(f"duplicate edge ({u!r}, {w!r})")
            seen.add((u, w))
            norm.append((u, w))
        self.left = left
        self.right = right
        self.edges = tuple(norm)

    @property
    def size(self) -> int:
        return len(self.left)

    def __repr__(self):
        return f"BipartiteGraph(n={self.size}, |F|={len(self.edges)})"


class _DSU:
    """Union-find without path compression so unions can be undone."""

    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in self.parent}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return rb

    def undo(self, token):
        if token is None:
            return
        ra = self.parent[token]
        self.parent[token] = token
        self.size[ra] -= self.size[token]


def enumerate_spanning_trees(graph: Graph) -> Iterator[tuple]:
    """Yield the edge-id set of every spanning tree, each exactly once.

    Deterministic order: recursion branches on the lowest remaining edge id,
    taking the edge before skipping it.  Disconnected graphs yield nothing.
    """
    edges = sorted(graph.edges)
    dsu = _DSU(graph.vertices)

    def connectable(start: int, components: int) -> bool:
        trail = []
        for idx in range(start, len(edges)):
            _, u, v = edges[idx]
            token = dsu.union(u, v)
            if token is not None:
                trail.append(token)
                components -= 1
                if components == 1:
                    break
        ok = components == 1
        for token in reversed(trail):
            dsu.undo(token)
        return ok

    chosen: list = []

    def rec(start: int, components: int) -> Iterator[tuple]:
        if components == 1:
            yield tuple(chosen)
            return
        if not connectable(start, components):
            return
        for idx in range(start, len(edges)):
            eid, u, v = edges[idx]
            token = dsu.union(u, v)
            if token is None:
                continue
            chosen.append(eid)
            yield from rec(idx + 1, components - 1)
            chosen.pop()
            dsu.undo(token)
            # Every tree not using this edge is produced by the next branch;
            # bail out once no tree can avoid it.
            if not connectable(idx + 1, components):
                return

    # A disconnected or empty graph fails the root's connectable check.
    yield from rec(0, graph.num_vertices)


def enumerate_forests(graph: Graph) -> Iterator[tuple]:
    """Yield every acyclic edge-id subset (including the empty set) once."""
    edges = sorted(graph.edges)
    dsu = _DSU(graph.vertices)
    chosen: list = []

    def rec(idx: int) -> Iterator[tuple]:
        if idx == len(edges):
            yield tuple(chosen)
            return
        eid, u, v = edges[idx]
        token = dsu.union(u, v)
        if token is not None:
            chosen.append(eid)
            yield from rec(idx + 1)
            chosen.pop()
            dsu.undo(token)
        yield from rec(idx + 1)

    return rec(0)


def is_forest_subset(graph: Graph, edge_ids: Iterable) -> bool:
    dsu = _DSU(graph.vertices)
    for eid in edge_ids:
        u, v = graph.edge_by_id[eid]
        if dsu.union(u, v) is None:
            return False
    return True


def is_spanning_tree(graph: Graph, edge_ids: Iterable) -> bool:
    ids = list(edge_ids)
    return len(ids) == graph.num_vertices - 1 and is_forest_subset(graph, ids)


def _laplacian(graph: Graph, weights: Mapping | None = None, shift: int = 0) -> list:
    """Rows of L + shift*I over graph.vertices, for integer edge weights
    (1 on every edge when weights is None)."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    lap = [[shift if i == j else 0 for j in range(len(index))] for i in range(len(index))]
    for eid, u, v in graph.edges:
        w = 1 if weights is None else weights[eid]
        iu, iv = index[u], index[v]
        lap[iu][iu] += w
        lap[iv][iv] += w
        lap[iu][iv] -= w
        lap[iv][iu] -= w
    return lap


def count_spanning_trees(graph: Graph, edge_weights: Mapping | None = None) -> Rational:
    """Weighted spanning-tree count via the Laplacian determinant.

    With unit weights this is the number of spanning trees; in general it is
    the sum over spanning trees of the product of edge weights.  Disconnected
    graphs give 0.  The weights are scaled to integers by their common
    denominator q, and the reduced Laplacian's integer determinant is divided
    by q^(|V| - 1).
    """
    n = graph.num_vertices
    if n == 0:
        return Rat(0)
    weights = {}
    for eid, _, _ in graph.edges:
        w = ONE if edge_weights is None else as_rational(edge_weights.get(eid, ONE))
        if w <= 0:
            raise ValueError(f"edge weight for {eid!r} must be positive")
        weights[eid] = w
    scale = lcm(*(w.denominator for w in weights.values()))
    lap = _laplacian(graph, {eid: w.numerator * (scale // w.denominator)
                             for eid, w in weights.items()})
    return Rat(det_int([row[:-1] for row in lap[:-1]]), scale ** (n - 1))


def count_rooted_forests(graph: Graph) -> int:
    """det(L + I): the number of spanning forests with one marked vertex per
    tree (the matrix-forest theorem), so at least the number of forests."""
    return det_int(_laplacian(graph, shift=1))


def count_perfect_matchings(graph: BipartiteGraph) -> int:
    """Brute-force perfect-matching count over all left-to-right bijections."""
    n = graph.size
    if n > DEFAULT_MATCHING_SIZE_CAP:
        raise CapExceeded(
            f"matching enumeration cap: n = {n} exceeds {DEFAULT_MATCHING_SIZE_CAP}"
        )
    if n == 0:
        return 1
    right_index = {w: j for j, w in enumerate(graph.right)}
    adjacent = [set() for _ in range(n)]
    for i, u in enumerate(graph.left):
        for a, w in graph.edges:
            if a == u:
                adjacent[i].add(right_index[w])
    count = 0
    for perm in permutations(range(n)):
        if all(perm[i] in adjacent[i] for i in range(n)):
            count += 1
    return count
