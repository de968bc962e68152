import random
from itertools import combinations

import pytest

from treedpp import graphs
from treedpp.errors import CapExceeded
from treedpp.graphs import (
    BipartiteGraph,
    Graph,
    count_perfect_matchings,
    count_rooted_forests,
    count_spanning_trees,
    enumerate_forests,
    enumerate_spanning_trees,
    is_forest_subset,
    is_spanning_tree,
)
from treedpp.dpp import z_tree
from treedpp.linalg import SymMatrix, WeightedPSD
from treedpp.rational import ONE, Rat
from treedpp.verify import (
    complete_graph,
    random_bipartite,
    random_connected_graph,
    rooted_forest_sum,
    triangle_graph,
)


def complete_bipartite(n):
    left = [f"u{i}" for i in range(n)]
    right = [f"w{i}" for i in range(n)]
    return BipartiteGraph(left, right, [(u, w) for u in left for w in right])


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(("a", "b"), (("e", "a", "a"),))

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError, match="parallel"):
            Graph(("a", "b"), (("e1", "a", "b"), ("e2", "b", "a")))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate edge id"):
            Graph(("a", "b", "c"), (("e", "a", "b"), ("e", "b", "c")))

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            Graph(("a",), (("e", "a", "zzz"),))

    def test_bipartite_requires_balance(self):
        with pytest.raises(ValueError, match="equal size"):
            BipartiteGraph(("u1", "u2"), ("w1",), ())


class TestSpanningTrees:
    def test_triangle(self):
        trees = list(enumerate_spanning_trees(triangle_graph()))
        assert trees == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_path_has_one_tree(self):
        g = Graph(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
        assert list(enumerate_spanning_trees(g)) == [("a", "b")]

    def test_disconnected_is_empty(self):
        g = Graph(("1", "2"), ())
        assert list(enumerate_spanning_trees(g)) == []

    def test_single_vertex(self):
        g = Graph(("1",), ())
        assert list(enumerate_spanning_trees(g)) == [()]

    def test_zero_vertices_is_empty(self):
        g = Graph((), ())
        assert list(enumerate_spanning_trees(g)) == []
        assert z_tree(WeightedPSD(SymMatrix((), [])), g) == 0

    @pytest.mark.parametrize("vertices, ids", [
        (("1", "2", "3"), ("a", "b", "c")),
        (("1", "2", "3", "4"), ("a", "b", "c")),
        (("1", "2", "3", "4"), ("a", "b")),
        (("1", "2", "3"), ("a", "a")),
    ], ids=["too-many-edges", "cycle-of-right-size", "too-few-edges", "repeated-edge"])
    def test_non_trees_rejected(self, vertices, ids):
        g = Graph(vertices, triangle_graph().edges)
        assert not is_spanning_tree(g, ids)

    def test_enumeration_is_not_capped_by_size(self):
        # 13 vertices, one tree: the graph's size no longer refuses it.
        path = Graph([str(i) for i in range(13)],
                     [(f"e{i:02d}", str(i), str(i + 1)) for i in range(12)])
        assert list(enumerate_spanning_trees(path)) == [tuple(sorted(path.edge_by_id))]

    def test_yields_are_spanning_trees(self):
        rng = random.Random(3)
        for _ in range(6):
            g = random_connected_graph(rng, rng.randint(3, 7), extra_edges=rng.randint(0, 3))
            trees = list(enumerate_spanning_trees(g))
            assert len(set(trees)) == len(trees)
            for t in trees:
                assert len(t) == g.num_vertices - 1
                assert is_spanning_tree(g, t)

    def test_count_matches_enumeration(self):
        rng = random.Random(9)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(2, 8), extra_edges=rng.randint(0, 3))
            assert Rat(len(list(enumerate_spanning_trees(g)))) == count_spanning_trees(g)


class TestForests:
    def test_triangle_has_seven(self):
        forests = set(enumerate_forests(triangle_graph()))
        assert len(forests) == 7
        assert ("a", "b", "c") not in forests
        assert () in forests

    def test_single_edge(self):
        g = Graph(("1", "2"), (("e", "1", "2"),))
        assert sorted(enumerate_forests(g)) == [(), ("e",)]

    def test_two_disjoint_edges(self):
        g = Graph(("1", "2", "3", "4"), (("a", "1", "2"), ("b", "3", "4")))
        assert len(list(enumerate_forests(g))) == 4

    def test_rooted_forest_count_bounds_forests(self):
        # det(L + I) of K_n is (n + 1)^(n - 1).  The triangle's 7 forests
        # have 1 + 3*2 + 3*3 = 16 choices of one root per tree.
        assert rooted_forest_sum(triangle_graph()) == 16
        for n in range(1, 7):
            assert count_rooted_forests(complete_graph(n)) == (n + 1) ** (n - 1)
        rng = random.Random(21)
        for _ in range(5):
            g = random_connected_graph(rng, rng.randint(2, 6), extra_edges=rng.randint(0, 3))
            assert count_rooted_forests(g) == rooted_forest_sum(g)
            assert count_rooted_forests(g) >= len(list(enumerate_forests(g)))

    def test_matches_brute_force(self):
        rng = random.Random(15)
        for _ in range(5):
            g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(0, 3))
            forests = list(enumerate_forests(g))
            assert len(set(forests)) == len(forests)
            ids = sorted(g.edge_by_id)
            brute = set()
            for k in range(len(ids) + 1):
                for subset in combinations(ids, k):
                    if is_forest_subset(g, subset):
                        brute.add(subset)
            assert set(forests) == brute


class TestTreeCount:
    def test_k4_cayley(self):
        assert count_spanning_trees(complete_graph(4)) == 16

    def test_weighted_triangle(self):
        weights = {"a": Rat(2), "b": Rat(3), "c": Rat(5)}
        # Trees {a,b}, {b,c}, {a,c}: 6 + 15 + 10.
        assert count_spanning_trees(triangle_graph(), weights) == 31

    def test_disconnected_is_zero(self):
        g = Graph(("1", "2", "3"), (("a", "1", "2"),))
        assert count_spanning_trees(g) == 0

    def test_weighted_matches_enumeration(self):
        rng = random.Random(21)
        for _ in range(6):
            g = random_connected_graph(rng, rng.randint(3, 8), extra_edges=rng.randint(0, 2))
            weights = {eid: Rat(rng.randint(1, 6), rng.choice((1, 2))) for eid in g.edge_by_id}
            total = Rat(0)
            for tree in enumerate_spanning_trees(g):
                term = ONE
                for eid in tree:
                    term *= weights[eid]
                total += term
            assert count_spanning_trees(g, weights) == total


class TestPerfectMatchings:
    def test_k22(self):
        assert count_perfect_matchings(complete_bipartite(2)) == 2

    def test_k33_factorial(self):
        assert count_perfect_matchings(complete_bipartite(3)) == 6

    def test_single_edge(self):
        b = BipartiteGraph(("u",), ("w",), (("u", "w"),))
        assert count_perfect_matchings(b) == 1

    def test_no_edges(self):
        assert count_perfect_matchings(BipartiteGraph(("u",), ("w",), ())) == 0

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(graphs, "DEFAULT_MATCHING_SIZE_CAP", 2)
        with pytest.raises(CapExceeded, match="n = 3 exceeds 2"):
            count_perfect_matchings(complete_bipartite(3))

    def test_matches_ryser(self):
        # Independent oracle: Ryser's inclusion-exclusion permanent.
        rng = random.Random(27)
        for _ in range(10):
            n = rng.randint(1, 4)
            b = random_bipartite(rng, n)
            grid = [[0] * n for _ in range(n)]
            li = {u: i for i, u in enumerate(b.left)}
            ri = {w: j for j, w in enumerate(b.right)}
            for u, w in b.edges:
                grid[li[u]][ri[w]] = 1
            perm = 0
            for mask in range(1 << n):
                rowsums = 1
                for i in range(n):
                    s = sum(grid[i][j] for j in range(n) if mask >> j & 1)
                    rowsums *= s
                bits = bin(mask).count("1")
                perm += (-1) ** (n - bits) * rowsums
            assert count_perfect_matchings(b) == perm
