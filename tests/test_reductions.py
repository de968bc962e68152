import hashlib
import json
import random

import pytest

from treedpp import dpp, graphs, jsonio, linalg, reductions
from treedpp.cli import main
from treedpp.dpp import partition_constrained_sum, z_forest, z_tree
from treedpp.errors import CapExceeded
from treedpp.graphs import BipartiteGraph, enumerate_spanning_trees, is_spanning_tree
from treedpp.jsonio import report_to_obj
from treedpp.linalg import (
    SymMatrix,
    WeightedPSD,
    det_bareiss,
    is_psd,
    ldlt,
    unconstrained_normalizer,
)
from treedpp.mixed_disc import (
    MDInstance,
    PartitionInstance,
    build_partition_instance,
    mixed_discriminant,
)
from treedpp.matroid import find_witness
from treedpp.rational import ONE, Rat, bit_length, exp_enclosure
from treedpp.reductions import (
    OracleSpec,
    apreduce_md_to_zf,
    apreduce_md_to_zt,
    build_md_gadget,
    build_pm_gadget,
    count_pm_via_zt,
    gadget_moments,
    gadget_z_exact,
    lagrange_leading_coeff,
    median_estimate,
    reduction_factors,
    reweight_rank_one,
    zt_via_zf,
)
from treedpp.verify import (
    random_bipartite,
    random_connected_graph,
    random_gram,
    random_md_instance,
    random_weighted_psd,
    triangle_graph,
)


def identity_md(n):
    eye = SymMatrix(
        [str(i) for i in range(n)],
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
    )
    return MDInstance((eye,) * n)


def complete_bipartite(n):
    left = tuple(f"u{i}" for i in range(n))
    right = tuple(f"w{i}" for i in range(n))
    return BipartiteGraph(left, right, [(u, w) for u in left for w in right])


class TestPmGadget:
    def test_single_edge_is_path(self):
        b = BipartiteGraph(("u",), ("w",), (("u", "w"),))
        inst = build_pm_gadget(b)
        assert inst.graph.num_vertices == 3
        assert inst.graph.num_edges == 2
        assert count_pm_via_zt(b) == 1

    def test_k22_shape(self):
        b = BipartiteGraph(("u1", "u2"), ("w1", "w2"),
                           [("u1", "w1"), ("u1", "w2"), ("u2", "w1"), ("u2", "w2")])
        inst = build_pm_gadget(b)
        assert inst.graph.num_vertices == 7
        assert inst.graph.num_edges == 8
        assert is_psd(inst.kernel.base)

    def test_left_block_is_m_by_m(self):
        # One 0/1 matrix over the bipartite edges; the identity right block
        # exists only in the derived 2m x 2m kernel.
        inst = build_pm_gadget(complete_bipartite(3))
        assert inst.left.dimension == 9
        assert inst.left.base[("u0", "w1"), ("u2", "w1")] == 1
        assert inst.left.base[("u0", "w1"), ("u0", "w2")] == 0
        assert inst.kernel.dimension == 18

    def test_k33_counts_matchings(self):
        left = ("u1", "u2", "u3")
        right = ("w1", "w2", "w3")
        b = BipartiteGraph(left, right, [(u, w) for u in left for w in right])
        assert count_pm_via_zt(b) == 6

    def test_k33_surviving_trees_are_matchings(self):
        left = ("u1", "u2", "u3")
        right = ("w1", "w2", "w3")
        b = BipartiteGraph(left, right, [(u, w) for u in left for w in right])
        inst = build_pm_gadget(b)
        survivors = 0
        for tree in enumerate_spanning_trees(inst.graph):
            if inst.kernel.minor(tree) == 0:
                continue
            survivors += 1
            assert set(inst.right_edges) <= set(tree)
            pairs = [inst.left_source[e] for e in tree if e in inst.left_source]
            assert len({w for _, w in pairs}) == 3
        assert survivors == 6

    def test_isolated_left_vertex_gives_zero(self):
        b = BipartiteGraph(("u1", "u2"), ("w1", "w2"), [("u1", "w1"), ("u1", "w2")])
        assert count_pm_via_zt(b) == 0

    def test_matches_brute_force_on_randoms(self):
        rng = random.Random(61)
        from treedpp.graphs import count_perfect_matchings

        for _ in range(15):
            b = random_bipartite(rng, rng.randint(1, 3))
            assert count_pm_via_zt(b) == count_perfect_matchings(b)

    def test_gadget_cap(self, monkeypatch):
        # K4,4 has m = 16 left edges: 2^16 - 1 nonempty left subsets.
        evaluated = count_minor_dets(monkeypatch)
        monkeypatch.setattr(reductions, "DEFAULT_GADGET_MINOR_CAP", 2**16 - 2)
        with pytest.raises(CapExceeded, match="gadget minor cap"):
            count_pm_via_zt(complete_bipartite(4))
        assert evaluated == []

    def test_k44_counts_matchings(self):
        # 32 gadget edges: over the edge cap of the old enumeration route.
        assert count_pm_via_zt(complete_bipartite(4)) == 24

    def test_enumerates_no_tree(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("enumerated spanning trees")

        monkeypatch.setattr(graphs, "enumerate_spanning_trees", forbidden)
        monkeypatch.setattr(dpp, "enumerate_spanning_trees", forbidden)
        assert count_pm_via_zt(complete_bipartite(3)) == 6

    def test_oracle_matches_generic_normalizers(self):
        k33 = build_pm_gadget(complete_bipartite(3))
        empty_part = build_pm_gadget(BipartiteGraph(
            ("u1", "u2"), ("w1", "w2"), [("u1", "w1"), ("u1", "w2")]))
        # The middle part is empty, so its spine gap has no path.
        empty_middle = build_pm_gadget(BipartiteGraph(
            ("u1", "u2", "u3"), ("w1", "w2", "w3"),
            [("u1", "w1"), ("u1", "w3"), ("u3", "w1"), ("u3", "w2")]))
        assert () in empty_part.parts and () in empty_middle.parts
        # Factors of forest-route size: hundreds of bits each.
        big_left, big_right = Rat(3**200, 2**150 + 1), Rat(5**300, 7**100)
        for inst in (
            k33,
            reweight_rank_one(k33, 2, Rat(1, 3)),
            empty_part,
            reweight_rank_one(empty_part, Rat(2, 5), 3),
            reweight_rank_one(empty_part, big_left, big_right),
            empty_middle,
            reweight_rank_one(empty_middle, Rat(7, 3), Rat(1, 2)),
            reweight_rank_one(empty_middle, big_left, big_right),
            reweight_rank_one(build_pm_gadget(complete_bipartite(2)), Rat(3, 2), 2),
        ):
            g = inst.graph
            assert gadget_z_exact(inst, "tree") == z_tree(inst.kernel, g)
            # K3,3's 18 gadget edges carry 157,464 forests (~5 s): trees only.
            if g.num_edges <= 8:
                assert gadget_z_exact(inst, "forest") == z_forest(inst.kernel, g)


class TestLagrange:
    def test_square_points(self):
        assert lagrange_leading_coeff([(1, 1), (2, 4), (3, 9)], 2) == 1

    def test_degree_drop(self):
        assert lagrange_leading_coeff([(1, 5), (2, 5)], 1) == 0

    def test_forest_polynomial_of_triangle(self):
        # 1 + 3x + 3x^2 evaluated at 1, 2, 3.
        assert lagrange_leading_coeff([(1, 7), (2, 19), (3, 37)], 2) == 3

    def test_duplicate_x(self):
        with pytest.raises(ValueError, match="distinct"):
            lagrange_leading_coeff([(1, 1), (1, 2)], 1)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            lagrange_leading_coeff([(1, 1)], 1)


class TestInterpolation:
    def test_triangle(self):
        ids = ("a", "b", "c")
        eye = WeightedPSD(SymMatrix(ids, [[1 if i == j else 0 for j in range(3)] for i in range(3)]))
        assert zt_via_zf(eye, triangle_graph()) == 3

    def test_tree_input(self):
        from treedpp.graphs import Graph

        g = Graph(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
        m = random_weighted_psd(random.Random(3), 2, labels=("a", "b"))
        assert zt_via_zf(m, g) == m.minor(("a", "b"))

    def test_disconnected(self):
        from treedpp.graphs import Graph

        g = Graph(("1", "2", "3"), (("a", "1", "2"),))
        m = random_weighted_psd(random.Random(4), 1, labels=("a",))
        assert zt_via_zf(m, g) == 0

    def test_matches_direct_tree_sum(self):
        rng = random.Random(67)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(0, 3))
            ids = sorted(g.edge_by_id)
            m = random_weighted_psd(rng, len(ids), labels=ids)
            assert zt_via_zf(m, g) == z_tree(m, g)


class TestMdGadget:
    def test_is_its_source_block(self, monkeypatch):
        # The left block is the partition instance's matrix itself: the
        # builder builds no matrix and runs no PSD test.
        p = build_partition_instance(random_md_instance(random.Random(3), 3))

        def forbidden(*args, **kwargs):
            raise AssertionError("built or tested a matrix")

        monkeypatch.setattr(linalg, "is_psd", forbidden)
        monkeypatch.setattr(reductions, "SymMatrix", forbidden)
        gadget = build_md_gadget(p)
        assert gadget.left is p.matrix

    def test_identity_shape(self):
        inst = build_md_gadget(build_partition_instance(identity_md(2)))
        assert inst.graph.num_vertices == 7
        assert inst.graph.num_edges == 8
        assert is_psd(inst.kernel.base)

    def test_tree_sum_matches_transversal_sum(self):
        rng = random.Random(71)
        for n in (2, 3):
            p = build_partition_instance(random_md_instance(rng, n))
            gadget = build_md_gadget(p)
            right = set(gadget.right_edges)
            total = Rat(0)
            for tree in enumerate_spanning_trees(gadget.graph):
                if right <= set(tree):
                    total += gadget.kernel.minor(tree)
            assert total == partition_constrained_sum(p.matrix, p.parts)

    def test_zero_kernel_tree_sum_is_zero(self):
        p = build_partition_instance(random_md_instance(random.Random(5), 2, degenerate=True))
        gadget = build_md_gadget(p)
        right = set(gadget.right_edges)
        total = Rat(0)
        for tree in enumerate_spanning_trees(gadget.graph):
            if right <= set(tree):
                total += gadget.kernel.minor(tree)
        assert total == 0


class TestReweight:
    def gadget(self):
        return build_md_gadget(build_partition_instance(random_md_instance(random.Random(8), 2)))

    def test_identity_factors(self):
        inst = self.gadget()
        same = reweight_rank_one(inst, 1, 1)
        for subset in [inst.left_edges[:2], inst.right_edges, inst.kernel.labels]:
            assert same.kernel.minor(subset) == inst.kernel.minor(subset)

    def test_right_exponent(self):
        inst = self.gadget()
        x = Rat(5)
        scaled = reweight_rank_one(inst, 1, x)
        m = inst.num_left
        subset = tuple(inst.right_edges) + tuple(inst.left_edges[:1])
        expect = x ** (2 * m) * inst.kernel.minor(subset)
        assert scaled.kernel.minor(subset) == expect

    def test_matches_entrywise_hadamard(self):
        inst = self.gadget()
        lf, rf = Rat(3), Rat(2)
        fast = reweight_rank_one(inst, lf, rf)
        labels = inst.kernel.labels
        left = set(inst.left_edges)
        u = {a: (lf if a in left else rf) for a in labels}
        rows = [[inst.kernel.base[a, b] * u[a] * u[b] for b in labels] for a in labels]
        direct = WeightedPSD(SymMatrix(labels, rows), inst.kernel.weights)
        rng = random.Random(9)
        for _ in range(30):
            subset = [a for a in labels if rng.random() < 0.5]
            assert fast.kernel.minor(subset) == direct.minor(subset)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError, match="positive"):
            reweight_rank_one(self.gadget(), 0, 1)


def full_rank_gadget():
    """Gadget straight from a full-rank weighted Gram on 4 labels in 2 parts:
    no left minor vanishes, so the closed form prunes nothing and every
    s_i = 2 term carries mass."""
    matrix = random_weighted_psd(random.Random(74), 4, labels=("a", "b", "c", "d"))
    assert det_bareiss(matrix.base) != 0
    return build_md_gadget(
        PartitionInstance(matrix=matrix, parts=(("a", "b"), ("c", "d")))
    )


def count_minor_dets(monkeypatch):
    """Record every SymMatrix.minor_det call from now on."""
    calls = []
    inner = SymMatrix.minor_det

    def counted(self, positions):
        calls.append(tuple(positions))
        return inner(self, positions)

    monkeypatch.setattr(SymMatrix, "minor_det", counted)
    return calls


def oracle_gadgets():
    rng = random.Random(73)
    return {
        "low-rank": build_md_gadget(build_partition_instance(random_md_instance(rng, 2))),
        "degenerate": build_md_gadget(build_partition_instance(
            random_md_instance(rng, 2, degenerate=True))),
        "full-rank": full_rank_gadget(),
    }


class TestExactOracle:
    def test_matches_generic_normalizers(self):
        for name, inst in oracle_gadgets().items():
            for lf, rf in ((1, 1), (2, 3), (Rat(7, 2), Rat(1, 3))):
                scaled = reweight_rank_one(inst, lf, rf)
                g = scaled.graph
                assert gadget_z_exact(scaled, "tree") == z_tree(scaled.kernel, g), name
                assert gadget_z_exact(scaled, "forest") == z_forest(scaled.kernel, g), name

    def test_table_sums_to_unconstrained_normalizer(self):
        for name, inst in oracle_gadgets().items():
            moments = gadget_moments(inst)
            assert all(f > 0 for f in moments.values()), name
            total = 2**inst.num_left * sum(f for (_, k), f in moments.items() if k == 0)
            assert total == unconstrained_normalizer(inst.kernel), name

    def test_moments_are_elementary_sums_of_the_table(self):
        # Reference: every left subset S, its minor from a fresh Bareiss
        # determinant, and e_k of its per-part counts; no DFS, no pruning.
        from itertools import combinations
        from math import prod

        gadgets = dict(oracle_gadgets())
        gadgets["n3"] = build_md_gadget(
            build_partition_instance(random_md_instance(random.Random(79), 3)))
        gadgets["empty-middle"] = build_pm_gadget(BipartiteGraph(
            ("u1", "u2", "u3"), ("w1", "w2", "w3"),
            [("u1", "w1"), ("u1", "w3"), ("u3", "w1"), ("u3", "w2")]))
        for name, inst in gadgets.items():
            base, weights = inst.kernel.base, inst.kernel.weights
            expect = {}
            for size in range(inst.num_left + 1):
                for subset in combinations(inst.left_edges, size):
                    minor = det_bareiss([[base[a, b] for b in subset] for a in subset])
                    c = minor * prod(weights[a] for a in subset)
                    counts = [len(set(part) & set(subset)) for part in inst.parts]
                    for k in range(inst.num_parts + 1):
                        e = sum(prod(sub) for sub in combinations(counts, k))
                        if c and e:
                            expect[size, k] = expect.get((size, k), 0) + c * e
            assert gadget_moments(inst) == expect, name
            # Built once on the origin: a reweighted copy reads the same table.
            assert reweight_rank_one(inst, 2, 3).moments is inst.moments, name

    @pytest.mark.parametrize("eps", [Rat(1, 2), Rat(1, 2**200)], ids=["half", "tiny"])
    def test_matches_generic_at_forest_route_factors(self, eps):
        # The forest route's own (y, x): at eps = 2^-200 x runs past 1,000
        # bits and the normalizer past 8,000.  The full-rank gadget (r = 4 >
        # n = 2) is the one whose tree moments reach below j = J.
        gadgets = [
            build_md_gadget(build_partition_instance(random_md_instance(random.Random(seed), 2)))
            for seed in (0, 3, 5)
        ] + [full_rank_gadget()]
        for gadget in gadgets:
            x, y = reduction_factors(gadget, find_witness(gadget), eps, "forest")
            if eps < Rat(1, 4):
                assert bit_length(x) > 1000
            scaled = reweight_rank_one(gadget, y, x)
            g = scaled.graph
            assert gadget_z_exact(scaled, "forest") == z_forest(scaled.kernel, g)
            assert gadget_z_exact(scaled, "tree") == z_tree(scaled.kernel, g)

    def test_full_rank_table_prunes_nothing(self):
        # Every (j, k) with some s in {0, 1, 2}^2, |s| = j and e_k(s) != 0,
        # up to the full left set s = (2, 2), where e_2 = 4.
        inst = full_rank_gadget()
        moments = gadget_moments(inst)
        assert sorted(moments) == [(j, k) for j in range(5) for k in range(3) if k <= j]
        assert moments[4, 2] == 4 * inst.kernel.minor(inst.left_edges)

    def test_psd_pruning_bounds_the_search(self, monkeypatch):
        # Unpruned, the n = 4 identity gadget has 2^16 - 1 nonempty left
        # subsets; only those picking distinct factor columns survive.
        inst = build_md_gadget(build_partition_instance(identity_md(4)))
        evaluated = count_minor_dets(monkeypatch)
        moments = gadget_moments(inst)
        assert 0 < len(evaluated) < 2**12
        total = 2**16 * sum(f for (_, k), f in moments.items() if k == 0)
        assert total == unconstrained_normalizer(inst.kernel)

    def test_minor_cap(self, monkeypatch):
        # m = 4 and nothing is pruned: the search evaluates all 2^4 - 1
        # nonempty left subsets, which is what the cap bounds.
        evaluated = count_minor_dets(monkeypatch)
        monkeypatch.setattr(reductions, "DEFAULT_GADGET_MINOR_CAP", 14)
        with pytest.raises(CapExceeded, match="gadget minor cap"):
            gadget_moments(full_rank_gadget())
        assert evaluated == []
        monkeypatch.setattr(reductions, "DEFAULT_GADGET_MINOR_CAP", 15)
        assert gadget_moments(full_rank_gadget())
        assert len(evaluated) == 15

    def test_matches_generic_tree_sum_at_n3(self):
        rng = random.Random(79)
        inst = build_md_gadget(build_partition_instance(random_md_instance(rng, 3)))
        scaled = reweight_rank_one(inst, 1, Rat(4, 3))
        assert gadget_z_exact(scaled, "tree") == z_tree(scaled.kernel, scaled.graph)


def high_rank_instance(rng, n):
    """Generic PartitionInstance: a full-rank weighted Gram on n^2 labels in
    n equal parts, so its gadget's left block has rank r = n^2 > n."""
    labels = [f"{i}.{k}" for i in range(n) for k in range(n)]
    while True:
        matrix = random_weighted_psd(rng, n * n, labels=labels)
        if det_bareiss(matrix.base) != 0:
            return PartitionInstance(
                matrix=matrix, parts=[labels[i * n:(i + 1) * n] for i in range(n)]
            )


class TestTreeRouteFactor:
    """On a rank <= n encoding Z_T(x) = x^(2m) D for every x, so only a
    high-rank instance, where off-target trees carry mass, can see a wrong
    tree-route factor.  The window is the exact oracle's [D, (1 + eps/2) D]
    around the transversal sum, which shares no code with the gadget."""

    @pytest.mark.parametrize("n,count", [(2, 8), (3, 3)])
    def test_only_the_reduction_factor_fits_the_window(self, n, count):
        eps = Rat(1, 2)
        rng = random.Random(107 + n)
        for _ in range(count):
            p = high_rank_instance(rng, n)
            gadget = build_md_gadget(p)
            d = partition_constrained_sum(p.matrix, p.parts)
            x, y = reduction_factors(gadget, find_witness(gadget), eps, "tree")
            assert y is None

            def estimate(factor):
                zt = gadget_z_exact(reweight_rank_one(gadget, 1, factor), "tree")
                return zt / factor ** (2 * gadget.num_left)

            assert d <= estimate(x) <= (ONE + eps / 2) * d
            assert estimate(ONE) > (ONE + eps / 2) * d


class TestReductionReadsTheOrigin:
    """A reduction reads the origin gadget's source block, moments and the
    two factors: no 2m x 2m kernel is built, the reweighted copy it queries
    copies nothing, and the gadget graph is never built."""

    @pytest.mark.parametrize("route", [apreduce_md_to_zt, apreduce_md_to_zf])
    def test_one_psd_test_per_run(self, route, monkeypatch):
        # The partition encoding's base is the gadget's source block.
        inst = random_md_instance(random.Random(3), 3)
        calls = []
        inner = linalg.is_psd
        monkeypatch.setattr(linalg, "is_psd", lambda m: calls.append(m) or inner(m))
        p = build_partition_instance(inst)
        monkeypatch.setattr(reductions, "build_partition_instance", lambda kernels: p)
        assert route(inst, Rat(1, 2)).bounds_pass
        assert len(calls) == 1 and calls[0] is p.matrix.base

    def test_no_graph_is_built(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("built the gadget graph")

        monkeypatch.setattr(reductions, "Graph", forbidden)
        inst = random_md_instance(random.Random(3), 3)
        for route in (apreduce_md_to_zt, apreduce_md_to_zf):
            report = route(inst, Rat(1, 2))
            assert not report.declared_zero and report.bounds_pass
        assert count_pm_via_zt(complete_bipartite(3)) == 6

    def test_no_kernel_or_graph_is_built(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("built the 2m x 2m kernel or the gadget graph")

        monkeypatch.setattr(reductions.GadgetInstance, "kernel", property(forbidden))
        monkeypatch.setattr(reductions, "Graph", forbidden)
        inst = random_md_instance(random.Random(3), 3)
        for route in (apreduce_md_to_zt, apreduce_md_to_zf):
            report = route(inst, Rat(1, 2))
            assert not report.declared_zero and report.bounds_pass
        assert count_pm_via_zt(complete_bipartite(3)) == 6


class TestApReduceTree:
    def test_identity_pair_frozen_window(self):
        report = apreduce_md_to_zt(identity_md(2), Rat(1, 2))
        assert not report.declared_zero
        # Brute-force discriminant of two identity kernels is 2.
        assert report.reference == 2
        assert 2 <= report.estimate <= exp_enclosure(Rat(1, 4))[0] * 2
        assert report.bounds_pass

    def test_declares_zero_on_degenerate(self):
        inst = random_md_instance(random.Random(12), 2, degenerate=True)
        report = apreduce_md_to_zt(inst, Rat(1, 2))
        assert report.declared_zero
        assert report.value == 0
        assert report.bounds_pass

    def test_oracle_called_once_at_half_epsilon(self):
        eps = Rat(1, 4)
        report = apreduce_md_to_zt(identity_md(2), eps)
        assert report.oracle_calls == (("tree", eps / 2),)

    def test_adversarial_within_outer_window(self):
        rng = random.Random(83)
        inst = random_md_instance(rng, 2)
        d = mixed_discriminant(inst)
        for eps in (Rat(1, 2), Rat(1, 8)):
            for direction in (1, -1):
                spec = OracleSpec(mode="adversarial", direction=direction)
                report = apreduce_md_to_zt(inst, eps, oracle=spec)
                assert exp_enclosure(-eps)[1] * d <= report.estimate
                assert report.estimate <= exp_enclosure(eps)[0] * d
                assert report.bounds_pass

    def test_noisy_hundred_seeded_trials(self):
        inst = random_md_instance(random.Random(87), 2)
        d = mixed_discriminant(inst)
        eps = Rat(1, 2)
        lo = exp_enclosure(-eps)[1] * d
        hi = exp_enclosure(eps)[0] * d
        for seed in range(100):
            report = apreduce_md_to_zt(inst, eps, oracle=OracleSpec(mode="noisy", seed=seed))
            assert lo <= report.estimate <= hi

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            apreduce_md_to_zt(identity_md(2), Rat(3, 2))

    def test_cap_on_large_instances(self, monkeypatch):
        monkeypatch.setattr(reductions, "DEFAULT_GADGET_MINOR_CAP", 100)
        with pytest.raises(CapExceeded, match="gadget minor cap"):
            apreduce_md_to_zt(identity_md(4), Rat(1, 2))

    @pytest.mark.parametrize("route", [apreduce_md_to_zt, apreduce_md_to_zf])
    def test_n5_refused_before_any_work(self, route, monkeypatch):
        # At the default cap an n = 5 gadget (m = 25) is refused right after
        # it is built: no mixed-discriminant reference, witness search or minor.
        def forbidden(*args, **kwargs):
            raise AssertionError("work done before the minor cap check")

        monkeypatch.setattr(reductions, "mixed_discriminant", forbidden)
        monkeypatch.setattr(reductions, "find_witness", forbidden)
        monkeypatch.setattr(SymMatrix, "minor_det", forbidden)
        with pytest.raises(CapExceeded, match=r"gadget minor cap: 2\^25 - 1"):
            route(identity_md(5), Rat(1, 2))

    def test_scaling_step_uses_weighted_normalizer(self):
        inst = random_md_instance(random.Random(91), 2)
        report = apreduce_md_to_zt(inst, Rat(1, 2))
        gadget = build_md_gadget(build_partition_instance(inst))
        ratio = unconstrained_normalizer(gadget.kernel) / gadget.kernel.minor(report.witness)
        assert report.x == ratio * 2 / Rat(1, 2)


class TestCorruptedEncoding:
    """The reference is the source kernels' own mixed discriminant, so a run
    whose encoding comes from another instance (first kernel doubled, which
    doubles D) must fail its bounds on both routes."""

    @pytest.fixture
    def encode_other(self, monkeypatch):
        real = reductions.build_partition_instance

        def doubled_first(kernels):
            first, *rest = kernels.matrices
            doubled = SymMatrix(first.labels, [[2 * a for a in row] for row in first.entries])
            return real(MDInstance((doubled, *rest)))

        monkeypatch.setattr(reductions, "build_partition_instance", doubled_first)

    INSTANCES = (identity_md(2), random_md_instance(random.Random(7), 3))

    @pytest.mark.parametrize("route", [apreduce_md_to_zt, apreduce_md_to_zf])
    def test_bounds_fail(self, route, encode_other):
        for inst in self.INSTANCES:
            report = route(inst, Rat(1, 2))
            assert report.reference == mixed_discriminant(inst) > 0
            assert not report.declared_zero
            assert not report.bounds_pass

    @pytest.mark.parametrize("route", [apreduce_md_to_zt, apreduce_md_to_zf])
    def test_uncorrupted_control_passes(self, route):
        for inst in self.INSTANCES:
            assert route(inst, Rat(1, 2)).bounds_pass

    def test_cli_exits_1(self, encode_other, tmp_path, capsys):
        path = tmp_path / "md.json"
        jsonio.write_json(path, jsonio.dump_md_instance(identity_md(2)))
        assert main(["apreduce-zt", str(path)]) == 1
        capsys.readouterr()


class TestApReduceForest:
    def test_identity_pair_frozen_window(self):
        report = apreduce_md_to_zf(identity_md(2), Rat(1, 2))
        assert report.reference == 2
        assert 2 <= report.estimate <= exp_enclosure(Rat(1, 4))[0] * 2
        assert report.bounds_pass
        assert report.y is not None

    def test_declares_zero_on_degenerate(self):
        inst = random_md_instance(random.Random(13), 2, degenerate=True)
        report = apreduce_md_to_zf(inst, Rat(1, 2))
        assert report.declared_zero

    def test_factor_formulas(self):
        inst = random_md_instance(random.Random(95), 2)
        eps = Rat(1, 2)
        report = apreduce_md_to_zf(inst, eps)
        gadget = build_md_gadget(build_partition_instance(inst))
        ratio = unconstrained_normalizer(gadget.kernel) / gadget.kernel.minor(report.witness)
        n, m = gadget.num_parts, gadget.num_left
        y = ratio * 4 / eps
        assert report.y == y
        assert report.x == ratio * y ** (2 * m - 2 * n) * 4 / eps

    def test_noisy_trials(self):
        inst = random_md_instance(random.Random(97), 2)
        d = mixed_discriminant(inst)
        eps = Rat(1, 2)
        lo = exp_enclosure(-eps)[1] * d
        hi = exp_enclosure(eps)[0] * d
        for seed in range(25):
            report = apreduce_md_to_zf(inst, eps, oracle=OracleSpec(mode="noisy", seed=seed))
            assert lo <= report.estimate <= hi
            assert report.oracle_calls == (("forest", eps / 2),)

    def test_exponent_cases_are_dominated(self):
        from treedpp.graphs import enumerate_forests

        inst = random_md_instance(random.Random(101), 2)
        report = apreduce_md_to_zf(inst, Rat(1, 2))
        gadget = build_md_gadget(build_partition_instance(inst))
        x, y = report.x, report.y
        n, m = gadget.num_parts, gadget.num_left
        top = x ** (2 * m) * y ** (2 * n)
        right = set(gadget.right_edges)
        seen_cases = set()
        for forest in enumerate_forests(gadget.graph):
            r = sum(1 for e in forest if e in right)
            l = len(forest) - r
            monomial = x ** (2 * r) * y ** (2 * l)
            if r == m and l == n:
                case = 1
                assert monomial == top
            elif r == m:
                case = 2
                assert l < n and monomial <= x ** (2 * m) * y ** (2 * n - 2) <= top
            else:
                case = 3
                assert monomial <= x ** (2 * m - 2) * y ** (2 * m) <= top
            seen_cases.add(case)
        assert seen_cases == {1, 2, 3}


class TestApReduceAtN4:
    """Both routes with the exact oracle at n = 4, beyond any tree or forest
    enumeration cap: sandwiched against the transversal reference and the
    brute-force mixed discriminant."""

    @pytest.mark.parametrize("route", [apreduce_md_to_zt, apreduce_md_to_zf])
    def test_exact_sandwich(self, route):
        eps = Rat(1, 2)
        for inst in (identity_md(4), random_md_instance(random.Random(4), 4)):
            d = mixed_discriminant(inst)
            report = route(inst, eps)
            assert not report.declared_zero
            assert report.reference == d
            assert d <= report.estimate <= (ONE + eps / 2) * d
            assert report.bounds_pass
        assert mixed_discriminant(identity_md(4)) == 24


class TestOracleSpec:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown oracle mode"):
            OracleSpec(mode="psychic")

    def test_noise_validation(self):
        with pytest.raises(ValueError, match="noise"):
            OracleSpec(mode="noisy", noise=Rat(3, 2))

    def test_exp_enclosure_brackets_high_precision_exp(self):
        import mpmath

        mpmath.mp.dps = 100
        slack = mpmath.mpf("1e-60")
        for t in (Rat(1, 2), Rat(1, 8), -Rat(1, 2), Rat(99, 100)):
            lo, hi = exp_enclosure(t)
            reference = mpmath.exp(
                mpmath.mpf(int(t.numerator)) / mpmath.mpf(int(t.denominator))
            )
            lo_hp = mpmath.mpf(int(lo.numerator)) / mpmath.mpf(int(lo.denominator))
            hi_hp = mpmath.mpf(int(hi.numerator)) / mpmath.mpf(int(hi.denominator))
            assert lo_hp <= reference + slack
            assert reference <= hi_hp + slack
            assert hi - lo < Rat(1, 10**20)


class TestMedian:
    def test_odd(self):
        assert median_estimate([Rat(3), Rat(1), Rat(2)]) == 2

    def test_even(self):
        assert median_estimate([Rat(1), Rat(2), Rat(3), Rat(10)]) == Rat(5, 2)

    def test_stabilizes_noisy_runs(self):
        inst = random_md_instance(random.Random(103), 2)
        d = mixed_discriminant(inst)
        eps = Rat(1, 2)
        runs = [
            apreduce_md_to_zt(inst, eps, oracle=OracleSpec(mode="noisy", seed=s)).estimate
            for s in range(9)
        ]
        mid = median_estimate(runs)
        assert exp_enclosure(-eps)[1] * d <= mid <= exp_enclosure(eps)[0] * d


def low_rank_md():
    """n = 3 kernels of ranks 1, 2 and 2 with D > 0."""
    rng = random.Random(3)
    return MDInstance(tuple(random_gram(rng, 3, rank=r) for r in (1, 2, 2)))


class TestGoldenReports:
    """Reports pinned bit for bit: SHA-256 of the sorted-key JSON report on
    random_md_instance(Random(seed), 3) and on low_rank_md(), per route and
    oracle."""

    DIGESTS = {
        (0, "zt", "exact"): "15706c4bd430a1fc97248d972b07e71582829e4714d1fbfca66b37c97d1f39a7",
        (0, "zt", "up"): "aa37e35f3fac8fa32af2d2384fbed0b26033fc27b8742ddf60440173cb495c3b",
        (0, "zt", "down"): "b6862bfa48128f9c98fe5fabbcde1d1909f84bf452b70039c86d87cb7397a402",
        (0, "zt", "noisy"): "216cd418323abd1f7da8c7a8020699ccdfafcecc38f1e7c2d3f98c9b4dc3ac4a",
        (0, "zf", "exact"): "570227477421b3d9e3ed4bcdb501d57f1545effa0cc8e422d9c43637bf214d55",
        (0, "zf", "up"): "97e703278dc5f0207dd1ac99d183c6270368d6133d62f48b08c0a516838d68d8",
        (0, "zf", "down"): "fc36666b697f95278ea796736d471589e39f90ecced854ac15b7f2e46e3df3e9",
        (0, "zf", "noisy"): "d702a67a4d785003e989b7cf5e83072b9bf132be2e809c9bd981b097e93591a4",
        (1, "zt", "exact"): "5c95e2bfff8b3c6f1ee2fad6289eb729e5824902dfca0dd56944d227eb051bd5",
        (1, "zt", "up"): "f5aace7c35ba944cf08d59102b64582cc3da406ef923b434d743e444219c8fe4",
        (1, "zt", "down"): "da7951d3935fda688c3f2c3df0330e4f69f5af4c2f42e876b57b5f9bced093b8",
        (1, "zt", "noisy"): "cfa9edb2dc0401901debda3fb4b17537fe69013e11defc28d1c33fe67b9c97b6",
        (1, "zf", "exact"): "bf61e056ec99e4a3603d413d70cc8b3238210c4c5720369d87797228536790e0",
        (1, "zf", "up"): "7e55c1b8611d223455f2073cf2dbf8b52e412346ba9783d15ffdc7e449d333e6",
        (1, "zf", "down"): "cc1a8aa4d59d70ad19223317b0a2042c53ed393d008bb091c6a6cd43d8669f36",
        (1, "zf", "noisy"): "7018556958109991a5d3592db2470597bc7080aba9a2aa1790639a4d1b66d10f",
        (2, "zt", "exact"): "0c72f030584d53e3d54359142bb103a373281d8c98b06c903731ad6e9dfb8410",
        (2, "zt", "up"): "711483cd5868b93b75c4defeb560cb9001d39b0effc737a2fbcc0ef7665fefe1",
        (2, "zt", "down"): "e03b61e2677724ecfdf1f307d4f1b8531bc5f135db7c5b65c9e9e1d9a382c8ee",
        (2, "zt", "noisy"): "93929a71596d8f5205d0acf134db721885a2d94e9f23d656c68318006aa32715",
        (2, "zf", "exact"): "682a55d271f5c449d109b87e104499906c9be093ab7580c2d77b996ef72a3bdd",
        (2, "zf", "up"): "f785b5616abfe0fcb4a32f8dbabd5bd23598ffceac6410104d166dd1ca1624c5",
        (2, "zf", "down"): "fb51f35b59d2e7fe85a2f4f26eeb16a557569c5378c88198b26be61f6a85652b",
        (2, "zf", "noisy"): "ee3c581ec29a2ea9660d6afeef2c946e496be85df1e0d71199b90e728c2a15cc",
        ("low-rank", "zt", "exact"): "55929c4eff6ccfd1b27fcfea0ca87934289705b6c08775e9e08ed709be25fe6d",
        ("low-rank", "zt", "up"): "87c666c869a1df3b5c706b7a8554cacd96a8c393e532eb4d7d88cac4105528ed",
        ("low-rank", "zt", "down"): "0f7707c80bef3d21ca21954b1e32186464ddc958086db80bb9885a24552ee341",
        ("low-rank", "zt", "noisy"): "7f5076cf90c3286c4d29d271eebc7d6effdc1cbabee8deb9b358d8257c8d7312",
        ("low-rank", "zf", "exact"): "59d2c461a1b2da6d6bc9a53face43780e0126e8caa5459cfa7192217a33a36ac",
        ("low-rank", "zf", "up"): "9061bf56738276093d2951da5d8e5a81a95e55a8db0c59471287df335c3be7e1",
        ("low-rank", "zf", "down"): "5acbb79c4e57fd2339b76652a688f260ac132eefd436c0902066dc88a964eb4c",
        ("low-rank", "zf", "noisy"): "a284f96e4f298354a96a35c6ad0a125e1bd908074f0c506838d743c93f0e0388",
    }
    ROUTES = {"zt": apreduce_md_to_zt, "zf": apreduce_md_to_zf}
    ORACLES = {
        "exact": OracleSpec(),
        "up": OracleSpec(mode="adversarial", direction=1),
        "down": OracleSpec(mode="adversarial", direction=-1),
        "noisy": OracleSpec(mode="noisy", seed=5),
    }

    @pytest.mark.parametrize("key", sorted(DIGESTS, key=str),
                             ids=lambda k: "-".join(map(str, k)))
    def test_report_digest(self, key):
        seed, route, oracle = key
        if seed == "low-rank":
            inst = low_rank_md()
        else:
            inst = random_md_instance(random.Random(seed), 3)
        report = self.ROUTES[route](inst, "1/2", oracle=self.ORACLES[oracle])
        text = json.dumps(report_to_obj(report), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[key]

    def test_low_rank_instance_has_positive_discriminant(self):
        kernels = low_rank_md()
        ranks = [sum(1 for d in ldlt(k)[1] if d != 0) for k in kernels.matrices]
        assert ranks == [1, 2, 2]
        assert mixed_discriminant(kernels) > 0
