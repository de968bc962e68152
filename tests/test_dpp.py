import hashlib
import json
import random
from itertools import product

import pytest

from treedpp import dpp as dpp_module
from treedpp.dpp import (
    ConstrainedDPP,
    partition_constrained_sum,
    sample_exact,
    z_forest,
    z_tree,
)
from treedpp.errors import CapExceeded
from treedpp.graphs import Graph, count_spanning_trees, enumerate_spanning_trees
from treedpp.linalg import SymMatrix, WeightedPSD
from treedpp.mixed_disc import build_partition_instance
from treedpp.rational import ONE, Rat
from treedpp.reductions import build_md_gadget
from treedpp.verify import (
    complete_graph,
    random_connected_graph,
    random_md_instance,
    random_weighted_psd,
    rooted_forest_sum,
    triangle_graph,
)


def identity_kernel(labels):
    n = len(labels)
    return WeightedPSD(
        SymMatrix(labels, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
    )


class TestZTree:
    def test_identity_counts_trees(self):
        assert z_tree(identity_kernel(("a", "b", "c")), triangle_graph()) == 3

    def test_diagonal_matches_weighted_count(self):
        rng = random.Random(1)
        for _ in range(5):
            g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(0, 2))
            ids = sorted(g.edge_by_id)
            weights = {eid: Rat(rng.randint(1, 5)) for eid in ids}
            n = len(ids)
            base = SymMatrix(ids, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
            assert z_tree(WeightedPSD(base, weights), g) == count_spanning_trees(g, weights)

    def test_singular_minor_on_unique_tree(self):
        g = Graph(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
        kernel = WeightedPSD(SymMatrix(("a", "b"), [[1, 1], [1, 1]]))
        assert z_tree(kernel, g) == 0

    def test_label_mismatch(self):
        with pytest.raises(ValueError, match="match graph edge ids"):
            z_tree(identity_kernel(("x", "y", "z")), triangle_graph())


class TestZForest:
    def test_identity_counts_forests(self):
        assert z_forest(identity_kernel(("a", "b", "c")), triangle_graph()) == 7

    def test_doubled_identity(self):
        kernel = identity_kernel(("a", "b", "c")).scaled_all(2)
        # 1 + 3*2 + 3*4 over the seven forests of the triangle.
        assert z_forest(kernel, triangle_graph()) == 19

    def test_edgeless_graph(self):
        g = Graph(("1", "2"), ())
        empty = WeightedPSD(SymMatrix((), []))
        assert z_forest(empty, g) == 1

    def test_tree_sum_bounded_by_forest_sum(self):
        rng = random.Random(3)
        for _ in range(5):
            g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(0, 2))
            ids = sorted(g.edge_by_id)
            m = random_weighted_psd(rng, len(ids), labels=ids)
            zt, zf = z_tree(m, g), z_forest(m, g)
            assert 0 <= zt <= zf


class TestPartitionSum:
    def test_identity_transversals(self):
        m = identity_kernel(("1", "2", "3", "4"))
        assert partition_constrained_sum(m, (("1", "2"), ("3", "4"))) == 4

    def test_rank_deficient_vanishes(self):
        base = SymMatrix(("1", "2", "3", "4"), [[1] * 4] * 4)
        m = WeightedPSD(base)
        assert partition_constrained_sum(m, (("1", "2"), ("3", "4"))) == 0

    def test_matches_direct_enumeration(self):
        rng = random.Random(5)
        for _ in range(5):
            m = random_weighted_psd(rng, 4, labels=("1", "2", "3", "4"))
            parts = (("1", "2"), ("3", "4"))
            brute = Rat(0)
            for pick in product(*parts):
                brute += m.minor(pick)
            assert partition_constrained_sum(m, parts) == brute

    def test_requires_partition(self):
        m = identity_kernel(("1", "2"))
        with pytest.raises(ValueError, match="disjoint"):
            partition_constrained_sum(m, (("1", "2"), ("2",)))


def seeded_dpps(seed):
    """One DPP per constraint on a seeded instance: a 5-vertex graph with
    three extra edges, a 3/2/1 partition of six labels, four free labels."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, 5, extra_edges=3)
    ids = sorted(g.edge_by_id)
    m = random_weighted_psd(rng, len(ids), labels=ids)
    labels = [f"p{i}" for i in range(6)]
    pm = random_weighted_psd(rng, 6, labels=labels)
    nm = random_weighted_psd(rng, 4, labels=labels[:4])
    return {
        "tree": ConstrainedDPP(m, "tree", graph=g),
        "forest": ConstrainedDPP(m, "forest", graph=g),
        "partition": ConstrainedDPP(pm, "partition", parts=(labels[:3], labels[3:5], labels[5:])),
        "none": ConstrainedDPP(nm, "none"),
    }


class TestNormalizer:
    @pytest.mark.parametrize("constraint", dpp_module.CONSTRAINTS)
    def test_matches_the_sampled_stream(self, constraint):
        # "none" reads det(L + I) rather than the stream; all must agree
        # with the sum over the family sample_exact draws from.
        for seed in (0, 1, 2):
            d = seeded_dpps(seed)[constraint]
            stream = Rat(0)
            for subset in dpp_module._family(d):
                stream += d.matrix.minor(subset)
            assert dpp_module._normalizer(d) == stream


def forbid_minors(monkeypatch):
    """Make any SymMatrix.minor_det call fail the test."""
    def forbidden(self, positions):
        raise AssertionError("a minor was evaluated")

    monkeypatch.setattr(SymMatrix, "minor_det", forbidden)


class TestFamilyCap:
    @pytest.mark.parametrize("constraint", dpp_module.CONSTRAINTS)
    def test_admitted_at_its_size_refused_one_below(self, constraint, monkeypatch):
        # The size the cap reads, by enumeration: for forests each forest
        # counts once per choice of one root in each of its trees.
        d = seeded_dpps(0)[constraint]
        if constraint == "forest":
            size = rooted_forest_sum(d.graph)
        else:
            size = sum(1 for _ in dpp_module._family(d))
        monkeypatch.setattr(dpp_module, "DEFAULT_FAMILY_CAP", size - 1)
        forbid_minors(monkeypatch)
        with pytest.raises(CapExceeded, match=f"cap: {size} .* = {size - 1}$"):
            sample_exact(d, seed=0, count=1)
        if constraint != "none":
            with pytest.raises(CapExceeded):
                dpp_module._normalizer(d)
        monkeypatch.undo()
        monkeypatch.setattr(dpp_module, "DEFAULT_FAMILY_CAP", size)
        assert len(sample_exact(d, seed=0, count=1)) == 1
        assert dpp_module._normalizer(d) > 0

    def test_counts_trees_not_vertices(self, monkeypatch):
        # A 13-vertex path has one spanning tree; K8 has 8^6 = 262,144.
        path = Graph([str(i) for i in range(13)],
                     [(f"e{i:02d}", str(i), str(i + 1)) for i in range(12)])
        assert z_tree(identity_kernel(sorted(path.edge_by_id)), path) == 1
        k8 = complete_graph(8)
        kernel = identity_kernel(sorted(k8.edge_by_id))
        forbid_minors(monkeypatch)
        with pytest.raises(CapExceeded, match="262144 spanning trees"):
            z_tree(kernel, k8)

    def test_forest_bound_can_refuse_an_admissible_family(self, monkeypatch):
        # The n = 3 gadget has 157,464 forests, under the cap, but its
        # rooted-forest bound det(L + I) is 3,680,721.
        gadget = build_md_gadget(build_partition_instance(
            random_md_instance(random.Random(0), 3)))
        kernel = gadget.kernel
        forbid_minors(monkeypatch)
        with pytest.raises(CapExceeded, match="3680721 rooted forests"):
            z_forest(kernel, gadget.graph)

    def test_seventeen_free_labels_are_admitted(self):
        # 2^17 = 131,072 subsets; 18 labels give 262,144.  _family checks
        # before it returns the stream, so nothing here enumerates.
        labels = [f"a{i:02d}" for i in range(18)]
        dpp_module._family(ConstrainedDPP(identity_kernel(labels[:17]), "none"))
        with pytest.raises(CapExceeded, match="262144 subsets"):
            dpp_module._family(ConstrainedDPP(identity_kernel(labels), "none"))


class TestSampling:
    # SHA-256 of json.dumps(sample_exact(seeded_dpps(s)[c], seed=s + 11,
    # count=300)), recorded before the normalizers shared one family stream.
    DIGESTS = {
        (0, "tree"): "24b8f7f3a8c603fcc6b49199b9229cfbec0baf75709103eaa121727854b7b707",
        (0, "forest"): "b435ea33237a816117a9068f578dd5d7e95685608a876518bb7b363df707da61",
        (0, "partition"): "c8a90a44959721deeed2d9d7d657c03df2347ab08445f907b4140b7b97463a4c",
        (0, "none"): "bebd1c3802e81ff0dc642856b7edf0d3943f7f63af554ee94c7901731c1a4f0d",
        (1, "tree"): "d8e8e546a3bfe860f03ba042f5030fadb2a5b0898e830e59fc68650b8150f36a",
        (1, "forest"): "6ded00bbdb4bf364eca4b5e2ac7693f4c543c7f932dad0babf0993752293e624",
        (1, "partition"): "3d7827051847c2809c188cb45e573bcc0a1f4db7071922b25cd0ac613ca8b7d6",
        (1, "none"): "7110f0fd5214efcaa69880835199144afd76fcb76e8ef0f51536cde3bf2d06ec",
        (2, "tree"): "6c3dae3b7abc646b4a8753d7da708c6e97e23f63562e3e87eb07fe9bbb6ed775",
        (2, "forest"): "75b1c49f3e9a788d46d44fe3882306e31c465b3f9980d0df59c491ad781a2a48",
        (2, "partition"): "dce2e81a0c2969f79fd4eb4839b5d712a06a4697569b391e83636b60a0d1260f",
        (2, "none"): "fad1b86bd4d1ef2d23e119a0528c8427bdd304c67f86d38a860ca998b0432416",
    }

    @pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_draws_pinned(self, key):
        seed, constraint = key
        draws = sample_exact(seeded_dpps(seed)[constraint], seed=seed + 11, count=300)
        assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == self.DIGESTS[key]

    def triangle_dpp(self):
        base = SymMatrix(("a", "b", "c"), [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        return ConstrainedDPP(WeightedPSD(base), "tree", graph=triangle_graph())

    def test_deterministic_in_seed(self):
        dpp = self.triangle_dpp()
        assert sample_exact(dpp, seed=99, count=50) == sample_exact(dpp, seed=99, count=50)

    def test_uniform_by_symmetry(self):
        dpp = ConstrainedDPP(identity_kernel(("a", "b", "c")), "tree", graph=triangle_graph())
        draws = sample_exact(dpp, seed=4, count=3000)
        for outcome in (("a", "b"), ("a", "c"), ("b", "c")):
            freq = draws.count(outcome) / 3000
            assert abs(freq - 1 / 3) < 0.05

    def test_weighted_probabilities(self):
        # Minors 1, 2, 2 over Z = 5.
        draws = sample_exact(self.triangle_dpp(), seed=8, count=5000)
        expected = {("a", "b"): 0.2, ("a", "c"): 0.4, ("b", "c"): 0.4}
        for outcome, p in expected.items():
            seen = draws.count(outcome)
            bound = 5 * (5000 * p * (1 - p)) ** 0.5
            assert abs(seen - 5000 * p) <= bound

    def test_empty_support(self):
        g = Graph(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
        kernel = WeightedPSD(SymMatrix(("a", "b"), [[1, 1], [1, 1]]))
        dpp = ConstrainedDPP(kernel, "tree", graph=g)
        with pytest.raises(ValueError, match="empty support"):
            sample_exact(dpp, seed=0, count=1)

    def test_negative_count_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_exact(self.triangle_dpp(), seed=0, count=-1)
        assert sample_exact(self.triangle_dpp(), seed=0, count=0) == []

    def test_zero_mass_outcomes_never_sampled(self):
        g = Graph(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")))
        base = SymMatrix(("a", "b", "c"), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        dpp = ConstrainedDPP(WeightedPSD(base), "tree", graph=g)
        draws = sample_exact(dpp, seed=12, count=500)
        assert ("a", "b") not in draws

    def test_partition_and_unconstrained_families(self):
        m = identity_kernel(("1", "2", "3", "4"))
        dpp = ConstrainedDPP(m, "partition", parts=(("1", "2"), ("3", "4")))
        draws = sample_exact(dpp, seed=3, count=200)
        assert all(len(s) == 2 for s in draws)
        dpp2 = ConstrainedDPP(identity_kernel(("1", "2")), "none")
        draws2 = sample_exact(dpp2, seed=3, count=200)
        assert set(draws2) <= {(), ("1",), ("2",), ("1", "2")}


class TestConstrainedDPPValidation:
    def test_unknown_constraint(self):
        with pytest.raises(ValueError, match="unknown constraint"):
            ConstrainedDPP(identity_kernel(("a",)), "cycles")

    def test_tree_requires_graph(self):
        with pytest.raises(ValueError, match="requires a graph"):
            ConstrainedDPP(identity_kernel(("a",)), "tree")

    def test_partition_requires_parts(self):
        with pytest.raises(ValueError, match="requires parts"):
            ConstrainedDPP(identity_kernel(("a",)), "partition")


class TestDecomposition:
    def test_forest_sum_decomposes(self):
        rng = random.Random(41)
        for _ in range(4):
            g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(1, 2))
            ids = sorted(g.edge_by_id)
            m = random_weighted_psd(rng, len(ids), labels=ids)
            trees = set(enumerate_spanning_trees(g))
            from treedpp.graphs import enumerate_forests

            rest = Rat(0)
            for f in enumerate_forests(g):
                if f not in trees:
                    rest += m.minor(f)
            assert z_forest(m, g) == z_tree(m, g) + rest
