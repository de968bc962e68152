import random
from itertools import combinations

import pytest

from treedpp import linalg
from treedpp.graphs import is_spanning_tree
from treedpp.linalg import SymMatrix, WeightedPSD
from treedpp.matroid import (
    IndependenceOracle,
    find_witness,
    linear_matroid,
    matroid_intersection,
    partition_matroid,
)
from treedpp.mixed_disc import build_partition_instance, mixed_discriminant
from treedpp.rational import Rat
from treedpp.verify import random_gram, random_md_instance
from treedpp.reductions import build_md_gadget


def gram_of_vectors(labels, vectors):
    dim = len(vectors[0])
    rows = [
        [sum(va[t] * vb[t] for t in range(dim)) for vb in vectors]
        for va in vectors
    ]
    return WeightedPSD(SymMatrix(labels, rows))


class TestLinearMatroid:
    def test_identity_free(self):
        m = gram_of_vectors(("1", "2"), [(1, 0), (0, 1)])
        oracle = linear_matroid(m)
        for k in range(3):
            for subset in combinations(("1", "2"), k):
                assert oracle.independent(subset)

    def test_rank_one(self):
        m = WeightedPSD(SymMatrix(("1", "2"), [[1, 1], [1, 1]]))
        oracle = linear_matroid(m)
        assert oracle.independent(("1",))
        assert oracle.independent(("2",))
        assert not oracle.independent(("1", "2"))


class TestPartitionMatroid:
    def test_capacity_one(self):
        oracle = partition_matroid((("1", "2"), ("3",)), (1, 1))
        assert oracle.independent(("1", "3"))
        assert not oracle.independent(("1", "2"))

    def test_empty_always_independent(self):
        oracle = partition_matroid((("1",),), (1,))
        assert oracle.independent(())

    def test_zero_capacities(self):
        oracle = partition_matroid((("1", "2"),), (0,))
        assert oracle.independent(())
        assert not oracle.independent(("1",))


class TestIntersection:
    def test_forced_choice(self):
        lin = linear_matroid(gram_of_vectors(("1", "2", "3"), [(1, 0), (0, 1), (1, 0)]))
        part = partition_matroid((("1", "3"), ("2",)), (1, 1))
        assert matroid_intersection(lin, part, 2) == ("1", "2")

    def test_free_matroids_full_ground(self):
        ground = ("a", "b", "c")
        free = IndependenceOracle(ground, lambda s: True)
        free2 = IndependenceOracle(ground, lambda s: True)
        assert matroid_intersection(free, free2, 3) == ("a", "b", "c")

    def test_rank_bound(self):
        lin = linear_matroid(WeightedPSD(SymMatrix(("1", "2"), [[1, 1], [1, 1]])))
        free = IndependenceOracle(("1", "2"), lambda s: True)
        assert matroid_intersection(lin, free, 2) is None

    def test_malformed_oracle(self):
        bad = IndependenceOracle(("1",), lambda s: len(s) == 1)
        good = IndependenceOracle(("1",), lambda s: True)
        with pytest.raises(ValueError, match="malformed oracle"):
            matroid_intersection(bad, good, 1)

    def test_mismatched_ground(self):
        a = IndependenceOracle(("1",), lambda s: True)
        b = IndependenceOracle(("2",), lambda s: True)
        with pytest.raises(ValueError, match="ground set"):
            matroid_intersection(a, b, 1)

    def test_target_zero(self):
        free = IndependenceOracle(("1",), lambda s: True)
        assert matroid_intersection(free, free, 0) == ()

    def test_matches_exhaustive_search(self):
        rng = random.Random(44)
        for _ in range(12):
            size = rng.randint(3, 7)
            ground = [f"g{i}" for i in range(size)]
            gram = random_gram(rng, size, rank=rng.randint(1, 3), labels=ground)
            lin = linear_matroid(WeightedPSD(gram))
            parts: list = [[] for _ in range(rng.randint(1, 3))]
            for g in ground:
                parts[rng.randrange(len(parts))].append(g)
            parts = [p for p in parts if p]
            caps = [rng.randint(1, 2) for _ in parts]
            part = partition_matroid(parts, caps)
            best = 0
            for k in range(size + 1):
                for subset in combinations(ground, k):
                    if lin.independent(subset) and part.independent(subset):
                        best = max(best, k)
            for target in range(size + 1):
                found = matroid_intersection(lin, part, target)
                if target <= best:
                    assert found is not None
                    assert len(found) == target
                    assert lin.independent(found) and part.independent(found)
                else:
                    assert found is None


class TestFindWitness:
    def test_identity_instance_has_witness(self):
        inst = random_md_instance(random.Random(0), 2)
        gadget = build_md_gadget(build_partition_instance(inst))
        witness = find_witness(gadget)
        assert witness is not None
        assert set(gadget.right_edges) <= set(witness)
        assert is_spanning_tree(gadget.graph, witness)
        assert gadget.kernel.minor(witness) > 0

    def test_zero_kernel_has_none(self):
        inst = random_md_instance(random.Random(1), 2, degenerate=True)
        gadget = build_md_gadget(build_partition_instance(inst))
        assert find_witness(gadget) is None

    def test_none_iff_discriminant_zero(self):
        rng = random.Random(50)
        from treedpp.mixed_disc import MDInstance

        for n in (2, 3):
            for trial in range(6):
                mats = tuple(
                    random_gram(rng, n, rank=rng.randint(0, n)) for _ in range(n)
                )
                inst = MDInstance(mats)
                gadget = build_md_gadget(build_partition_instance(inst))
                witness = find_witness(gadget)
                d = mixed_discriminant(inst)
                assert (witness is None) == (d == 0)
                if witness is not None:
                    assert gadget.kernel.minor(witness) > 0

    def test_reads_the_gadget_kernel(self, monkeypatch):
        # The search answers from the gadget's source block: it builds no
        # copy, so it runs no PSD test, and the minors it evaluates are
        # cached on the source block's base.
        gadget = build_md_gadget(build_partition_instance(random_md_instance(random.Random(3), 3)))
        calls = []
        inner = linalg.is_psd
        monkeypatch.setattr(linalg, "is_psd", lambda m: calls.append(m) or inner(m))
        assert find_witness(gadget) is not None
        assert calls == []
        assert gadget.left.base._det_cache
