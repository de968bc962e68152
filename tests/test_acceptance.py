"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
per-criterion timings.  Everything asserts exact equality or an exact
rational bound; rendered e-power bounds use rational enclosures from inside
the target interval, so a pass certifies the stated inequality.
"""

import math
import random
import time
from itertools import combinations

from treedpp.dpp import partition_constrained_sum, sample_exact, ConstrainedDPP, z_tree
from treedpp.graphs import (
    count_perfect_matchings,
    count_spanning_trees,
    enumerate_spanning_trees,
    is_spanning_tree,
)
from treedpp.linalg import SymMatrix, WeightedPSD, det_bareiss, unconstrained_normalizer
from treedpp.matroid import find_witness
from treedpp.mixed_disc import MDInstance, build_partition_instance, mixed_discriminant
from treedpp.rational import ONE, Rat, exp_enclosure
from treedpp.reductions import (
    OracleSpec,
    apreduce_md_to_zf,
    apreduce_md_to_zt,
    build_md_gadget,
    count_pm_via_zt,
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

EPSILONS = (Rat(1, 2), Rat(1, 4), Rat(1, 8))


def _report(number, description, started):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s) {description}")


def identity_matrix(n):
    return SymMatrix(
        [str(i) for i in range(n)],
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
    )


def test_criterion_1_pm_reduction_exact():
    started = time.time()
    rng = random.Random("acceptance-1")
    for _ in range(200):
        n = rng.randint(1, 4)
        b = random_bipartite(rng, n, keep=rng.randint(0, 3 * n))
        assert count_pm_via_zt(b) == count_perfect_matchings(b)
    _report(1, "matching count via tree normalizer, 200 random bipartite graphs", started)


def test_criterion_2_interpolation_exact():
    started = time.time()
    rng = random.Random("acceptance-2")
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(3, 7), extra_edges=rng.randint(0, 2))
        ids = sorted(g.edge_by_id)
        matrix = random_weighted_psd(rng, len(ids), labels=ids)
        assert zt_via_zf(matrix, g) == z_tree(matrix, g)
    _report(2, "interpolated tree normalizer exact on 100 random instances", started)


def test_criterion_3_partition_encoding_exact():
    started = time.time()
    rng = random.Random("acceptance-3")
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        inst = random_md_instance(rng, n)
        p = build_partition_instance(inst)
        lhs = partition_constrained_sum(p.matrix, p.parts)
        assert lhs == mixed_discriminant(inst)
    _report(3, "partition encoding equals the mixed discriminant, 100 instances", started)


def test_criterion_4_gadget_tree_sum_matches_transversals():
    started = time.time()
    rng = random.Random("acceptance-4")
    for n in (2, 3):
        for _ in range(5):
            p = build_partition_instance(random_md_instance(rng, n))
            gadget = build_md_gadget(p)
            right = set(gadget.right_edges)
            tree_side = Rat(0)
            for tree in enumerate_spanning_trees(gadget.graph):
                if right <= set(tree):
                    tree_side += gadget.kernel.minor(tree)
            assert tree_side == partition_constrained_sum(p.matrix, p.parts)
    _report(4, "gadget tree sums equal transversal sums for n in {2, 3}", started)


def _sandwich_protocol(reduce_fn, number, description):
    started = time.time()
    rng = random.Random(f"acceptance-{number}")
    for n in (2, 3):
        instances = [random_md_instance(rng, n) for _ in range(20)]
        for inst in instances:
            d = mixed_discriminant(inst)
            for eps in EPSILONS:
                exact = reduce_fn(inst, eps)
                if exact.declared_zero:
                    assert d == 0
                    continue
                # Exact oracle: inside [D, e^(eps/2) D].
                assert d <= exact.estimate
                assert exact.estimate <= (ONE + eps / 2) * d
                assert exact.estimate <= exp_enclosure(eps / 2)[0] * d
                assert exact.oracle_calls[0][1] == eps / 2
                # Adversarial oracle at delta = eps/2: inside [e^-eps D, e^eps D].
                for direction in (1, -1):
                    spec = OracleSpec(mode="adversarial", direction=direction)
                    adv = reduce_fn(inst, eps, oracle=spec)
                    assert exp_enclosure(-eps)[1] * d <= adv.estimate
                    assert adv.estimate <= exp_enclosure(eps)[0] * d
    _report(number, description, started)


def test_criterion_5_tree_route_sandwich():
    _sandwich_protocol(
        apreduce_md_to_zt, 5,
        "tree-route estimates inside the guaranteed windows, 20 instances per n",
    )


def test_criterion_6_forest_route_sandwich():
    _sandwich_protocol(
        apreduce_md_to_zf, 6,
        "forest-route estimates inside the guaranteed windows, 20 instances per n",
    )


def test_criterion_7_baseline_identities():
    started = time.time()
    rng = random.Random("acceptance-7")
    # Normalizer equals the sum over all subsets, up to 12 labels.
    for dim in (4, 8, 12):
        matrix = random_weighted_psd(rng, dim)
        total = Rat(0)
        for k in range(dim + 1):
            for subset in combinations(matrix.labels, k):
                total += matrix.minor(subset)
        assert unconstrained_normalizer(matrix) == total
    # Determinant count equals enumeration, up to 8 vertices.
    for _ in range(6):
        g = random_connected_graph(rng, rng.randint(4, 8), extra_edges=rng.randint(0, 3))
        assert count_spanning_trees(g) == len(list(enumerate_spanning_trees(g)))
    # Mixed discriminant identities.
    for n in range(1, 6):
        assert mixed_discriminant([identity_matrix(n)] * n) == math.factorial(n)
    for n in (2, 3, 4):
        k = random_gram(rng, n)
        assert mixed_discriminant([k] * n) == math.factorial(n) * det_bareiss(k)
    _report(7, "normalizer, matrix-tree, and discriminant baselines all exact", started)


def test_criterion_8_witness_soundness():
    started = time.time()
    rng = random.Random("acceptance-8")
    cases = []
    for n in (2, 3):
        cases.append(random_md_instance(rng, n, degenerate=True))
        for _ in range(4):
            mats = tuple(random_gram(rng, n, rank=rng.randint(0, n)) for _ in range(n))
            cases.append(MDInstance(mats))
    for inst in cases:
        gadget = build_md_gadget(build_partition_instance(inst))
        witness = find_witness(gadget)
        d = mixed_discriminant(inst)
        assert (witness is None) == (d == 0)
        if witness is not None:
            assert set(gadget.right_edges) <= set(witness)
            assert is_spanning_tree(gadget.graph, witness)
            assert gadget.kernel.minor(witness) > 0
    _report(8, "witness exists iff the discriminant is positive; conditions replayed", started)


def test_criterion_9_sampler_calibration():
    started = time.time()
    base = SymMatrix(("a", "b", "c"), [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    dpp = ConstrainedDPP(WeightedPSD(base), "tree", graph=triangle_graph())
    draws = sample_exact(dpp, seed=90210, count=10_000)
    expected = {("a", "b"): Rat(1, 5), ("a", "c"): Rat(2, 5), ("b", "c"): Rat(2, 5)}
    assert sum(expected.values()) == 1
    for outcome, p in expected.items():
        seen = draws.count(outcome)
        mean = 10_000 * float(p)
        sigma = math.sqrt(10_000 * float(p) * (1 - float(p)))
        assert abs(seen - mean) <= 5 * sigma, f"{outcome}: {seen} vs {mean}"
    _report(9, "10,000 draws match exact probabilities within 5 sigma per outcome", started)
