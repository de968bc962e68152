"""Seeded property suite: every structural identity the package relies on,
checked on random instances against independent brute-force routes.

Each check raises AssertionError with a short message on failure; the
runner turns that into one pass/fail line per property.  Deterministic for
a fixed seed.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from itertools import combinations, permutations

from .dpp import ConstrainedDPP, partition_constrained_sum, sample_exact, z_forest, z_tree
from .graphs import (
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
from .linalg import (
    SymMatrix,
    WeightedPSD,
    char_poly_coeffs,
    det_bareiss,
    is_psd,
    ldlt,
    unconstrained_normalizer,
)
from .matroid import find_witness, linear_matroid, matroid_intersection, partition_matroid
from .mixed_disc import MDInstance, build_partition_instance, mixed_discriminant
from .rational import ONE, Rat, exp_enclosure
from .reductions import (
    OracleSpec,
    apreduce_md_to_zf,
    apreduce_md_to_zt,
    build_md_gadget,
    build_pm_gadget,
    count_pm_via_zt,
    gadget_z_exact,
    reweight_rank_one,
    zt_via_zf,
)

# ---------------------------------------------------------------------------
# Random instance generators (shared with the test suite).


def random_rational(rng, span=3, denominators=(1, 1, 2, 3)):
    return Rat(rng.randint(-span, span), rng.choice(denominators))


def random_gram(rng, dim, rank=None, labels=None):
    """Gram matrix V V^T of a random rational V; PSD by construction."""
    rank = dim if rank is None else rank
    if labels is None:
        labels = [str(i) for i in range(dim)]
    vecs = [[random_rational(rng) for _ in range(rank)] for _ in range(dim)]
    rows = [
        [sum(vecs[i][t] * vecs[j][t] for t in range(rank)) for j in range(dim)]
        for i in range(dim)
    ]
    return SymMatrix(labels, rows)


def random_weighted_psd(rng, dim, labels=None):
    base = random_gram(rng, dim, labels=labels)
    weights = {a: Rat(rng.randint(1, 4), rng.choice((1, 2))) for a in base.labels}
    return WeightedPSD(base, weights)


def random_connected_graph(rng, num_vertices, extra_edges=2):
    """Random spanning tree plus a few extra edges; simple by construction."""
    vertices = [f"n{i}" for i in range(num_vertices)]
    pairs = set()
    edges = []
    for i in range(1, num_vertices):
        j = rng.randrange(i)
        pairs.add(frozenset((vertices[i], vertices[j])))
        edges.append((vertices[i], vertices[j]))
    candidates = [
        (vertices[i], vertices[j])
        for i in range(num_vertices)
        for j in range(i + 1, num_vertices)
        if frozenset((vertices[i], vertices[j])) not in pairs
    ]
    rng.shuffle(candidates)
    edges.extend(candidates[:extra_edges])
    edges = [(f"e{k:02d}", u, v) for k, (u, v) in enumerate(edges)]
    return Graph(vertices, edges)


def random_bipartite(rng, size, keep=None):
    left = [f"u{i}" for i in range(size)]
    right = [f"w{i}" for i in range(size)]
    all_edges = [(u, w) for u in left for w in right]
    if keep is None:
        edges = [e for e in all_edges if rng.random() < 0.5]
    else:
        rng.shuffle(all_edges)
        edges = sorted(all_edges[:keep])
    return BipartiteGraph(left, right, edges)


def random_md_instance(rng, n, degenerate=False):
    mats = []
    for i in range(n):
        if degenerate and i == 0:
            mats.append(SymMatrix([str(j) for j in range(n)], [[0] * n] * n))
        else:
            mats.append(random_gram(rng, n))
    return MDInstance(tuple(mats))


def complete_graph(n):
    """K_n on vertices "0".."n-1", edge ids e00, e01, ... in row order."""
    vertices = [str(i) for i in range(n)]
    pairs = [(vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)]
    return Graph(vertices, [(f"e{k:02d}", u, v) for k, (u, v) in enumerate(pairs)])


def triangle_graph():
    return Graph(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")))


def _subsets(labels):
    for k in range(len(labels) + 1):
        yield from combinations(labels, k)


# ---------------------------------------------------------------------------
# Property checks.


def check_gram_minors_nonnegative(rng):
    for _ in range(6):
        m = WeightedPSD(random_gram(rng, rng.randint(2, 6)))
        for subset in _subsets(m.labels):
            assert m.minor(subset) >= 0, f"negative minor at {subset!r}"


def check_det_matches_ldlt(rng):
    for _ in range(6):
        g = random_gram(rng, rng.randint(2, 6))
        lower, diag, perm = ldlt(g)
        prod = ONE
        for d in diag:
            prod *= d
        assert det_bareiss(g) == prod, "determinant disagrees with pivot product"
        n = g.dimension
        for i in range(n):
            for j in range(n):
                recon = sum(lower[i][t] * diag[t] * lower[j][t] for t in range(n))
                assert recon == g.entries[perm[i]][perm[j]], "factorization mismatch"


def check_normalizer_matches_subset_sum(rng):
    for _ in range(3):
        m = random_weighted_psd(rng, rng.randint(2, 6))
        total = sum(m.minor(s) for s in _subsets(m.labels))
        assert unconstrained_normalizer(m) == total, "normalizer != subset sum"


def check_charpoly_matches_minor_sums(rng):
    for _ in range(4):
        g = random_gram(rng, rng.randint(2, 5))
        coeffs = char_poly_coeffs(g)
        for k in range(1, g.dimension + 1):
            total = Rat(0)
            for subset in combinations(range(g.dimension), k):
                total += g.minor_det(subset)
            assert coeffs[k - 1] == total, f"coefficient {k} != sum of {k}-minors"


def check_psd_criterion(rng):
    for _ in range(6):
        g = random_gram(rng, rng.randint(2, 5))
        assert is_psd(g), "Gram matrix reported non-PSD"
        n = g.dimension
        rows = [list(r) for r in g.entries]
        rows[0][0] = -abs(rows[0][0]) - 1
        bad = SymMatrix([f"x{i}" for i in range(n)], rows)
        assert not is_psd(bad), "negative diagonal reported PSD"
        assert is_psd(bad) == all(e >= 0 for e in char_poly_coeffs(bad))
        assert is_psd(g) == all(e >= 0 for e in char_poly_coeffs(g))


def check_tree_enumeration_matches_count(rng):
    for _ in range(4):
        g = random_connected_graph(rng, rng.randint(3, 7), extra_edges=rng.randint(1, 3))
        trees = list(enumerate_spanning_trees(g))
        assert len(set(trees)) == len(trees), "duplicate spanning tree yielded"
        assert Rat(len(trees)) == count_spanning_trees(g), "enumeration != determinant count"
        for t in trees:
            assert is_spanning_tree(g, t), f"non-tree {t!r} yielded"


def check_forest_enumeration(rng):
    for _ in range(4):
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(1, 3))
        forests = list(enumerate_forests(g))
        assert len(set(forests)) == len(forests), "duplicate forest yielded"
        for f in forests:
            assert is_forest_subset(g, f), f"cyclic subset {f!r} yielded"
        brute = sum(
            1 for s in _subsets(sorted(g.edge_by_id)) if is_forest_subset(g, s)
        )
        assert len(forests) == brute, "forest enumeration misses subsets"


def rooted_forest_sum(graph):
    """Sum over the enumerated forests of the product of their component
    sizes (isolated vertices included): the number of rooted spanning
    forests, found without a determinant."""
    total = 0
    for forest in enumerate_forests(graph):
        parent = {v: v for v in graph.vertices}

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for eid in forest:
            u, v = graph.edge_by_id[eid]
            parent[root(u)] = root(v)
        total += math.prod(Counter(root(v) for v in graph.vertices).values())
    return total


def check_rooted_forest_count(rng):
    """det(L + I), the forest cap's bound, is the rooted-forest count."""
    for _ in range(4):
        g = random_connected_graph(rng, rng.randint(1, 6), extra_edges=rng.randint(0, 3))
        if rng.random() < 0.5:
            g = Graph(g.vertices + ("isolated",), g.edges)
        assert count_rooted_forests(g) == rooted_forest_sum(g), "det(L + I) != rooted forests"


def check_weighted_tree_count(rng):
    for _ in range(4):
        g = random_connected_graph(rng, rng.randint(3, 7), extra_edges=rng.randint(1, 2))
        weights = {eid: Rat(rng.randint(1, 5)) for eid in g.edge_by_id}
        total = Rat(0)
        for tree in enumerate_spanning_trees(g):
            term = ONE
            for eid in tree:
                term *= weights[eid]
            total += term
        assert count_spanning_trees(g, weights) == total, "weighted count mismatch"


def check_ztree_diagonal_matches_weighted_count(rng):
    for _ in range(4):
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(1, 2))
        ids = sorted(g.edge_by_id)
        weights = {eid: Rat(rng.randint(1, 4)) for eid in ids}
        base = SymMatrix(ids, [[ONE if a == b else Rat(0) for b in ids] for a in ids])
        matrix = WeightedPSD(base, weights)
        assert z_tree(matrix, g) == count_spanning_trees(g, weights)


def check_zforest_decomposition(rng):
    for _ in range(3):
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(1, 2))
        ids = sorted(g.edge_by_id)
        matrix = random_weighted_psd(rng, len(ids), labels=ids)
        rest = Rat(0)
        for f in enumerate_forests(g):
            if not is_spanning_tree(g, f):
                rest += matrix.minor(f)
        zt = z_tree(matrix, g)
        zf = z_forest(matrix, g)
        assert zf == zt + rest, "forest normalizer does not decompose"
        assert 0 <= zt <= zf, "normalizer ordering violated"


def check_sampler_calibration(rng):
    g = triangle_graph()
    base = SymMatrix(("a", "b", "c"), [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    dpp = ConstrainedDPP(WeightedPSD(base), "tree", graph=g)
    draws = sample_exact(dpp, seed=20240817, count=2000)
    again = sample_exact(dpp, seed=20240817, count=2000)
    assert draws == again, "sampler is not deterministic in its seed"
    expected = {("a", "b"): Rat(1, 5), ("a", "c"): Rat(2, 5), ("b", "c"): Rat(2, 5)}
    for outcome, p in expected.items():
        seen = draws.count(outcome)
        mean = 2000 * float(p)
        bound = 5 * (2000 * float(p) * (1 - float(p))) ** 0.5
        assert abs(seen - mean) <= bound, f"outcome {outcome!r} off by > 5 sigma"


def check_mixed_disc_symmetric(rng):
    inst = random_md_instance(rng, 3)
    reference = mixed_discriminant(inst)
    for order in permutations(inst.matrices):
        assert mixed_discriminant(MDInstance(order)) == reference, "not symmetric"


def check_mixed_disc_multilinear(rng):
    n = 3
    base = random_md_instance(rng, n)
    other = random_gram(rng, n)
    alpha, beta = Rat(2, 3), Rat(5, 2)
    first = base.matrices[0]
    mixed_rows = [
        [alpha * first.entries[i][j] + beta * other.entries[i][j] for j in range(n)]
        for i in range(n)
    ]
    mixed = SymMatrix(first.labels, mixed_rows)
    combined = MDInstance((mixed,) + base.matrices[1:])
    swapped = MDInstance((other,) + base.matrices[1:])
    lhs = mixed_discriminant(combined)
    rhs = alpha * mixed_discriminant(base) + beta * mixed_discriminant(swapped)
    assert lhs == rhs, "not multilinear in the first argument"


def check_mixed_disc_nonnegative(rng):
    for n in (2, 3):
        assert mixed_discriminant(random_md_instance(rng, n)) >= 0


def check_partition_encoding(rng):
    for n in (2, 3):
        for _ in range(3):
            inst = random_md_instance(rng, n)
            p = build_partition_instance(inst)
            lhs = partition_constrained_sum(p.matrix, p.parts)
            assert lhs == mixed_discriminant(inst), "encoding identity fails"


def check_matroid_intersection_exhaustive(rng):
    for _ in range(4):
        dim = rng.randint(2, 3)
        ground = [f"g{i}" for i in range(rng.randint(3, 6))]
        gram = random_gram(rng, len(ground), rank=dim, labels=ground)
        lin = linear_matroid(WeightedPSD(gram))
        k = rng.randint(1, 3)
        parts: list = [[] for _ in range(k)]
        for g in ground:
            parts[rng.randrange(k)].append(g)
        parts = [p for p in parts if p]
        caps = [rng.randint(1, 2) for _ in parts]
        part = partition_matroid(parts, caps)
        best = 0
        for subset in _subsets(ground):
            if lin.independent(subset) and part.independent(subset):
                best = max(best, len(subset))
        for target in range(len(ground) + 1):
            found = matroid_intersection(lin, part, target)
            if target <= best:
                assert found is not None and len(found) == target
                assert lin.independent(found) and part.independent(found)
            else:
                assert found is None, f"found impossible target {target}"


def check_witness_soundness(rng):
    for degenerate in (False, True):
        inst = random_md_instance(rng, 2, degenerate=degenerate)
        gadget = build_md_gadget(build_partition_instance(inst))
        witness = find_witness(gadget)
        d = mixed_discriminant(inst)
        if witness is None:
            assert d == 0, "no witness although the discriminant is positive"
        else:
            assert d > 0 or gadget.kernel.minor(witness) > 0
            assert set(gadget.right_edges) <= set(witness), "witness misses right edges"
            assert is_spanning_tree(gadget.graph, witness), "witness is not a tree"
            assert gadget.kernel.minor(witness) > 0, "witness minor vanishes"


def check_pm_reduction_matches_permanent(rng):
    for _ in range(4):
        b = random_bipartite(rng, rng.randint(1, 3))
        assert count_pm_via_zt(b) == count_perfect_matchings(b)


def check_pm_trees_project_to_matchings(rng):
    b = random_bipartite(rng, 3)
    inst = build_pm_gadget(b)
    matchings = set()
    for tree in enumerate_spanning_trees(inst.graph):
        if inst.kernel.minor(tree) == 0:
            continue
        assert set(inst.right_edges) <= set(tree), "surviving tree misses right edges"
        pairs = [inst.left_source[e] for e in tree if e in inst.left_source]
        assert len({u for u, _ in pairs}) == len(pairs), "left vertex reused"
        assert len({w for _, w in pairs}) == len(pairs), "right vertex reused"
        assert len(pairs) == b.size, "matching has wrong size"
        matchings.add(tuple(sorted(pairs)))
    assert len(matchings) == count_perfect_matchings(b), "matchings do not biject"


def check_md_gadget_tree_sum(rng):
    inst = random_md_instance(rng, 2)
    p = build_partition_instance(inst)
    gadget = build_md_gadget(p)
    total = Rat(0)
    right = set(gadget.right_edges)
    for tree in enumerate_spanning_trees(gadget.graph):
        if right <= set(tree):
            total += gadget.kernel.minor(tree)
    assert total == partition_constrained_sum(p.matrix, p.parts), "tree sum mismatch"


def check_md_gadget_subset_claim(rng):
    inst = random_md_instance(rng, 2)
    gadget = build_md_gadget(build_partition_instance(inst))
    right = list(gadget.right_edges)
    lefts = list(gadget.left_edges)
    owner = {e: i for i, part in enumerate(gadget.parts) for e in part}
    for picked in _subsets(lefts):
        subset = tuple(sorted(set(right) | set(picked)))
        spanning = is_spanning_tree(gadget.graph, subset)
        transversal = len(picked) == gadget.num_parts and len(
            {owner[e] for e in picked}
        ) == gadget.num_parts
        assert spanning == transversal, f"claim fails at {picked!r}"


def check_interpolation(rng):
    for _ in range(3):
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(1, 2))
        ids = sorted(g.edge_by_id)
        matrix = random_weighted_psd(rng, len(ids), labels=ids)
        assert zt_via_zf(matrix, g) == z_tree(matrix, g), "interpolation mismatch"


def check_reweight_matches_hadamard(rng):
    inst = build_md_gadget(build_partition_instance(random_md_instance(rng, 2)))
    lf, rf = Rat(3), Rat(2)
    fast = reweight_rank_one(inst, lf, rf)
    labels = inst.kernel.labels
    left = set(inst.left_edges)
    u = {a: (lf if a in left else rf) for a in labels}
    rows = [
        [inst.kernel.base[a, b] * u[a] * u[b] for b in labels] for a in labels
    ]
    direct = WeightedPSD(SymMatrix(labels, rows), inst.kernel.weights)
    for _ in range(20):
        subset = [a for a in labels if rng.random() < 0.5]
        assert fast.kernel.minor(subset) == direct.minor(subset), "Hadamard mismatch"


def check_exact_oracle_matches_generic(rng):
    inst = build_md_gadget(build_partition_instance(random_md_instance(rng, 2)))
    scaled = reweight_rank_one(inst, Rat(2), Rat(3))
    assert gadget_z_exact(scaled, "tree") == z_tree(scaled.kernel, scaled.graph)
    assert gadget_z_exact(scaled, "forest") == z_forest(scaled.kernel, scaled.graph)


def check_oracle_at_forest_route_factors(rng):
    """The forest route reweights by its own (y, x), hundreds of bits at a
    small epsilon; the gadget oracle must still equal the generic sums."""
    inst = random_md_instance(rng, 2)
    report = apreduce_md_to_zf(inst, Rat(1, 2**64))
    if report.declared_zero:
        return
    gadget = build_md_gadget(build_partition_instance(inst))
    scaled = reweight_rank_one(gadget, report.y, report.x)
    g = scaled.graph
    forest = z_forest(scaled.kernel, g)
    assert gadget_z_exact(scaled, "forest") == forest, "forest oracle mismatch"
    assert report.oracle_value == forest, "reported oracle value mismatch"
    tree = z_tree(scaled.kernel, g)
    assert gadget_z_exact(scaled, "tree") == tree, "tree oracle mismatch"


def _sandwich_case(report, reference, epsilon):
    if report.declared_zero:
        assert reference == 0, "declared zero with a positive discriminant"
        return
    if report.oracle_mode == "exact":
        assert reference <= report.estimate <= (ONE + epsilon / 2) * reference
        assert report.estimate <= exp_enclosure(epsilon / 2)[0] * reference
    else:
        assert exp_enclosure(-epsilon)[1] * reference <= report.estimate
        assert report.estimate <= exp_enclosure(epsilon)[0] * reference
    assert report.bounds_pass, "reported bounds check failed"
    assert report.oracle_calls == ((report.target, epsilon / 2),), "call contract broken"


def check_tree_sandwich(rng):
    eps = Rat(1, 2)
    inst = random_md_instance(rng, 2)
    reference = mixed_discriminant(inst)
    _sandwich_case(apreduce_md_to_zt(inst, eps), reference, eps)
    for direction in (1, -1):
        spec = OracleSpec(mode="adversarial", direction=direction)
        _sandwich_case(apreduce_md_to_zt(inst, eps, oracle=spec), reference, eps)
    spec = OracleSpec(mode="noisy", seed=7)
    _sandwich_case(apreduce_md_to_zt(inst, eps, oracle=spec), reference, eps)


def check_forest_sandwich(rng):
    eps = Rat(1, 2)
    inst = random_md_instance(rng, 2)
    reference = mixed_discriminant(inst)
    _sandwich_case(apreduce_md_to_zf(inst, eps), reference, eps)
    for direction in (1, -1):
        spec = OracleSpec(mode="adversarial", direction=direction)
        _sandwich_case(apreduce_md_to_zf(inst, eps, oracle=spec), reference, eps)


def check_forest_exponent_cases(rng):
    inst = random_md_instance(rng, 2)
    report = apreduce_md_to_zf(inst, Rat(1, 2))
    if report.declared_zero:
        return
    gadget = build_md_gadget(build_partition_instance(inst))
    x, y = report.x, report.y
    n, m = gadget.num_parts, gadget.num_left
    top = x ** (2 * m) * y ** (2 * n)
    right = set(gadget.right_edges)
    for forest in enumerate_forests(gadget.graph):
        r = len([e for e in forest if e in right])
        l = len(forest) - r
        monomial = x ** (2 * r) * y ** (2 * l)
        if right <= set(forest):
            assert l <= n, "forest overfills a spine position"
            if l == n:
                assert monomial <= top
            else:
                assert monomial <= x ** (2 * m) * y ** (2 * n - 2) <= top
        else:
            assert monomial <= x ** (2 * m - 2) * y ** (2 * m) <= top


def check_json_roundtrip(rng):
    from . import jsonio

    def through_json(obj):
        return json.loads(json.dumps(obj))

    g = random_connected_graph(rng, 5, extra_edges=2)
    # JSON object keys are strings; integer edge ids must keep their weights.
    numbered = Graph(g.vertices, [(k, u, v) for k, (_, u, v) in enumerate(g.edges)])
    for graph in (g, numbered):
        weights = {eid: Rat(rng.randint(1, 9), rng.choice((1, 2, 3))) for eid in graph.edge_by_id}
        g2, w2 = jsonio.load_graph(through_json(jsonio.dump_graph(graph, weights)))
        assert g2.vertices == graph.vertices and g2.edges == graph.edges and w2 == weights
    m = random_weighted_psd(rng, 4)
    m2 = jsonio.load_weighted_psd(through_json(jsonio.dump_weighted_psd(m)))
    assert m2.base == m.base and m2.weights == m.weights
    b = random_bipartite(rng, 3)
    b2 = jsonio.load_bipartite(through_json(jsonio.dump_bipartite(b)))
    assert (b2.left, b2.right, b2.edges) == (b.left, b.right, b.edges)
    inst = random_md_instance(rng, 2)
    inst2 = jsonio.load_md_instance(through_json(jsonio.dump_md_instance(inst)))
    assert inst2.matrices == inst.matrices


ALL_CHECKS = [
    ("gram-minors-nonnegative", check_gram_minors_nonnegative),
    ("det-matches-ldlt-product", check_det_matches_ldlt),
    ("normalizer-matches-subset-sum", check_normalizer_matches_subset_sum),
    ("charpoly-matches-minor-sums", check_charpoly_matches_minor_sums),
    ("psd-criterion-consistent", check_psd_criterion),
    ("tree-enumeration-matches-count", check_tree_enumeration_matches_count),
    ("forest-enumeration-complete", check_forest_enumeration),
    ("rooted-forest-count", check_rooted_forest_count),
    ("weighted-tree-count", check_weighted_tree_count),
    ("ztree-diagonal-weighted-count", check_ztree_diagonal_matches_weighted_count),
    ("zforest-decomposition", check_zforest_decomposition),
    ("sampler-calibration", check_sampler_calibration),
    ("mixed-disc-symmetric", check_mixed_disc_symmetric),
    ("mixed-disc-multilinear", check_mixed_disc_multilinear),
    ("mixed-disc-nonnegative", check_mixed_disc_nonnegative),
    ("partition-encoding", check_partition_encoding),
    ("matroid-intersection-exhaustive", check_matroid_intersection_exhaustive),
    ("witness-soundness", check_witness_soundness),
    ("pm-reduction-matches-permanent", check_pm_reduction_matches_permanent),
    ("pm-trees-project-to-matchings", check_pm_trees_project_to_matchings),
    ("md-gadget-tree-sum", check_md_gadget_tree_sum),
    ("md-gadget-subset-claim", check_md_gadget_subset_claim),
    ("interpolation-recovers-ztree", check_interpolation),
    ("reweight-matches-hadamard", check_reweight_matches_hadamard),
    ("exact-oracle-matches-generic", check_exact_oracle_matches_generic),
    ("oracle-at-forest-route-factors", check_oracle_at_forest_route_factors),
    ("tree-sandwich", check_tree_sandwich),
    ("forest-sandwich", check_forest_sandwich),
    ("forest-exponent-cases", check_forest_exponent_cases),
    ("json-roundtrip", check_json_roundtrip),
]


def run_verification(seed: int = 0) -> list:
    """Run every check on instances drawn from the seeded generator.

    Returns a list of (name, passed, detail) tuples, one per property.
    """
    results = []
    for name, check in ALL_CHECKS:
        rng = random.Random(f"{seed}:{name}")
        try:
            check(rng)
        except AssertionError as exc:
            results.append((name, False, str(exc) or "assertion failed"))
        except Exception as exc:  # a crashing check fails; the others still run
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, True, ""))
    return results
