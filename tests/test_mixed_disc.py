import random
from itertools import permutations

import pytest
import sympy

from treedpp import mixed_disc
from treedpp.dpp import partition_constrained_sum
from treedpp.errors import CapExceeded
from treedpp.linalg import SymMatrix, det_bareiss, is_psd
from treedpp.mixed_disc import (
    MDInstance,
    PartitionInstance,
    build_partition_instance,
    mixed_discriminant,
)
from treedpp.rational import Rat
from treedpp.verify import random_gram, random_md_instance


def identity_matrix(n):
    return SymMatrix(
        [str(i) for i in range(n)],
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
    )


def sympy_mixed_discriminant(instance):
    """Independent route: mixed partial of det(sum_i x_i K_i) via sympy."""
    n = instance.dimension
    xs = sympy.symbols(f"t0:{n}")
    m = sympy.zeros(n, n)
    for k, mat in enumerate(instance.matrices):
        for i in range(n):
            for j in range(n):
                v = mat.entries[i][j]
                m[i, j] += xs[k] * sympy.Rational(int(v.numerator), int(v.denominator))
    expr = m.det()
    for x in xs:
        expr = sympy.diff(expr, x)
    value = sympy.nsimplify(expr.subs({x: 0 for x in xs}))
    return Rat(int(sympy.fraction(value)[0]), int(sympy.fraction(value)[1]))


class TestMixedDiscriminant:
    def test_two_identities(self):
        assert mixed_discriminant([identity_matrix(2)] * 2) == 2

    def test_identities_give_factorial(self):
        import math

        for n in range(1, 6):
            assert mixed_discriminant([identity_matrix(n)] * n) == math.factorial(n)

    def test_repeated_kernel_gives_scaled_det(self):
        import math

        rng = random.Random(2)
        for n in (2, 3, 4):
            k = random_gram(rng, n)
            assert mixed_discriminant([k] * n) == math.factorial(n) * det_bareiss(k)

    def test_orthogonal_diagonals(self):
        k1 = SymMatrix(("0", "1"), [[1, 0], [0, 0]])
        k2 = SymMatrix(("0", "1"), [[0, 0], [0, 1]])
        assert mixed_discriminant([k1, k2]) == 1

    def test_cap(self):
        with pytest.raises(CapExceeded, match="n = 8 exceeds 7"):
            mixed_discriminant([identity_matrix(8)] * 8)

    def test_cap_is_read_per_call(self, monkeypatch):
        monkeypatch.setattr(mixed_disc, "DEFAULT_MD_DIM_CAP", 2)
        with pytest.raises(CapExceeded, match="n = 3 exceeds 2"):
            mixed_discriminant([identity_matrix(3)] * 3)
        monkeypatch.setattr(mixed_disc, "DEFAULT_MD_DIM_CAP", 3)
        assert mixed_discriminant([identity_matrix(3)] * 3) == 6

    def test_symmetry_under_permutation(self):
        rng = random.Random(6)
        inst = random_md_instance(rng, 3)
        reference = mixed_discriminant(inst)
        for order in permutations(inst.matrices):
            assert mixed_discriminant(MDInstance(order)) == reference

    def test_nonnegative_for_psd(self):
        rng = random.Random(10)
        for n in (2, 3):
            for _ in range(4):
                assert mixed_discriminant(random_md_instance(rng, n)) >= 0

    def test_matches_sympy_mixed_partial(self):
        rng = random.Random(14)
        for n in (2, 3):
            inst = random_md_instance(rng, n)
            assert mixed_discriminant(inst) == sympy_mixed_discriminant(inst)

    def test_rejects_non_psd(self):
        bad = SymMatrix(("0", "1"), [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="positive semi-definite"):
            mixed_discriminant([bad, identity_matrix(2)])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="n kernels of dimension n"):
            mixed_discriminant([identity_matrix(2)] * 3)

    def test_rejects_differing_labels(self):
        # Entries are read by position, so diag(2, 1) over (b, a) would be
        # read as diag(2, 1) over (a, b): D = 4, where the kernel meant,
        # diag(1, 2) over (a, b), gives D = 5.
        first = SymMatrix(("a", "b"), [[2, 0], [0, 1]])
        swapped = SymMatrix(("b", "a"), [[2, 0], [0, 1]])
        assert mixed_discriminant([first, SymMatrix(("a", "b"), [[1, 0], [0, 2]])]) == 5
        with pytest.raises(ValueError, match="share one label tuple"):
            mixed_discriminant([first, swapped])


class TestPartitionEncoding:
    def test_identity_instance(self):
        p = build_partition_instance([identity_matrix(2)] * 2)
        assert partition_constrained_sum(p.matrix, p.parts) == 2
        assert mixed_discriminant([identity_matrix(2)] * 2) == 2

    def test_structure(self):
        p = build_partition_instance([identity_matrix(2)] * 2)
        assert p.matrix.dimension == 4
        assert len(p.parts) == 2
        assert all(len(part) == 2 for part in p.parts)
        assert is_psd(p.matrix.base)

    def test_random_instances_match_exactly(self):
        rng = random.Random(18)
        for n in (2, 3):
            for _ in range(5):
                inst = random_md_instance(rng, n)
                p = build_partition_instance(inst)
                lhs = partition_constrained_sum(p.matrix, p.parts)
                assert lhs == mixed_discriminant(inst)

    def test_zero_kernel_kills_everything(self):
        rng = random.Random(22)
        inst = random_md_instance(rng, 2, degenerate=True)
        p = build_partition_instance(inst)
        assert partition_constrained_sum(p.matrix, p.parts) == 0
        assert mixed_discriminant(inst) == 0

    def test_rank_deficient_kernels(self):
        rng = random.Random(26)
        for _ in range(5):
            n = rng.randint(2, 3)
            mats = tuple(random_gram(rng, n, rank=rng.randint(1, n)) for _ in range(n))
            inst = MDInstance(mats)
            p = build_partition_instance(inst)
            lhs = partition_constrained_sum(p.matrix, p.parts)
            assert lhs == mixed_discriminant(inst)

    def test_partition_instance_validation(self):
        p = build_partition_instance([identity_matrix(2)] * 2)
        with pytest.raises(ValueError, match="equal sizes"):
            PartitionInstance(p.matrix, (p.parts[0][:1], p.parts[0][1:] + p.parts[1]))
