import random
from itertools import combinations

import pytest

from treedpp.linalg import (
    SymMatrix,
    WeightedPSD,
    char_poly_coeffs,
    det_bareiss,
    det_int,
    is_psd,
    ldlt,
    unconstrained_normalizer,
)
from treedpp.rational import ONE, Rat
from treedpp.verify import random_gram, random_weighted_psd


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class TestDetBareiss:
    def test_identity(self):
        assert det_bareiss(identity(3)) == 1

    def test_rank_one(self):
        assert det_bareiss([[1, 1], [1, 1]]) == 0

    def test_two_by_two_cofactor(self):
        # Hand check: 2*2 - 1*1 = 3.
        assert det_bareiss([[2, 1], [1, 2]]) == 3

    def test_empty_matrix(self):
        assert det_bareiss([]) == 1

    def test_rationals_and_row_swaps(self):
        m = [[0, Rat(1, 2)], [Rat(1, 3), 5]]
        assert det_bareiss(m) == -Rat(1, 6)

    def test_matches_permutation_expansion(self):
        rng = random.Random(11)
        from itertools import permutations

        for _ in range(5):
            n = rng.randint(2, 4)
            rows = [[Rat(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
                    for _ in range(n)]
            brute = Rat(0)
            for perm in permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = ONE
                for i in range(n):
                    term *= rows[i][perm[i]]
                brute += sign * term
            assert det_bareiss(rows) == brute


class TestDetInt:
    def test_empty_and_singular(self):
        assert det_int([]) == 1
        assert det_int([[1, 2], [2, 4]]) == 0
        assert det_int([[0, 0], [0, 3]]) == 0

    def test_row_swap_sign(self):
        assert det_int([[0, 1], [1, 0]]) == -1
        assert det_int([[0, 2, 1], [3, 0, 0], [0, 0, 5]]) == -30

    def test_matches_fraction_bareiss(self):
        # Zeros are frequent, so pivots are often swapped or missing.
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 7)
            rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                    for _ in range(n)]
            before = [row[:] for row in rows]
            value = det_int(rows)
            assert type(value) is int
            assert value == det_bareiss(rows)
            assert rows == before


class TestSymMatrix:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix(("a", "b"), [[1, 2], [3, 4]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            SymMatrix(("a", "a"), identity(2))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix(("a", "b"), [[1, 0, 0], [0, 1, 0]])

    def test_rejects_floats(self):
        with pytest.raises(ValueError, match="exact"):
            SymMatrix(("a",), [[1.5]])


class TestPrincipalMinor:
    def test_empty_subset_is_one(self):
        m = WeightedPSD(SymMatrix(("a", "b"), identity(2)))
        assert m.minor(()) == 1

    def test_diagonal_weight_product(self):
        m = WeightedPSD(SymMatrix(("1", "2"), identity(2)), {"1": 4, "2": 9})
        assert m.minor(("1", "2")) == 36

    def test_singular_base(self):
        m = WeightedPSD(SymMatrix(("1", "2"), [[1, 1], [1, 1]]), {"1": 4, "2": 4})
        assert m.minor(("1", "2")) == 0

    def test_unknown_label(self):
        m = WeightedPSD(SymMatrix(("a",), [[1]]))
        with pytest.raises(ValueError, match="unknown matrix label"):
            m.minor(("zzz",))

    def test_nonnegative_on_gram(self):
        rng = random.Random(5)
        for _ in range(10):
            m = WeightedPSD(random_gram(rng, rng.randint(2, 6)))
            for k in range(m.dimension + 1):
                for subset in combinations(m.labels, k):
                    assert m.minor(subset) >= 0


class TestCharPoly:
    def test_diagonal(self):
        assert char_poly_coeffs([[1, 0], [0, 2]]) == (3, 2)

    def test_indefinite(self):
        assert char_poly_coeffs([[0, 1], [1, 0]]) == (0, -1)

    def test_identity_binomials(self):
        assert char_poly_coeffs(identity(3)) == (3, 3, 1)

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            char_poly_coeffs([[1, 2], [3, 4]])

    def test_coefficients_are_minor_sums(self):
        rng = random.Random(7)
        for _ in range(6):
            g = random_gram(rng, rng.randint(2, 6))
            coeffs = char_poly_coeffs(g)
            for k in range(1, g.dimension + 1):
                total = sum(
                    (g.minor_det(s) for s in combinations(range(g.dimension), k)),
                    Rat(0),
                )
                assert coeffs[k - 1] == total


class TestIsPsd:
    def test_rank_one_gram(self):
        assert is_psd([[1, 1], [1, 1]])

    def test_negative_eigenvalue(self):
        assert not is_psd([[0, 1], [1, 0]])

    def test_gram_always_psd(self):
        rng = random.Random(13)
        for _ in range(10):
            assert is_psd(random_gram(rng, rng.randint(1, 6)))

    def test_negative_diagonal_never_psd(self):
        rng = random.Random(17)
        for _ in range(5):
            g = random_gram(rng, 4)
            rows = [list(r) for r in g.entries]
            rows[2][2] = Rat(-1, 7)
            assert not is_psd(rows)

    def test_agrees_with_char_poly_signs(self):
        rng = random.Random(19)
        for _ in range(10):
            n = rng.randint(2, 5)
            rows = [[Rat(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = Rat(rng.randint(-2, 2), rng.choice((1, 2)))
            assert is_psd(rows) == all(e >= 0 for e in char_poly_coeffs(rows))


class TestLdlt:
    def test_identity(self):
        lower, diag, perm = ldlt(identity(3))
        assert diag == (1, 1, 1)
        assert lower == tuple(tuple(Rat(v) for v in row) for row in identity(3))
        assert perm == (0, 1, 2)

    def test_rank_one(self):
        lower, diag, perm = ldlt([[1, 1], [1, 1]])
        assert diag == (1, 0)
        assert [lower[0][0], lower[1][0]] == [1, 1]

    def test_reconstruction(self):
        m = [[2, 1], [1, 2]]
        lower, diag, perm = ldlt(m)
        n = 2
        for i in range(n):
            for j in range(n):
                recon = sum(lower[i][t] * diag[t] * lower[j][t] for t in range(n))
                assert recon == m[perm[i]][perm[j]]

    def test_pivoting_reconstructs_rank_deficient(self):
        rng = random.Random(23)
        for _ in range(8):
            g = random_gram(rng, rng.randint(2, 5), rank=rng.randint(1, 3))
            lower, diag, perm = ldlt(g)
            n = g.dimension
            for i in range(n):
                for j in range(n):
                    recon = sum(lower[i][t] * diag[t] * lower[j][t] for t in range(n))
                    assert recon == g.entries[perm[i]][perm[j]]
            assert all(d >= 0 for d in diag)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="matrix not PSD"):
            ldlt([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="matrix not PSD"):
            ldlt([[-1, 0], [0, 1]])

    def test_det_equals_pivot_product(self):
        rng = random.Random(29)
        for _ in range(8):
            g = random_gram(rng, rng.randint(2, 6))
            _, diag, _ = ldlt(g)
            prod = ONE
            for d in diag:
                prod *= d
            assert det_bareiss(g) == prod


class TestWeightedPSD:
    def test_rejects_non_psd_base(self):
        with pytest.raises(ValueError, match="not positive semi-definite"):
            WeightedPSD(SymMatrix(("a", "b"), [[0, 1], [1, 0]]))

    def test_rejects_nonpositive_weight(self):
        base = SymMatrix(("a",), [[1]])
        with pytest.raises(ValueError, match="strictly positive"):
            WeightedPSD(base, {"a": 0})

    def test_rejects_weight_label_mismatch(self):
        base = SymMatrix(("a",), [[1]])
        with pytest.raises(ValueError, match="cover exactly"):
            WeightedPSD(base, {"b": 1})

    def test_scaled_shares_base(self):
        rng = random.Random(31)
        m = random_weighted_psd(rng, 3)
        scaled = m.scaled_all(Rat(5, 2))
        assert scaled.base is m.base
        for k in range(4):
            for subset in combinations(m.labels, k):
                assert scaled.minor(subset) == Rat(5, 2) ** k * m.minor(subset)


class TestUnconstrainedNormalizer:
    def test_identity(self):
        m = WeightedPSD(SymMatrix(("a", "b"), identity(2)))
        assert unconstrained_normalizer(m) == 4

    def test_diagonal(self):
        m = WeightedPSD(SymMatrix(("a", "b"), [[1, 0], [0, 2]]))
        assert unconstrained_normalizer(m) == 6

    def test_matches_subset_sum(self):
        rng = random.Random(37)
        for _ in range(5):
            m = random_weighted_psd(rng, 4)
            total = Rat(0)
            for k in range(5):
                for subset in combinations(m.labels, k):
                    total += m.minor(subset)
            assert unconstrained_normalizer(m) == total
