"""Independent reference routes for checking the program's answers.

Nothing here calls treedpp's arithmetic: determinants are fraction-free
Bareiss eliminations on Python ints, the mixed discriminant has both the
permutation sum and the polarization identity, matchings use Ryser's
formula and e**t is enclosed by a Taylor sum with its remainder.  The only
program functions a check uses are the graph predicates `is_spanning_tree`
and `is_forest_subset`, passed in by the caller.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm


def det_int(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


class Minors:
    """Weighted principal minors prod(w_S) * det(K_S) of one rational kernel.

    The kernel is cleared of denominators once, so every minor is a single
    integer Bareiss elimination.
    """

    def __init__(self, rows, weights=None):
        n = len(rows)
        scale = 1
        for row in rows:
            for v in row:
                scale = lcm(scale, Fraction(v).denominator)
        self.scale = scale
        self.ints = [[int(Fraction(v) * scale) for v in row] for row in rows]
        self.weights = [Fraction(1)] * n if weights is None else [Fraction(w) for w in weights]

    def __call__(self, positions) -> Fraction:
        positions = list(positions)
        sub = [[self.ints[i][j] for j in positions] for i in positions]
        value = Fraction(det_int(sub), self.scale ** len(positions))
        for i in positions:
            value *= self.weights[i]
        return value


def det(rows) -> Fraction:
    """Exact determinant of a square rational matrix."""
    return Minors(rows)(range(len(rows)))


def subset_sum(minors: Minors, size_range, keep) -> Fraction:
    """Sum of minors over the position subsets with a size in size_range that keep() accepts."""
    n = len(minors.ints)
    total = Fraction(0)
    for k in size_range:
        if k > n:
            continue
        for subset in combinations(range(n), k):
            if keep(subset):
                total += minors(subset)
    return total


def all_minors_sum(minors: Minors) -> Fraction:
    n = len(minors.ints)
    return subset_sum(minors, range(n + 1), lambda s: True)


def mixed_discriminant_perm(mats) -> Fraction:
    """Permutation sum: column j of each summand comes from matrix sigma(j)."""
    n = len(mats)
    total = Fraction(0)
    for sigma in permutations(range(n)):
        total += det([[mats[sigma[c]][r][c] for c in range(n)] for r in range(n)])
    return total


def mixed_discriminant_polar(mats) -> Fraction:
    """Polarization: sum over S of (-1)^(n-|S|) det(sum_{i in S} K_i)."""
    n = len(mats)
    total = Fraction(0)
    for mask in range(1 << n):
        chosen = [mats[i] for i in range(n) if mask >> i & 1]
        summed = [
            [sum((m[r][c] for m in chosen), Fraction(0)) for c in range(n)]
            for r in range(n)
        ]
        sign = -1 if (n - len(chosen)) % 2 else 1
        total += sign * det(summed)
    return total


def permanent_ryser(adjacency) -> int:
    """Permanent of a square 0/1 matrix: the number of perfect matchings."""
    n = len(adjacency)
    if n == 0:
        return 1
    total = 0
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        product = 1
        for row in adjacency:
            product *= sum(row[j] for j in cols)
            if product == 0:
                break
        total += (-1) ** (n - len(cols)) * product
    return total


def exp_bounds(t: Fraction, terms: int = 40) -> tuple:
    """Rational (lower, upper) with lower <= e**t <= upper, for |t| < 1."""
    t = Fraction(t)
    if t < 0:
        lo, hi = exp_bounds(-t, terms)
        return 1 / hi, 1 / lo
    if t >= 1:
        raise ValueError("exp_bounds needs |t| < 1")
    total = term = Fraction(1)
    for k in range(1, terms + 1):
        term = term * t / k
        total += term
    tail = term * t / (1 - t) if t else Fraction(0)
    return total, total + tail


def reduction_window(mode: str, epsilon: Fraction, d: Fraction) -> tuple:
    """Certified window for an estimate of D: [D, (1+eps/2)D] for the exact
    oracle, and a rational window inside [e^-eps D, e^eps D] otherwise."""
    if mode == "exact":
        return d, (1 + epsilon / 2) * d
    return exp_bounds(-epsilon)[1] * d, exp_bounds(epsilon)[0] * d
