"""Exact rational dense linear algebra on label-indexed symmetric matrices.

Determinants use fraction-free (Bareiss) elimination, characteristic
polynomials use an integer Faddeev-LeVerrier recurrence after clearing
denominators, and positive semi-definiteness is decided from the signs of
the characteristic coefficients.  Nothing here ever rounds.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Mapping, Sequence

from .rational import ONE, Rat, Rational, as_rational


def _components(ent, positions) -> list:
    """Connected components, each sorted, of the nonzero pattern of the
    principal submatrix of ent at positions."""
    remaining = list(positions)
    pos_set = set(positions)
    comps = []
    seen = set()
    for start in remaining:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            row = ent[i]
            for j in pos_set:
                if j not in seen and row[j] != 0:
                    seen.add(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return comps


class SymMatrix:
    """Dense symmetric matrix over exact rationals with stable index labels.

    Immutable after construction; per-instance caches (subset determinants,
    the PSD verdict) are safe because the entries never change.
    """

    def __init__(self, labels: Sequence, rows: Sequence[Sequence]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("matrix labels must be unique")
        n = len(labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square over its labels")
        entries = tuple(tuple(as_rational(v) for v in row) for row in rows)
        for i in range(n):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("matrix is not symmetric")
        self.labels = labels
        self.entries = entries
        self._pos = {a: i for i, a in enumerate(labels)}
        self._det_cache: dict = {}
        self._psd: bool | None = None

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def __getitem__(self, pair):
        a, b = pair
        return self.entries[self._pos[a]][self._pos[b]]

    def __eq__(self, other):
        return (
            isinstance(other, SymMatrix)
            and self.labels == other.labels
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.labels, self.entries))

    def __repr__(self):
        return f"SymMatrix(dimension={self.dimension}, labels={self.labels!r})"

    def positions(self, subset: Iterable) -> tuple:
        try:
            return tuple(sorted(self._pos[a] for a in set(subset)))
        except KeyError as exc:
            raise ValueError(f"unknown matrix label {exc.args[0]!r}") from None

    def minor_det(self, positions: Sequence[int]) -> Rational:
        """Determinant of the principal submatrix at the given positions.

        Splits the submatrix into connected components of its nonzero
        pattern (the determinant factors over diagonal blocks) and caches
        the per-component values, which makes repeated minors over
        structured matrices cheap.
        """
        positions = tuple(sorted(positions))
        if not positions:
            return ONE
        result = ONE
        for comp in _components(self.entries, positions):
            if len(comp) == 1:
                result *= self.entries[comp[0]][comp[0]]
                if result == 0:
                    return result
                continue
            det = self._det_cache.get(comp)
            if det is None:
                ent = self.entries
                det = _bareiss([[ent[i][j] for j in comp] for i in comp])
                self._det_cache[comp] = det
            result *= det
            if result == 0:
                return result
        return result


class WeightedPSD:
    """A PSD base matrix together with positive per-index weights.

    Represents the diagonally congruent matrix W^(1/2) * base * W^(1/2)
    without taking square roots, so every principal minor stays rational:
    minor(S) = (prod of weights over S) * det(base_S).
    """

    def __init__(self, base: SymMatrix, weights: Mapping | None = None):
        if not is_psd(base):
            raise ValueError("base matrix is not positive semi-definite")
        if weights is None:
            wmap = {a: ONE for a in base.labels}
        else:
            wmap = {a: as_rational(w) for a, w in weights.items()}
            if set(wmap) != set(base.labels):
                raise ValueError("weights must cover exactly the matrix labels")
            for a, w in wmap.items():
                if w <= 0:
                    raise ValueError(f"weight for {a!r} must be strictly positive")
        self.base = base
        self.weights = wmap

    @property
    def labels(self) -> tuple:
        return self.base.labels

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def __repr__(self):
        return f"WeightedPSD(dimension={self.dimension})"

    def minor(self, subset: Iterable) -> Rational:
        subset = set(subset)
        pos = self.base.positions(subset)
        value = self.base.minor_det(pos)
        if value == 0:
            return value
        for a in subset:
            value *= self.weights[a]
        return value

    def scaled_all(self, factor) -> "WeightedPSD":
        f = as_rational(factor)
        return WeightedPSD(self.base, {a: w * f for a, w in self.weights.items()})


def _as_rows(matrix) -> list:
    if isinstance(matrix, SymMatrix):
        return [list(row) for row in matrix.entries]
    rows = [[as_rational(v) for v in row] for row in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return rows


def _require_symmetric(rows: list) -> list:
    n = len(rows)
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix is not symmetric")
    return rows


def _bareiss(rows: list) -> Rational:
    """Fraction-free elimination; first nonzero pivot per column, row swaps tracked."""
    n = len(rows)
    if n == 0:
        return ONE
    m = [row[:] for row in rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        pivot_row = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Rat(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) / prev
            row_i[k] = Rat(0)
        prev = pivot
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def det_bareiss(matrix) -> Rational:
    """Exact determinant of a SymMatrix or any square rational matrix."""
    return _bareiss(_as_rows(matrix))


def det_int(rows: list) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    The same pivoting as _bareiss, but every division is exact in the
    integers, so no Fraction is built; rows is not modified.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
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


def char_poly_coeffs(matrix) -> tuple:
    """Coefficients e_1..e_n of det(tI + M) = t^n + e_1 t^(n-1) + ... + e_n.

    e_k equals the sum of all k x k principal minors of M.  Computed by the
    Faddeev-LeVerrier recurrence on the denominator-cleared integer matrix,
    where every division is exact.
    """
    rows = _require_symmetric(_as_rows(matrix))
    n = len(rows)
    if n == 0:
        return ()
    scale = 1
    for row in rows:
        for v in row:
            scale = lcm(scale, int(v.denominator))
    # Integer matrix of -scale*M; its char poly det(tI - A) has coefficient
    # of t^(n-k) equal to scale^k * e_k(M).
    a = [[int(-(v * scale)) for v in row] for row in rows]
    mk = [row[:] for row in a]
    coeffs = []
    c = -sum(mk[i][i] for i in range(n))
    coeffs.append(c)
    for k in range(2, n + 1):
        for i in range(n):
            mk[i][i] += c
        nxt = [[0] * n for _ in range(n)]
        for i in range(n):
            arow = a[i]
            nrow = nxt[i]
            for t in range(n):
                ait = arow[t]
                if ait:
                    mrow = mk[t]
                    for j in range(n):
                        nrow[j] += ait * mrow[j]
        mk = nxt
        trace = sum(mk[i][i] for i in range(n))
        c = -(trace // k)
        coeffs.append(c)
    return tuple(Rat(coeffs[k - 1], scale**k) for k in range(1, n + 1))


def is_psd(matrix) -> bool:
    """Exact PSD test: all characteristic coefficients e_k are nonnegative.

    Valid for symmetric rational matrices (real spectrum, so sign conditions
    on det(tI+M) decide nonnegativity).  The matrix is split into diagonal
    blocks first; PSD of the whole is equivalent to PSD of every block.
    """
    if isinstance(matrix, SymMatrix):
        if matrix._psd is None:
            matrix._psd = _is_psd_blocks(matrix.entries)
        return matrix._psd
    rows = _require_symmetric(_as_rows(matrix))
    return _is_psd_blocks(rows)


def _is_psd_blocks(rows) -> bool:
    for comp in _components(rows, range(len(rows))):
        if len(comp) == 1:
            if rows[comp[0]][comp[0]] < 0:
                return False
            continue
        block = [[rows[i][j] for j in comp] for i in comp]
        if any(e < 0 for e in char_poly_coeffs(block)):
            return False
    return True


def ldlt(matrix) -> tuple:
    """Pivoted LDL^T factorization of a symmetric PSD matrix.

    Returns (L, d, perm) with P M P^T = L diag(d) L^T exactly, where
    row i of P M P^T is row perm[i] of M.  Pivots pick the largest
    remaining diagonal entry (ties to the lowest index); columns past the
    rank are zero below the unit diagonal.  Raises ValueError("matrix not
    PSD") when a negative pivot, or a zero pivot with a nonzero remaining
    block, shows the input was not PSD.
    """
    rows = _require_symmetric(_as_rows(matrix))
    n = len(rows)
    work = [row[:] for row in rows]
    lower = [[ONE if i == j else Rat(0) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    diag = []
    for k in range(n):
        pivot_row = k
        pivot_val = work[k][k]
        for i in range(k + 1, n):
            if work[i][i] > pivot_val:
                pivot_val = work[i][i]
                pivot_row = i
        if pivot_val < 0:
            raise ValueError("matrix not PSD")
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            for row in work:
                row[k], row[pivot_row] = row[pivot_row], row[k]
            perm[k], perm[pivot_row] = perm[pivot_row], perm[k]
            for j in range(k):
                lower[k][j], lower[pivot_row][j] = lower[pivot_row][j], lower[k][j]
        if pivot_val == 0:
            # Largest remaining diagonal is zero: PSD forces the whole
            # trailing block to vanish, otherwise some 2x2 minor is negative.
            for i in range(k, n):
                for j in range(k, n):
                    if work[i][j] != 0:
                        raise ValueError("matrix not PSD")
            diag.extend(Rat(0) for _ in range(k, n))
            break
        diag.append(pivot_val)
        for i in range(k + 1, n):
            factor = work[i][k] / pivot_val
            lower[i][k] = factor
            if factor == 0:
                continue
            wrow_i = work[i]
            wrow_k = work[k]
            for j in range(k, n):
                wrow_i[j] -= factor * wrow_k[j]
        for i in range(k + 1, n):
            work[k][i] = Rat(0)
    return (
        tuple(tuple(row) for row in lower),
        tuple(diag),
        tuple(perm),
    )


def unconstrained_normalizer(matrix: WeightedPSD) -> Rational:
    """det(W^(1/2) base W^(1/2) + I), computed as det(base W + I).

    The two matrices are similar, so the determinants agree while the
    computation stays rational.  Equals the sum of all principal minors.
    """
    base = matrix.base
    n = base.dimension
    w = [matrix.weights[a] for a in base.labels]
    rows = [
        [base.entries[i][j] * w[j] + (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return _bareiss(rows)
