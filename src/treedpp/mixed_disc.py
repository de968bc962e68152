"""Brute-force mixed discriminant and its partition-constrained encoding.

The encoding factors each input kernel as a nonnegative combination of
rank-one terms (pivoted LDL^T), lays the factor vectors out as a weighted
Gram matrix over an n x n grid of labels, and groups the grid by source
kernel.  Summing minors over one-label-per-part transversals then equals
the mixed discriminant itself (Cauchy-Binet), with no scaling constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import CapExceeded
from .linalg import SymMatrix, WeightedPSD, det_bareiss, is_psd, ldlt
from .rational import ONE, Rat, Rational

DEFAULT_MD_DIM_CAP = 7


@dataclass(frozen=True)
class MDInstance:
    """n positive semi-definite n x n kernels over one label tuple."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(self.matrices)
        object.__setattr__(self, "matrices", mats)
        n = len(mats)
        for k in mats:
            if not isinstance(k, SymMatrix):
                raise ValueError("each kernel must be a SymMatrix")
            if k.dimension != n:
                raise ValueError("need exactly n kernels of dimension n")
            if not is_psd(k):
                raise ValueError("each kernel must be positive semi-definite")
        # mixed_discriminant and the encoding read entries by position.
        if len({k.labels for k in mats}) > 1:
            raise ValueError("kernels must share one label tuple")

    @property
    def dimension(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class PartitionInstance:
    """Weighted PSD matrix on n^2 labels with an equal-sized partition.

    From build_partition_instance, the transversal-constrained minor sum
    equals the mixed discriminant of the source kernels.
    """

    matrix: WeightedPSD
    parts: tuple

    def __post_init__(self):
        parts = tuple(tuple(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if len({len(p) for p in parts}) > 1:
            raise ValueError("parts must have equal sizes")
        flat = [a for p in parts for a in p]
        if len(flat) != len(set(flat)) or set(flat) != set(self.matrix.labels):
            raise ValueError("parts must partition the matrix labels")
        if len(parts) * len(parts) != self.matrix.dimension:
            raise ValueError("ground size must be the square of the part count")


def _as_instance(kernels) -> MDInstance:
    if isinstance(kernels, MDInstance):
        return kernels
    return MDInstance(tuple(kernels))


def mixed_discriminant(kernels) -> Rational:
    """Permutation-sum mixed discriminant of n PSD kernels.

    Column j of each summand comes from kernel sigma(j); the total is the
    coefficient of the all-variables monomial in det(sum_i x_i K_i).
    """
    inst = _as_instance(kernels)
    n = inst.dimension
    if n > DEFAULT_MD_DIM_CAP:
        raise CapExceeded(
            f"mixed discriminant cap: n = {n} exceeds {DEFAULT_MD_DIM_CAP}"
        )
    if n == 0:
        return ONE
    entries = [k.entries for k in inst.matrices]
    total = Rat(0)
    for sigma in permutations(range(n)):
        rows = [[entries[sigma[c]][r][c] for c in range(n)] for r in range(n)]
        total += det_bareiss(rows)
    return total


def build_partition_instance(kernels) -> PartitionInstance:
    """Encode the mixed discriminant as a transversal-constrained minor sum.

    Each kernel is factored K = sum_j d_j u_j u_j^T via pivoted LDL^T (the
    permutation is folded back into the vectors).  Labels are pairs (i, j):
    kernel index and factor index, both 1-based.  Zero factors keep a unit
    weight and a zero vector so the weight positivity invariant holds while
    every minor through them vanishes.
    """
    inst = _as_instance(kernels)
    n = inst.dimension
    vectors: dict = {}
    weights: dict = {}
    labels = []
    for i, kernel in enumerate(inst.matrices, start=1):
        lower, diag, perm = ldlt(kernel)
        inv = [0] * n
        for row, orig in enumerate(perm):
            inv[orig] = row
        for j in range(n):
            label = (i, j + 1)
            labels.append(label)
            if diag[j] == 0:
                vectors[label] = tuple(Rat(0) for _ in range(n))
                weights[label] = ONE
            else:
                vectors[label] = tuple(lower[inv[a]][j] for a in range(n))
                weights[label] = diag[j]
    rows = [
        [sum(vectors[a][t] * vectors[b][t] for t in range(n)) for b in labels]
        for a in labels
    ]
    base = SymMatrix(labels, rows)
    matrix = WeightedPSD(base, weights)
    parts = tuple(tuple((i, j + 1) for j in range(n)) for i in range(1, n + 1))
    return PartitionInstance(matrix=matrix, parts=parts)
