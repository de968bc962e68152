"""Reduction pipelines: matchings to tree normalizers, interpolation, and the
approximation-preserving routes from the mixed discriminant.

A chain gadget is its source block: the mixed-discriminant gadget holds
the partition instance's matrix itself, and every minor the pipelines read
is a minor of that block, since the right block is an identity.  Both
gadget reductions query one closed-form oracle: a reweighted gadget is its
origin plus two factors, the origin's moment table F_{j,k} is built once
from its PSD-pruned left minors, and every normalizer of a copy is one
integer sum over F (gadget_z_exact).  The gadget graph and the 2m x 2m
kernel are built only when tests or verify, which pair each pipeline with
an independent brute-force route, ask for them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import lcm
from typing import Sequence

from .dpp import _SplitMix64, z_forest
from .errors import CapExceeded
from .graphs import BipartiteGraph, Graph
from .linalg import SymMatrix, WeightedPSD
from .matroid import find_witness
from .mixed_disc import (
    PartitionInstance,
    _as_instance,
    build_partition_instance,
    mixed_discriminant,
)
from .rational import ONE, Rat, Rational, as_rational, exp_enclosure

# Every nonempty left subset of an n = 4 mixed-discriminant gadget (m = 16).
DEFAULT_GADGET_MINOR_CAP = 2**16


@dataclass(frozen=True, eq=False)
class GadgetInstance:
    """A chain gadget: its source block, its parts and two factors.

    left is the source WeightedPSD over its own keys and blocks lists each
    part's keys in path order.  The kernel carries left on the left block
    and an identity on the right block, so a minor is left's minor at its
    left edges' keys (left_minor).  A reweighted copy shares the origin's
    fields and moments and carries the accumulated factors.  Everything
    else is derived from the path labels; graph and kernel, the 2m x 2m
    matrix that only tests and verify read, are built on first access.
    """

    left: WeightedPSD
    blocks: tuple
    left_factor: Rational = ONE
    right_factor: Rational = ONE
    origin: "GadgetInstance | None" = None

    @property
    def num_parts(self) -> int:
        return len(self.blocks)

    @property
    def num_left(self) -> int:
        return len(self.left_source)

    @cached_property
    def _paths(self) -> list:
        """(i, left edge, middle vertex, right edge, key) per path, part by
        part; key k of part i (1-based) is the left edge l{i}.{k}."""
        paths = []
        for i, keys in enumerate(self.blocks, start=1):
            for k, key in enumerate(keys, start=1):
                tag = f"{i:02d}.{k:02d}"
                paths.append((i, f"l{tag}", f"w{tag}", f"r{tag}", key))
        return paths

    @cached_property
    def left_source(self) -> dict:
        return {lid: key for _, lid, _, _, key in self._paths}

    @cached_property
    def parts(self) -> tuple:
        return tuple(
            tuple(lid for j, lid, *_ in self._paths if j == i)
            for i in range(1, self.num_parts + 1)
        )

    @property
    def left_edges(self) -> tuple:
        return tuple(self.left_source)

    @cached_property
    def right_edges(self) -> tuple:
        return tuple(rid for _, _, _, rid, _ in self._paths)

    def left_minor(self, edges) -> Rational:
        """The origin kernel's minor at edges: left's minor at the keys of
        their left edges, since the identity block adds a factor of 1."""
        src = self.left_source
        return self.left.minor(src[e] for e in edges if e in src)

    @cached_property
    def graph(self) -> Graph:
        """A spine v_1..v_(n+1); part i joins v_i and v_(i+1) by one two-edge
        path (l{i}.{k}, r{i}.{k}) through w{i}.{k} per left edge."""
        spine = [f"v{i:02d}" for i in range(1, self.num_parts + 2)]
        vertices = spine + [mid for _, _, mid, _, _ in self._paths]
        edges = []
        for i, lid, mid, rid, _ in self._paths:
            edges += [(lid, spine[i - 1], mid), (rid, mid, spine[i])]
        return Graph(vertices, edges)

    @cached_property
    def kernel(self) -> WeightedPSD:
        """The weighted kernel over the left edges, then the right edges:
        left's entries and weights times left_factor^2 on the left block,
        an identity with weights right_factor^2 on the right block."""
        src, base = self.left_source, self.left.base
        labels = self.left_edges + self.right_edges
        rows = [
            [base[src[a], src[b]] if a in src and b in src else int(a == b) for b in labels]
            for a in labels
        ]
        lf2, rf2 = self.left_factor**2, self.right_factor**2
        weights = {a: self.left.weights[src[a]] * lf2 if a in src else rf2 for a in labels}
        return WeightedPSD(SymMatrix(labels, rows), weights)

    @cached_property
    def moments(self) -> dict:
        """The origin's moment table (gadget_moments), built on first access
        and shared by every reweighted copy."""
        return gadget_moments(self) if self.origin is None else self.origin.moments


def build_pm_gadget(bipartite: BipartiteGraph) -> GadgetInstance:
    """Gadget whose tree normalizer counts the perfect matchings of the input.

    Part i holds one two-edge path per edge (u_i, w), in right-vertex
    order.  The left block is one m x m 0/1 matrix over the edges, with a
    1 exactly where two edges point at the same right-side vertex, so a
    tree's minor survives only when its left edges pick distinct partners.
    """
    right_pos = {w: j for j, w in enumerate(bipartite.right)}
    blocks = tuple(
        tuple(sorted((e for e in bipartite.edges if e[0] == u), key=lambda e: right_pos[e[1]]))
        for u in bipartite.left
    )
    edges = [e for keys in blocks for e in keys]
    left = SymMatrix(edges, [[int(a[1] == b[1]) for b in edges] for a in edges])
    return GadgetInstance(WeightedPSD(left), blocks)


def build_md_gadget(instance: PartitionInstance) -> GadgetInstance:
    """Gadget whose witness-restricted tree minors sum to the transversal sum.

    Its left block is the partition instance's matrix itself, base entries
    and weights, with each part's labels in sorted order; the right edges
    are unit identity columns.  It builds no matrix and runs no PSD test.
    """
    return GadgetInstance(
        instance.matrix, tuple(tuple(sorted(part)) for part in instance.parts)
    )


def reweight_rank_one(
    instance: GadgetInstance, left_factor, right_factor
) -> GadgetInstance:
    """The gadget reweighted by the Hadamard product of its kernel with the
    rank-one matrix built from (left_factor on left edges, right_factor on
    right edges): every minor gains left_factor^(2|S on left|) *
    right_factor^(2|S on right|).  The copy only multiplies the factors:
    it copies no kernel and runs no PSD test.
    """
    lf = as_rational(left_factor)
    rf = as_rational(right_factor)
    if lf <= 0 or rf <= 0:
        raise ValueError("reweighting factors must be positive")
    return replace(
        instance,
        left_factor=instance.left_factor * lf,
        right_factor=instance.right_factor * rf,
        origin=instance.origin or instance,
    )


def count_pm_via_zt(bipartite: BipartiteGraph) -> int:
    """Perfect-matching count read off the gadget's tree normalizer.

    The normalizer comes from the closed-form gadget oracle
    (gadget_z_exact), which enumerates no spanning tree.  The gadget has
    one left edge per bipartite edge; past 16 edges its nonempty left
    subsets exceed DEFAULT_GADGET_MINOR_CAP and it is refused with
    CapExceeded("gadget minor cap", CLI exit 3) before any minor.
    """
    value = gadget_z_exact(build_pm_gadget(bipartite), "tree")
    if value.denominator != 1:
        raise AssertionError("matching count came out non-integral")
    return int(value)


def lagrange_leading_coeff(points: Sequence, degree_bound: int) -> Rational:
    """Exact coefficient of x^degree_bound in the interpolating polynomial.

    Uses the first degree_bound + 1 points; the leading coefficient is the
    top divided difference sum y_i / prod_{k != i} (x_i - x_k).
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    pts = [(as_rational(x), as_rational(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x values")
    need = degree_bound + 1
    if len(pts) < need:
        raise ValueError(f"need at least {need} points for degree bound {degree_bound}")
    pts = pts[:need]
    lead = Rat(0)
    for i, (xi, yi) in enumerate(pts):
        denom = ONE
        for k, (xk, _) in enumerate(pts):
            if k != i:
                denom *= xi - xk
        lead += yi / denom
    return lead


def zt_via_zf(matrix: WeightedPSD, graph: Graph) -> Rational:
    """Recover the tree normalizer from forest normalizers by interpolation.

    Scaling every weight by x multiplies each forest's minor by x^|S|, so
    the forest normalizer is a polynomial of degree at most |V| - 1 whose
    leading coefficient is the tree normalizer.  The forest normalizers are
    exact: interpolation would amplify any multiplicative error.
    """
    n = graph.num_vertices
    if n == 0:
        return Rat(0)
    points = []
    for x in range(1, n + 1):
        scaled = matrix.scaled_all(Rat(x))
        points.append((Rat(x), z_forest(scaled, graph)))
    return lagrange_leading_coeff(points, n - 1)


@dataclass(frozen=True)
class OracleSpec:
    """How to simulate the approximate-normalizer oracle.

    exact returns the true value; noisy multiplies it by e^u with u drawn
    uniformly (seeded) from [-delta, delta]; adversarial pins the factor at
    e^(+delta) or e^(-delta) depending on direction.  Irrational factors are
    replaced by tight rational bounds taken from inside the allowed
    interval, so a simulated oracle always meets its accuracy contract.
    """

    mode: str = "exact"
    noise: Rational | None = None
    seed: int = 0
    direction: int = 1

    def __post_init__(self):
        if self.mode not in ("exact", "noisy", "adversarial"):
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        if self.noise is not None:
            noise = as_rational(self.noise)
            if not 0 < noise < 1:
                raise ValueError("oracle noise must lie in (0, 1)")
            object.__setattr__(self, "noise", noise)


class _OracleSession:
    """One reduction run's view of the oracle; records every call."""

    def __init__(self, spec: OracleSpec):
        self.spec = spec
        self.calls: list = []
        self._gen = _SplitMix64(spec.seed)

    def query(self, instance: GadgetInstance, kind: str, delta) -> Rational:
        delta = as_rational(delta)
        self.calls.append((kind, delta))
        exact = gadget_z_exact(instance, kind)
        if self.spec.mode == "exact":
            return exact
        tol = self.spec.noise if self.spec.noise is not None else delta
        if not 0 < tol < 1:
            raise ValueError("oracle tolerance must lie in (0, 1)")
        if self.spec.mode == "adversarial":
            if self.spec.direction >= 0:
                factor = exp_enclosure(tol)[0]
            else:
                factor = exp_enclosure(-tol)[1]
        else:
            r = self._gen.next64()
            u = tol * Rat(2 * r - (1 << 64), 1 << 64)
            factor = exp_enclosure(u)[0] if u >= 0 else exp_enclosure(u)[1]
        return exact * factor


def gadget_z_exact(instance: GadgetInstance, kind: str) -> Rational:
    """Exact tree or forest normalizer of a (possibly reweighted) gadget.

    The gadget is a chain of blocks that share only spine vertices, block i
    being k_i parallel two-edge paths, so an edge set is a forest (spanning
    tree) exactly when its trace on every block is one.  With the left
    edges S fixed and s_i = |S on part i|, the right edges of block i
    contribute, in z = right_factor^2,
    forests: (1 + z)^(k_i - s_i) * (1 + s_i z), at most one closed path;
    trees: s_i z^(k_i - s_i + 1), exactly one closed path.
    The identity right block splits off every minor, and the product over
    the blocks depends on s only through j = |s| and the elementary
    symmetric values e_k(s), since sum_i (k_i - s_i) = m - j.  So, over the
    origin's moments F_{j,k} (gadget_moments) and with lf2 = left_factor^2,
    Z_F = sum_{j,k} F_{j,k} lf2^j (1 + z)^(m - j) z^k and
    Z_T = sum_j F_{j,n} lf2^j z^(m + n - j).
    With lf2 = a/b, z = p/q, L clearing F's denominators and J = max j,
    both are one integer sum over the common denominator L b^J q^(m + n),
    reduced once: a^j b^(J - j) p^k q^(n - k + j) (p + q)^(m - j) per
    forest term and a^j b^(J - j) p^(m + n - j) q^j per tree term.  The sum
    over j is a homogeneous Horner pass in u = a q and w = b (p + q) for
    forests (w = b p for trees).  No tree or forest is enumerated; tests
    check it against the generic normalizers.
    """
    if kind not in ("tree", "forest"):
        raise ValueError(f"unknown normalizer kind {kind!r}")
    moments = instance.moments
    lf2 = instance.left_factor * instance.left_factor
    z = instance.right_factor * instance.right_factor
    a, b = lf2.numerator, lf2.denominator
    p, q = z.numerator, z.denominator
    m, n = instance.num_left, instance.num_parts
    scale = lcm(*(f.denominator for f in moments.values()))
    top = max(j for j, _ in moments)

    def cleared(j, k):
        f = moments.get((j, k))
        return 0 if f is None else f.numerator * (scale // f.denominator)

    if kind == "tree":
        coeffs = [cleared(j, n) for j in range(top + 1)]
        w, tail = b * p, p ** (m + n - top)
    else:
        basis = [p**k * q ** (n - k) for k in range(n + 1)]
        coeffs = [
            sum(cleared(j, k) * basis[k] for k in range(n + 1))
            for j in range(top + 1)
        ]
        w, tail = b * (p + q), (p + q) ** (m - top)
    u = a * q
    total = 0
    power = 1  # u^j
    for coeff in coeffs:  # sum_j coeff_j u^j w^(top - j)
        total = total * w + coeff * power
        power *= u
    return Rat(total * tail, scale * b**top * q ** (m + n))


def gadget_moments(instance: GadgetInstance) -> dict:
    """Moment table of the gadget's origin, in one pass over its left minors.

    Maps (j, k) to F_{j,k} = sum over |s| = j of c_s * e_k(s), where e_k is
    the k-th elementary symmetric polynomial of the per-part left counts
    s = (s_1..s_n) and c_s the sum, over left subsets S with
    |S on part i| = s_i, of det(base_S) * prod_{e in S} w_e, read off the
    source block instance.left at the edges' keys.  Only nonzero
    entries are stored, and (0, 0) is always 1; j runs up to the left
    block's rank, k up to n.  F is all gadget_z_exact reads, and
    2^m * sum_j F_{j,0} is the unconstrained normalizer det(K + I) of the
    unweighted gadget.  GadgetInstance.moments caches it on the origin.

    A depth-first search adds left edges in path order and never extends a
    subset whose minor is 0: the base is PSD, so every superset's minor is
    0 as well.  Raises CapExceeded before the search when _check_minor_cap
    refuses the gadget.
    """
    _check_minor_cap(instance)
    base, weights = instance.left.base, instance.left.weights
    n = instance.num_parts
    left = [(i, key) for i, keys in enumerate(instance.blocks) for key in keys]
    pos = [base.positions((key,))[0] for _, key in left]
    table: dict = {}  # c_s
    counts = [0] * n
    chosen: list = []

    def visit(start, minor, weight):
        key = tuple(counts)
        table[key] = table.get(key, 0) + minor * weight
        for k in range(start, len(left)):
            chosen.append(pos[k])
            sub = base.minor_det(chosen)
            if sub != 0:
                part, key = left[k]
                counts[part] += 1
                visit(k + 1, sub, weight * weights[key])
                counts[part] -= 1
            chosen.pop()

    visit(0, ONE, ONE)
    moments: dict = {}
    for key, coeff in table.items():
        elem = [1] + [0] * n
        for s in key:
            for k in range(n, 0, -1):
                elem[k] += s * elem[k - 1]
        j = sum(key)
        for k, e in enumerate(elem):
            if e:
                moments[j, k] = moments.get((j, k), 0) + coeff * e
    return moments


def _check_minor_cap(instance: GadgetInstance) -> None:
    """Refuse a gadget whose 2^m - 1 nonempty left subsets, the most minors
    the moment search can evaluate, exceed DEFAULT_GADGET_MINOR_CAP.  This
    admits every n <= 4 mixed-discriminant gadget and no larger one, and
    every matching gadget of at most 16 bipartite edges."""
    m = instance.num_left
    if 2**m - 1 > DEFAULT_GADGET_MINOR_CAP:
        raise CapExceeded(
            f"gadget minor cap: 2^{m} - 1 left minors exceed "
            f"{DEFAULT_GADGET_MINOR_CAP}"
        )


@dataclass(frozen=True)
class ReductionReport:
    """Everything a reduction run produced, in exact rationals."""

    target: str
    epsilon: Rational
    oracle_mode: str
    declared_zero: bool
    reference: Rational
    bounds_lower: Rational
    bounds_upper: Rational
    bounds_pass: bool
    witness: tuple | None = None
    x: Rational | None = None
    y: Rational | None = None
    oracle_value: Rational | None = None
    estimate: Rational | None = None
    oracle_calls: tuple = ()

    @property
    def value(self) -> Rational:
        """The declared answer: the estimate, or exactly zero."""
        return Rat(0) if self.declared_zero else self.estimate


def _sandwich_bounds(mode: str, epsilon, reference) -> tuple:
    """Inner rational enclosure of the guaranteed interval around reference.

    Exact oracle: [D, (1 + eps/2) D], the proven bound, which implies the
    e^(eps/2) form.  Otherwise: rationals inside [e^-eps D, e^eps D], so a
    pass certifies the stated interval.
    """
    if mode == "exact":
        return reference, (ONE + epsilon / 2) * reference
    lower = exp_enclosure(-epsilon)[1] * reference
    upper = exp_enclosure(epsilon)[0] * reference
    return lower, upper


def reduction_factors(inst: GadgetInstance, witness, eps, target: str) -> tuple:
    """The reweighting factors (x, y) of a reduction on an origin gadget.

    x multiplies the right edges and y, on the forest route, the left edges
    (None on the tree route).  With ratio = det(K + I) / minor(witness),
    which bounds the total minor mass against the witness's:
    trees, x = 2 ratio / eps; forests, y = 4 ratio / eps and
    x = 4 ratio y^(2m - 2n) / eps.  The off-target trees or forests then
    add at most eps/2 of the target sum.
    """
    n, m = inst.num_parts, inst.num_left
    # det(K + I) sums all principal minors; the identity right block lets
    # each left subset pair with any of the 2^m right subsets.
    normalizer = 2**m * sum(f for (_, k), f in inst.moments.items() if k == 0)
    ratio = normalizer / inst.left_minor(witness)
    if target == "tree":
        return ratio * 2 / eps, None
    y = ratio * 4 / eps
    return ratio * y ** (2 * m - 2 * n) * 4 / eps, y


def _run_md_reduction(kernels, epsilon, oracle, target) -> ReductionReport:
    eps = as_rational(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    spec = oracle if oracle is not None else OracleSpec()
    # Validate the kernels once; the encoding and the reference both read them.
    kernels = _as_instance(kernels)
    pinst = build_partition_instance(kernels)
    inst = build_md_gadget(pinst)
    _check_minor_cap(inst)
    # Independent reference: the source kernels' permutation sum, which
    # shares no code with the encoding, the gadget or its minor table.
    reference = mixed_discriminant(kernels)
    witness = find_witness(inst)
    if witness is None:
        return ReductionReport(
            target=target,
            epsilon=eps,
            oracle_mode=spec.mode,
            declared_zero=True,
            reference=reference,
            bounds_lower=Rat(0),
            bounds_upper=Rat(0),
            bounds_pass=reference == 0,
        )
    n = inst.num_parts
    m = inst.num_left
    x, y = reduction_factors(inst, witness, eps, target)
    session = _OracleSession(spec)
    if target == "tree":
        zhat = session.query(reweight_rank_one(inst, 1, x), "tree", eps / 2)
        estimate = zhat / x ** (2 * m)
    else:
        zhat = session.query(reweight_rank_one(inst, y, x), "forest", eps / 2)
        estimate = zhat / (x ** (2 * m) * y ** (2 * n))
    lower, upper = _sandwich_bounds(spec.mode, eps, reference)
    return ReductionReport(
        target=target,
        epsilon=eps,
        oracle_mode=spec.mode,
        declared_zero=False,
        witness=witness,
        x=x,
        y=y,
        oracle_value=zhat,
        estimate=estimate,
        reference=reference,
        bounds_lower=lower,
        bounds_upper=upper,
        bounds_pass=lower <= estimate <= upper,
        oracle_calls=tuple(session.calls),
    )


def apreduce_md_to_zt(
    kernels, epsilon, oracle: OracleSpec | None = None
) -> ReductionReport:
    """Approximation-preserving estimate of the mixed discriminant via the
    tree normalizer: build the gadget, search a witness, pick the right-edge
    factor so off-target trees contribute at most an eps/2 relative error,
    query the oracle once at tolerance eps/2, and rescale.  Raises
    CapExceeded before any other work when the gadget's 2^m - 1 nonempty
    left subsets exceed DEFAULT_GADGET_MINOR_CAP (n >= 5)."""
    return _run_md_reduction(kernels, epsilon, oracle, "tree")


def apreduce_md_to_zf(
    kernels, epsilon, oracle: OracleSpec | None = None
) -> ReductionReport:
    """Same pipeline against the forest normalizer; two factors are needed
    because forests can miss right edges and overfill left ones."""
    return _run_md_reduction(kernels, epsilon, oracle, "forest")


def median_estimate(estimates: Sequence) -> Rational:
    """Median of independent run estimates; the usual success amplifier."""
    values = sorted(as_rational(v) for v in estimates)
    if not values:
        raise ValueError("need at least one estimate")
    mid = len(values) // 2
    if len(values) % 2 == 1:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2
