"""Exact normalizing constants for spanning-tree and forest DPPs.

Everything computes over arbitrary-precision rationals: normalizers,
exact sampling, the mixed discriminant and its partition encoding, and the
reduction pipelines between them, each verifiable against brute force.
"""

from .dpp import (
    ConstrainedDPP,
    partition_constrained_sum,
    sample_exact,
    z_forest,
    z_tree,
)
from .errors import CapExceeded
from .graphs import (
    BipartiteGraph,
    Graph,
    count_perfect_matchings,
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
from .matroid import (
    IndependenceOracle,
    find_witness,
    linear_matroid,
    matroid_intersection,
    partition_matroid,
)
from .mixed_disc import (
    MDInstance,
    PartitionInstance,
    build_partition_instance,
    mixed_discriminant,
)
from .rational import Rat, Rational, as_rational, exp_enclosure, format_rational
from .reductions import (
    GadgetInstance,
    OracleSpec,
    ReductionReport,
    apreduce_md_to_zf,
    apreduce_md_to_zt,
    build_md_gadget,
    build_pm_gadget,
    count_pm_via_zt,
    gadget_z_exact,
    lagrange_leading_coeff,
    median_estimate,
    reweight_rank_one,
    zt_via_zf,
)

__version__ = "0.1.0"
