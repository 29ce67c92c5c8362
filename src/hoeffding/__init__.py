"""Exact Hoeffding/ANOVA decompositions of exchangeable binary sequences.

Library layout:

* :mod:`hoeffding.measures` - mixing laws (Beta / discrete / truncated
  moment sequences) with exact rational moments and configuration
  probabilities.
* :mod:`hoeffding.symmetric` - symmetric functions by zero count,
  U-statistic lifting, conditional expectations, symmetrization.
* :mod:`hoeffding.engine` - Hoeffding layers from the orthogonal
  polynomials of the zero-count law (a three-term recurrence, in
  :mod:`hoeffding.linalg`) and the three equivalent decomposability tests.
* :mod:`hoeffding.dynamics` - the forced moment recursion, Beta recovery,
  classification, affine-predictive checks.
* :mod:`hoeffding.montecarlo` - seeded samplers cross-validating the exact
  probabilities statistically.
* :mod:`hoeffding.cli` - the ``hoeffding`` command.
"""

from .errors import (
    ArityMismatchError,
    DeterministicMeasureError,
    HoeffdingError,
    IndexRangeError,
    InternalError,
    InvalidMomentSequenceError,
    MomentRegionError,
    OrderExceededError,
    ParameterRangeError,
    ParseError,
    ReinforcementRangeError,
    UnsamplableKindError,
    ZeroDenominatorError,
)
from .measures import DeFinettiMeasure, MeasureKind, parse_measure_spec
from .symmetric import (
    BiSymmetricFunction,
    SymmetricFunction,
    cond_expectation_overlap,
    cond_expectation_prefix,
    degeneracy_residual,
    inner_product,
    lift_ustatistic,
    parse_statistic_spec,
    symmetrize,
)
from .engine import (
    DecomposabilityReport,
    HoeffdingDecomposition,
    Verdict,
    canonical_degenerate_kernel,
    check_decomposable,
    check_hoeffding_spaces,
    decomposability_residual,
    degenerate_kernel_basis,
    hoeffding_decomposition,
    iid_projection,
    level_subspace_check,
    polya_projection_coefficients,
    weak_independence_residual,
)
from .dynamics import (
    Classification,
    ClassificationKind,
    affine_predictive_coefficients,
    classify,
    fit_predictive_affine,
    is_urn_integer_eligible,
    moment_polynomials,
    moment_recursion_residual,
    next_moment,
    predictive_affinity_residual,
    recover_beta,
    sample_moment_region,
)
from .montecarlo import (
    ReinforcementFunction,
    SampleReport,
    UrnSpec,
    compare_exact_empirical,
    parse_urn_spec,
    sample_mixture,
    sample_polya,
    sample_urn_process,
    urn_histogram,
)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatchError",
    "BiSymmetricFunction",
    "Classification",
    "ClassificationKind",
    "DeFinettiMeasure",
    "DecomposabilityReport",
    "DeterministicMeasureError",
    "HoeffdingDecomposition",
    "HoeffdingError",
    "IndexRangeError",
    "InternalError",
    "InvalidMomentSequenceError",
    "MeasureKind",
    "MomentRegionError",
    "OrderExceededError",
    "ParameterRangeError",
    "ParseError",
    "ReinforcementFunction",
    "ReinforcementRangeError",
    "SampleReport",
    "SymmetricFunction",
    "UnsamplableKindError",
    "UrnSpec",
    "Verdict",
    "ZeroDenominatorError",
    "affine_predictive_coefficients",
    "canonical_degenerate_kernel",
    "check_decomposable",
    "check_hoeffding_spaces",
    "classify",
    "compare_exact_empirical",
    "cond_expectation_overlap",
    "cond_expectation_prefix",
    "decomposability_residual",
    "degeneracy_residual",
    "degenerate_kernel_basis",
    "fit_predictive_affine",
    "hoeffding_decomposition",
    "iid_projection",
    "inner_product",
    "is_urn_integer_eligible",
    "level_subspace_check",
    "lift_ustatistic",
    "moment_polynomials",
    "moment_recursion_residual",
    "next_moment",
    "parse_measure_spec",
    "parse_statistic_spec",
    "parse_urn_spec",
    "polya_projection_coefficients",
    "predictive_affinity_residual",
    "recover_beta",
    "sample_mixture",
    "sample_moment_region",
    "sample_polya",
    "sample_urn_process",
    "symmetrize",
    "urn_histogram",
    "weak_independence_residual",
]
