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
* :mod:`hoeffding.dynamics` - the forced moment recursion, Beta recovery
  and classification.
* :mod:`hoeffding.montecarlo` - seeded samplers cross-validating the exact
  probabilities statistically.
* :mod:`hoeffding.cli` - the ``hoeffding`` command.

Importing the package loads none of these modules. Each public name in
``__all__`` resolves on first access, by importing the module that
defines it (PEP 562), so a program loads only the layers it uses.
"""

import importlib

# the module of this package that defines each public name
_HOMES = {
    "ArityMismatchError": "errors",
    "DeterministicMeasureError": "errors",
    "HoeffdingError": "errors",
    "IndexRangeError": "errors",
    "InternalError": "errors",
    "InvalidMomentSequenceError": "errors",
    "MomentRegionError": "errors",
    "OrderExceededError": "errors",
    "ParameterRangeError": "errors",
    "ParseError": "errors",
    "ReinforcementRangeError": "errors",
    "UnsamplableKindError": "errors",
    "ZeroDenominatorError": "errors",
    "DeFinettiMeasure": "measures",
    "MeasureKind": "measures",
    "parse_measure_spec": "measures",
    "BiSymmetricFunction": "symmetric",
    "SymmetricFunction": "symmetric",
    "cond_expectation_overlap": "symmetric",
    "cond_expectation_prefix": "symmetric",
    "inner_product": "symmetric",
    "lift_ustatistic": "symmetric",
    "parse_statistic_spec": "symmetric",
    "symmetrize": "symmetric",
    "DecomposabilityReport": "engine",
    "HoeffdingDecomposition": "engine",
    "Verdict": "engine",
    "canonical_degenerate_kernel": "engine",
    "check_decomposable": "engine",
    "decomposability_residual": "engine",
    "degenerate_kernel_basis": "engine",
    "hoeffding_decomposition": "engine",
    "iid_projection": "engine",
    "level_subspace_check": "engine",
    "polya_projection_coefficients": "engine",
    "Classification": "dynamics",
    "ClassificationKind": "dynamics",
    "classify": "dynamics",
    "moment_polynomials": "dynamics",
    "moment_recursion_residual": "dynamics",
    "next_moment": "dynamics",
    "recover_beta": "dynamics",
    "ReinforcementFunction": "montecarlo",
    "SampleReport": "montecarlo",
    "UrnSpec": "montecarlo",
    "compare_exact_empirical": "montecarlo",
    "parse_urn_spec": "montecarlo",
    "sample_mixture": "montecarlo",
    "sample_polya": "montecarlo",
    "sample_urn_process": "montecarlo",
    "urn_histogram": "montecarlo",
}

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
    "canonical_degenerate_kernel",
    "check_decomposable",
    "classify",
    "compare_exact_empirical",
    "cond_expectation_overlap",
    "cond_expectation_prefix",
    "decomposability_residual",
    "degenerate_kernel_basis",
    "hoeffding_decomposition",
    "iid_projection",
    "inner_product",
    "level_subspace_check",
    "lift_ustatistic",
    "moment_polynomials",
    "moment_recursion_residual",
    "next_moment",
    "parse_measure_spec",
    "parse_statistic_spec",
    "parse_urn_spec",
    "polya_projection_coefficients",
    "recover_beta",
    "sample_mixture",
    "sample_polya",
    "sample_urn_process",
    "symmetrize",
    "urn_histogram",
]


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
