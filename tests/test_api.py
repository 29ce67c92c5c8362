"""The public surface of the package: the pinned ``__all__``, the names the
package imports, the version, and the absence of ``assert`` statements in
library code (``python -O`` strips them, so invariants must raise)."""

import ast
import re
from pathlib import Path

import hoeffding

PUBLIC_NAMES = [
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

PACKAGE_DIR = Path(hoeffding.__file__).parent


def test_all_is_pinned_sorted_and_unique():
    assert hoeffding.__all__ == PUBLIC_NAMES
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert len(set(PUBLIC_NAMES)) == len(PUBLIC_NAMES)


def test_every_public_name_resolves():
    for name in hoeffding.__all__:
        assert getattr(hoeffding, name) is not None, name


def test_all_matches_the_imported_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(imported) == sorted(hoeffding.__all__)


def test_library_has_no_assert_statements():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_version_matches_pyproject():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert match is not None
    assert hoeffding.__version__ == match.group(1)
