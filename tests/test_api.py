"""The public surface of the package: the pinned ``__all__``, the names the
package imports, the version, the absence of ``assert`` statements in
library code (``python -O`` strips them, so invariants must raise), and of
module-global state but one sanctioned cache."""

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


def test_library_keeps_no_module_global_state_but_the_seed_prefix():
    # a module-global cache is shared by every caller and every thread;
    # the one sanctioned cache is trial_stream's hash prefix of its seed
    sites = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                scopes[child] = (
                    node.name
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else scopes.get(node)
                )
        sites += [
            (path.stem, scopes.get(node), tuple(node.names))
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
        ]
    assert sites == [("montecarlo", "trial_stream", ("_seed_prefix",))]


def test_version_matches_pyproject():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert match is not None
    assert hoeffding.__version__ == match.group(1)
