"""The public surface of the package: the pinned ``__all__``, the names the
package resolves lazily and the modules that define them, the version, the
absence of ``assert`` statements in library code (``python -O`` strips
them, so invariants must raise), of module-global state but one
sanctioned cache, and of functions that only the tests call."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hoeffding
from conftest import child_env

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
    # the names the package resolves lazily are the keys of its table
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [target.id for target in node.targets] == ["_HOMES"]
    ]
    assert sorted(ast.literal_eval(table)) == sorted(hoeffding.__all__)


def test_import_loads_no_submodule():
    script = "import sys, hoeffding; print([m for m in sys.modules if m.startswith('hoeffding.')])"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_star_import_binds_each_name_to_its_defining_module():
    namespace = {}
    exec("from hoeffding import *", namespace)
    for name in hoeffding.__all__:
        value = namespace[name]
        assert value.__module__.startswith("hoeffding."), name
        assert vars(sys.modules[value.__module__])[name] is value, name
    # sys.modules is the only cache: resolving a name binds nothing here
    assert not set(hoeffding.__all__) & set(vars(hoeffding))


def test_dir_lists_the_public_names():
    assert set(hoeffding.__all__) <= set(dir(hoeffding))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hoeffding.no_such_name
    assert not hasattr(hoeffding, "_certified_residual")


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


def test_library_defines_no_function_only_the_tests_call():
    # every function and method is referenced by name somewhere in the
    # package, outside its own body, unless it is public (in __all__, or a
    # public method of a class in __all__), a dunder, or an override of a
    # method that a base class from outside the package defines
    referenced = set()
    defined = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = f"hoeffding.{path.stem}"
        classes = {
            method: node.name
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for method in node.body
        }

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((module, classes.get(node), node.name))
                function = node.name
            elif isinstance(node, ast.Name) and node.id != function:
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != function:
                referenced.add(node.attr)
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)

    def exempt(module, owner, name):
        if name.startswith("__") and name.endswith("__"):
            return True
        if owner is None:
            return name in hoeffding.__all__
        if owner in hoeffding.__all__ and not name.startswith("_"):
            return True
        cls = getattr(importlib.import_module(module), owner)
        return any(
            hasattr(base, name)
            for base in cls.__mro__[1:]
            if not base.__module__.startswith("hoeffding")
        )

    unreferenced = [
        f"{module}.{owner + '.' if owner else ''}{name}"
        for module, owner, name in defined
        if name not in referenced and not exempt(module, owner, name)
    ]
    assert unreferenced == []


def test_version_matches_pyproject():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert match is not None
    assert hoeffding.__version__ == match.group(1)
