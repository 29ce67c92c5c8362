"""Acceptance suite: one test per headline guarantee, tolerance zero on the
exact side and |z| < 4 (or chi-square at 1e-3) on the statistical side.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of failures). Criterion 5 additionally prints the
recorded finding about the published arity-3 projection coefficients.
"""

import functools
import json
import random
import time
from fractions import Fraction

import pytest

from hoeffding import (
    DeFinettiMeasure,
    MomentRegionError,
    ReinforcementFunction,
    SymmetricFunction,
    UrnSpec,
    canonical_degenerate_kernel,
    check_decomposable,
    compare_exact_empirical,
    decomposability_residual,
    degenerate_kernel_basis,
    hoeffding_decomposition,
    iid_projection,
    inner_product,
    level_subspace_check,
    moment_polynomials,
    moment_recursion_residual,
    next_moment,
    polya_projection_coefficients,
    recover_beta,
    urn_histogram,
)
from hoeffding.cli import dispatch
from hoeffding.rationals import binom
from conftest import (
    DEFAULT_Z_THRESHOLD,
    all_measures,
    decomposable_measures,
    forward_substitution_kernel_basis,
    gram_decomposition,
    predictive_affinity_residual,
    published_polya_coefficients,
    sample_moment_region,
    unif_half,
)
from test_engine import fitted_polya_coefficients
from test_montecarlo import two_sample_z

F = Fraction

CHECK_MEASURES = {
    "beta(1,1)": '{"type": "beta", "alpha": "1", "beta": "1"}',
    "beta(3/2,2)": '{"type": "beta", "alpha": "3/2", "beta": "2"}',
    "beta(2,3)": '{"type": "beta", "alpha": "2", "beta": "3"}',
    "dirac(1/3)": '{"type": "discrete", "atoms": [["1/3", "1"]]}',
    "dirac(1/2)": '{"type": "discrete", "atoms": [["1/2", "1"]]}',
}


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL {description}")
                raise
            elapsed = time.time() - start
            print(f"ACCEPTANCE {number:2d} PASS {description} ({elapsed:.2f}s)")
            return result

        return wrapper

    return decorate


def random_statistic(n, rng):
    return SymmetricFunction(
        tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1))
    )


@criterion(1, "Polya and i.i.d. measures pass all three routes up to n=6")
def test_criterion_01_decomposable_measures(tmp_path):
    for name, document in CHECK_MEASURES.items():
        path = tmp_path / "measure.json"
        path.write_text(document, encoding="utf-8")
        code, out, err = dispatch(
            ["check", "--measure", str(path), "--max-n", "6", "--method", "all"]
        )
        assert (code, err) == (0, ""), name
        assert out.startswith("verdict\tDECOMPOSABLE_UP_TO_N_MAX\n")
        residual_rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert len(residual_rows) == sum(n * (n - 1) for n in range(2, 7))
        for row in residual_rows:
            fields = row.split("\t")
            assert fields[3] == "0" and fields[4] == "0", (name, row)
        definition_rows = [
            line
            for line in out.splitlines()
            if line.startswith("definition\t") and not line.endswith("equal")
        ]
        assert len(definition_rows) == 5
        assert all(line.endswith("true") for line in definition_rows), name
    # subspace equality, asserted directly through the API at n <= 5
    for measure in decomposable_measures():
        for n in range(2, 6):
            assert level_subspace_check(measure, n), (measure.describe(), n)


@criterion(2, "truncated-uniform(1/2) witnessed non-decomposable at (2,2,0)")
def test_criterion_02_uniform_witness(tmp_path):
    measure = unif_half()
    assert decomposability_residual(measure, 2, 2, 0) == F(-3, 56)
    assert check_decomposable(measure, 2).cross_residuals[(2, 2, 0)] == F(-1, 56)
    assert moment_recursion_residual(measure, 2) == F(-1, 2304)
    path = tmp_path / "unif.json"
    path.write_text(
        '{"type": "truncated_uniform", "epsilon": "1/2", "order": 12}',
        encoding="utf-8",
    )
    code, out, _ = dispatch(["check", "--measure", str(path), "--max-n", "4"])
    assert code == 1
    assert out.splitlines()[1] == "witness\tn=2 u=2 z=0 residual=-3/56"


@criterion(3, "degenerate kernels form a line spanned by the canonical kernel")
def test_criterion_03_degenerate_kernel_space():
    for measure in all_measures():
        for n in range(1, 9):
            basis = degenerate_kernel_basis(measure, n)
            assert len(basis) == 1
            assert basis == forward_substitution_kernel_basis(measure, n)
    assert canonical_degenerate_kernel(
        DeFinettiMeasure.beta(1, 1), 3
    ).values == (1, -3, 3, -1)


@criterion(4, "50 random statistics per measure decompose orthogonally, n<=6")
def test_criterion_04_decomposition_invariants():
    rng = random.Random(101)
    for measure in all_measures():
        for n in range(2, 7):
            for _ in range(10):
                statistic = random_statistic(n, rng)
                report = hoeffding_decomposition(statistic, measure)
                total = SymmetricFunction.constant(n, 0)
                for component in report.components:
                    total = total + component
                assert total == statistic
                for i in range(n + 1):
                    for j in range(i + 1, n + 1):
                        assert (
                            inner_product(
                                report.components[i], report.components[j], measure
                            )
                            == 0
                        )
    worked = hoeffding_decomposition(
        SymmetricFunction((F(0), F(0), F(1))), DeFinettiMeasure.dirac(F(1, 2))
    )
    assert worked.mean == F(1, 4)
    assert worked.components[1].values == (F(-1, 2), F(0), F(1, 2))
    assert worked.components[2].values == (F(1, 4), F(-1, 4), F(1, 4))


@criterion(5, "inclusion-exclusion projections match the exact layers")
def test_criterion_05_projection_formulas():
    rng = random.Random(103)
    for p in (F(1, 2), F(1, 3), F(2, 5)):
        measure = DeFinettiMeasure.dirac(p)
        for n in range(2, 6):
            for _ in range(4):
                statistic = random_statistic(n, rng)
                report = hoeffding_decomposition(statistic, measure)
                for k in range(1, n + 1):
                    assert iid_projection(statistic, p, k) == report.components[k]
    # published Polya arity-3 coefficient formulas, cross-checked exactly
    # against the Gram-matrix oracle; the library returns the fitted ones
    published = published_polya_coefficients(1, 1)
    assert published == (F(3, 4), F(-33, 20), F(3, 2))
    fitted = fitted_polya_coefficients(1, 1)
    assert polya_projection_coefficients(1, 1) == fitted
    if fitted != published:
        print(
            "ACCEPTANCE  5 FINDING published arity-3 Polya coefficients "
            f"{tuple(map(str, published))} do not reproduce the exact "
            f"projections; exact fitted coefficients are {tuple(map(str, fitted))} "
            "(in s = alpha+beta: (s+1)/(s+3), -2(s+1)/(s+4), (s+2)/(s+4)); "
            "polya_projection_coefficients returns the fitted forms"
        )
    # the layers' own invariants at n = 3 under Polya(1,1), and their
    # agreement with the Gram-matrix oracle
    measure = DeFinettiMeasure.beta(1, 1)
    for _ in range(10):
        statistic = random_statistic(3, rng)
        report = hoeffding_decomposition(statistic, measure)
        assert list(report.components) == gram_decomposition(statistic, measure)
        total = SymmetricFunction.constant(3, 0)
        for component in report.components:
            total = total + component
        assert total == statistic
        for i in range(4):
            for j in range(i + 1, 4):
                assert inner_product(report.components[i], report.components[j], measure) == 0


@criterion(6, "the two residual routes are exactly proportional at every triple")
def test_criterion_06_route_equivalence():
    for measure in all_measures():
        top = measure.config_probability
        cross = check_decomposable(measure, 6).cross_residuals
        for n in range(2, 7):
            for u in range(2, n + 1):
                for z in range(n):
                    weak = cross[(n, u, z)]
                    primary = decomposability_residual(measure, n, u, z)
                    assert weak * binom(n - 1, z) * top(n - 1, z) == primary * top(n, 0)


@criterion(7, "moment recursion: exact zeros and exact continuations")
def test_criterion_07_moment_dynamics():
    for measure in (
        DeFinettiMeasure.beta(1, 1),
        DeFinettiMeasure.dirac(F(1, 3)),
        DeFinettiMeasure.dirac(F(1, 2)),
    ):
        for n in range(2, 21):
            assert moment_recursion_residual(measure, n) == 0
    assert next_moment(F(1, 3), F(1, 2), 1) == F(1, 4)
    assert next_moment(F(1, 12), F(1, 4), 1) == F(1, 30)


@criterion(8, "Beta recovery solves the moment system exactly")
def test_criterion_08_beta_recovery():
    for (c1, c2), expected in (
        ((F(1, 2), F(1, 3)), (F(1), F(1))),
        ((F(1, 2), F(3, 10)), (F(2), F(2))),
    ):
        alpha, beta = recover_beta(c1, c2)
        assert (alpha, beta) == expected
        total = alpha + beta
        assert alpha / total == c1
        assert alpha * (alpha + 1) / (total * (total + 1)) == c2
    grid = [
        (F(a), F(b))
        for a in (1, 2, 3, F(1, 2), F(3, 2))
        for b in (1, 2, 5, F(5, 2))
    ]
    assert len(grid) == 20
    for alpha, beta in grid:
        measure = DeFinettiMeasure.beta(alpha, beta)
        assert recover_beta(measure.moment(1), measure.moment(2)) == (alpha, beta)
    with pytest.raises(MomentRegionError):
        recover_beta(F(1, 2), F(1, 4))


@criterion(9, "f and g are jointly nonvanishing on sampled and measure triples")
def test_criterion_09_region_property():
    samples = sample_moment_region(10_000)
    assert len(samples) == 10_000
    for point in samples:
        f, g = moment_polynomials(*point)
        assert min(abs(f), abs(g)) > 0
    # measure moment triples: strictly inside the region for n >= 3; the
    # n = 2 triple ends at the zeroth moment, exactly on the z = 1 face
    for measure in all_measures():
        for n in range(2, 9):
            x, y, z = (
                measure.moment(n),
                measure.moment(n - 1),
                measure.moment(n - 2),
            )
            if n == 2:
                assert 0 < x < y < z == 1
            else:
                assert 0 < x < y < z < 1


@criterion(10, "predictive second differences: zero for Beta, -3/56 witness")
def test_criterion_10_predictive_affinity():
    measure = DeFinettiMeasure.beta(2, 3)
    for n in range(2, 9):
        for p in range(n - 1):
            assert predictive_affinity_residual(measure, n, p) == 0
    assert predictive_affinity_residual(unif_half(), 2, 0) == F(-3, 56)


@criterion(11, "10^5-trial histograms match exact cells within 4 sigma")
def test_criterion_11_monte_carlo_bridge():
    start = time.time()
    trials = 100_000
    polya = compare_exact_empirical(DeFinettiMeasure.beta(1, 1), 6, trials, seed=42)
    for row in polya.comparison:
        assert row.expected_probability == F(1, 7)
        assert abs(row.z_score) < DEFAULT_Z_THRESHOLD
    urn = urn_histogram(
        UrnSpec(f=ReinforcementFunction.identity(), r=1, b=1), 6, trials, seed=43
    )
    for j in range(7):
        z = two_sample_z(
            polya.zero_count_histogram[j], urn.zero_count_histogram[j], trials
        )
        assert abs(z) < DEFAULT_Z_THRESHOLD
    elapsed = time.time() - start
    assert elapsed < 5.0, f"Monte Carlo bridge took {elapsed:.2f}s"


@criterion(12, "CLI outputs byte-identical across runs; exit codes honored")
def test_criterion_12_cli_golden(tmp_path):
    beta_path = tmp_path / "beta11.json"
    beta_path.write_text(CHECK_MEASURES["beta(1,1)"], encoding="utf-8")
    unif_path = tmp_path / "unif_half.json"
    unif_path.write_text(
        '{"type": "truncated_uniform", "epsilon": "1/2", "order": 12}',
        encoding="utf-8",
    )
    expectations = [
        (["check", "--measure", str(beta_path), "--max-n", "4"], 0),
        (["check", "--measure", str(unif_path), "--max-n", "4"], 1),
        (["recover-beta", "--c1", "1/2", "--c2", "3/10"], 0),
        (["recover-beta", "--c1", "1/2", "--c2", "1/4"], 2),
        (
            [
                "simulate",
                "--measure",
                str(beta_path),
                "--n",
                "6",
                "--trials",
                "1000",
                "--seed",
                "5",
            ],
            0,
        ),
    ]
    for argv in ([], ["--format", "json"]):
        for command, expected_code in expectations:
            first = dispatch(command + argv)
            second = dispatch(command + argv)
            assert first == second
            assert first[0] == expected_code, command
    code, out, _ = dispatch(["recover-beta", "--c1", "1/2", "--c2", "3/10"])
    assert (code, out) == (0, "alpha\t2\nbeta\t2\n")
    code, out, _ = dispatch(["check", "--measure", str(unif_path), "--max-n", "4"])
    assert out.splitlines()[1] == "witness\tn=2 u=2 z=0 residual=-3/56"
