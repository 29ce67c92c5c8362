"""Projection engine and the three decomposability routes.

The Gram-matrix projection in ``conftest`` is the oracle of record for
everything here: the recurrence layers must equal it exactly, so must the
inclusion-exclusion route, the library's arity-3 Polya coefficients are the
ones fitted exactly against it (the published closed forms are documented
as NOT matching), and the residual routes must agree with enumeration and
with each other through the exact proportionality identity.
"""

import random
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from hoeffding import (
    DeFinettiMeasure,
    DeterministicMeasureError,
    IndexRangeError,
    InternalError,
    ParameterRangeError,
    ParseError,
    SymmetricFunction,
    Verdict,
    canonical_degenerate_kernel,
    check_decomposable,
    cond_expectation_prefix,
    decomposability_residual,
    degenerate_kernel_basis,
    hoeffding_decomposition,
    iid_projection,
    inner_product,
    level_subspace_check,
    lift_ustatistic,
    polya_projection_coefficients,
)
import hoeffding.engine as engine
from hoeffding.linalg import orthogonal_polynomials
from hoeffding.rationals import binom
from conftest import (
    beta11,
    beta32,
    dirac12,
    dirac13,
    enum_conditional_zero_count,
    forward_substitution_kernel_basis,
    gram_decomposition,
    in_span,
    published_polya_coefficients,
    rank,
    run_optimized,
    solve,
    twopoint,
    unif_half,
    ustatistic_basis,
)

F = Fraction


def random_function(n, rng):
    return SymmetricFunction(
        tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1))
    )


class TestCanonicalKernel:
    def test_iid_half(self):
        assert canonical_degenerate_kernel(dirac12(), 2).values == (1, -1, 1)

    def test_beta11_binomial_pattern(self):
        assert canonical_degenerate_kernel(beta11(), 3).values == (1, -3, 3, -1)

    def test_uniform(self):
        assert canonical_degenerate_kernel(unif_half(), 2).values == (1, F(-1, 2), F(1, 7))


class TestDegenerateKernelBasis:
    def test_dimension_one_everywhere(self, any_measure):
        for n in range(1, 9):
            basis = degenerate_kernel_basis(any_measure, n)
            assert len(basis) == 1
            assert basis == forward_substitution_kernel_basis(any_measure, n)

    def test_iid_third_hand_solved(self):
        # direct solve of the two degeneracy equations at arity 2
        basis = degenerate_kernel_basis(dirac13(), 2)
        assert basis[0].values == (1, F(-1, 2), F(1, 4))


class TestUStatisticBasis:
    def test_order_zero_is_constant(self, any_measure):
        basis = ustatistic_basis(any_measure, 4, 0)
        assert len(basis) == 1
        assert basis[0] == SymmetricFunction.constant(4, 1)

    def test_full_order_spans_everything(self, any_measure):
        basis = ustatistic_basis(any_measure, 4, 4)
        assert rank([list(b.values) for b in basis]) == 5

    def test_nesting(self, any_measure):
        for n in range(2, 7):
            for k in range(1, n + 1):
                smaller = [list(b.values) for b in ustatistic_basis(any_measure, n, k - 1)]
                larger = [list(b.values) for b in ustatistic_basis(any_measure, n, k)]
                for vector in smaller:
                    assert in_span(larger, vector)

    def test_rank_deficient_for_deterministic_measure(self):
        ends = DeFinettiMeasure.discrete([(0, F(1, 2)), (1, F(1, 2))])
        with pytest.raises(DeterministicMeasureError):
            hoeffding_decomposition(SymmetricFunction.constant(2, 1), ends)


class TestHoeffdingDecomposition:
    def test_constant_statistic(self, any_measure):
        t = SymmetricFunction.constant(3, F(5, 7))
        report = hoeffding_decomposition(t, any_measure)
        assert report.mean == F(5, 7)
        assert report.components[0] == t
        for component in report.components[1:]:
            assert all(v == 0 for v in component.values)

    def test_worked_example(self):
        t = SymmetricFunction((F(0), F(0), F(1)))
        report = hoeffding_decomposition(t, dirac12())
        assert report.mean == F(1, 4)
        assert report.components[0] == SymmetricFunction.constant(2, F(1, 4))
        assert report.components[1].values == (F(-1, 2), F(0), F(1, 2))
        assert report.components[2].values == (F(1, 4), F(-1, 4), F(1, 4))

    def test_orthogonality_and_completeness(self, any_measure):
        rng = random.Random(53)
        for n in range(2, 7):
            for _ in range(3):
                t = random_function(n, rng)
                report = hoeffding_decomposition(t, any_measure)
                total = SymmetricFunction.constant(n, 0)
                for component in report.components:
                    total = total + component
                assert total == t
                for i in range(n + 1):
                    for j in range(i + 1, n + 1):
                        assert (
                            inner_product(
                                report.components[i], report.components[j], any_measure
                            )
                            == 0
                        )

    def test_idempotence(self, any_measure):
        # re-decomposing one component returns it in its own slot only
        rng = random.Random(59)
        t = random_function(4, rng)
        report = hoeffding_decomposition(t, any_measure)
        for k in range(5):
            again = hoeffding_decomposition(report.components[k], any_measure)
            for j in range(5):
                if j == k:
                    assert again.components[j] == report.components[k]
                else:
                    assert all(v == 0 for v in again.components[j].values)

    def test_matches_gram_oracle(self, any_measure):
        rng = random.Random(67)
        for n in range(1, 9):
            t = random_function(n, rng)
            report = hoeffding_decomposition(t, any_measure)
            assert list(report.components) == gram_decomposition(t, any_measure)

    def test_digest_matches_measure(self, any_measure):
        t = SymmetricFunction.constant(2, 1)
        assert hoeffding_decomposition(t, any_measure).measure_digest == any_measure.describe()


def hypergeometric(upper, lower, x):
    """Terminating pFq(upper; lower; x): the sum stops at the first vanishing
    upper Pochhammer factor, before any lower one (-n) reaches zero."""
    total, term, i = F(0), F(1), 0
    while term != 0:
        total += term
        for a in upper:
            term *= a + i
        if term == 0:
            break
        for b in lower:
            term /= b + i
        i += 1
        term *= F(x) / i
    return total


class TestClosedFormLayers:
    """Layer k is proportional to a classical orthogonal polynomial in the
    zero count: Krawtchouk under a point mass (Diaconis & Griffiths 2012),
    Hahn under a Beta law (Koekoek, Lesky & Swarttouw 2010, ch. 9)."""

    @staticmethod
    def assert_layers_follow(measure, polynomial):
        rng = random.Random(71)
        for n in range(1, 11):
            report = hoeffding_decomposition(random_function(n, rng), measure)
            for k in range(n + 1):
                component = report.components[k]
                assert component[0] != 0
                expected = tuple(component[0] * polynomial(n, k, z) for z in range(n + 1))
                assert component.values == expected

    @pytest.mark.parametrize("p", [F(1, 2), F(1, 3), F(3, 4)])
    def test_krawtchouk_under_point_mass(self, p):
        self.assert_layers_follow(
            DeFinettiMeasure.dirac(p),
            lambda n, k, z: hypergeometric((-k, -z), (-n,), 1 / (1 - p)),
        )

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (F(3, 2), 2), (2, 3), (F(1, 2), F(5, 3))])
    def test_hahn_under_beta(self, alpha, beta):
        alpha, beta = F(alpha), F(beta)
        self.assert_layers_follow(
            DeFinettiMeasure.beta(alpha, beta),
            lambda n, k, z: hypergeometric((-k, k + alpha + beta - 1, -z), (beta, -n), 1),
        )

    def test_integer_polynomials_under_uniform_weights(self):
        # Beta(1, 1) makes the zero count uniform; the primitive integer
        # polynomials of uniform weights on 0..6 are the tabulated values of
        # the orthogonal polynomials for seven equally spaced points
        # (Fisher & Yates, Statistical Tables)
        assert [q for q, _ in orthogonal_polynomials([1] * 7)] == [
            (1, 1, 1, 1, 1, 1, 1),
            (-3, -2, -1, 0, 1, 2, 3),
            (5, 0, -3, -4, -3, 0, 5),
            (-1, 1, 1, 0, -1, -1, 1),
            (3, -7, 1, 6, 1, -7, 3),
            (-1, 4, -5, 0, 5, -4, 1),
            (1, -6, 15, -20, 15, -6, 1),
        ]


class TestIidProjection:
    def test_worked_example(self):
        t = SymmetricFunction((F(0), F(0), F(1)))
        assert iid_projection(t, F(1, 2), 1).values == (F(-1, 2), F(0), F(1, 2))

    def test_constant_centered_away(self):
        t = SymmetricFunction.constant(4, F(3, 2))
        for k in range(1, 5):
            assert all(v == 0 for v in iid_projection(t, F(1, 3), k).values)

    @pytest.mark.parametrize("p", [F(1, 2), F(1, 3), F(2, 5)])
    def test_matches_gram_route(self, p):
        rng = random.Random(61)
        measure = DeFinettiMeasure.dirac(p)
        for n in range(2, 6):
            for _ in range(3):
                t = random_function(n, rng)
                report = hoeffding_decomposition(t, measure)
                for k in range(1, n + 1):
                    assert iid_projection(t, p, k) == report.components[k]

    def test_parameter_range(self):
        t = SymmetricFunction.constant(2, 1)
        with pytest.raises(ParameterRangeError):
            iid_projection(t, F(3, 2), 1)
        with pytest.raises(IndexRangeError):
            iid_projection(t, F(1, 2), 3)

    @pytest.mark.parametrize("p", ["x", float("inf"), float("nan")], ids=["text", "inf", "nan"])
    def test_p_must_be_rational(self, p):
        with pytest.raises(ParseError, match="p must be a rational"):
            iid_projection(SymmetricFunction.constant(2, 1), p, 1)


def fitted_polya_coefficients(alpha, beta):
    """Exact coefficients expressing the Gram-oracle components of arity-3
    statistics through lifted centered nested conditionals (the oracle fit)."""
    measure = DeFinettiMeasure.beta(alpha, beta)
    fits = []
    for t_values in (((1, 0, 0, 0)), ((0, 1, 0, 0))):
        t = SymmetricFunction(tuple(F(v) for v in t_values))
        mean = inner_product(t, SymmetricFunction.constant(3, 1), measure)
        centered = t - SymmetricFunction.constant(3, mean)
        lifts = {
            a: lift_ustatistic(cond_expectation_prefix(centered, measure, a), 3)
            for a in (1, 2)
        }
        components = gram_decomposition(t, measure)
        pivot = next(z for z in range(4) if lifts[1][z] != 0)
        first = components[1][pivot] / lifts[1][pivot]
        matrix = [[lifts[1][0], lifts[2][0]], [lifts[1][1], lifts[2][1]]]
        pair = solve(matrix, [components[2][0], components[2][1]])
        for z in range(4):
            assert components[2][z] == pair[0] * lifts[1][z] + pair[1] * lifts[2][z]
        fits.append((first, pair[0], pair[1]))
    assert fits[0] == fits[1]
    return fits[0]


class TestPolyaProjectionCoefficients:
    def test_published_closed_forms(self):
        assert published_polya_coefficients(1, 1) == (F(3, 4), F(-33, 20), F(3, 2))
        assert polya_projection_coefficients(1, 1) == (F(3, 5), F(-1), F(2, 3))

    def test_iid_limit(self):
        first, _, third = polya_projection_coefficients(500, 500)
        assert abs(first - 1) < F(1, 100)
        assert abs(third - 1) < F(1, 100)

    def test_positive_parameters_required(self):
        with pytest.raises(ParameterRangeError):
            polya_projection_coefficients(0, 1)

    @pytest.mark.parametrize(
        "alpha, beta, what",
        [("x", 1, "alpha"), (1, float("inf"), "beta"), (float("nan"), 1, "alpha")],
        ids=["text", "inf", "nan"],
    )
    def test_parameters_must_be_rational(self, alpha, beta, what):
        with pytest.raises(ParseError, match=f"{what} must be a rational"):
            polya_projection_coefficients(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 3), (F(3, 2), 2)])
    def test_gram_route_disagrees_with_published_forms(self, alpha, beta):
        # Finding, kept as a regression: the published coefficient formulas do
        # not reproduce the exact projections. The exact fitted coefficients
        # in s = alpha + beta are ((s+1)/(s+3), -2(s+1)/(s+4), (s+2)/(s+4)),
        # and the library returns them.
        s = F(alpha) + F(beta)
        fitted = fitted_polya_coefficients(alpha, beta)
        assert fitted == ((s + 1) / (s + 3), -2 * (s + 1) / (s + 4), (s + 2) / (s + 4))
        assert fitted == polya_projection_coefficients(alpha, beta)
        assert fitted != published_polya_coefficients(alpha, beta)


class TestDecomposabilityResidual:
    def test_zero_for_decomposable(self, decomposable_measure):
        for n in range(2, 6):
            for u in range(2, n + 1):
                for z in range(n):
                    assert decomposability_residual(decomposable_measure, n, u, z) == 0

    def test_uniform_witness_value(self):
        assert decomposability_residual(unif_half(), 2, 2, 0) == F(-3, 56)

    def test_matches_enumerated_conditionals(self):
        m = twopoint()
        for n in (2, 3):
            for u in range(2, n + 1):
                for z in range(n):
                    expected = F(0)
                    for k in range(max(0, z - (u - 1)), min(z, n - u) + 1):
                        inner = sum(
                            (-1) ** mm
                            * binom(u, mm)
                            * enum_conditional_zero_count(m, n, u - 1, mm + k, mm + z)
                            for mm in range(u + 1)
                        )
                        expected += (-1) ** k * binom(n - u, k) * inner
                    assert decomposability_residual(m, n, u, z) == expected

    def test_index_errors(self):
        m = beta11()
        with pytest.raises(IndexRangeError):
            decomposability_residual(m, 1, 2, 0)
        with pytest.raises(IndexRangeError):
            decomposability_residual(m, 3, 4, 0)
        with pytest.raises(IndexRangeError):
            decomposability_residual(m, 3, 2, 3)


class TestWeakIndependenceResidual:
    def test_uniform_witness_value(self):
        assert check_decomposable(unif_half(), 2).cross_residuals[(2, 2, 0)] == F(-1, 56)

    def test_zero_for_decomposable(self, decomposable_measure):
        cross = check_decomposable(decomposable_measure, 4).cross_residuals
        for n in range(2, 5):
            for u in range(2, n + 1):
                for z in range(n):
                    assert cross[(n, u, z)] == 0

    def test_route_equivalence_identity(self, any_measure):
        cross = check_decomposable(any_measure, 6).cross_residuals
        for n in range(2, 7):
            top = any_measure.config_probability(n, 0)
            for u in range(2, n + 1):
                for z in range(n):
                    weak = cross[(n, u, z)]
                    primary = decomposability_residual(any_measure, n, u, z)
                    lhs = weak * binom(n - 1, z) * any_measure.config_probability(n - 1, z)
                    assert lhs == primary * top


class TestSubspaceRoute:
    def test_examples(self):
        # every layer up to level n is spanned by degenerate kernels
        def spaces(measure, n):
            return all(level_subspace_check(measure, level) for level in range(2, n + 1))

        assert spaces(beta11(), 4) is True
        assert spaces(unif_half(), 2) is False
        assert spaces(dirac13(), 4) is True

    def test_level_matches_residual_levels(self, any_measure):
        # subspace equality at one level holds iff all residuals there vanish
        for n in range(2, 6):
            residuals_vanish = all(
                decomposability_residual(any_measure, n, u, z) == 0
                for u in range(2, n + 1)
                for z in range(n)
            )
            assert level_subspace_check(any_measure, n) == residuals_vanish

    def test_certificate_reads_the_failing_pair_or_the_last_one(self, monkeypatch):
        # a failing level certifies its first nonzero pair, and a passing
        # level the pair (2n-1, n-1)
        certified = []
        monkeypatch.setattr(
            engine,
            "_certify_subspace_pair",
            lambda measure, lifted, j, vanishes: certified.append((lifted.n, j, vanishes)),
        )
        for n in range(2, 6):
            level_subspace_check(beta32(), n)
        level_subspace_check(twopoint(), 3)
        level_subspace_check(unif_half(), 2)
        assert certified == [
            (3, 1, True), (5, 2, True), (7, 3, True), (9, 4, True),
            (4, 1, False), (3, 1, False),
        ]

    def test_zeroed_sums_raise(self, monkeypatch):
        # with every integer sum zero, level 3 of the two-point law reads
        # as passing; its pair (5, 2) is nonzero by inner_product
        monkeypatch.setattr(
            engine, "_subspace_sums", lambda measure, lifted, columns: [0] * len(columns)
        )
        with pytest.raises(InternalError, match=r"subspace pair \(5, 2\) reads zero"):
            level_subspace_check(twopoint(), 3)

    def test_zeroed_sums_raise_under_optimize(self):
        # with every integer sum zero, level 3 of the two-point law reads
        # as passing; the certificate of its pair (5, 2), read from
        # lift_ustatistic and inner_product, must still raise under python -O
        script = textwrap.dedent(
            """
            import sys
            from fractions import Fraction as F
            from hoeffding import DeFinettiMeasure, InternalError, engine, level_subspace_check
            if __debug__:
                sys.exit("not running under -O")
            engine._subspace_sums = lambda measure, lifted, columns: [0] * len(columns)
            twopoint = DeFinettiMeasure.discrete([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
            try:
                level_subspace_check(twopoint, 3)
            except InternalError as exc:
                print(exc)
                sys.exit(0)
            sys.exit("no InternalError raised")
            """
        )
        result = run_optimized(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("subspace pair (5, 2) reads zero")

    def test_one_nonzero_sum_raises(self, monkeypatch):
        # a nonzero sum fails a Beta level; its pair is zero by inner_product
        subspace_sums = engine._subspace_sums

        def shifted(measure, lifted, columns):
            totals = subspace_sums(measure, lifted, columns)
            totals[-1] += 1
            return totals

        monkeypatch.setattr(engine, "_subspace_sums", shifted)
        with pytest.raises(InternalError, match=r"subspace pair \(3, 2\) reads nonzero"):
            level_subspace_check(beta32(), 3)


class TestCheckDecomposable:
    def test_decomposable_verdict(self):
        report = check_decomposable(beta11(), 4)
        assert report.verdict is Verdict.DECOMPOSABLE_UP_TO_N_MAX
        assert report.witness is None
        assert all(v == 0 for v in report.residuals.values())
        assert all(v == 0 for v in report.cross_residuals.values())
        assert len(report.residuals) == sum(n * (n - 1) for n in range(2, 5))

    def test_uniform_witness(self):
        report = check_decomposable(unif_half(), 4)
        assert report.verdict is Verdict.NOT_DECOMPOSABLE
        assert report.witness == (2, 2, 0)
        assert report.residuals[(2, 2, 0)] == F(-3, 56)
        assert report.cross_residuals[(2, 2, 0)] == F(-1, 56)

    def test_twopoint_witness_and_bounded_claim(self):
        # all residuals at n = 2 vanish for this mixture, so the n_max = 2
        # scan honestly reports "decomposable up to 2"; the first witness
        # appears at n = 3
        report = check_decomposable(twopoint(), 4)
        assert report.verdict is Verdict.NOT_DECOMPOSABLE
        assert report.witness == (3, 2, 0)
        shallow = check_decomposable(twopoint(), 2)
        assert shallow.verdict is Verdict.DECOMPOSABLE_UP_TO_N_MAX

    def test_routes_agree_on_vanishing(self, any_measure):
        report = check_decomposable(any_measure, 4)
        for triple, value in report.residuals.items():
            assert (value == 0) == (report.cross_residuals[triple] == 0)

    def test_zeroed_weak_row_raises_under_optimize(self):
        # zeroing the weak route on the two-point mixture breaks the exact
        # route identity at (3, 2, 0), the witness; the certificate of its
        # weak row must catch it under python -O
        script = textwrap.dedent(
            """
            import sys
            from fractions import Fraction as F
            from hoeffding import (DeFinettiMeasure, InternalError,
                                   SymmetricFunction, check_decomposable, engine)
            if __debug__:
                sys.exit("not running under -O")
            engine._weak_residual_row = (
                lambda measure, n, u, numerators, common: SymmetricFunction.constant(n - 1, 0))
            twopoint = DeFinettiMeasure.discrete([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
            try:
                check_decomposable(twopoint, 4)
            except InternalError as exc:
                print(exc)
                sys.exit(0)
            sys.exit("no InternalError raised")
            """
        )
        result = run_optimized(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("weak row at (3, 2)")

    def test_witness_certificate_raises_under_optimize(self):
        # shifting every nonzero numerator by the common denominator C adds
        # one to every nonzero residual and keeps the routes vanishing
        # together, so only the witness certificate (the alternating sum of
        # conditional zero-count probabilities) can catch it, under python -O
        script = textwrap.dedent(
            """
            import sys
            from fractions import Fraction as F
            from hoeffding import DeFinettiMeasure, InternalError, check_decomposable, engine
            if __debug__:
                sys.exit("not running under -O")
            residual_numerators = engine._residual_numerators

            def off_by_one(measure, n, u, reciprocal_row):
                numerators, common = residual_numerators(measure, n, u, reciprocal_row)
                return [t + common if t else t for t in numerators], common

            engine._residual_numerators = off_by_one
            twopoint = DeFinettiMeasure.discrete([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
            try:
                check_decomposable(twopoint, 4)
            except InternalError as exc:
                print(exc)
                sys.exit(0)
            sys.exit("no InternalError raised")
            """
        )
        result = run_optimized(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("witness residual at (3, 2, 0)")

    def test_zeroed_residual_sum_raises_under_optimize(self):
        # zero numerators make both routes vanish everywhere, so the scan
        # finds no witness to certify; only the composed check of one whole
        # weak row per scan can catch it, under python -O
        script = textwrap.dedent(
            """
            import sys
            from fractions import Fraction as F
            from hoeffding import DeFinettiMeasure, InternalError, check_decomposable, engine
            if __debug__:
                sys.exit("not running under -O")
            engine._residual_numerators = lambda measure, n, u, reciprocal_row: ([0] * n, 1)
            twopoint = DeFinettiMeasure.discrete([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
            try:
                check_decomposable(twopoint, 4)
            except InternalError as exc:
                print(exc)
                sys.exit(0)
            sys.exit("no InternalError raised")
            """
        )
        result = run_optimized(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("weak row at (4, 2)")

    def test_certified_weak_row_has_both_overlap_blocks(self, monkeypatch):
        # the row checked against its composed definition is
        # (n_max, max(2, (n_max+1)//2)): v = n-u and w = u-1 are both
        # positive from n_max 3 on, so the k sum has two terms somewhere
        certified = []
        monkeypatch.setattr(
            engine, "_certify_weak_row", lambda measure, n, u, row: certified.append((n, u))
        )
        for n_max in range(2, 9):
            check_decomposable(beta11(), n_max)
        assert certified == [(2, 2), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4), (8, 4)]

    def test_weak_witness_certificate_raises_under_optimize(self):
        # doubling the weak row keeps the routes vanishing together,
        # so only the weak witness certificate (the composed overlap
        # conditional of the canonical kernel) can catch it, in both
        # check_decomposable and classify's residual witness, under python -O
        script = textwrap.dedent(
            """
            import sys
            from fractions import Fraction as F
            from hoeffding import (DeFinettiMeasure, InternalError, SymmetricFunction,
                                   check_decomposable, classify, engine)
            if __debug__:
                sys.exit("not running under -O")
            weak_row = engine._weak_residual_row
            engine._weak_residual_row = lambda measure, n, u, numerators, common: SymmetricFunction(
                tuple(2 * x for x in weak_row(measure, n, u, numerators, common).values))
            twopoint = DeFinettiMeasure.discrete([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
            for run in (lambda: check_decomposable(twopoint, 4), lambda: classify(twopoint, 3)):
                try:
                    run()
                except InternalError as exc:
                    print(exc)
                else:
                    sys.exit("no InternalError raised")
            """
        )
        result = run_optimized(script)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("weak row at (3, 2)") for line in lines)

    def test_concurrent_scans_equal_sequential_ones(self):
        # four threads switching every microsecond, over one shared fresh
        # measure and over four distinct ones, for several rounds: each row
        # is computed and passed by value, so no scan reads a row of another
        def three_atoms():
            return DeFinettiMeasure.discrete(
                [(F(2, 7), F(1, 3)), (F(5, 11), F(1, 3)), (F(9, 10), F(1, 3))]
            )

        factories = [twopoint, unif_half, beta32, three_atoms]

        def scan(measure):
            report = check_decomposable(measure, 6)
            return report.residuals, report.cross_residuals, report.verdict, report.witness

        expected = [scan(factory()) for factory in factories]

        def concurrently(measures):
            barrier = threading.Barrier(len(measures))

            def start_together(measure):
                barrier.wait(timeout=60)
                return scan(measure)

            with ThreadPoolExecutor(max_workers=len(measures)) as pool:
                return list(pool.map(start_together, measures))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):
                for factory, reference in zip(factories, expected):
                    assert concurrently([factory()] * 4) == [reference] * 4
                assert concurrently([factory() for factory in factories]) == expected
        finally:
            sys.setswitchinterval(interval)
