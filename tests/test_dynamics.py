"""Moment recursion, Beta recovery, classification, affine predictives."""

from fractions import Fraction

import pytest

from hoeffding import (
    Classification,
    ClassificationKind,
    DeFinettiMeasure,
    IndexRangeError,
    InternalError,
    MomentRegionError,
    OrderExceededError,
    ParameterRangeError,
    ParseError,
    Verdict,
    ZeroDenominatorError,
    check_decomposable,
    classify,
    decomposability_residual,
    moment_polynomials,
    moment_recursion_residual,
    next_moment,
    recover_beta,
)
from hoeffding.rationals import binom
from conftest import (
    affine_predictive_coefficients,
    beta11,
    beta23,
    dirac12,
    predictive_affinity_residual,
    sample_moment_region,
    twopoint,
    unif_half,
    urn_law,
)

F = Fraction


class TestMomentPolynomials:
    def test_beta_point(self):
        assert moment_polynomials(F(1, 3), F(1, 2), 1) == (F(1, 12), F(1, 3))

    def test_boundary_point(self):
        assert moment_polynomials(1, 1, 1) == (0, 0)

    def test_uniform_point(self):
        assert moment_polynomials(F(1, 12), F(1, 4), 1) == (F(1, 144), F(5, 24))

    @pytest.mark.parametrize(
        "point, what",
        [(("x", 1, 1), "x"), ((1, float("inf"), 1), "y"), ((1, 1, float("nan")), "z")],
        ids=["text", "inf", "nan"],
    )
    def test_point_must_be_rational(self, point, what):
        with pytest.raises(ParseError, match=f"{what} must be a rational"):
            moment_polynomials(*point)


class TestMomentRecursionResidual:
    def test_beta11_vanishes(self):
        m = beta11()
        for n in range(2, 21):
            assert moment_recursion_residual(m, n) == 0

    @pytest.mark.parametrize("p", [F(1, 3), F(1, 2)])
    def test_dirac_vanishes(self, p):
        m = DeFinettiMeasure.dirac(p)
        for n in range(2, 21):
            assert moment_recursion_residual(m, n) == 0

    def test_dirac_factorization(self):
        # f = p^(3n-2)(1-p), g = p^(2n-3)(1-p) along the point-mass family
        for p in (F(1, 3), F(2, 5), F(1, 2)):
            for n in range(2, 10):
                f, g = moment_polynomials(p**n, p ** (n - 1), p ** (n - 2))
                assert f == p ** (3 * n - 2) * (1 - p)
                assert g == p ** (2 * n - 3) * (1 - p)

    def test_beta_g_never_vanishes(self):
        for alpha, beta in ((1, 1), (2, 3), (F(3, 2), 2), (5, 1)):
            m = DeFinettiMeasure.beta(alpha, beta)
            for n in range(2, 13):
                _, g = moment_polynomials(
                    m.moment(n), m.moment(n - 1), m.moment(n - 2)
                )
                assert g != 0

    def test_uniform_value(self):
        assert moment_recursion_residual(unif_half(), 2) == F(-1, 2304)

    def test_twopoint_first_failure_at_three(self):
        m = twopoint()
        assert moment_recursion_residual(m, 2) == 0
        assert moment_recursion_residual(m, 3) != 0

    def test_vanishes_when_decomposable(self, decomposable_measure):
        for n in range(2, 9):
            assert moment_recursion_residual(decomposable_measure, n) == 0

    def test_necessary_for_residual_scan(self, any_measure):
        # a clean residual scan up to n_max forces a clean recursion there
        from hoeffding import Verdict, check_decomposable

        for n_max in (2, 3, 4):
            report = check_decomposable(any_measure, n_max)
            if report.verdict is Verdict.DECOMPOSABLE_UP_TO_N_MAX:
                for n in range(2, n_max + 1):
                    assert moment_recursion_residual(any_measure, n) == 0


class TestNextMoment:
    def test_beta11_continuation(self):
        assert next_moment(F(1, 3), F(1, 2), 1) == F(1, 4)

    def test_uniform_disagrees_with_truth(self):
        assert next_moment(F(1, 12), F(1, 4), 1) == F(1, 30)
        assert unif_half().moment(3) == F(1, 32)

    def test_dirac_continuation(self):
        assert next_moment(F(1, 4), F(1, 2), 1) == F(1, 8)

    def test_outside_region(self):
        with pytest.raises(MomentRegionError):
            next_moment(F(1, 2), F(1, 3), 1)
        with pytest.raises(MomentRegionError):
            next_moment(0, F(1, 2), 1)
        with pytest.raises(MomentRegionError):
            next_moment(F(1, 3), F(1, 2), F(3, 2))

    @pytest.mark.parametrize(
        "point, what",
        [((F(1, 3), "y", 1), "y"), ((float("inf"), F(1, 2), 1), "x"),
         ((F(1, 3), F(1, 2), float("nan")), "z")],
        ids=["text", "inf", "nan"],
    )
    def test_point_must_be_rational(self, point, what):
        with pytest.raises(ParseError, match=f"{what} must be a rational"):
            next_moment(*point)

    def test_zero_denominator(self):
        # g(x, y, z) = zx - 2y^2 + yz vanishes at x = 3/8, y = 1/2, z = 4/7
        x, y, z = F(3, 8), F(1, 2), F(4, 7)
        assert 0 < x < y < z < 1
        assert moment_polynomials(x, y, z)[1] == 0
        with pytest.raises(ZeroDenominatorError):
            next_moment(x, y, z)


class TestRecoverBeta:
    def test_uniform_prior(self):
        assert recover_beta(F(1, 2), F(1, 3)) == (1, 1)

    def test_symmetric_two(self):
        assert recover_beta(F(1, 2), F(3, 10)) == (2, 2)

    def test_round_trip_grid(self):
        grid = [
            (F(a), F(b))
            for a in (1, 2, 3, F(1, 2), F(3, 2))
            for b in (1, 2, 5, F(5, 2))
        ]
        assert len(grid) == 20
        for alpha, beta in grid:
            m = DeFinettiMeasure.beta(alpha, beta)
            assert recover_beta(m.moment(1), m.moment(2)) == (alpha, beta)

    def test_dirac_boundary_rejected(self):
        with pytest.raises(MomentRegionError):
            recover_beta(F(1, 2), F(1, 4))

    @pytest.mark.parametrize(
        "c1,c2",
        [(F(1, 2), F(3, 5)), (F(1, 2), F(1, 5)), (F(0), F(1, 3)), (F(2), F(1, 3))],
    )
    def test_region_violations(self, c1, c2):
        with pytest.raises(MomentRegionError):
            recover_beta(c1, c2)

    @pytest.mark.parametrize(
        "c1, c2, what",
        [("x", F(1, 3), "c1"), (F(1, 2), float("inf"), "c2"), (float("nan"), F(1, 3), "c1")],
        ids=["text", "inf", "nan"],
    )
    def test_moments_must_be_rational(self, c1, c2, what):
        with pytest.raises(ParseError, match=f"{what} must be a rational"):
            recover_beta(c1, c2)


class TestUrnIntegerEligibility:
    # integer Beta parameters are exactly the case where decomposability
    # coincides with an integer-composition reinforcement urn
    def test_symmetric_two(self):
        alpha, beta = recover_beta(F(1, 2), F(3, 10))
        assert alpha.denominator == beta.denominator == 1 and (alpha, beta) == (2, 2)

    def test_uniform_prior(self):
        alpha, beta = recover_beta(F(1, 2), F(1, 3))
        assert alpha.denominator == beta.denominator == 1 and (alpha, beta) == (1, 1)

    def test_six_nine(self):
        # exact solve gives (6, 9): integers
        alpha, beta = recover_beta(F(2, 5), F(7, 40))
        assert (alpha, beta) == (6, 9)
        assert alpha.denominator == beta.denominator == 1

    def test_non_integer(self):
        m = DeFinettiMeasure.beta(F(3, 2), 2)
        alpha, beta = recover_beta(m.moment(1), m.moment(2))
        assert not alpha.denominator == beta.denominator == 1


class TestPredictiveAffinity:
    def test_beta_affine_everywhere(self):
        m = beta23()
        for n in range(2, 9):
            for p in range(n - 1):
                assert predictive_affinity_residual(m, n, p) == 0

    def test_dirac_constant_predictive(self):
        m = dirac12()
        for n in range(2, 7):
            for p in range(n - 1):
                assert predictive_affinity_residual(m, n, p) == 0

    def test_uniform_value(self):
        assert predictive_affinity_residual(unif_half(), 2, 0) == F(-3, 56)

    def test_u2_recombination(self, any_measure):
        # the u = 2 residuals are signed binomial combinations of the
        # second differences of predictive probabilities
        for n in range(2, 7):
            for z in range(n):
                residual = decomposability_residual(any_measure, n, 2, z)
                if z == 0:
                    expected = predictive_affinity_residual(any_measure, n, 0)
                elif z == n - 1:
                    expected = (-1) ** (n - 1) * predictive_affinity_residual(
                        any_measure, n, n - 2
                    )
                else:
                    expected = (-1) ** z * (
                        binom(n - 2, z - 1)
                        * predictive_affinity_residual(any_measure, n, z - 1)
                        + binom(n - 2, z)
                        * predictive_affinity_residual(any_measure, n, z)
                    )
                assert residual == expected

    def test_affinity_iff_u2_residuals(self, any_measure):
        for n in range(2, 7):
            affine = all(
                predictive_affinity_residual(any_measure, n, p) == 0
                for p in range(n - 1)
            )
            u2_zero = all(
                decomposability_residual(any_measure, n, 2, z) == 0 for z in range(n)
            )
            assert affine == u2_zero

    def test_index_errors(self):
        with pytest.raises(IndexRangeError):
            predictive_affinity_residual(beta11(), 1, 0)
        with pytest.raises(IndexRangeError):
            predictive_affinity_residual(beta11(), 3, 2)


class TestAffinePredictiveFamily:
    def test_first_order(self):
        assert affine_predictive_coefficients(F(1, 2), F(1, 4), 1) == (1, F(1, 4))

    def test_worked_example(self):
        assert affine_predictive_coefficients(F(1, 2), F(1, 4), 3) == (F(1, 2), F(1, 8))

    def test_monotone_decreasing(self):
        previous = None
        for n in range(1, 10):
            first, _ = affine_predictive_coefficients(F(1, 3), F(1, 4), n)
            if previous is not None:
                assert first < previous
            previous = first

    def test_parameter_range(self):
        with pytest.raises(ParameterRangeError):
            affine_predictive_coefficients(F(1, 2), F(1, 2), 2)
        with pytest.raises(ParameterRangeError):
            affine_predictive_coefficients(0, F(1, 4), 2)

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 3), (F(3, 2), 2)])
    def test_polya_fit_matches_family_shape(self, alpha, beta):
        # In ones-count coordinates the fitted predictive lines of a Polya
        # sequence follow the family: with a = slope_1 and b = intercept_1,
        #   slope_n = a * (first family coefficient at n),
        #   intercept_n = (second family coefficient at n),
        # a > 0, b > 0, a + b < 1. In zero-count coordinates the slope is
        # the negative of this (checking stays sign-agnostic).
        m = DeFinettiMeasure.beta(alpha, beta)

        def zeros_fit(n):
            # (slope, intercept) of the line through p = 0 and p = 1
            at0, at1 = m.predictive_probability(n, 0), m.predictive_probability(n, 1)
            return at1 - at0, at0

        def ones_fit(n):
            slope_zeros, intercept_zeros = zeros_fit(n)
            return -slope_zeros, intercept_zeros + n * slope_zeros

        a, b = ones_fit(1)
        assert a > 0 and b > 0 and a + b < 1
        for n in range(1, 9):
            slope, intercept = ones_fit(n)
            family_first, family_second = affine_predictive_coefficients(a, b, n)
            assert slope == a * family_first
            assert intercept == family_second
            assert zeros_fit(n)[0] == -slope


class TestMomentRegionSampling:
    def test_deterministic(self):
        assert sample_moment_region(50, seed=9) == sample_moment_region(50, seed=9)
        assert sample_moment_region(50, seed=9) != sample_moment_region(50, seed=10)

    def test_inside_region(self):
        for x, y, z in sample_moment_region(500):
            assert 0 < x < y < z < 1

    def test_no_common_zeros_on_sample(self):
        for x, y, z in sample_moment_region(2000):
            f, g = moment_polynomials(x, y, z)
            assert f != 0 and g != 0

    def test_measure_triples_lie_in_region(self, any_measure):
        for n in range(2, 9):
            x, y, z = (
                any_measure.moment(n),
                any_measure.moment(n - 1),
                any_measure.moment(n - 2),
            )
            assert 0 < x < y < z <= 1
            if n > 2:
                assert z < 1


class TestClassify:
    def test_dirac_iid(self):
        result = classify(dirac12(), 6)
        assert result.kind is ClassificationKind.IID
        assert result.iid_p == F(1, 2)
        assert result.verified_order == 6

    def test_beta_as_moments_polya(self):
        reference = DeFinettiMeasure.beta(2, 2)
        m = DeFinettiMeasure.from_moments([reference.moment(n) for n in range(13)])
        result = classify(m, 6)
        assert result.kind is ClassificationKind.POLYA
        assert (result.polya_alpha, result.polya_beta) == (2, 2)
        assert result.verified_order == 6

    def test_beta_direct_polya(self):
        result = classify(DeFinettiMeasure.beta(F(3, 2), 2), 5)
        assert result.kind is ClassificationKind.POLYA
        assert (result.polya_alpha, result.polya_beta) == (F(3, 2), 2)

    def test_uniform_not_decomposable(self):
        result = classify(unif_half(), 4)
        assert result.kind is ClassificationKind.NOT_DECOMPOSABLE
        # first failure surfaces at the moment comparison: the Beta law
        # recovered from (mu_1, mu_2) = (1/4, 1/12) is Beta(2, 6), whose
        # third moment 1/30 differs from the true 1/32
        assert result.witness == 3

    def test_twopoint_moment_witness(self):
        result = classify(twopoint(), 4)
        assert result.kind is ClassificationKind.NOT_DECOMPOSABLE
        assert result.witness == 4

    def test_twopoint_residual_witness(self):
        # at n_max = 3 every available moment agrees with Beta(4, 4), so the
        # witness comes from the residual scan instead
        result = classify(twopoint(), 3)
        assert result.kind is ClassificationKind.NOT_DECOMPOSABLE
        assert result.witness == (3, 2, 0)

    def test_moment_route_runs_no_scan(self, monkeypatch):
        # a Beta law is settled by its moments, and a law departing from its
        # Beta candidate past n_max by the one residual row of its witness
        import hoeffding.engine

        rows = []
        numerators = hoeffding.engine._residual_numerators

        def counted(measure, n, u, reciprocal_row):
            rows.append((n, u))
            return numerators(measure, n, u, reciprocal_row)

        monkeypatch.setattr(hoeffding.engine, "_residual_numerators", counted)
        assert classify(beta23(), 6).kind is ClassificationKind.POLYA
        assert rows == []
        assert classify(twopoint(), 3).witness == (3, 2, 0)
        assert set(rows) == {(3, 2)}

    def test_zero_candidate_residual_raises(self, monkeypatch):
        # the first triple reading the mismatched moment has a nonzero
        # residual, so a zero there is a library fault, not a verdict
        import hoeffding.engine

        monkeypatch.setattr(hoeffding.engine, "_certified_residual", lambda *triple: F(0))
        with pytest.raises(InternalError, match=r"residual at \(3, 2, 0\) vanishes"):
            classify(twopoint(), 3)

    def test_short_truncation_inconclusive(self):
        reference = DeFinettiMeasure.beta(2, 2)
        m = DeFinettiMeasure.from_moments([reference.moment(n) for n in range(6)])
        result = classify(m, 6)
        assert result.kind is ClassificationKind.INCONCLUSIVE
        assert result.verified_order == 5

    def test_pseudo_moments_below_dirac_boundary(self):
        # completely monotone truncation with mu_2 < mu_1^2: no genuine
        # measure extends it. Its first two moments are those of the formal
        # Beta(-13, -13), whose third moment 11/100 differs from 1/10, so the
        # first mismatch, and the witness, is order 3 (not 2: a law below
        # the point-mass boundary is not by that alone non-decomposable)
        m = DeFinettiMeasure.from_moments(
            ["1", "1/2", "6/25", "1/10", "1/20"]
        )
        result = classify(m, 3)
        assert result.kind is ClassificationKind.NOT_DECOMPOSABLE
        assert result.witness == 3

    def test_n_max_floor(self):
        with pytest.raises(IndexRangeError):
            classify(beta11(), 2)


class TestClassifyAgreesWithCheck:
    """Verdicts the residual scan of ``check_decomposable`` confirms."""

    def test_below_boundary_witness_is_read_by_the_scan(self):
        # the first triple reading moment 3 is (2, 2, 0)
        m = DeFinettiMeasure.from_moments(["1", "1/2", "6/25", "1/10", "1/20"])
        report = check_decomposable(m, 2)
        assert report.witness == (2, 2, 0)
        assert report.residuals[(2, 2, 0)] == F(-25, 156)

    def test_point_mass_departing_past_n_max(self):
        # the point mass at 1/2 up to order 3; moment 4 departs, and the
        # moments up to 2 n_max - 1 = 5 are compared
        m = DeFinettiMeasure.from_moments(["1", "1/2", "1/4", "1/8", F(1, 16) + F(1, 1000), "1/32"])
        result = classify(m, 3)
        assert result.kind is ClassificationKind.NOT_DECOMPOSABLE
        assert result.witness == (3, 2, 0)
        report = check_decomposable(m, 3)
        assert report.verdict is Verdict.NOT_DECOMPOSABLE
        assert report.witness == (3, 2, 0)
        assert report.residuals[(3, 2, 0)] == F(4, 125)

    def test_short_point_mass_inconclusive(self):
        # the scan at n_max 4 needs order 7; order 4 settles only n_max 2
        m = DeFinettiMeasure.from_moments(["1", "1/2", "1/4", "1/8", "1/16"])
        result = classify(m, 4)
        assert result.kind is ClassificationKind.INCONCLUSIVE
        assert result.verified_order == 4
        with pytest.raises(OrderExceededError):
            check_decomposable(m, 4)

    def test_finite_urn_inconclusive(self):
        # sampling without replacement from 20 ones and 17 zeros is the
        # formal Beta(-20, -17): every residual vanishes, but no mixture of
        # i.i.d. laws has these moments
        m = urn_law(20, 17)
        result = classify(m, 9)
        assert result.kind is ClassificationKind.INCONCLUSIVE
        assert result.verified_order == 9
        report = check_decomposable(m, 9)
        assert report.verdict is Verdict.DECOMPOSABLE_UP_TO_N_MAX
        assert all(r == 0 for r in report.residuals.values())

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": ClassificationKind.IID},
            {"kind": ClassificationKind.IID, "iid_p": F(1)},
            {"kind": ClassificationKind.POLYA, "polya_alpha": F(1)},
            {"kind": ClassificationKind.NOT_DECOMPOSABLE},
        ],
    )
    def test_inconsistent_fields_raise(self, fields):
        with pytest.raises(InternalError):
            Classification(**fields)
