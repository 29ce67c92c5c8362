"""Measure representations: moments, configuration and conditional
probabilities, non-determinism, document parsing."""

import textwrap
from fractions import Fraction

import pytest

from hoeffding import (
    DeFinettiMeasure,
    DeterministicMeasureError,
    IndexRangeError,
    InvalidMomentSequenceError,
    MeasureKind,
    OrderExceededError,
    ParseError,
    check_decomposable,
    classify,
    parse_measure_spec,
)
from conftest import (
    all_measures,
    beta11,
    beta23,
    beta32,
    config_probability_oracle,
    dirac12,
    dirac13,
    enum_conditional_zero_count,
    enum_config_probability,
    run_optimized,
    twopoint,
    unif_half,
)

F = Fraction


class TestMoments:
    def test_beta_product_formula(self):
        assert DeFinettiMeasure.beta(1, 1).moment(3) == F(1, 4)

    def test_dirac_power(self):
        assert DeFinettiMeasure.dirac(F(1, 2)).moment(2) == F(1, 4)

    def test_discrete_mixture(self):
        assert twopoint().moment(2) == F(5, 18)

    def test_moment_zero_is_one(self, any_measure):
        assert any_measure.moment(0) == 1

    def test_truncated_uniform_sequence(self):
        m = unif_half()
        for n in range(13):
            assert m.moment(n) == F(1, 2) ** n / (n + 1)

    def test_order_exceeded(self):
        m = DeFinettiMeasure.from_moments(["1", "1/2", "1/3"])
        with pytest.raises(OrderExceededError):
            m.moment(3)
        with pytest.raises(OrderExceededError):
            m.config_probability(3, 0)

    def test_negative_order_rejected(self):
        with pytest.raises(IndexRangeError):
            DeFinettiMeasure.beta(1, 1).moment(-1)

    def test_monotone_strictly_decreasing(self, any_measure):
        # 0 < mu_{n+1} < mu_n < 1 for non-deterministic measures
        for n in range(1, 8):
            assert 0 < any_measure.moment(n + 1) < any_measure.moment(n) < 1

    def test_cauchy_schwarz(self):
        for m in all_measures():
            gap = m.moment(2) - m.moment(1) ** 2
            if m.kind is MeasureKind.DISCRETE and len(m.atoms) == 1:
                assert gap == 0
            else:
                assert gap > 0


class TestConfigProbability:
    def test_beta_example(self):
        assert DeFinettiMeasure.beta(1, 1).config_probability(3, 1) == F(1, 12)

    def test_dirac_example(self):
        assert DeFinettiMeasure.dirac(F(1, 2)).config_probability(2, 1) == F(1, 4)

    def test_uniform_example(self):
        assert unif_half().config_probability(2, 0) == F(1, 12)

    def test_normalization(self, any_measure):
        from hoeffding.rationals import binom

        for n in range(9):
            total = sum(
                binom(n, j) * any_measure.config_probability(n, j)
                for j in range(n + 1)
            )
            assert total == 1

    def test_tower_consistency(self, any_measure):
        for n in range(8):
            for j in range(n + 1):
                assert any_measure.config_probability(
                    n, j
                ) == any_measure.config_probability(n + 1, j) + any_measure.config_probability(
                    n + 1, j + 1
                )

    def test_difference_path_matches_closed_form(self, any_measure):
        for n in range(7):
            for j in range(n + 1):
                expected = config_probability_oracle(any_measure, n, j)
                assert any_measure.config_probability(n, j) == expected

    def test_matches_enumeration(self):
        for m in (twopoint(), DeFinettiMeasure.dirac(F(2, 5))):
            for n in range(1, 7):
                for j in range(n + 1):
                    assert m.config_probability(n, j) == enum_config_probability(m, n, j)

    def test_index_range(self):
        m = DeFinettiMeasure.beta(1, 1)
        with pytest.raises(IndexRangeError):
            m.config_probability(2, 3)
        with pytest.raises(IndexRangeError):
            m.config_probability(2, -1)


class TestRowCaches:
    """The residual routes read integer rows only: ``config_probability``
    is called for the alternating sum of a witness and for nothing else."""

    @pytest.fixture
    def config_orders(self, monkeypatch):
        orders = []
        probability = DeFinettiMeasure.config_probability

        def counted(measure, n, zeros):
            orders.append(n)
            return probability(measure, n, zeros)

        monkeypatch.setattr(DeFinettiMeasure, "config_probability", counted)
        return orders

    @pytest.mark.parametrize("factory", [beta11, beta32, beta23, dirac12, dirac13])
    @pytest.mark.parametrize("verb", [check_decomposable, classify])
    def test_decomposable_laws_build_no_fraction_row(self, factory, verb, config_orders):
        measure = factory()
        verb(measure, 8)
        assert measure._orders and not config_orders

    @pytest.mark.parametrize("verb", [check_decomposable, classify])
    def test_witness_builds_only_its_own_rows(self, verb, config_orders):
        measure = twopoint()
        n, u, _ = verb(measure, 3).witness
        assert set(config_orders) == {n, n + u - 1}

    def test_total_probability_check_raises_under_optimize(self):
        # a row put over the moment's denominator alone, without the
        # rescale of the row below, and a moment sequence with mu_0 = 2
        # both break sum_j C(n,j) P_n(j) = 1; the check must survive -O
        script = textwrap.dedent(
            """
            import math, sys, types
            from fractions import Fraction as F
            from hoeffding import DeFinettiMeasure, InternalError, MeasureKind, measures
            if __debug__:
                sys.exit("not running under -O")

            def expect_internal_error(run):
                try:
                    run()
                except InternalError as exc:
                    print(exc)
                else:
                    sys.exit("no InternalError raised")

            real_math = measures.math
            measures.math = types.SimpleNamespace(
                gcd=math.gcd, comb=math.comb, lcm=lambda common, denominator: denominator)
            expect_internal_error(lambda: DeFinettiMeasure.truncated_uniform(F(1, 2), 6))
            measures.math = real_math
            # the raw constructor skips the factories' validation
            doubled = DeFinettiMeasure(
                kind=MeasureKind.MOMENTS, moment_values=(F(2), F(1, 2), F(1, 3)))
            expect_internal_error(lambda: doubled.is_nondeterministic(2))
            """
        )
        result = run_optimized(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "configuration row 3 has total probability 24/32, not 1",
            "configuration row 0 has total probability 2/1, not 1",
        ]


class TestConditionalZeroCount:
    def test_beta_example(self):
        assert DeFinettiMeasure.beta(1, 1).conditional_zero_count(2, 1, 1, 1) == F(1, 2)

    def test_uniform_example(self):
        assert unif_half().conditional_zero_count(2, 1, 1, 1) == F(5, 16)

    def test_next_symbol_outcomes_sum_to_one(self, any_measure):
        for n in range(1, 6):
            for a in range(n + 1):
                total = any_measure.conditional_zero_count(
                    n, 1, a, a
                ) + any_measure.conditional_zero_count(n, 1, a, a + 1)
                assert total == 1

    def test_block_outcomes_sum_to_one(self, any_measure):
        for v in (1, 2, 3):
            total = sum(
                any_measure.conditional_zero_count(2, v, 1, 1 + extra)
                for extra in range(v + 1)
            )
            assert total == 1

    def test_matches_enumeration(self):
        m = twopoint()
        for n in range(1, 4):
            for v in (1, 2):
                for a in range(n + 1):
                    for b in range(a, a + v + 1):
                        assert m.conditional_zero_count(
                            n, v, a, b
                        ) == enum_conditional_zero_count(m, n, v, a, b)

    def test_deterministic_conditioning_rejected(self):
        ends = DeFinettiMeasure.discrete([(0, F(1, 2)), (1, F(1, 2))])
        with pytest.raises(DeterministicMeasureError):
            ends.conditional_zero_count(2, 1, 1, 1)

    def test_index_errors(self):
        m = DeFinettiMeasure.beta(1, 1)
        with pytest.raises(IndexRangeError):
            m.conditional_zero_count(2, 0, 1, 1)
        with pytest.raises(IndexRangeError):
            m.conditional_zero_count(2, 1, 3, 3)
        with pytest.raises(IndexRangeError):
            m.conditional_zero_count(2, 1, 1, 3)


class TestPredictiveProbability:
    def test_beta_example(self):
        assert DeFinettiMeasure.beta(1, 1).predictive_probability(2, 1) == F(1, 2)

    def test_polya_rule(self):
        # (alpha + n - p) / (alpha + beta + n), p counting zeros
        m = DeFinettiMeasure.beta(2, 3)
        for n in range(1, 7):
            for p in range(n + 1):
                assert m.predictive_probability(n, p) == F(2 + n - p, 5 + n)

    def test_dirac_constant(self):
        m = DeFinettiMeasure.dirac(F(2, 7))
        for n in range(1, 5):
            for p in range(n + 1):
                assert m.predictive_probability(n, p) == F(2, 7)

    def test_uniform_example(self):
        assert unif_half().predictive_probability(2, 0) == F(3, 8)

    def test_forward_difference_ratio(self, any_measure):
        # predictive probability as a ratio of iterated differences
        from hoeffding.rationals import binom

        def delta(p, start):
            return sum(
                (-1) ** (p - i) * binom(p, i) * any_measure.moment(start + i)
                for i in range(p + 1)
            )

        for n in range(2, 6):
            for p in range(n + 1):
                expected = delta(p, n + 1 - p) / delta(p, n - p)
                assert any_measure.predictive_probability(n, p) == expected

    def test_coincides_with_conditional(self, any_measure):
        for n in range(1, 5):
            for p in range(n + 1):
                assert any_measure.predictive_probability(
                    n, p
                ) == any_measure.conditional_zero_count(n, 1, p, p)


class TestNondeterminism:
    def test_beta_full_support(self):
        assert DeFinettiMeasure.beta(2, 3).is_nondeterministic(8)

    def test_dirac_at_one(self):
        assert not DeFinettiMeasure.dirac(1).is_nondeterministic(1)

    def test_endpoint_mixture(self):
        ends = DeFinettiMeasure.discrete([(0, F(1, 2)), (1, F(1, 2))])
        assert not ends.is_nondeterministic(4)

    def test_all_test_measures(self, any_measure):
        assert any_measure.is_nondeterministic(8)


class TestParsing:
    def test_beta_document(self):
        m = parse_measure_spec('{"type":"beta","alpha":"3/2","beta":"2"}')
        assert m.kind is MeasureKind.BETA
        assert (m.beta_alpha, m.beta_beta) == (F(3, 2), F(2))

    def test_moments_document(self):
        m = parse_measure_spec('{"type":"moments","values":["1","1/4","1/12","1/32"]}')
        assert m.kind is MeasureKind.MOMENTS
        assert m.max_order == 3
        assert m.moment(3) == F(1, 32)

    def test_monotonicity_violation(self):
        with pytest.raises(InvalidMomentSequenceError) as err:
            parse_measure_spec('{"type":"moments","values":["1","1/2","3/4"]}')
        assert (err.value.order, err.value.zeros) == (2, 1)

    def test_mu0_must_be_one(self):
        with pytest.raises(InvalidMomentSequenceError) as err:
            parse_measure_spec('{"type":"moments","values":["2","1/2"]}')
        assert (err.value.order, err.value.zeros) == (0, 0)

    def test_truncated_uniform_document(self):
        m = parse_measure_spec('{"type":"truncated_uniform","epsilon":"1/2","order":12}')
        assert m == unif_half()

    def test_discrete_document(self):
        m = parse_measure_spec(
            '{"type":"discrete","atoms":[["1/3","1/2"],["2/3","1/2"]]}'
        )
        assert m == twopoint()

    @pytest.mark.parametrize(
        "document",
        [
            "not json",
            "[1,2]",
            '{"type":"beta","alpha":"1"}',
            '{"type":"beta","alpha":"1","beta":"2","extra":1}',
            '{"type":"beta","alpha":"-1","beta":"2"}',
            '{"type":"beta","alpha":"0.5","beta":"2"}',
            '{"type":"discrete","atoms":[]}',
            '{"type":"discrete","atoms":[["1/2","1/3"]]}',
            '{"type":"discrete","atoms":[["3/2","1"]]}',
            '{"type":"discrete","atoms":[["1/2","-1"],["1/2","2"]]}',
            '{"type":"moments","values":[]}',
            '{"type":"truncated_uniform","epsilon":"2","order":3}',
            '{"type":"truncated_uniform","epsilon":"1/2","order":"3"}',
            '{"type":"mystery"}',
        ],
    )
    def test_rejected_documents(self, document):
        with pytest.raises(ParseError):
            parse_measure_spec(document)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParseError):
            parse_measure_spec('{"type":"discrete","atoms":[["1/2","1/2"]]}')

    def test_describe_is_stable(self, any_measure):
        assert any_measure.describe() == any_measure.describe()

    @pytest.mark.parametrize(
        "atoms",
        [[(0, F(1, 2)), (1,)], [5], [("a", 1)], [(F(1, 2), "1/0")]],
        ids=["short-pair", "not-a-pair", "not-rational", "zero-denominator"],
    )
    def test_discrete_factory_rejects_malformed_atoms(self, atoms):
        with pytest.raises(ParseError):
            DeFinettiMeasure.discrete(atoms)

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: DeFinettiMeasure.beta("x", 1), "alpha"),
            (lambda: DeFinettiMeasure.beta(1, float("inf")), "beta"),
            (lambda: DeFinettiMeasure.truncated_uniform("a", 3), "epsilon"),
            (lambda: DeFinettiMeasure.from_moments(["1/0"]), "moment"),
            (lambda: DeFinettiMeasure.from_moments([1, None]), "moment"),
            (lambda: DeFinettiMeasure.dirac("1/0"), "location"),
        ],
        ids=["beta-text", "beta-inf", "truncated-uniform", "moments-zero-denominator",
             "moments-none", "dirac"],
    )
    def test_scalar_factories_reject_non_rationals(self, build, what):
        with pytest.raises(ParseError, match=what):
            build()

    @pytest.mark.parametrize("order", ["5", True, 2.0, None], ids=["text", "bool", "float", "none"])
    def test_truncated_uniform_order_must_be_an_int(self, order):
        # as parse_measure_spec refuses it in a document; True is no order 1
        with pytest.raises(ParseError, match="order must be an integer"):
            DeFinettiMeasure.truncated_uniform(F(1, 2), order)
