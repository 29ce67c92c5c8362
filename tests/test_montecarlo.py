"""Sampler determinism, urn specifications, and statistical agreement with
the exact probabilities.

Statistical assertions use |z| < 4 per cell (two-sided false alarm about
6e-5 per cell) or a chi-square threshold frozen at significance 1e-3; all
draws are seeded, so failures are reproducible, not flaky.
"""

import math
from fractions import Fraction

import pytest

from hoeffding import (
    DeFinettiMeasure,
    InternalError,
    ParameterRangeError,
    ParseError,
    ReinforcementRangeError,
    ReinforcementFunction,
    SampleReport,
    UnsamplableKindError,
    UrnSpec,
    compare_exact_empirical,
    parse_urn_spec,
    sample_mixture,
    sample_polya,
    sample_urn_process,
    urn_histogram,
)
from hoeffding.montecarlo import DEFAULT_Z_THRESHOLD, SplitMix64, trial_stream
from hoeffding.rationals import binom
from conftest import beta23, dirac12, unif_half

F = Fraction

TRIALS = 100_000
# chi-square upper quantile at significance 1e-3, df = 11
CHI2_CRIT_DF11 = 31.265


def two_sample_z(count_a, count_b, trials):
    pooled = (count_a + count_b) / (2 * trials)
    if pooled in (0.0, 1.0):
        return 0.0
    spread = math.sqrt(pooled * (1 - pooled) * 2 / trials)
    return (count_a / trials - count_b / trials) / spread


@pytest.fixture(scope="module")
def polya11_report():
    return compare_exact_empirical(DeFinettiMeasure.beta(1, 1), 6, TRIALS, seed=42)


@pytest.fixture(scope="module")
def identity_urn_report():
    spec = UrnSpec(f=ReinforcementFunction.identity(), r=1, b=1)
    return urn_histogram(spec, 6, TRIALS, seed=43)


class TestGenerator:
    def test_splitmix_reference_vector(self):
        # published SplitMix64 outputs for seed 0
        g = SplitMix64(0)
        assert [g.next_word() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_uniforms_frozen(self):
        # regression anchor: the uniform stream must never change
        g = SplitMix64(42)
        assert [g.random() for _ in range(3)] == [
            0.7415648787718233,
            0.1599103928769201,
            0.27860113025513866,
        ]

    def test_trial_streams_are_derived_and_distinct(self):
        assert trial_stream(7, 0).state == 0x19B6554DAA8A89AA
        states = {trial_stream(7, i).state for i in range(100)}
        assert len(states) == 100


class TestSamplePolya:
    def test_deterministic(self):
        a = sample_polya(1, 1, 20, seed=5)
        b = sample_polya(1, 1, 20, seed=5)
        assert a == b
        assert sample_polya(1, 1, 20, seed=6) != a

    def test_binary_output(self):
        assert set(sample_polya(2, 3, 50, seed=1)) <= {0, 1}

    def test_parameter_errors(self):
        with pytest.raises(ParameterRangeError):
            sample_polya(0, 1, 5, seed=1)
        with pytest.raises(ParameterRangeError):
            sample_polya(1, 1, 0, seed=1)

    def test_uniform_zero_counts(self, polya11_report):
        # every zero count is equally likely under the uniform mixing law
        assert all(
            abs(row.z_score) < DEFAULT_Z_THRESHOLD for row in polya11_report.comparison
        )
        assert all(
            row.expected_probability == F(1, 7) for row in polya11_report.comparison
        )

    def test_first_coordinate_mean(self):
        # E[X_1] = alpha / (alpha + beta) = 2/5
        total = sum(sample_polya(2, 3, 1, seed=i)[0] for i in range(TRIALS))
        z = (total / TRIALS - 0.4) / math.sqrt(0.4 * 0.6 / TRIALS)
        assert abs(z) < DEFAULT_Z_THRESHOLD


class TestUrnProcess:
    def test_identity_matches_polya_distribution(
        self, polya11_report, identity_urn_report
    ):
        for j in range(7):
            z = two_sample_z(
                polya11_report.zero_count_histogram[j],
                identity_urn_report.zero_count_histogram[j],
                TRIALS,
            )
            assert abs(z) < DEFAULT_Z_THRESHOLD

    def test_constant_is_iid(self):
        spec = UrnSpec(f=ReinforcementFunction.constant(F(1, 2)), r=1, b=1)
        total = sum(sample_urn_process(spec, 1, seed=i)[0] for i in range(20000))
        z = (total / 20000 - 0.5) / math.sqrt(0.25 / 20000)
        assert abs(z) < DEFAULT_Z_THRESHOLD

    def test_piecewise_table_contract(self):
        # clamp(2 theta - 1/2) as an exact piecewise-linear table
        f = ReinforcementFunction.table(
            [(0, 0), (F(1, 4), 0), (F(3, 4), 1), (1, 1)]
        )
        assert f(F(1, 2)) == F(1, 2)
        assert f(F(1, 8)) == 0
        assert f(F(7, 8)) == 1
        spec = UrnSpec(f=f, r=1, b=1)
        a = sample_urn_process(spec, 30, seed=9)
        assert a == sample_urn_process(spec, 30, seed=9)
        assert set(a) <= {0, 1}

    def test_urn_histogram_has_no_comparison(self, identity_urn_report):
        assert identity_urn_report.comparison is None
        assert sum(identity_urn_report.zero_count_histogram) == TRIALS


class TestSampleMixture:
    def test_single_atom_is_iid(self):
        m = DeFinettiMeasure.dirac(F(1, 4))
        total = sum(sum(sample_mixture(m, 5, seed=i)) for i in range(8000))
        z = (total / 40000 - 0.25) / math.sqrt(0.25 * 0.75 / 40000)
        assert abs(z) < DEFAULT_Z_THRESHOLD

    def test_moments_kind_unsamplable(self):
        with pytest.raises(UnsamplableKindError):
            sample_mixture(unif_half(), 4, seed=1)

    def test_deterministic(self):
        m = DeFinettiMeasure.beta(2, 3)
        assert sample_mixture(m, 10, seed=3) == sample_mixture(m, 10, seed=3)

    def test_beta_mixture_agrees_with_predictive_rule(self, polya11_report):
        # two-stage sampling and the reinforcement rule draw from the same law
        m = DeFinettiMeasure.beta(1, 1)
        counts = [0] * 7
        for i in range(TRIALS):
            counts[6 - sum(sample_mixture(m, 6, seed=i))] += 1
        for j in range(7):
            z = two_sample_z(
                counts[j], polya11_report.zero_count_histogram[j], TRIALS
            )
            assert abs(z) < DEFAULT_Z_THRESHOLD


class TestCompareExactEmpirical:
    def test_beta23_within_threshold(self):
        report = compare_exact_empirical(beta23(), 6, TRIALS, seed=11)
        assert report.max_abs_z() < DEFAULT_Z_THRESHOLD

    def test_dirac_expected_row(self):
        report = compare_exact_empirical(dirac12(), 5, 1000, seed=2)
        for row in report.comparison:
            assert row.expected_probability == F(binom(5, row.zeros), 32)

    def test_discrete_mixture_within_threshold(self):
        mixture = DeFinettiMeasure.discrete([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
        report = compare_exact_empirical(mixture, 5, TRIALS, seed=13)
        assert report.max_abs_z() < DEFAULT_Z_THRESHOLD

    def test_trials_floor(self):
        with pytest.raises(ParameterRangeError):
            compare_exact_empirical(dirac12(), 4, 500, seed=1)

    def test_moments_kind_rejected(self):
        with pytest.raises(UnsamplableKindError):
            compare_exact_empirical(unif_half(), 4, 1000, seed=1)

    def test_histogram_sums_to_trials(self, polya11_report):
        assert sum(polya11_report.zero_count_histogram) == TRIALS

    def test_inconsistent_histogram_raises(self):
        with pytest.raises(InternalError):
            SampleReport(n=2, trials=5, seed=1, zero_count_histogram=(1, 2, 1))

    def test_bitwise_reproducible(self):
        a = compare_exact_empirical(beta23(), 4, 1000, seed=77)
        b = compare_exact_empirical(beta23(), 4, 1000, seed=77)
        assert a == b


class TestExchangeabilitySanity:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda i: sample_polya(1, 1, 4, seed=i),
            lambda i: sample_urn_process(
                UrnSpec(f=ReinforcementFunction.identity(), r=1, b=1), 4, seed=i
            ),
            lambda i: sample_urn_process(
                UrnSpec(f=ReinforcementFunction.constant(F(1, 2)), r=1, b=1),
                4,
                seed=i,
            ),
        ],
        ids=["polya", "identity-urn", "constant-urn"],
    )
    def test_pattern_frequency_depends_only_on_zero_count(self, draw):
        # chi-square uniformity within each zero-count class, df = 11
        counts = {}
        for i in range(TRIALS):
            pattern = tuple(draw(i))
            counts[pattern] = counts.get(pattern, 0) + 1
        statistic = 0.0
        for zeros in range(5):
            patterns = [p for p in counts if p.count(0) == zeros]
            class_total = sum(counts[p] for p in patterns)
            cells = binom(4, zeros)
            if cells < 2:
                continue
            expected = class_total / cells
            statistic += sum(
                (counts.get(p, 0) - expected) ** 2 / expected for p in patterns
            )
        assert statistic < CHI2_CRIT_DF11


class TestUrnSpecParsing:
    def test_identity_document(self):
        spec = parse_urn_spec('{"f": {"type": "identity"}, "r": 1, "b": 1}')
        assert spec == UrnSpec(f=ReinforcementFunction.identity(), r=1, b=1)

    def test_constant_document(self):
        spec = parse_urn_spec('{"f": {"type": "constant", "value": "1/2"}, "r": 2, "b": 3}')
        assert spec.f(F(9, 10)) == F(1, 2)

    def test_table_document(self):
        spec = parse_urn_spec(
            '{"f": {"type": "table", "points": [["0","0"],["1/4","0"],["3/4","1"],["1","1"]]},'
            ' "r": 1, "b": 1}'
        )
        assert spec.f(F(1, 2)) == F(1, 2)

    @pytest.mark.parametrize(
        "document",
        [
            "junk",
            '{"f": {"type": "identity"}, "r": 0, "b": 1}',
            '{"f": {"type": "identity"}, "r": 1}',
            '{"f": {"type": "constant"}, "r": 1, "b": 1}',
            '{"f": {"type": "constant", "value": "3/2"}, "r": 1, "b": 1}',
            '{"f": {"type": "table", "points": [["0","0"]]}, "r": 1, "b": 1}',
            '{"f": {"type": "table", "points": [["0","0"],["1","2"]]}, "r": 1, "b": 1}',
            '{"f": {"type": "table", "points": [["1/4","0"],["1","1"]]}, "r": 1, "b": 1}',
            '{"f": {"type": "wat"}, "r": 1, "b": 1}',
        ],
    )
    def test_rejected_documents(self, document):
        with pytest.raises(ParseError):
            parse_urn_spec(document)

    def test_out_of_range_evaluation(self):
        f = ReinforcementFunction.identity()
        with pytest.raises(ReinforcementRangeError):
            f(F(3, 2))
