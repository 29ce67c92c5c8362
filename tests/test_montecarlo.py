"""Sampler determinism, urn specifications, and statistical agreement with
the exact probabilities.

Statistical assertions use |z| < 4 per cell (two-sided false alarm about
6e-5 per cell) or a chi-square threshold frozen at significance 1e-3; all
draws are seeded, so failures are reproducible, not flaky.
"""

import dataclasses
import hashlib
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
from hoeffding import montecarlo
from hoeffding.montecarlo import SplitMix64, _limit, trial_stream
from hoeffding.rationals import binom
from conftest import DEFAULT_Z_THRESHOLD, beta23, dirac12, unif_half

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

    def test_trial_streams_follow_their_definition_across_seeds(self):
        # the hashed "<seed>/" prefix is cached per seed; interleaved seeds
        # must still give the first 8 bytes of sha256("<seed>/<trial>")
        for seed, trial in [(7, 0), (8, 0), (7, 1), (-3, 12), (2**70, 5), (7, 10**6)]:
            digest = hashlib.sha256(f"{seed}/{trial}".encode("ascii")).digest()
            assert trial_stream(seed, trial).state == int.from_bytes(digest[:8], "big")


class TestIntegerLimit:
    @pytest.mark.parametrize(
        "p",
        [
            0.0,
            1.0,
            2.0**-53,
            3 * 2.0**-53,
            (2**52 + 1) * 2.0**-53,
            math.nextafter(2.0**-53, 0.0),
            math.nextafter(2.0**-53, 1.0),
            math.nextafter((2**52 + 1) * 2.0**-53, 0.0),
            math.nextafter((2**52 + 1) * 2.0**-53, 1.0),
            0.5,
            math.nextafter(0.5, 1.0),
            math.nextafter(1.0, 0.0),
            1 / 3,
            5e-324,
            2.0**-1030,
        ],
    )
    def test_limit_matches_float_comparison(self, p):
        # the uniform of a word is k * 2**-53 with k = word >> 11 < 2**53
        limit = _limit(p)
        assert isinstance(limit, int) and 0 <= limit <= 2**53
        for k in range(max(limit - 2, 0), min(limit + 2, 2**53)):
            assert (k * 2.0**-53 < p) == (k < limit)

    def test_limit_values(self):
        assert _limit(0.0) == 0
        assert _limit(1.0) == 2**53
        assert _limit(3 * 2.0**-53) == 3
        assert _limit(math.nextafter(3 * 2.0**-53, 1.0)) == 4
        assert _limit(math.nextafter(3 * 2.0**-53, 0.0)) == 3
        assert _limit(5e-324) == 1


def state_for_word(word):
    """The SplitMix64 state whose next word is ``word`` (the finalizer is a
    bijection: xor-shifts and odd multipliers invert)."""

    def unshift(y, k):
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x

    mask = 2**64 - 1
    z = unshift(word, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) & mask, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


class TestBoundaryWords:
    # every trial's stream starts with a chosen word, so a comparison that
    # is off by one (<= for <, floor for ceil, the wrong side of a tie in the
    # atom pick) or a missing fallback atom changes the whole histogram
    @pytest.mark.parametrize(
        "source, k, zeros",
        [
            (UrnSpec(f=ReinforcementFunction.constant(F(1, 4)), r=1, b=1), 2**51 - 1, 0),
            (UrnSpec(f=ReinforcementFunction.constant(F(1, 4)), r=1, b=1), 2**51, 1),
            (UrnSpec(f=ReinforcementFunction.constant(0), r=1, b=1), 0, 1),
            (UrnSpec(f=ReinforcementFunction.constant(1), r=1, b=1), 2**53 - 1, 0),
            (DeFinettiMeasure.discrete([(0, F(1, 4)), (1, F(3, 4))]), 2**51 - 1, 1),
            (DeFinettiMeasure.discrete([(0, F(1, 4)), (1, F(3, 4))]), 2**51, 0),
            # ten weights of 1/10 sum to 0.9999999999999999 in floats: the
            # largest word falls through every cumulative limit to the last atom
            (DeFinettiMeasure.discrete([(F(i, 9), F(1, 10)) for i in range(10)]), 2**53 - 1, 0),
        ],
        ids=["quarter-below", "quarter-at", "zero", "one", "pick-below", "pick-at", "fallback"],
    )
    def test_first_word_decides(self, source, k, zeros, monkeypatch):
        state = state_for_word((k << 11) | 0x7FF)
        assert SplitMix64(state).next_word() >> 11 == k
        monkeypatch.setattr(montecarlo, "trial_stream", lambda seed, trial: SplitMix64(state))
        if isinstance(source, UrnSpec):
            report = urn_histogram(source, 1, 1000, seed=0)
        else:
            report = compare_exact_empirical(source, 1, 1000, seed=0)
        assert report.zero_count_histogram[zeros] == 1000

    @pytest.mark.parametrize("k, bit", [(2**51 - 1, 1), (2**51, 0)])
    def test_first_word_decides_sequence(self, k, bit, monkeypatch):
        state = state_for_word(k << 11)
        monkeypatch.setattr(montecarlo, "trial_stream", lambda seed, trial: SplitMix64(state))
        spec = UrnSpec(f=ReinforcementFunction.constant(F(1, 4)), r=1, b=1)
        assert sample_urn_process(spec, 1, seed=0) == [bit]


class TestStreamContract:
    @pytest.mark.parametrize(
        "run",
        [
            lambda trials: compare_exact_empirical(beta23(), 5, trials, seed=31),
            lambda trials: compare_exact_empirical(
                DeFinettiMeasure.discrete([(0, F(1, 4)), (F(2, 3), F(3, 4))]),
                5,
                trials,
                seed=31,
            ),
            lambda trials: urn_histogram(
                UrnSpec(f=ReinforcementFunction.identity(), r=2, b=1), 5, trials, seed=31
            ),
        ],
        ids=["beta", "discrete", "urn"],
    )
    def test_one_stream_per_trial_in_order(self, run, monkeypatch):
        calls = []

        def counting_stream(seed, trial):
            calls.append((seed, trial))
            return trial_stream(seed, trial)

        monkeypatch.setattr(montecarlo, "trial_stream", counting_stream)
        run(1234)
        assert calls == [(31, trial) for trial in range(1234)]


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

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("position", [0, 1])
    def test_parameters_must_be_finite(self, position, value):
        parameters = [1, 1]
        parameters[position] = value
        with pytest.raises(ParameterRangeError, match="finite and positive"):
            sample_polya(*parameters, 3, seed=1)

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
        assert max(abs(row.z_score) for row in report.comparison) < DEFAULT_Z_THRESHOLD

    def test_dirac_expected_row(self):
        report = compare_exact_empirical(dirac12(), 5, 1000, seed=2)
        for row in report.comparison:
            assert row.expected_probability == F(binom(5, row.zeros), 32)

    def test_discrete_mixture_within_threshold(self):
        mixture = DeFinettiMeasure.discrete([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
        report = compare_exact_empirical(mixture, 5, TRIALS, seed=13)
        assert max(abs(row.z_score) for row in report.comparison) < DEFAULT_Z_THRESHOLD

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
            '{"f": {"type": "table", "points": [["0","0"],["1"],["1","1"]]}, "r": 1, "b": 1}',
            '{"f": {"type": "table", "points": [["0","0"],5,["1","1"]]}, "r": 1, "b": 1}',
            '{"f": {"type": "table", "points": [["0","0"],["1","1","2"]]}, "r": 1, "b": 1}',
        ],
    )
    def test_rejected_documents(self, document):
        with pytest.raises(ParseError):
            parse_urn_spec(document)

    def test_out_of_range_evaluation(self):
        f = ReinforcementFunction.identity()
        with pytest.raises(ReinforcementRangeError):
            f(F(3, 2))

    @pytest.mark.parametrize("count", ['1.5', 'true', '"1"', '[1]'])
    def test_rejected_counts(self, count):
        with pytest.raises(ParseError, match='"b" must be a positive integer'):
            parse_urn_spec('{"f": {"type": "identity"}, "r": 1, "b": %s}' % count)


class TestReinforcementForm:
    # every reinforcement map is one knot table; identity and constant are
    # the two-knot tables of the exchangeable urns
    def test_points_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(ReinforcementFunction)] == ["points"]

    def test_builtins_are_two_knot_tables(self):
        assert ReinforcementFunction.identity() == ReinforcementFunction.table([(0, 0), (1, 1)])
        assert ReinforcementFunction.constant(F(1, 3)) == ReinforcementFunction.table(
            [(0, F(1, 3)), (1, F(1, 3))]
        )

    @pytest.mark.parametrize("x", [F(-1, 5), F(3, 2)])
    def test_constant_rejects_proportions_outside_the_unit_interval(self, x):
        with pytest.raises(ReinforcementRangeError, match="outside"):
            ReinforcementFunction.constant(F(1, 2))(x)

    @pytest.mark.parametrize("value", ["a", "1/0", math.inf, None])
    def test_constant_factory_rejects_non_rationals(self, value):
        with pytest.raises(ParseError, match="constant reinforcement value"):
            ReinforcementFunction.constant(value)

    @pytest.mark.parametrize(
        "points",
        [[(0, 0), (1,)], [(0, 0), 5], [(0, 0), ("a", 1)], [(0, 0), (1, "1/0")]],
        ids=["short-pair", "not-a-pair", "not-rational", "zero-denominator"],
    )
    def test_table_factory_rejects_malformed_points(self, points):
        with pytest.raises(ParseError, match="table point"):
            ReinforcementFunction.table(points)

    @pytest.mark.parametrize("count", [F(3, 2), True, 1.5, "1", 0])
    @pytest.mark.parametrize("name", ["r", "b"])
    def test_urn_counts_must_be_positive_integers(self, name, count):
        counts = {"r": 1, "b": 1, name: count}
        with pytest.raises(ParseError, match=f'"{name}" must be a positive integer'):
            UrnSpec(f=ReinforcementFunction.identity(), **counts)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: sample_mixture(unif_half(), 4, seed=1),
            lambda: compare_exact_empirical(unif_half(), 4, 1000, seed=1),
        ],
        ids=["sample_mixture", "compare_exact_empirical"],
    )
    def test_refusal_comes_before_any_stream(self, run, monkeypatch):
        def no_stream(seed, trial):
            raise AssertionError("a stream was drawn")

        monkeypatch.setattr(montecarlo, "trial_stream", no_stream)
        with pytest.raises(UnsamplableKindError, match="cannot be sampled"):
            run()


# ---------------------------------------------------------------------------
# golden outputs: every sampler branch, pinned bit for bit
# ---------------------------------------------------------------------------

GOLDEN_LAWS = {
    "beta(1,1)": lambda: DeFinettiMeasure.beta(1, 1),
    "beta(3/2,2)": lambda: DeFinettiMeasure.beta(F(3, 2), 2),
    "dirac(1/3)": lambda: DeFinettiMeasure.dirac(F(1, 3)),
    "dirac(0)": lambda: DeFinettiMeasure.dirac(0),
    "dirac(1)": lambda: DeFinettiMeasure.dirac(1),
    "twopoint(1/3,2/3)": lambda: DeFinettiMeasure.discrete(
        [(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))]
    ),
    "twopoint(0,2/3)": lambda: DeFinettiMeasure.discrete(
        [(0, F(1, 4)), (F(2, 3), F(3, 4))]
    ),
    "threepoint(0,1/2,1)": lambda: DeFinettiMeasure.discrete(
        [(0, F(1, 5)), (F(1, 2), F(2, 5)), (1, F(2, 5))]
    ),
}

GOLDEN_URNS = {
    "identity(1,1)": UrnSpec(f=ReinforcementFunction.identity(), r=1, b=1),
    "identity(2,3)": UrnSpec(f=ReinforcementFunction.identity(), r=2, b=3),
    "constant(0)": UrnSpec(f=ReinforcementFunction.constant(0), r=1, b=1),
    "constant(1/2)": UrnSpec(f=ReinforcementFunction.constant(F(1, 2)), r=1, b=2),
    "constant(1)": UrnSpec(f=ReinforcementFunction.constant(1), r=3, b=1),
    "table(clamp)": UrnSpec(
        f=ReinforcementFunction.table([(0, 0), (F(1, 4), 0), (F(3, 4), 1), (1, 1)]),
        r=1,
        b=1,
    ),
    "table(tent)": UrnSpec(
        f=ReinforcementFunction.table(
            [(0, F(1, 10)), (F(1, 2), F(9, 10)), (1, F(3, 10))]
        ),
        r=2,
        b=1,
    ),
}

GOLDEN_SIZES = (1, 4, 10)
GOLDEN_SEEDS = (5, 2718281828)
GOLDEN_TRIALS = 1000


def golden_report(name, n, seed):
    if name in GOLDEN_LAWS:
        return compare_exact_empirical(GOLDEN_LAWS[name](), n, GOLDEN_TRIALS, seed)
    return urn_histogram(GOLDEN_URNS[name], n, GOLDEN_TRIALS, seed)


def rows_digest(report):
    """First 16 hex digits of SHA-256 over the repr of the comparison rows:
    exact expected cells, float frequencies and float z-scores."""
    return hashlib.sha256(repr(report.comparison).encode("ascii")).hexdigest()[:16]


def bits(sequence):
    return "".join(map(str, sequence))


GOLDEN_SEQUENCES = {
    "polya(1,1)": lambda seed: sample_polya(1, 1, 40, seed),
    "polya(3/2,2)": lambda seed: sample_polya(F(3, 2), 2, 40, seed),
    **{
        f"urn:{name}": (lambda spec: lambda seed: sample_urn_process(spec, 40, seed))(spec)
        for name, spec in GOLDEN_URNS.items()
    },
    **{
        f"mixture:{name}": (lambda law: lambda seed: sample_mixture(law(), 40, seed))(law)
        for name, law in GOLDEN_LAWS.items()
    },
    "mixture:beta(1/2,1/3)": lambda seed: sample_mixture(
        DeFinettiMeasure.beta(F(1, 2), F(1, 3)), 40, seed
    ),
}

# recorded with the per-bit float-comparison sampler, before the fused loop
GOLDEN_HISTOGRAMS = {
    ('beta(1,1)', 1, 5): ((505, 495), '9d56e94a0ddc2127'),
    ('beta(1,1)', 1, 2718281828): ((501, 499), '8e7a39b7787b2b5f'),
    ('beta(1,1)', 4, 5): ((200, 191, 209, 193, 207), '5e2fdb8f4e72b8bc'),
    ('beta(1,1)', 4, 2718281828): ((198, 189, 224, 201, 188), 'a4f9d63cfc9714cc'),
    ('beta(1,1)', 10, 5): ((90, 88, 92, 87, 92, 91, 86, 76, 101, 100, 97), '03c18ca71098e053'),
    ('beta(1,1)', 10, 2718281828): ((86, 91, 92, 91, 93, 97, 93, 88, 87, 96, 86), '5a19e812219387ca'),
    ('beta(3/2,2)', 1, 5): ((430, 570), 'df652cc0829c6062'),
    ('beta(3/2,2)', 1, 2718281828): ((419, 581), 'a096493a56ee9c1f'),
    ('beta(3/2,2)', 4, 5): ((102, 193, 244, 248, 213), 'd765d5267d8af28d'),
    ('beta(3/2,2)', 4, 2718281828): ((104, 171, 263, 259, 203), '2e70e2a34a02396e'),
    ('beta(3/2,2)', 10, 5): ((25, 51, 72, 72, 119, 126, 114, 106, 116, 116, 83), 'c4eccb9d143e45f0'),
    ('beta(3/2,2)', 10, 2718281828): ((21, 51, 65, 79, 120, 126, 118, 126, 119, 101, 74), 'f9580c547828bf63'),
    ('dirac(1/3)', 1, 5): ((331, 669), '94bf450cd9d90670'),
    ('dirac(1/3)', 1, 2718281828): ((335, 665), 'cb7b9d3302ca00e4'),
    ('dirac(1/3)', 4, 5): ((9, 99, 306, 388, 198), 'eaa39db15a4c7fe7'),
    ('dirac(1/3)', 4, 2718281828): ((10, 100, 283, 402, 205), '543903b458a16e65'),
    ('dirac(1/3)', 10, 5): ((0, 0, 6, 18, 47, 135, 238, 258, 192, 86, 20), '1710f36460367c7f'),
    ('dirac(1/3)', 10, 2718281828): ((0, 0, 2, 11, 61, 140, 229, 261, 189, 89, 18), '04c7a72f9f316113'),
    ('dirac(0)', 1, 5): ((0, 1000), '1645d58e0c8a064a'),
    ('dirac(0)', 1, 2718281828): ((0, 1000), '1645d58e0c8a064a'),
    ('dirac(0)', 4, 5): ((0, 0, 0, 0, 1000), '7499557e997d914f'),
    ('dirac(0)', 4, 2718281828): ((0, 0, 0, 0, 1000), '7499557e997d914f'),
    ('dirac(0)', 10, 5): ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1000), 'b47b1796fc241884'),
    ('dirac(0)', 10, 2718281828): ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1000), 'b47b1796fc241884'),
    ('dirac(1)', 1, 5): ((1000, 0), '3235a470b485af32'),
    ('dirac(1)', 1, 2718281828): ((1000, 0), '3235a470b485af32'),
    ('dirac(1)', 4, 5): ((1000, 0, 0, 0, 0), '253f7dafb8c6f0da'),
    ('dirac(1)', 4, 2718281828): ((1000, 0, 0, 0, 0), '253f7dafb8c6f0da'),
    ('dirac(1)', 10, 5): ((1000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), '97225a863a9e73fb'),
    ('dirac(1)', 10, 2718281828): ((1000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), '97225a863a9e73fb'),
    ('twopoint(1/3,2/3)', 1, 5): ((499, 501), '5ab4bae63768ee0a'),
    ('twopoint(1/3,2/3)', 1, 2718281828): ((503, 497), '1480e1e12c872a35'),
    ('twopoint(1/3,2/3)', 4, 5): ((91, 245, 314, 245, 105), '3658d66cb5bb0a8c'),
    ('twopoint(1/3,2/3)', 4, 2718281828): ((110, 249, 278, 247, 116), '68bb42f22355f986'),
    ('twopoint(1/3,2/3)', 10, 5): ((15, 36, 93, 144, 146, 128, 137, 149, 100, 42, 10), 'bc89a8e059c90804'),
    ('twopoint(1/3,2/3)', 10, 2718281828): ((7, 36, 104, 142, 161, 111, 149, 135, 103, 45, 7), '32066035d6d99b42'),
    ('twopoint(0,2/3)', 1, 5): ((473, 527), 'f15cb2c54b200b3b'),
    ('twopoint(0,2/3)', 1, 2718281828): ((498, 502), 'd1d70a7b9017d1ff'),
    ('twopoint(0,2/3)', 4, 5): ((138, 292, 226, 89, 255), '2c7417c6fd626c8d'),
    ('twopoint(0,2/3)', 4, 2718281828): ((141, 304, 227, 70, 258), 'f839c4e671531d67'),
    ('twopoint(0,2/3)', 10, 5): ((18, 68, 138, 201, 171, 88, 55, 13, 4, 0, 244), '41b6eeaa16b49dd6'),
    ('twopoint(0,2/3)', 10, 2718281828): ((9, 54, 151, 200, 194, 86, 46, 11, 1, 0, 248), '4fe86783ac5d2906'),
    ('threepoint(0,1/2,1)', 1, 5): ((578, 422), '9053cbebb30edabb'),
    ('threepoint(0,1/2,1)', 1, 2718281828): ((599, 401), '768796c542988431'),
    ('threepoint(0,1/2,1)', 4, 5): ((415, 103, 161, 104, 217), 'eec0d8d54376efd9'),
    ('threepoint(0,1/2,1)', 4, 2718281828): ((430, 93, 149, 100, 228), '93029f93b2c5bcbc'),
    ('threepoint(0,1/2,1)', 10, 5): ((380, 7, 20, 43, 92, 118, 81, 51, 14, 5, 189), '82f7b5f6fb5449a8'),
    ('threepoint(0,1/2,1)', 10, 2718281828): ((411, 2, 17, 40, 89, 97, 78, 46, 14, 5, 201), 'f2973702d38fb1e9'),
    ('identity(1,1)', 1, 5): ((505, 495), None),
    ('identity(1,1)', 1, 2718281828): ((501, 499), None),
    ('identity(1,1)', 4, 5): ((200, 191, 209, 193, 207), None),
    ('identity(1,1)', 4, 2718281828): ((198, 189, 224, 201, 188), None),
    ('identity(1,1)', 10, 5): ((90, 88, 92, 87, 92, 91, 86, 76, 101, 100, 97), None),
    ('identity(1,1)', 10, 2718281828): ((86, 91, 92, 91, 93, 97, 93, 88, 87, 96, 86), None),
    ('identity(2,3)', 1, 5): ((400, 600), None),
    ('identity(2,3)', 1, 2718281828): ((387, 613), None),
    ('identity(2,3)', 4, 5): ((74, 169, 260, 284, 213), None),
    ('identity(2,3)', 4, 2718281828): ((65, 155, 285, 299, 196), None),
    ('identity(2,3)', 10, 5): ((12, 34, 55, 66, 113, 126, 137, 132, 124, 130, 71), None),
    ('identity(2,3)', 10, 2718281828): ((3, 28, 54, 64, 126, 130, 151, 146, 132, 101, 65), None),
    ('constant(0)', 1, 5): ((0, 1000), None),
    ('constant(0)', 1, 2718281828): ((0, 1000), None),
    ('constant(0)', 4, 5): ((0, 0, 0, 0, 1000), None),
    ('constant(0)', 4, 2718281828): ((0, 0, 0, 0, 1000), None),
    ('constant(0)', 10, 5): ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1000), None),
    ('constant(0)', 10, 2718281828): ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1000), None),
    ('constant(1/2)', 1, 5): ((505, 495), None),
    ('constant(1/2)', 1, 2718281828): ((501, 499), None),
    ('constant(1/2)', 4, 5): ((66, 247, 362, 254, 71), None),
    ('constant(1/2)', 4, 2718281828): ((53, 246, 403, 236, 62), None),
    ('constant(1/2)', 10, 5): ((2, 7, 44, 109, 212, 237, 198, 135, 44, 11, 1), None),
    ('constant(1/2)', 10, 2718281828): ((0, 3, 44, 106, 236, 230, 218, 106, 46, 10, 1), None),
    ('constant(1)', 1, 5): ((1000, 0), None),
    ('constant(1)', 1, 2718281828): ((1000, 0), None),
    ('constant(1)', 4, 5): ((1000, 0, 0, 0, 0), None),
    ('constant(1)', 4, 2718281828): ((1000, 0, 0, 0, 0), None),
    ('constant(1)', 10, 5): ((1000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), None),
    ('constant(1)', 10, 2718281828): ((1000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), None),
    ('table(clamp)', 1, 5): ((505, 495), None),
    ('table(clamp)', 1, 2718281828): ((501, 499), None),
    ('table(clamp)', 4, 5): ((415, 62, 48, 61, 414), None),
    ('table(clamp)', 4, 2718281828): ((421, 50, 59, 59, 411), None),
    ('table(clamp)', 10, 5): ((415, 47, 12, 10, 10, 9, 10, 13, 9, 51, 414), None),
    ('table(clamp)', 10, 2718281828): ((421, 43, 16, 6, 10, 13, 8, 13, 11, 48, 411), None),
    ('table(tent)', 1, 5): ((715, 285), None),
    ('table(tent)', 1, 2718281828): ((691, 309), None),
    ('table(tent)', 4, 5): ((118, 528, 334, 16, 4), None),
    ('table(tent)', 4, 2718281828): ((107, 535, 330, 24, 4), None),
    ('table(tent)', 10, 5): ((2, 27, 214, 410, 285, 61, 1, 0, 0, 0, 0), None),
    ('table(tent)', 10, 2718281828): ((0, 17, 209, 429, 279, 60, 3, 2, 1, 0, 0), None),
}
GOLDEN_BITS = {
    ('polya(1,1)', 5): '1111111111111111110011111111111111111111',
    ('polya(1,1)', 2718281828): '1111111111111011101111111111111111011111',
    ('polya(3/2,2)', 5): '1011110110000100110010111010001011011100',
    ('polya(3/2,2)', 2718281828): '1111111111011010101011110101010011011110',
    ('urn:identity(1,1)', 5): '1111111111111111110011111111111111111111',
    ('urn:identity(1,1)', 2718281828): '1111111111111011101111111111111111011111',
    ('urn:identity(2,3)', 5): '1011110110000100110010111010001011011100',
    ('urn:identity(2,3)', 2718281828): '1010100111011010001011010101000001011010',
    ('urn:constant(0)', 5): '0000000000000000000000000000000000000000',
    ('urn:constant(0)', 2718281828): '0000000000000000000000000000000000000000',
    ('urn:constant(1/2)', 5): '1011110110000100110010110000001011011100',
    ('urn:constant(1/2)', 2718281828): '1010100111011010001011010101000001011010',
    ('urn:constant(1)', 5): '1111111111111111111111111111111111111111',
    ('urn:constant(1)', 2718281828): '1111111111111111111111111111111111111111',
    ('urn:table(clamp)', 5): '1111111111111111111111111111111111111111',
    ('urn:table(clamp)', 2718281828): '1111111111111111111111111111111111111111',
    ('urn:table(tent)', 5): '1011110110010111110010111010011011011101',
    ('urn:table(tent)', 2718281828): '1110101111011010001011110101010011011110',
    ('mixture:beta(1,1)', 5): '0010000100100010100000000011001100000010',
    ('mixture:beta(1,1)', 2718281828): '0101000010000001000000000000000000101100',
    ('mixture:beta(3/2,2)', 5): '0010000100100010100000000011001100000010',
    ('mixture:beta(3/2,2)', 2718281828): '0101000010000001000000000000000000101100',
    ('mixture:dirac(1/3)', 5): '0101101100001001000101000000000110011000',
    ('mixture:dirac(1/3)', 2718281828): '0001001110000100000010101000000000010101',
    ('mixture:dirac(0)', 5): '0000000000000000000000000000000000000000',
    ('mixture:dirac(0)', 2718281828): '0000000000000000000000000000000000000000',
    ('mixture:dirac(1)', 5): '1111111111111111111111111111111111111111',
    ('mixture:dirac(1)', 2718281828): '1111111111111111111111111111111111111111',
    ('mixture:twopoint(1/3,2/3)', 5): '0101101100001001000101000000000110011000',
    ('mixture:twopoint(1/3,2/3)', 2718281828): '0001001110000100000010101000000000010101',
    ('mixture:twopoint(0,2/3)', 5): '0000000000000000000000000000000000000000',
    ('mixture:twopoint(0,2/3)', 2718281828): '1111111110110100010111101010100110111101',
    ('mixture:threepoint(0,1/2,1)', 5): '0111101100001001100101100000010110111000',
    ('mixture:threepoint(0,1/2,1)', 2718281828): '0101001110110100010110101010000010110101',
    ('mixture:beta(1/2,1/3)', 5): '1001011111001011101001101101110100001011',
    ('mixture:beta(1/2,1/3)', 2718281828): '1101101000101101010101001101111011110001',
}


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "name, n, seed", sorted(GOLDEN_HISTOGRAMS), ids=lambda v: str(v)
    )
    def test_histogram_and_rows(self, name, n, seed):
        histogram, digest = GOLDEN_HISTOGRAMS[name, n, seed]
        report = golden_report(name, n, seed)
        assert report.zero_count_histogram == histogram
        assert (None if report.comparison is None else rows_digest(report)) == digest

    @pytest.mark.parametrize("name, seed", sorted(GOLDEN_BITS), ids=lambda v: str(v))
    def test_sequence(self, name, seed):
        assert bits(GOLDEN_SEQUENCES[name](seed)) == GOLDEN_BITS[name, seed]
