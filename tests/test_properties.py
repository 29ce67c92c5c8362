"""Property-based differential tests over random rational mixing laws.

Beta laws with small rational parameters and discrete laws with one to
three atoms in (0, 1), or in [0, 1] where endpoint atoms are allowed, are
drawn by hypothesis. The configuration-probability rows must equal the
closed-form and alternating-sum oracles of ``conftest``, the one-row
non-determinism test must equal the full scan, and moment validation must
reject at the scan's first negative entry, and the enumeration oracles must
equal the rows and their conditional quotients. The recurrence layers must
equal the Gram-matrix oracle exactly, the inclusion-exclusion projection of
a Dirac law must equal its layers, the subspace route must agree with the
residual route level by level, and the two residual maps of
``check_decomposable`` must satisfy the exact route identity at every
triple, on Beta, discrete and moment-sequence laws. The integer-row
residual routes must equal the ``Fraction`` oracles of ``conftest`` (the
residual maps and the witness of ``check_decomposable``, the overlap
conditional expectation and symmetrization on random statistics), raise
the same error classes, and read integer and reciprocal rows that equal
the configuration rows on their least common denominators. The fused Monte Carlo
histograms of random Beta, discrete and urn specifications must equal the
per-bit sampling oracle count for count. Examples are capped and derandomized so the suite
costs a few seconds and repeats exactly.
"""

import math
import sys
import threading
from fractions import Fraction

import pytest

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hoeffding import (
    BiSymmetricFunction,
    DeFinettiMeasure,
    DeterministicMeasureError,
    HoeffdingError,
    InvalidMomentSequenceError,
    OrderExceededError,
    ReinforcementFunction,
    SymmetricFunction,
    UrnSpec,
    check_decomposable,
    compare_exact_empirical,
    cond_expectation_overlap,
    decomposability_residual,
    hoeffding_decomposition,
    iid_projection,
    level_subspace_check,
    symmetrize,
    urn_histogram,
)
from hoeffding.rationals import binom
from conftest import (
    alternating_sum_config_probability,
    closed_form_config_probability,
    config_probability_oracle,
    enum_cond_expectation_overlap,
    enum_conditional_zero_count,
    enum_config_probability,
    enum_symmetrize,
    first_negative_configuration,
    fraction_check_decomposable,
    fraction_cond_expectation_overlap,
    fraction_decomposability_residual,
    fraction_symmetrize,
    gram_decomposition,
    nondeterminism_scan,
    reference_histogram,
)

F = Fraction

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def unit_rationals(draw):
    den = draw(st.integers(2, 12))
    return F(draw(st.integers(1, den - 1)), den)


@st.composite
def beta_laws(draw):
    alpha = F(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    beta = F(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    return DeFinettiMeasure.beta(alpha, beta)


@st.composite
def discrete_laws(draw, location=unit_rationals()):
    locations = draw(st.lists(location, min_size=1, max_size=3, unique=True))
    masses = draw(
        st.lists(st.integers(1, 5), min_size=len(locations), max_size=len(locations))
    )
    total = sum(masses)
    return DeFinettiMeasure.discrete([(loc, F(m, total)) for loc, m in zip(locations, masses)])


measures = st.one_of(beta_laws(), discrete_laws())
# endpoint atoms give zero configuration probabilities, and {0, 1} support
# gives deterministic laws
closed_form_laws = st.one_of(
    beta_laws(),
    discrete_laws(st.one_of(st.sampled_from([F(0), F(1)]), unit_rationals())),
)


@st.composite
def urn_specs(draw):
    unit = st.builds(F, st.integers(0, 12), st.just(12))
    kind = draw(st.sampled_from(["identity", "constant", "table"]))
    if kind == "identity":
        f = ReinforcementFunction.identity()
    elif kind == "constant":
        f = ReinforcementFunction.constant(draw(unit))
    else:
        inner = draw(st.lists(unit.filter(lambda x: 0 < x < 1), max_size=3, unique=True))
        abscissae = [F(0), *sorted(inner), F(1)]
        f = ReinforcementFunction.table([(x, draw(unit)) for x in abscissae])
    return UrnSpec(f=f, r=draw(st.integers(1, 5)), b=draw(st.integers(1, 5)))


@st.composite
def moment_laws(draw, max_order=10):
    """A MOMENTS measure from the first moments of a random law."""
    law = draw(closed_form_laws)
    order = draw(st.integers(0, max_order))
    return DeFinettiMeasure.from_moments([law.moment(k) for k in range(order + 1)])


@st.composite
def moment_sequences(draw):
    """mu_0 = 1 followed by random rationals in [0, 1], or by a random law's
    moments with one of them shifted; often not completely monotone."""
    if draw(st.booleans()):
        unit = st.builds(F, st.integers(0, 9), st.integers(1, 9)).filter(lambda v: v <= 1)
        return [F(1)] + draw(st.lists(unit, max_size=7))
    law = draw(closed_form_laws)
    values = [law.moment(k) for k in range(draw(st.integers(2, 8)) + 1)]
    index = draw(st.integers(1, len(values) - 1))
    values[index] += F(draw(st.integers(-4, 4)), draw(st.integers(8, 256)))
    return values


@st.composite
def statistics(draw, max_n, min_n=1):
    n = draw(st.integers(min_n, max_n))
    values = draw(
        st.lists(
            st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    return SymmetricFunction(tuple(values))


@SETTINGS
@given(measure=measures, statistic=statistics(8))
def test_recurrence_layers_equal_gram_oracle(measure, statistic):
    report = hoeffding_decomposition(statistic, measure)
    assert list(report.components) == gram_decomposition(statistic, measure)


@SETTINGS
@given(measure=measures, n=st.integers(2, 5))
def test_subspace_route_matches_residual_route(measure, n):
    residuals_vanish = all(
        decomposability_residual(measure, n, u, z) == 0
        for u in range(2, n + 1)
        for z in range(n)
    )
    assert level_subspace_check(measure, n) == residuals_vanish


@st.composite
def scan_laws(draw):
    """A non-deterministic law and a scan depth n_max. A moment-sequence law
    is truncated at or a little past order 2 n_max - 1, the highest order
    the scan reads."""
    law = draw(measures)
    n_max = draw(st.integers(2, 5))
    if draw(st.booleans()):
        order = 2 * n_max - 1 + draw(st.integers(0, 2))
        law = DeFinettiMeasure.from_moments([law.moment(k) for k in range(order + 1)])
    return law, n_max


@SETTINGS
@given(case=scan_laws())
def test_residual_maps_satisfy_route_identity(case):
    # weak(n,u,z) C(n-1,z) P_{n-1}(z) = residual(n,u,z) P_n(0), exactly
    measure, n_max = case
    report = check_decomposable(measure, n_max)
    assert len(report.residuals) == sum(n * (n - 1) for n in range(2, n_max + 1))
    probability = measure.config_probability
    for (n, u, z), residual in report.residuals.items():
        weak = report.cross_residuals[(n, u, z)]
        assert weak * binom(n - 1, z) * probability(n - 1, z) == residual * probability(n, 0)


@SETTINGS
@given(p=unit_rationals(), statistic=statistics(8))
def test_iid_projection_equals_dirac_layers(p, statistic):
    layers = hoeffding_decomposition(statistic, DeFinettiMeasure.dirac(p)).components
    for k in range(1, statistic.n + 1):
        assert iid_projection(statistic, p, k) == layers[k]


@SETTINGS
@given(
    measure=discrete_laws(st.one_of(st.sampled_from([F(0), F(1)]), unit_rationals())),
    n=st.integers(0, 10),
)
def test_enumeration_equals_rows(measure, n):
    assert [enum_config_probability(measure, n, j) for j in range(n + 1)] == [
        measure.config_probability(n, j) for j in range(n + 1)
    ]


@SETTINGS
@given(measure=discrete_laws(), n=st.integers(0, 4), v=st.integers(1, 3), data=st.data())
def test_enumeration_equals_conditional_zero_count(measure, n, v, data):
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(a, a + v))
    assert measure.conditional_zero_count(n, v, a, b) == enum_conditional_zero_count(
        measure, n, v, a, b
    )


@SETTINGS
@given(measure=closed_form_laws, n_max=st.integers(0, 12))
def test_rows_equal_closed_form(measure, n_max):
    for n in range(n_max + 1):
        for j in range(n + 1):
            assert measure.config_probability(n, j) == closed_form_config_probability(
                measure, n, j
            )


@SETTINGS
@given(measure=moment_laws())
def test_moment_rows_equal_alternating_sum(measure):
    for n in range(measure.max_order + 1):
        for j in range(n + 1):
            assert measure.config_probability(n, j) == alternating_sum_config_probability(
                measure.moment_values, n, j
            )


@SETTINGS
@given(
    measure=st.one_of(closed_form_laws, moment_laws(max_order=12)),
    n_max=st.integers(0, 12),
)
def test_one_row_nondeterminism_equals_full_scan(measure, n_max):
    if measure.max_order is not None:
        n_max = min(n_max, measure.max_order)
    assert measure.is_nondeterministic(n_max) == nondeterminism_scan(measure, n_max)


@SETTINGS
@given(values=moment_sequences())
def test_from_moments_rejects_at_first_negative_entry(values):
    expected = first_negative_configuration(values)
    if expected is None:
        assert DeFinettiMeasure.from_moments(values).moment_values == tuple(values)
    else:
        with pytest.raises(InvalidMomentSequenceError) as err:
            DeFinettiMeasure.from_moments(values)
        assert (err.value.order, err.value.zeros) == expected


def outcome(function, *args):
    """The value of ``function(*args)``, or the class of the library error
    it raises."""
    try:
        return function(*args)
    except HoeffdingError as exc:
        return type(exc)


def grid_of(result):
    return result if isinstance(result, type) else [list(row) for row in result.values]


@st.composite
def oracle_scan_laws(draw):
    """A non-deterministic Beta, discrete (endpoint atoms allowed) or
    moment-sequence law, and a scan depth n_max <= 8."""
    law = draw(closed_form_laws)
    n_max = draw(st.integers(2, 8))
    if draw(st.booleans()):
        order = 2 * n_max - 1 + draw(st.integers(0, 2))
        law = DeFinettiMeasure.from_moments([law.moment(k) for k in range(order + 1)])
    assume(law.is_nondeterministic(2 * n_max - 1))
    return law, n_max


@SETTINGS
@given(case=oracle_scan_laws())
def test_check_decomposable_equals_fraction_oracle(case):
    measure, n_max = case
    report = check_decomposable(measure, n_max)
    residuals, cross, witness = fraction_check_decomposable(measure, n_max)
    assert report.residuals == residuals
    assert report.cross_residuals == cross
    assert report.witness == witness


def test_three_atom_law_equals_fraction_oracle():
    # three unrelated atoms make the reciprocal-row denominators L_n grow
    # fast (about 3700 bits by n_max 20), so common denominators are large
    measure = DeFinettiMeasure.discrete([(F(2, 7), F(1, 3)), (F(5, 11), F(1, 3)), (F(9, 10), F(1, 3))])
    report = check_decomposable(measure, 14)
    residuals, cross, witness = fraction_check_decomposable(measure, 14)
    assert report.residuals == residuals
    assert report.cross_residuals == cross
    assert report.witness == witness == (2, 2, 0)


# every closed-form law, the {0, 1} two-atom law included, and moment
# sequences whose truncation a residual or an overlap may read past
parity_laws = st.one_of(closed_form_laws, moment_laws(max_order=8))


@SETTINGS
@given(measure=parity_laws, statistic=statistics(8, min_n=2), data=st.data())
def test_overlap_and_symmetrize_equal_fraction_oracles(measure, statistic, data):
    u = data.draw(st.integers(2, statistic.n))
    grid = outcome(cond_expectation_overlap, statistic, measure, u)
    expected = outcome(fraction_cond_expectation_overlap, statistic, measure, u)
    assert grid_of(grid) == expected
    if not isinstance(grid, type):
        assert list(symmetrize(grid).values) == fraction_symmetrize(expected)


@SETTINGS
@given(measure=parity_laws, n=st.integers(2, 6), data=st.data())
def test_residual_equals_fraction_oracle(measure, n, data):
    u = data.draw(st.integers(2, n))
    z = data.draw(st.integers(0, n - 1))
    assert outcome(decomposability_residual, measure, n, u, z) == outcome(
        fraction_decomposability_residual, measure, n, u, z
    )


@SETTINGS
@given(
    measure=discrete_laws(st.one_of(st.sampled_from([F(0), F(1)]), unit_rationals())),
    statistic=statistics(5, min_n=2),
    data=st.data(),
)
def test_overlap_equals_enumeration(measure, statistic, data):
    assume(measure.is_nondeterministic(2 * statistic.n - 1))
    u = data.draw(st.integers(2, statistic.n))
    assert grid_of(cond_expectation_overlap(statistic, measure, u)) == (
        enum_cond_expectation_overlap(measure, statistic.values, u)
    )


@SETTINGS
@given(v=st.integers(0, 3), w=st.integers(0, 3), data=st.data())
def test_symmetrize_equals_oracles_on_random_grids(v, w, data):
    cell = st.builds(F, st.integers(-9, 9), st.integers(1, 30))
    grid = [[data.draw(cell) for _ in range(w + 1)] for _ in range(v + 1)]
    values = list(symmetrize(BiSymmetricFunction(tuple(map(tuple, grid)))).values)
    assert values == fraction_symmetrize(grid) == enum_symmetrize(grid, v, w)


def test_two_atom_endpoint_law_raises_like_the_oracles():
    # the law itself, and its moments mu_0 = 1, mu_k = 2/3 up to order 6
    for measure in (
        DeFinettiMeasure.discrete([(F(0), F(1, 3)), (F(1), F(2, 3))]),
        DeFinettiMeasure.from_moments([1] + [F(2, 3)] * 6),
    ):
        with pytest.raises(DeterministicMeasureError):
            decomposability_residual(measure, 2, 2, 0)
        with pytest.raises(DeterministicMeasureError):
            fraction_decomposability_residual(measure, 2, 2, 0)
        statistic = SymmetricFunction((F(1), F(-2), F(3), F(-4)))
        with pytest.raises(DeterministicMeasureError):
            cond_expectation_overlap(statistic, measure, 2)
        with pytest.raises(DeterministicMeasureError):
            fraction_cond_expectation_overlap(statistic, measure, 2)


def test_moment_cap_raises_like_the_oracles():
    measure = DeFinettiMeasure.truncated_uniform(F(1, 2), 4)
    with pytest.raises(OrderExceededError):
        decomposability_residual(measure, 3, 3, 0)
    with pytest.raises(OrderExceededError):
        fraction_decomposability_residual(measure, 3, 3, 0)
    statistic = SymmetricFunction((F(1), F(-2), F(3), F(-4)))
    with pytest.raises(OrderExceededError):
        cond_expectation_overlap(statistic, measure, 3)
    with pytest.raises(OrderExceededError):
        fraction_cond_expectation_overlap(statistic, measure, 3)


def test_overlap_reports_zero_conditioning_before_truncation():
    # the point mass at 0 truncated at order 3: the overlap at n = 3, u = 2
    # divides by P_2(0) = 0 before it reads order 4, past the truncation
    measure = DeFinettiMeasure.from_moments([1, 0, 0, 0])
    statistic = SymmetricFunction((F(1), F(-2), F(3), F(-4)))
    with pytest.raises(DeterministicMeasureError):
        cond_expectation_overlap(statistic, measure, 2)
    with pytest.raises(DeterministicMeasureError):
        fraction_cond_expectation_overlap(statistic, measure, 2)


@SETTINGS
@given(measure=st.one_of(closed_form_laws, moment_laws(max_order=12)), n=st.integers(0, 12))
def test_integer_rows_are_the_rows_on_least_denominators(measure, n):
    if measure.max_order is not None:
        n = min(n, measure.max_order)
    row = measure._row(n)
    ints, common = measure._int_row(n)
    assert [F(i, common) for i in ints] == list(row)
    # common is a multiple of every denominator, and no smaller one is:
    # the cofactors common / denominator share no prime
    cofactors = [common // p.denominator for p in row]
    assert all(c * p.denominator == common for c, p in zip(cofactors, row))
    assert math.gcd(*cofactors) == 1
    if all(p > 0 for p in row):
        reciprocals, reciprocal_common = measure._reciprocal_row(n)
        assert all(F(r, reciprocal_common) * p == 1 for r, p in zip(reciprocals, row))
        cofactors = [reciprocal_common // p.numerator for p in row]
        assert all(c * p.numerator == reciprocal_common for c, p in zip(cofactors, row))
        assert math.gcd(*cofactors) == 1
    else:
        with pytest.raises(DeterministicMeasureError):
            measure._reciprocal_row(n)


def integer_rows_oracle(row):
    common = math.lcm(*(p.denominator for p in row))
    ints = tuple(p.numerator * (common // p.denominator) for p in row)
    if any(p == 0 for p in row):
        return (ints, common), DeterministicMeasureError
    reciprocal_common = math.lcm(*(p.numerator for p in row))
    return (ints, common), (
        tuple(p.denominator * (reciprocal_common // p.numerator) for p in row),
        reciprocal_common,
    )


@pytest.mark.parametrize(
    "factory",
    [
        lambda: DeFinettiMeasure.beta(F(3, 2), 2),
        lambda: DeFinettiMeasure.discrete([(F(0), F(1, 4)), (F(2, 5), F(3, 4))]),
        lambda: DeFinettiMeasure.discrete([(F(0), F(1, 3)), (F(1), F(2, 3))]),
    ],
    ids=["beta", "discrete", "endpoints"],
)
def test_concurrent_fills_match_single_threaded_oracle(factory):
    # four threads extend fresh row, integer-row, reciprocal-row and
    # non-determinism caches in different orders; a lost or torn entry would
    # surface as a wrong row or a wrong non-determinism bit. On the {0, 1}
    # endpoint law only orders 0 and 1 are non-deterministic, so a cache
    # that stored an unverified order would answer True above them.
    max_order = 40
    schedules = [
        list(range(max_order + 1)),
        list(range(max_order, -1, -1)),
        list(range(0, max_order + 1, 2)) + list(range(1, max_order + 1, 2)),
        [max_order // 2, max_order] + list(range(max_order + 1)),
    ]
    measure = factory()
    expected = {}
    for n in range(max_order + 1):
        row = [config_probability_oracle(measure, n, j) for j in range(n + 1)]
        expected[n] = (row, nondeterminism_scan(measure, n), *integer_rows_oracle(row))
    results = [[] for _ in schedules]
    start = threading.Barrier(len(schedules))

    def fill(schedule, out):
        start.wait()
        for n in schedule:
            nondeterministic = measure.is_nondeterministic(n)
            int_row = measure._int_row(n)
            reciprocal_row = outcome(measure._reciprocal_row, n)
            row = [measure.config_probability(n, j) for j in range(n + 1)]
            out.append((n, (row, nondeterministic, int_row, reciprocal_row)))

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=fill, args=(schedule, out))
            for schedule, out in zip(schedules, results)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous_interval)
    assert not any(thread.is_alive() for thread in threads)
    for schedule, out in zip(schedules, results):
        assert [n for n, _ in out] == schedule
        for n, observed in out:
            assert observed == expected[n]
    verified = measure._positive_order[0]
    assert verified == -1 or nondeterminism_scan(measure, verified)


@SETTINGS
@given(
    source=st.one_of(closed_form_laws, urn_specs()),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
)
def test_fused_histogram_equals_per_bit_oracle(source, n, seed):
    if isinstance(source, UrnSpec):
        report = urn_histogram(source, n, 1000, seed)
    else:
        report = compare_exact_empirical(source, n, 1000, seed)
    assert list(report.zero_count_histogram) == reference_histogram(source, n, 1000, seed)
