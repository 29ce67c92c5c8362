"""Property-based differential tests over random rational mixing laws.

Beta laws with small rational parameters and discrete laws with one to
three atoms in (0, 1), or in [0, 1] where endpoint atoms are allowed, are
drawn by hypothesis. The configuration-probability rows must equal the
closed-form and alternating-sum oracles of ``conftest``, the one-row
non-determinism test must equal the full scan, and moment validation must
reject at the scan's first negative entry, on short random sequences and
on long perturbed moment sequences, and the enumeration oracles must
equal the rows and their conditional quotients. The integer and
reciprocal rows, filled in random order up to order 63, must equal the
oracle rows on their least common denominators, and the configuration
probabilities read from them must equal ``fraction_rows``, the recurrence by
``Fraction`` subtraction. The recurrence layers must
equal the Gram-matrix oracle exactly, the inclusion-exclusion projection of
a Dirac law must equal its layers, the subspace route must agree with the
residual route level by level, and the two residual maps of
``check_decomposable`` must satisfy the exact route identity at every
triple, on Beta, discrete and moment-sequence laws. The integer-row
residual routes must equal the ``Fraction`` oracles of ``conftest`` (the
residual maps and the witness of ``check_decomposable``, the overlap
conditional expectation and symmetrization on random statistics), raise
the same error classes, and read integer and reciprocal rows that equal
the configuration rows on their least common denominators. The weak-route
row, scaled from the primary residual numerators, must equal the composed
``Fraction`` oracles of the canonical kernel's overlap conditional
expectation, symmetrized, and
``classify`` must equal ``scan_classify``, its full-scan oracle, on
random laws, perturbed point masses and finite urns, and on Beta moment
sequences perturbed past the compared moment orders. Discrete moments
must equal the sum over atoms at every order up to 63. The fused Monte Carlo
histograms of random Beta, discrete and urn specifications must equal the
per-bit sampling oracle count for count, the lane-packed histogram kernel
must equal the scalar loop on random knot tables, raw limit rows and atom
picks across chunk boundaries, with limits that equal drawn words, the
identity urn's limit table must equal the Polya rule's oracle table for
rational, integer and float parameters, and the two-knot tables must
return exactly the proportion and the constant. Examples are capped and
derandomized so the suite costs a few seconds and repeats exactly.
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
    classify,
    compare_exact_empirical,
    cond_expectation_overlap,
    decomposability_residual,
    cond_expectation_prefix,
    hoeffding_decomposition,
    iid_projection,
    inner_product,
    level_subspace_check,
    lift_ustatistic,
    sample_mixture,
    sample_polya,
    symmetrize,
    urn_histogram,
)
from hoeffding.engine import _reciprocal_row, _residual_numerators, _weak_residual_row
from hoeffding.linalg import orthogonal_polynomials
from hoeffding.montecarlo import _LANES, _histogram, _limit_table, trial_stream
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
    fraction_canonical_kernel,
    fraction_check_decomposable,
    fraction_cond_expectation_overlap,
    fraction_cond_expectation_prefix,
    fraction_decomposability_residual,
    fraction_hoeffding_layers,
    fraction_inner_product,
    fraction_lift_ustatistic,
    fraction_orthogonal_polynomials,
    fraction_rows,
    fraction_symmetrize,
    gram_decomposition,
    inner_product_subspace_check,
    nondeterminism_scan,
    polya_limit_table,
    reference_histogram,
    scalar_histogram,
    scan_classify,
    urn_law,
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


@st.composite
def long_moment_sequences(draw):
    """A random law's moments up to order 12..24 with one of them shifted
    by a small amount, so the first negative entry can lie rows past the
    shifted order, in rows with large common denominators."""
    law = draw(closed_form_laws)
    values = [law.moment(k) for k in range(draw(st.integers(12, 24)) + 1)]
    index = draw(st.integers(1, len(values) - 1))
    values[index] += F(draw(st.integers(-3, 3)), 2 ** draw(st.integers(4, 40)))
    return values


@SETTINGS
@given(values=st.one_of(moment_sequences(), long_moment_sequences()))
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


@SETTINGS
@given(measure=st.one_of(closed_form_laws, moment_laws(max_order=12)), n=st.integers(2, 6))
def test_subspace_route_equals_inner_product_oracle(measure, n):
    # endpoint atoms give deterministic laws, and moment laws truncated
    # below order 2n-1 cannot be read that far: both sides raise alike
    assert outcome(level_subspace_check, measure, n) == outcome(
        inner_product_subspace_check, measure, n
    )


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


def assert_weak_rows_equal_fraction_oracle(measure, n):
    kernel = fraction_canonical_kernel(measure, n)
    for u in range(2, n + 1):
        expected = fraction_symmetrize(fraction_cond_expectation_overlap(kernel, measure, u))
        numerators, common = _residual_numerators(measure, n, u, reciprocal_row(measure, n))
        assert list(_weak_residual_row(measure, n, u, numerators, common).values) == expected


@SETTINGS
@given(measure=measures, n=st.integers(2, 12))
def test_weak_row_equals_fraction_oracle(measure, n):
    assert_weak_rows_equal_fraction_oracle(measure, n)


def test_weak_rows_of_three_atom_law_equal_fraction_oracle():
    measure = DeFinettiMeasure.discrete([(F(2, 7), F(1, 3)), (F(5, 11), F(1, 3)), (F(9, 10), F(1, 3))])
    for n in range(2, 13):
        assert_weak_rows_equal_fraction_oracle(measure, n)


def perturbed(draw, law, order, m):
    """The moments of law up to order, with moment m moved by a small
    rational.

    Moving mu_m by e moves an entry of row n >= m by at most 2^n |e|, so a
    move below the least row entry over 2^(order+1) keeps every row
    positive."""
    least = min(law.config_probability(n, j) for n in range(order + 1) for j in range(n + 1))
    shift = least / 2 ** (order + 1) * F(draw(st.integers(1, 9)), 10)
    values = [law.moment(k) for k in range(order + 1)]
    values[m] += shift if draw(st.booleans()) else -shift
    return DeFinettiMeasure.from_moments(values)


@st.composite
def classify_laws(draw):
    """A Beta, Dirac, 2-4-atom, truncated uniform, short moment-sequence,
    perturbed point-mass or finite urn law, and a depth n_max. The short
    moment sequences stop below 2 n_max - 1, so most of them are
    INCONCLUSIVE."""
    n_max = draw(st.integers(3, 8))
    kind = draw(
        st.sampled_from(["beta", "dirac", "atoms", "uniform", "short", "point", "urn"])
    )
    if kind == "beta":
        return draw(beta_laws()), n_max
    if kind == "dirac":
        return DeFinettiMeasure.dirac(draw(unit_rationals())), n_max
    if kind == "atoms":
        locations = draw(st.lists(unit_rationals(), min_size=2, max_size=4, unique=True))
        masses = draw(
            st.lists(st.integers(1, 5), min_size=len(locations), max_size=len(locations))
        )
        total = sum(masses)
        return DeFinettiMeasure.discrete(
            [(loc, F(mass, total)) for loc, mass in zip(locations, masses)]
        ), n_max
    if kind == "uniform":
        order = draw(st.integers(2 * n_max - 1, 3 * n_max))
        return DeFinettiMeasure.truncated_uniform(draw(unit_rationals()), order), n_max
    if kind == "point":
        order = draw(st.integers(n_max, 2 * n_max + 1))
        law = DeFinettiMeasure.dirac(draw(unit_rationals()))
        return perturbed(draw, law, order, draw(st.integers(3, order))), n_max
    if kind == "urn":
        sizes = st.integers(n_max, 2 * n_max + 3)
        return urn_law(draw(sizes), draw(sizes)), n_max
    law = draw(measures)
    order = draw(st.integers(0, 2 * n_max - 2))
    return DeFinettiMeasure.from_moments([law.moment(k) for k in range(order + 1)]), n_max


@SETTINGS
@given(case=classify_laws())
def test_classify_equals_full_scan_oracle(case):
    measure, n_max = case
    assert outcome(classify, measure, n_max) == outcome(scan_classify, measure, n_max)


@st.composite
def perturbed_beta_laws(draw):
    """The moments of a Beta law up to a little past order 2 n_max - 1,
    with moment m, n_max < m <= 2 n_max - 1, moved by a small rational."""
    law = draw(beta_laws())
    n_max = draw(st.integers(3, 7))
    order = 2 * n_max - 1 + draw(st.integers(0, 2))
    m = draw(st.integers(n_max + 1, 2 * n_max - 1))
    return perturbed(draw, law, order, m), n_max, m


@SETTINGS
@given(case=perturbed_beta_laws())
def test_classify_residual_witness_equals_full_scan_oracle(case):
    # the first mismatch lies past the compared moment orders, so the
    # witness is the first triple that reads moment m
    measure, n_max, m = case
    result = classify(measure, n_max)
    assert result == scan_classify(measure, n_max)
    assert result.witness == (m // 2 + 1, (m + 1) // 2, 0)


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


def reciprocal_row(measure, n):
    """The engine's reciprocal row of order n, from the measure's integer row."""
    return _reciprocal_row(*measure._int_row(n))


def integer_row_residual(measure, n, u, z):
    """The residual at (n, u, z) as the scan reads it: one numerator of the
    integer row (n, u) over its common denominator."""
    measure.require_nondeterministic(n + u - 1)
    numerators, common = _residual_numerators(measure, n, u, reciprocal_row(measure, n))
    return F(numerators[z], common)


@SETTINGS
@given(measure=parity_laws, n=st.integers(2, 6), data=st.data())
def test_residual_equals_fraction_oracle(measure, n, data):
    u = data.draw(st.integers(2, n))
    z = data.draw(st.integers(0, n - 1))
    assert outcome(integer_row_residual, measure, n, u, z) == outcome(
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
            integer_row_residual(measure, 2, 2, 0)
        with pytest.raises(DeterministicMeasureError):
            fraction_decomposability_residual(measure, 2, 2, 0)
        statistic = SymmetricFunction((F(1), F(-2), F(3), F(-4)))
        with pytest.raises(DeterministicMeasureError):
            cond_expectation_overlap(statistic, measure, 2)
        with pytest.raises(DeterministicMeasureError):
            fraction_cond_expectation_overlap(statistic, measure, 2)


def test_deterministic_row_is_reported_before_truncation():
    # the law with atoms 0 and 1 truncated at order 3: P_2(0) > 0 but
    # P_2(1) = 0, so conditioning on order 2 fails before orders 4 and 5
    # are read
    measure = DeFinettiMeasure.from_moments([1] + [F(2, 3)] * 3)
    overlap = SymmetricFunction((F(1), F(-2), F(3), F(-4)))
    prefix = SymmetricFunction(tuple(F(z) for z in range(6)))
    for function, statistic, index in [
        (cond_expectation_overlap, overlap, 2),
        (fraction_cond_expectation_overlap, overlap, 2),
        (cond_expectation_prefix, prefix, 2),
        (fraction_cond_expectation_prefix, prefix, 2),
    ]:
        with pytest.raises(DeterministicMeasureError):
            function(statistic, measure, index)


def test_moment_cap_raises_like_the_oracles():
    measure = DeFinettiMeasure.truncated_uniform(F(1, 2), 4)
    with pytest.raises(OrderExceededError):
        decomposability_residual(measure, 3, 3, 0)
    with pytest.raises(OrderExceededError):
        integer_row_residual(measure, 3, 3, 0)
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


@st.composite
def layer_cases(draw):
    """A Beta, discrete (endpoint atoms allowed) or moment-sequence law and
    a statistic of arity <= 16. A moment-sequence law is truncated within
    two orders of the arity, on either side of it."""
    law = draw(closed_form_laws)
    statistic = draw(statistics(16, min_n=0))
    if draw(st.booleans()):
        order = max(0, statistic.n + draw(st.integers(-2, 2)))
        law = DeFinettiMeasure.from_moments([law.moment(k) for k in range(order + 1)])
    return law, statistic


@SETTINGS
@given(case=layer_cases())
def test_layers_equal_fraction_recurrence_and_gram_oracle(case):
    measure, statistic = case
    layers = outcome(hoeffding_decomposition, statistic, measure)
    expected = outcome(fraction_hoeffding_layers, statistic, measure)
    assert (layers if isinstance(layers, type) else list(layers.components)) == expected
    if statistic.n <= 8 and not isinstance(expected, type):
        assert expected == gram_decomposition(statistic, measure)


@SETTINGS
@given(measure=closed_form_laws, n=st.integers(0, 16))
def test_integer_polynomials_are_primitive_multiples_of_monic_ones(measure, n):
    assume(measure.is_nondeterministic(n))
    ints, common = measure._int_row(n)
    weights = [math.comb(n, z) * p for z, p in enumerate(ints)]
    monic = fraction_orthogonal_polynomials([F(w, common) for w in weights])
    for (q, norm), (expected, expected_norm) in zip(orthogonal_polynomials(weights), monic):
        assert all(type(x) is int for x in q) and math.gcd(*q) == 1
        # a positive multiple c of the monic polynomial, with norm
        # c^2 D_n <q_k, q_k> under the integer weights
        z = next(z for z, x in enumerate(expected) if x != 0)
        c = F(q[z]) / expected[z]
        assert c > 0 and [F(x) for x in q] == [c * x for x in expected]
        assert norm == c * c * common * expected_norm


@SETTINGS
@given(measure=parity_laws, t1=statistics(10, min_n=0), data=st.data())
def test_inner_product_equals_fraction_oracle(measure, t1, data):
    # one draw in four has a mismatched arity
    n = t1.n + data.draw(st.sampled_from([0, 0, 0, 1]))
    t2 = data.draw(statistics(n, min_n=n))
    assert outcome(inner_product, t1, t2, measure) == outcome(
        fraction_inner_product, t1, t2, measure
    )


@SETTINGS
@given(kernel=statistics(6, min_n=0), n=st.integers(0, 10))
def test_lift_equals_fraction_oracle(kernel, n):
    assert outcome(lift_ustatistic, kernel, n) == outcome(fraction_lift_ustatistic, kernel, n)


@SETTINGS
@given(measure=parity_laws, statistic=statistics(10, min_n=0), data=st.data())
def test_prefix_conditional_equals_fraction_oracle(measure, statistic, data):
    a = data.draw(st.integers(-1, statistic.n + 1))
    assert outcome(cond_expectation_prefix, statistic, measure, a) == outcome(
        fraction_cond_expectation_prefix, statistic, measure, a
    )


def test_prefix_conditional_reports_zero_conditioning_before_truncation():
    # the point mass at 0 truncated at order 3: conditioning on two
    # observations divides by P_2(0) = 0 before it reads order 5
    measure = DeFinettiMeasure.from_moments([1, 0, 0, 0])
    statistic = SymmetricFunction(tuple(F(z) for z in range(6)))
    with pytest.raises(DeterministicMeasureError):
        cond_expectation_prefix(statistic, measure, 2)
    with pytest.raises(DeterministicMeasureError):
        fraction_cond_expectation_prefix(statistic, measure, 2)


@SETTINGS
@given(measure=beta_laws(), orders=st.lists(st.integers(0, 63), min_size=1, max_size=6))
def test_beta_moments_equal_product_formula(measure, orders):
    # the orders come in random sequence, so the table fills in random steps
    a, b = measure.beta_alpha, measure.beta_beta
    for n in orders + [63]:
        expected = F(1)
        for i in range(n):
            expected *= (a + i) / (a + b + i)
        assert measure.moment(n) == expected


@SETTINGS
@given(
    measure=discrete_laws(st.one_of(st.sampled_from([F(0), F(1)]), unit_rationals())),
    orders=st.lists(st.integers(0, 63), min_size=1, max_size=6),
)
def test_discrete_moments_equal_sum_formula(measure, orders):
    # the orders come in random sequence, so the table fills in random steps
    for n in orders + [63]:
        assert measure.moment(n) == sum((w * loc**n for loc, w in measure.atoms), F(0))


@SETTINGS
@given(measure=st.one_of(closed_form_laws, moment_laws(max_order=12)), n=st.integers(0, 12))
def test_integer_rows_are_the_rows_on_least_denominators(measure, n):
    if measure.max_order is not None:
        n = min(n, measure.max_order)
    row = [measure.config_probability(n, j) for j in range(n + 1)]
    ints, common = measure._int_row(n)
    assert [F(i, common) for i in ints] == list(row)
    # common is a multiple of every denominator, and no smaller one is:
    # the cofactors common / denominator share no prime
    cofactors = [common // p.denominator for p in row]
    assert all(c * p.denominator == common for c, p in zip(cofactors, row))
    assert math.gcd(*cofactors) == 1
    if all(p > 0 for p in row):
        reciprocals, reciprocal_common = reciprocal_row(measure, n)
        assert all(F(r, reciprocal_common) * p == 1 for r, p in zip(reciprocals, row))
        cofactors = [reciprocal_common // p.numerator for p in row]
        assert all(c * p.numerator == reciprocal_common for c, p in zip(cofactors, row))
        assert math.gcd(*cofactors) == 1
    else:
        with pytest.raises(DeterministicMeasureError):
            reciprocal_row(measure, n)


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


@SETTINGS
@given(
    measure=st.one_of(
        beta_laws(),
        discrete_laws(st.one_of(st.sampled_from([F(0), F(1)]), unit_rationals())),
        moment_laws(max_order=63),
    ),
    orders=st.lists(st.integers(0, 63), min_size=1, max_size=3),
)
def test_integer_rows_equal_oracle_rows(measure, orders):
    # the orders come in random sequence, so the table extends
    # from the highest cached order in random steps
    cap = measure.max_order
    for n in (orders if cap is None else [min(n, cap) for n in orders]):
        row = [config_probability_oracle(measure, n, j) for j in range(n + 1)]
        int_row, reciprocals = integer_rows_oracle(row)
        assert measure._int_row(n) == int_row
        assert outcome(reciprocal_row, measure, n) == reciprocals
        probabilities = [measure.config_probability(n, j) for j in range(n + 1)]
        assert probabilities == row == list(fraction_rows(measure, n)[n])


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
    # four threads extend one fresh table of orders (moment, integer row,
    # positivity) in different orders and read the engine's reciprocal row
    # from it; a lost or torn record would surface as a wrong row or a
    # wrong non-determinism bit. On the {0, 1} endpoint law only orders 0
    # and 1 are non-deterministic, so a record that stored the positivity
    # of another row would answer True above them.
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
        # mu_n = P_n(0): the product formula, or the sum over atoms
        moment = closed_form_config_probability(measure, n, 0)
        expected[n] = (
            moment, row, nondeterminism_scan(measure, n), *integer_rows_oracle(row)
        )
    results = [[] for _ in schedules]
    start = threading.Barrier(len(schedules))

    def fill(schedule, out):
        start.wait()
        for n in schedule:
            nondeterministic = measure.is_nondeterministic(n)
            int_row = measure._int_row(n)
            reciprocals = outcome(reciprocal_row, measure, n)
            row = [measure.config_probability(n, j) for j in range(n + 1)]
            moment = measure.moment(n)
            out.append((n, (moment, row, nondeterministic, int_row, reciprocals)))

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
    # every stored record, its positivity bit included, is the oracle's
    assert measure._orders == {
        n: (moment, *int_row, nondeterministic)
        for n, (moment, _, nondeterministic, int_row, _) in expected.items()
    }


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


# limits of one bit: never, always, and any uniform in between
limits = st.sampled_from([0, 2**53]) | st.integers(0, 2**53)


@st.composite
def limit_tables(draw, n, values):
    """A knot table's limits at a random composition, or rows of ``values``."""
    if draw(st.booleans()):
        spec = draw(urn_specs())
        return _limit_table(spec.f, spec.r, spec.b, n)
    return [draw(st.lists(values, min_size=m + 1, max_size=m + 1)) for m in range(n)]


@SETTINGS
@given(
    data=st.data(),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    trials=st.sampled_from([1, _LANES - 1, _LANES, _LANES + 1])
    | st.integers(1, 3 * _LANES + 5),
)
def test_lane_packed_histogram_equals_scalar_loop(data, n, seed, trials):
    # a limit equal to a trial's first or second word tells < from <=
    words = []
    for trial in range(min(trials, 4)):
        rng = trial_stream(seed, trial)
        words += [rng.next_word() >> 11, rng.next_word() >> 11]
    values = limits | st.sampled_from(words)
    picks = sorted(data.draw(st.lists(values, max_size=3)))
    tables = [data.draw(limit_tables(n, values)) for _ in range(len(picks) + 1)]
    assert _histogram(tables, picks, n, trials, seed) == scalar_histogram(
        tables, picks, n, trials, seed
    )


# positive Polya parameters: small rationals, integers and floats
polya_parameters = st.one_of(
    st.builds(F, st.integers(1, 60), st.integers(1, 12)),
    st.integers(1, 60),
    st.floats(min_value=0.0, max_value=1e6, exclude_min=True, allow_nan=False),
)


@SETTINGS
@given(alpha=polya_parameters, beta=polya_parameters, n=st.integers(0, 12))
def test_identity_limit_table_is_the_polya_rule(alpha, beta, n):
    identity = ReinforcementFunction.identity()
    assert _limit_table(identity, alpha, beta, n) == polya_limit_table(alpha, beta, n)


@SETTINGS
@given(
    alpha=st.builds(F, st.integers(1, 60), st.integers(1, 12)),
    beta=st.builds(F, st.integers(1, 60), st.integers(1, 12)),
    n=st.integers(1, 40),
    seed=st.integers(),
)
def test_beta_mixture_is_its_polya_urn(alpha, beta, n, seed):
    # de Finetti: the Beta(alpha, beta) mixture of i.i.d. bits is the Polya
    # urn of composition (alpha, beta), and both draw its bits the same way
    measure = DeFinettiMeasure.beta(alpha, beta)
    assert sample_mixture(measure, n, seed) == sample_polya(alpha, beta, n, seed)


@SETTINGS
@given(
    x=st.builds(F, st.integers(0, 10**6), st.just(10**6)) | unit_rationals(),
    c=st.builds(F, st.integers(0, 10**6), st.just(10**6)) | unit_rationals(),
)
def test_two_knot_tables_return_the_proportion_and_the_constant(x, c):
    assert ReinforcementFunction.identity()(x) == x
    assert ReinforcementFunction.constant(c)(x) == c
