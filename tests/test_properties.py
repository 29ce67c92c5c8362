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
triple, on Beta, discrete and moment-sequence laws. The fused Monte Carlo
histograms of random Beta, discrete and urn specifications must equal the
per-bit sampling oracle count for count. Examples are capped and derandomized so the suite
costs a few seconds and repeats exactly.
"""

import sys
import threading
from fractions import Fraction

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hoeffding import (
    DeFinettiMeasure,
    InvalidMomentSequenceError,
    ReinforcementFunction,
    SymmetricFunction,
    UrnSpec,
    check_decomposable,
    compare_exact_empirical,
    decomposability_residual,
    hoeffding_decomposition,
    iid_projection,
    level_subspace_check,
    urn_histogram,
)
from hoeffding.rationals import binom
from conftest import (
    alternating_sum_config_probability,
    closed_form_config_probability,
    config_probability_oracle,
    enum_conditional_zero_count,
    enum_config_probability,
    first_negative_configuration,
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
def statistics(draw, max_n):
    n = draw(st.integers(1, max_n))
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


@pytest.mark.parametrize(
    "factory",
    [
        lambda: DeFinettiMeasure.beta(F(3, 2), 2),
        lambda: DeFinettiMeasure.discrete([(F(0), F(1, 4)), (F(2, 5), F(3, 4))]),
    ],
    ids=["beta", "discrete"],
)
def test_concurrent_fills_match_single_threaded_oracle(factory):
    # four threads extend one fresh row cache in different orders; a lost or
    # torn row would surface as a wrong entry or a wrong non-determinism bit
    max_order = 40
    schedules = [
        list(range(max_order + 1)),
        list(range(max_order, -1, -1)),
        list(range(0, max_order + 1, 2)) + list(range(1, max_order + 1, 2)),
        [max_order // 2, max_order] + list(range(max_order + 1)),
    ]
    measure = factory()
    expected = {
        n: ([config_probability_oracle(measure, n, j) for j in range(n + 1)],
            nondeterminism_scan(measure, n))
        for n in range(max_order + 1)
    }
    results = [[] for _ in schedules]
    start = threading.Barrier(len(schedules))

    def fill(schedule, out):
        start.wait()
        for n in schedule:
            row = [measure.config_probability(n, j) for j in range(n + 1)]
            out.append((n, row, measure.is_nondeterministic(n)))

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
        assert [n for n, _, _ in out] == schedule
        for n, row, nondeterministic in out:
            assert (row, nondeterministic) == expected[n]


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
