"""Property-based differential tests over random rational mixing laws.

Beta laws with small rational parameters and discrete laws with one to
three atoms in (0, 1) are drawn by hypothesis. The recurrence layers must
equal the Gram-matrix oracle of ``conftest`` exactly, and the subspace route
must agree with the residual route level by level. Examples are capped and
derandomized so the suite costs a few seconds and repeats exactly.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hoeffding import (
    DeFinettiMeasure,
    SymmetricFunction,
    decomposability_residual,
    hoeffding_decomposition,
    level_subspace_check,
)
from conftest import gram_decomposition

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
def discrete_laws(draw):
    locations = draw(st.lists(unit_rationals(), min_size=1, max_size=3, unique=True))
    masses = draw(
        st.lists(st.integers(1, 5), min_size=len(locations), max_size=len(locations))
    )
    total = sum(masses)
    return DeFinettiMeasure.discrete([(loc, F(m, total)) for loc, m in zip(locations, masses)])


measures = st.one_of(beta_laws(), discrete_laws())


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
