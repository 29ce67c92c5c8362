"""Shared test measures, configuration-probability oracles (among them
``fraction_rows``, the marginalisation recurrence in ``Fraction``
arithmetic), the ``Fraction`` residual-route oracles, the degenerate
kernel by forward substitution, brute-force
enumeration oracles, the Gram oracle, ``scan_classify`` (classification
by the full residual scan), the ``Fraction`` layer-path oracles (the
Stieltjes recurrence, the inner product, the lift and the prefix
conditional expectation), the per-bit sampling oracle, and the
scaffolding only tests use: ``render_report`` and ``parse_report`` (the
JSON report round trip), the finite urn law, the two-term degeneracy
residual, the affine-predictive helpers, the moment-region sampler,
``child_env`` (the environment of a child interpreter that imports this
source tree) and ``run_optimized`` (a script under ``python -O``).

The oracles are deliberately naive: they evaluate configuration
probabilities by per-kind closed forms or alternating binomial sums,
enumerate binary configurations (or permutations, or subsets) and weight
them with per-atom mixture probabilities, or project by Gauss-Jordan solves
of Gram matrices. They share no code with the library paths they check, so
exact agreement between the two is meaningful. The sampling oracle shares
only the specified generator (``trial_stream`` and ``SplitMix64.random``)
and compares float uniforms with float probabilities, bit by bit.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest

import hoeffding
from hoeffding import (
    ArityMismatchError,
    Classification,
    ClassificationKind,
    DecomposabilityReport,
    DeFinettiMeasure,
    DeterministicMeasureError,
    HoeffdingDecomposition,
    IndexRangeError,
    InternalError,
    MeasureKind,
    ParameterRangeError,
    ParseError,
    SampleReport,
    SymmetricFunction,
    UrnSpec,
    Verdict,
    check_decomposable,
)
from hoeffding.cli import (
    _render_classification,
    _render_decomposability,
    _render_decomposition,
    _render_sample,
)
from hoeffding.montecarlo import ComparisonRow, trial_stream
from hoeffding.rationals import parse_rational

F = Fraction

# |z| threshold of the statistical assertions: two-sided false-alarm
# probability about 6e-5 per cell.
DEFAULT_Z_THRESHOLD = 4.0
# Seed for the reproducible sampling of the moment region S; override per call.
DEFAULT_REGION_SEED = 1729


def beta11():
    return DeFinettiMeasure.beta(1, 1)


def beta32():
    return DeFinettiMeasure.beta(F(3, 2), 2)


def beta23():
    return DeFinettiMeasure.beta(2, 3)


def dirac13():
    return DeFinettiMeasure.dirac(F(1, 3))


def dirac12():
    return DeFinettiMeasure.dirac(F(1, 2))


def unif_half():
    return DeFinettiMeasure.truncated_uniform(F(1, 2), 12)


def twopoint():
    return DeFinettiMeasure.discrete([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])


def urn_law(ones, zeros):
    """Draws without replacement from an urn of ones and zeros: the
    exchangeable law on {0,1}^(ones+zeros), formally Beta(-ones, -zeros),
    which is no mixture of i.i.d. laws."""
    values = [F(1)]
    for i in range(ones + zeros):
        values.append(values[-1] * F(ones - i, ones + zeros - i))
    return DeFinettiMeasure.from_moments(values)


DECOMPOSABLE_FACTORIES = [beta11, beta32, beta23, dirac13, dirac12]
NON_DECOMPOSABLE_FACTORIES = [unif_half, twopoint]
ALL_FACTORIES = DECOMPOSABLE_FACTORIES + NON_DECOMPOSABLE_FACTORIES


def all_measures():
    return [factory() for factory in ALL_FACTORIES]


def decomposable_measures():
    return [factory() for factory in DECOMPOSABLE_FACTORIES]


@pytest.fixture(params=ALL_FACTORIES, ids=lambda f: f.__name__)
def any_measure(request):
    return request.param()


@pytest.fixture(params=DECOMPOSABLE_FACTORIES, ids=lambda f: f.__name__)
def decomposable_measure(request):
    return request.param()


# ---------------------------------------------------------------------------
# configuration-probability oracles: per-kind closed forms, alternating sums
# ---------------------------------------------------------------------------


def fraction_rows(measure, n):
    """Rows ``P_0..P_n`` by the marginalisation identity in ``Fraction``
    arithmetic, ``P_m(0) = mu_m`` and ``P_m(j+1) = P_{m-1}(j) - P_m(j)``,
    one subtraction (and one gcd) per entry."""
    rows, row = [], ()
    for m in range(n + 1):
        current = [measure.moment(m)]
        for j in range(m):
            current.append(row[j] - current[j])
        row = tuple(current)
        rows.append(row)
    return rows


def closed_form_config_probability(measure, n, j) -> Fraction:
    """P_n(j) without the moment sequence: the Beta integral as a rational
    product, or the mixture sum ``w * loc^(n-j) * (1-loc)^j`` over atoms."""
    if measure.kind is MeasureKind.BETA:
        a, b = measure.beta_alpha, measure.beta_beta
        value = F(1)
        for i in range(n - j):
            value *= a + i
        for i in range(j):
            value *= b + i
        for i in range(n):
            value /= a + b + i
        return value
    if measure.kind is MeasureKind.DISCRETE:
        return sum((w * loc ** (n - j) * (1 - loc) ** j for loc, w in measure.atoms), F(0))
    raise ValueError("a moment sequence has no closed form")


def alternating_sum_config_probability(moments, n, j) -> Fraction:
    """P_n(j) = sum_i (-1)^i C(j,i) mu_{n-j+i}, the j-th forward difference."""
    return sum(((-1) ** i * comb(j, i) * moments[n - j + i] for i in range(j + 1)), F(0))


def config_probability_oracle(measure, n, j) -> Fraction:
    if measure.kind is MeasureKind.MOMENTS:
        return alternating_sum_config_probability(measure.moment_values, n, j)
    return closed_form_config_probability(measure, n, j)


def nondeterminism_scan(measure, n_max) -> bool:
    """Every entry of every row up to n_max is positive (the O(n^2) scan)."""
    return all(
        config_probability_oracle(measure, n, j) > 0
        for n in range(n_max + 1)
        for j in range(n + 1)
    )


def first_negative_configuration(moments):
    """First (n, j) in (n, j) order with a negative alternating sum, or None."""
    for n in range(len(moments)):
        for j in range(n + 1):
            if alternating_sum_config_probability(moments, n, j) < 0:
                return (n, j)
    return None


# ---------------------------------------------------------------------------
# residual-route oracles: one Fraction operation per term, read through the
# public configuration-probability and conditional-probability methods
# ---------------------------------------------------------------------------


def fraction_decomposability_residual(measure, n, u, z) -> Fraction:
    """The residual at (n, u, z) as its alternating sum of conditional
    zero-count probabilities."""
    measure.require_nondeterministic(n + u - 1)
    total = F(0)
    for k in range(max(0, z - (u - 1)), min(z, n - u) + 1):
        inner = sum(
            (
                (-1) ** m * comb(u, m) * measure.conditional_zero_count(n, u - 1, m + k, m + z)
                for m in range(u + 1)
            ),
            F(0),
        )
        total += (-1) ** k * comb(n - u, k) * inner
    return total


def fraction_cond_expectation_overlap(statistic, measure, u):
    """E[T(X_1..X_n) | X_{u+1}..X_{u+n-1}] on the (n-u+1) x u zero-count grid."""
    n = statistic.n
    v, w = n - u, u - 1
    grid = []
    for k in range(v + 1):
        row = []
        for l in range(w + 1):
            z = k + l
            denominator = measure.config_probability(n - 1, z)
            if denominator == 0:
                raise DeterministicMeasureError(
                    f"conditioning event has probability zero (n={n - 1}, zeros={z})"
                )
            row.append(
                sum(
                    (
                        comb(u, m) * statistic[k + m] * measure.config_probability(n - 1 + u, z + m)
                        for m in range(u + 1)
                    ),
                    F(0),
                )
                / denominator
            )
        grid.append(row)
    return grid


def fraction_symmetrize(grid):
    """Weighted diagonal averages of a (v+1) x (w+1) grid, term by term."""
    v, w = len(grid) - 1, len(grid[0]) - 1
    return [
        sum(
            (
                comb(v, k) * comb(w, z - k) * grid[k][z - k]
                for k in range(max(0, z - w), min(z, v) + 1)
            ),
            F(0),
        )
        / comb(v + w, z)
        for z in range(v + w + 1)
    ]


def fraction_canonical_kernel(measure, n):
    top = measure.config_probability(n, 0)
    return SymmetricFunction(
        tuple((-1) ** k * top / measure.config_probability(n, k) for k in range(n + 1))
    )


def forward_substitution_kernel_basis(measure, n):
    """The completely degenerate kernels of order n: the bidiagonal system

        phi(j) P_n(j) / P_{n-1}(j) + phi(j+1) P_n(j+1) / P_{n-1}(j) = 0,
        j = 0..n-1,

    solved by forward substitution from phi(0) = 1."""
    measure.require_nondeterministic(n)
    values = [F(1)]
    for j in range(n):
        given = measure.config_probability(n - 1, j)
        one = measure.config_probability(n, j) / given
        zero = measure.config_probability(n, j + 1) / given
        values.append(-values[j] * one / zero)
    return [SymmetricFunction(tuple(values))]


def fraction_check_decomposable(measure, n_max):
    """(residuals, cross residuals, witness) of the scan up to n_max, every
    residual by the two Fraction oracles."""
    residuals, cross, witness = {}, {}, None
    for n in range(2, n_max + 1):
        kernel = fraction_canonical_kernel(measure, n)
        for u in range(2, n + 1):
            row = fraction_symmetrize(fraction_cond_expectation_overlap(kernel, measure, u))
            for z in range(n):
                residuals[(n, u, z)] = fraction_decomposability_residual(measure, n, u, z)
                cross[(n, u, z)] = row[z]
                if residuals[(n, u, z)] != 0 and witness is None:
                    witness = (n, u, z)
    return residuals, cross, witness


def scan_classify(measure, n_max):
    """``classify`` by the full residual scan: the candidate law's moments
    compared as ``Fraction`` products up to n_max, then the residual scan
    of ``check_decomposable``. The candidate is the point mass at mu_1 when
    mu_2 = mu_1^2, and otherwise the Beta law with the first two moments,
    a formal one with negative parameters below the point-mass boundary."""
    if n_max < 3:
        raise IndexRangeError("n_max must be at least 3")
    cap = measure.max_order
    nondet_order = 2 * n_max - 1 if cap is None else min(2 * n_max - 1, cap)
    measure.require_nondeterministic(nondet_order)

    moment_order = n_max if cap is None else min(n_max, cap)
    mu1, mu2 = measure.moment(1), measure.moment(2)
    gap = mu2 - mu1 * mu1
    if gap:
        alpha, beta = mu1 * (mu1 - mu2) / gap, (1 - mu1) * (mu1 - mu2) / gap

    def candidate(n):
        if gap == 0:
            return mu1**n
        value = F(1)
        for i in range(n):
            value *= (alpha + i) / (alpha + beta + i)
        return value

    for n in range(3, moment_order + 1):
        if measure.moment(n) != candidate(n):
            return Classification(
                ClassificationKind.NOT_DECOMPOSABLE, witness=n, verified_order=n
            )

    decomp_order = n_max if cap is None else min(n_max, (cap + 1) // 2)
    if decomp_order >= 2:
        report = check_decomposable(measure, decomp_order)
        if report.verdict is Verdict.NOT_DECOMPOSABLE:
            return Classification(
                ClassificationKind.NOT_DECOMPOSABLE,
                witness=report.witness,
                verified_order=moment_order,
            )
    if gap < 0 or moment_order < n_max or decomp_order < n_max:
        return Classification(ClassificationKind.INCONCLUSIVE, verified_order=moment_order)
    if gap == 0:
        return Classification(ClassificationKind.IID, iid_p=mu1, verified_order=n_max)
    return Classification(
        ClassificationKind.POLYA, polya_alpha=alpha, polya_beta=beta, verified_order=n_max
    )


# ---------------------------------------------------------------------------
# JSON report round trip
# ---------------------------------------------------------------------------


def render_report(report, fmt: str, measure=None) -> str:
    """Render any report object with the CLI's renderer for its type.

    The verbs call their renderers directly; this dispatch on the report
    type serves the round trip through ``parse_report``. For
    decompositions, passing the measure adds the orthogonality footer rows
    to the TSV rendering.
    """
    if isinstance(report, HoeffdingDecomposition):
        return _render_decomposition(report, fmt, measure)
    if isinstance(report, DecomposabilityReport):
        return _render_decomposability(report, fmt)
    if isinstance(report, Classification):
        return _render_classification(report, fmt)
    if isinstance(report, SampleReport):
        return _render_sample(report, fmt)
    raise TypeError(f"no renderer for {type(report).__name__}")


def parse_report(text: str):
    """Inverse of ``render_report(..., "json")`` for all four report types.

    Every malformed document raises ``ParseError``: a missing field, a field
    of the wrong type, an unknown enumeration value, or values that violate
    the report's own invariants (such as a histogram that does not sum to
    the trials).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("report document must be a JSON object")
    try:
        return _report_from_payload(payload)
    except KeyError as exc:
        raise ParseError(f"missing report field: {exc}") from exc
    except ParseError:
        raise
    except (TypeError, ValueError, InternalError) as exc:
        raise ParseError(f"malformed report field: {exc}") from exc


def _int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _triple(value) -> tuple[int, int, int]:
    if not isinstance(value, list) or len(value) != 3:
        raise TypeError(f"expected an [n, u, z] witness, got {value!r}")
    return tuple(_int(v) for v in value)


def _report_from_payload(payload: dict):
    tag = payload.get("report")
    if tag == "decomposition":
        return HoeffdingDecomposition(
            n=_int(payload["n"]),
            measure_digest=payload["measure"],
            components=tuple(
                SymmetricFunction(tuple(parse_rational(v) for v in comp))
                for comp in payload["components"]
            ),
            mean=parse_rational(payload["mean"]),
        )
    if tag == "decomposability":
        residuals = {}
        cross = {}
        for row in payload["residuals"]:
            triple = (_int(row["n"]), _int(row["u"]), _int(row["z"]))
            residuals[triple] = parse_rational(row["prop1"])
            cross[triple] = parse_rational(row["weakindep"])
        witness = payload["witness"]
        return DecomposabilityReport(
            n_max=_int(payload["n_max"]),
            residuals=residuals,
            cross_residuals=cross,
            verdict=Verdict(payload["verdict"]),
            witness=None if witness is None else _triple(witness),
        )
    if tag == "classification":
        witness = payload["witness"]
        if isinstance(witness, list):
            witness = _triple(witness)
        elif witness is not None:
            witness = _int(witness)
        return Classification(
            kind=ClassificationKind(payload["kind"]),
            iid_p=_maybe_rational(payload["p"]),
            polya_alpha=_maybe_rational(payload["alpha"]),
            polya_beta=_maybe_rational(payload["beta"]),
            witness=witness,
            verified_order=_int(payload["verified_order"]),
        )
    if tag == "sample":
        n = _int(payload["n"])
        histogram = tuple(_int(c) for c in payload["histogram"])
        if len(histogram) != n + 1:
            raise ValueError(f"histogram has {len(histogram)} cells, not n + 1 = {n + 1}")
        comparison = payload["comparison"]
        rows = None
        if comparison is not None:
            rows = tuple(
                ComparisonRow(
                    _int(row["zeros"]),
                    parse_rational(row["expected"]),
                    _number(row["empirical"]),
                    _number(row["z"]),
                )
                for row in comparison
            )
            if [row.zeros for row in rows] != list(range(n + 1)):
                raise ValueError("comparison rows must cover zero counts 0..n in order")
        return SampleReport(
            n=n,
            trials=_int(payload["trials"]),
            seed=_int(payload["seed"]),
            zero_count_histogram=histogram,
            comparison=rows,
        )
    raise ParseError(f"unknown report tag: {tag!r}")


def _maybe_rational(value):
    return None if value is None else parse_rational(value)


# ---------------------------------------------------------------------------
# enumeration oracles (discrete measures only)
# ---------------------------------------------------------------------------


def pattern_weight(measure, pattern) -> Fraction:
    """P(X = pattern) as an explicit mixture sum over atoms."""
    ones = sum(pattern)
    zeros = len(pattern) - ones
    return sum(
        (w * loc**ones * (1 - loc) ** zeros for loc, w in measure.atoms), F(0)
    )


def enum_config_probability(measure, n, j) -> Fraction:
    for pattern in product((0, 1), repeat=n):
        if pattern.count(0) == j:
            return pattern_weight(measure, pattern)
    raise AssertionError("unreachable")


def enum_inner_product(measure, t1_values, t2_values) -> Fraction:
    n = len(t1_values) - 1
    total = F(0)
    for pattern in product((0, 1), repeat=n):
        j = pattern.count(0)
        total += pattern_weight(measure, pattern) * t1_values[j] * t2_values[j]
    return total


def enum_conditional_zero_count(measure, n, v, a, b) -> Fraction:
    """P(b zeros among first n+v | a zeros among first n), by enumeration."""
    joint = F(0)
    marginal = F(0)
    for pattern in product((0, 1), repeat=n + v):
        head_zeros = pattern[:n].count(0)
        if head_zeros != a:
            continue
        weight = pattern_weight(measure, pattern)
        marginal += weight
        if pattern.count(0) == b:
            joint += weight
    return joint / marginal


def enum_cond_expectation_prefix(measure, t_values, a):
    """E[T | first a coordinates], evaluated on each zero count of the prefix."""
    n = len(t_values) - 1
    out = []
    for j in range(a + 1):
        prefix = (0,) * j + (1,) * (a - j)
        numerator = F(0)
        denominator = F(0)
        for tail in product((0, 1), repeat=n - a):
            pattern = prefix + tail
            weight = pattern_weight(measure, pattern)
            numerator += weight * t_values[pattern.count(0)]
            denominator += weight
        out.append(numerator / denominator)
    return out


def enum_cond_expectation_overlap(measure, t_values, u):
    """E[T(X_1..X_n) | X_{u+1}..X_{u+n-1}] on each block zero-count pair.

    Coordinates 1..u are private to T, u+1..n are shared, n+1..u+n-1 are
    private to the conditioning window.
    """
    n = len(t_values) - 1
    v, w = n - u, u - 1
    grid = []
    for k in range(v + 1):
        row = []
        shared = (0,) * k + (1,) * (v - k)
        for l in range(w + 1):
            outside = (0,) * l + (1,) * (w - l)
            numerator = F(0)
            denominator = F(0)
            for hidden in product((0, 1), repeat=u):
                pattern = hidden + shared + outside
                weight = pattern_weight(measure, pattern)
                denominator += weight
                t_zeros = hidden.count(0) + shared.count(0)
                numerator += weight * t_values[t_zeros]
            row.append(numerator / denominator)
        grid.append(row)
    return grid


def enum_lift(kernel_values, n):
    """U-statistic lift by explicit subset enumeration (measure-free)."""
    k = len(kernel_values) - 1
    out = []
    for z in range(n + 1):
        pattern = (0,) * z + (1,) * (n - z)
        total = F(0)
        for subset in combinations(range(n), k):
            zeros = sum(1 for i in subset if pattern[i] == 0)
            total += kernel_values[zeros]
        out.append(total)
    return out


def enum_symmetrize(grid, v, w):
    """Permutation-average a block-symmetric function, explicitly."""
    m = v + w
    out = []
    for z in range(m + 1):
        pattern = (0,) * z + (1,) * (m - z)
        total = F(0)
        count = 0
        for perm in permutations(range(m)):
            arranged = tuple(pattern[i] for i in perm)
            k = arranged[:v].count(0)
            l = arranged[v:].count(0)
            total += grid[k][l]
            count += 1
        out.append(total / count)
    return out


# ---------------------------------------------------------------------------
# Gram oracle: Hoeffding layers by Gauss-Jordan solves of Gram matrices
# ---------------------------------------------------------------------------


def _rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(map(Fraction, row)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [xi - factor * xr for xi, xr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows):
    if not rows:
        return 0
    return len(_rref(rows)[1])


def solve(matrix, rhs):
    """Solve a square nonsingular system exactly."""
    n = len(matrix)
    augmented = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    reduced, pivots = _rref(augmented)
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [reduced[i][n] for i in range(n)]


def in_span(vectors, target):
    """True iff target lies in the linear span of the given vectors."""
    base = [list(v) for v in vectors]
    return rank(base + [list(target)]) == rank(base)


def gram_inner_product(measure, t1_values, t2_values):
    n = len(t1_values) - 1
    return sum(
        (
            comb(n, z) * measure.config_probability(n, z) * t1_values[z] * t2_values[z]
            for z in range(n + 1)
        ),
        F(0),
    )


def ustatistic_basis(measure, n, k):
    """k+1 independent spanning elements of the order-k U-statistic space.

    Element j is the lift of the arity-j all-zeros indicator kernel, the
    function z -> C(z, j); independence is certified by a Gram rank test.
    """
    basis = [SymmetricFunction(tuple(F(comb(z, j)) for z in range(n + 1))) for j in range(k + 1)]
    gram = [[gram_inner_product(measure, bi.values, bj.values) for bj in basis] for bi in basis]
    if rank(gram) != k + 1:
        raise ValueError(f"U-statistic basis is rank deficient at (n={n}, k={k})")
    return basis


def gram_projection(statistic, measure, k):
    """Orthogonal projection onto the order-k U-statistic space (Gram solve)."""
    basis = ustatistic_basis(measure, statistic.n, k)
    gram = [[gram_inner_product(measure, bi.values, bj.values) for bj in basis] for bi in basis]
    rhs = [gram_inner_product(measure, statistic.values, bi.values) for bi in basis]
    out = SymmetricFunction.constant(statistic.n, 0)
    for c, b in zip(solve(gram, rhs), basis):
        out = out + b.scale(c)
    return out


def gram_decomposition(statistic, measure):
    """Hoeffding components: projections onto successive orders, differenced."""
    previous = gram_projection(statistic, measure, 0)
    components = [previous]
    for k in range(1, statistic.n + 1):
        current = gram_projection(statistic, measure, k)
        components.append(current - previous)
        previous = current
    return components


# ---------------------------------------------------------------------------
# layer-path oracles: the Stieltjes recurrence, the inner product, the lift
# and the prefix conditional expectation, one Fraction operation per term
# ---------------------------------------------------------------------------


def fraction_orthogonal_polynomials(weights):
    """(values on the nodes, squared norm) of the monic orthogonal
    polynomials q_0..q_n of positive rational weights on the nodes 0..n."""
    size = len(weights)
    previous = [F(0)] * size
    current = [F(1)] * size
    previous_norm = F(1)
    out = []
    for k in range(size):
        squares = [w * q * q for w, q in zip(weights, current)]
        norm = sum(squares, F(0))
        out.append((tuple(current), norm))
        if k + 1 == size:
            break
        a = sum((z * s for z, s in enumerate(squares)), F(0)) / norm
        b = norm / previous_norm
        current, previous = [
            (z - a) * q - b * p for z, (q, p) in enumerate(zip(current, previous))
        ], current
        previous_norm = norm
    return out


def fraction_inner_product(t1, t2, measure):
    if t1.n != t2.n:
        raise ArityMismatchError(f"arity mismatch: {t1.n} vs {t2.n}")
    return gram_inner_product(measure, t1.values, t2.values)


def fraction_hoeffding_layers(statistic, measure):
    """Component k is <T, q_k> / <q_k, q_k> q_k for the monic q_k."""
    n = statistic.n
    measure.require_nondeterministic(n)
    weights = [comb(n, z) * measure.config_probability(n, z) for z in range(n + 1)]
    components = []
    for values, norm in fraction_orthogonal_polynomials(weights):
        q = SymmetricFunction(values)
        components.append(q.scale(fraction_inner_product(statistic, q, measure) / norm))
    return components


def fraction_lift_ustatistic(kernel, n):
    k = kernel.n
    if not 0 <= k <= n:
        raise IndexRangeError(f"kernel arity {k} must lie in 0..{n}")
    return SymmetricFunction(
        tuple(
            sum(
                (comb(z, j) * comb(n - z, k - j) * kernel[j] for j in range(k + 1)),
                F(0),
            )
            for z in range(n + 1)
        )
    )


def fraction_cond_expectation_prefix(statistic, measure, a):
    n = statistic.n
    if not 0 <= a <= n:
        raise IndexRangeError(f"need 0 <= a <= n, got a={a} n={n}")
    values = []
    for j in range(a + 1):
        denominator = measure.config_probability(a, j)
        if denominator == 0:
            raise DeterministicMeasureError(
                f"conditioning event has probability zero (n={a}, zeros={j})"
            )
        values.append(
            sum(
                (
                    comb(n - a, m) * statistic[j + m] * measure.config_probability(n, j + m)
                    for m in range(n - a + 1)
                ),
                F(0),
            )
            / denominator
        )
    return SymmetricFunction(tuple(values))


def published_polya_coefficients(alpha, beta):
    """The arity-3 Polya projection coefficients as printed in the literature,
    in s = alpha + beta; they do NOT reproduce the exact projections."""
    s = F(alpha) + F(beta)
    first = (s + 1) / (s + 2)
    second = -((s + 1) * (s + 4)) / ((s + 3) * (s + 2)) - (s + 1) / (s + 2)
    third = (s + 4) / (s + 2)
    return (first, second, third)


# ---------------------------------------------------------------------------
# sampling oracle: the per-bit float-comparison histogram
# ---------------------------------------------------------------------------


def reference_histogram(source, n, trials, seed):
    """Zero-count histogram of ``trials`` draws of n bits, one
    ``SplitMix64.random()`` per bit compared with a float probability.

    ``source`` is an ``UrnSpec`` (reinforcement applied to the red
    proportion), a Beta measure (predictive rule (alpha + s)/(alpha + beta + m))
    or a discrete measure (one uniform against the running float sum of the
    weights picks the atom, the last atom if none; then n Bernoulli bits).
    """
    if isinstance(source, UrnSpec):
        r, b = source.r, source.b
        table = [
            [float(source.f(Fraction(r + s, r + b + m))) for s in range(m + 1)]
            for m in range(n)
        ]
    elif source.kind is MeasureKind.BETA:
        alpha, beta = source.beta_alpha, source.beta_beta
        table = [
            [float((alpha + s) / (alpha + beta + m)) for s in range(m + 1)]
            for m in range(n)
        ]
    else:
        table = None
    counts = [0] * (n + 1)
    for trial in range(trials):
        rng = trial_stream(seed, trial)
        ones = 0
        if table is None:
            u = rng.random()
            acc = 0.0
            theta = float(source.atoms[-1][0])
            for location, weight in source.atoms:
                acc += float(weight)
                if u < acc:
                    theta = float(location)
                    break
            for _ in range(n):
                ones += rng.random() < theta
        else:
            for m in range(n):
                ones += rng.random() < table[m][ones]
        counts[n - ones] += 1
    return counts


# ---------------------------------------------------------------------------
# degeneracy oracle: the two-term conditional expectation
# ---------------------------------------------------------------------------


def degeneracy_residual(kernel, measure):
    """E[kernel(X_1..X_k) | all but one argument], arity k-1.

    The unobserved argument is 0 or 1, giving the two-term identity

        r(j) = kernel(j+1) P_k(j+1) / P_{k-1}(j) + kernel(j) P_k(j) / P_{k-1}(j).

    The kernel is completely degenerate exactly when the residual vanishes
    identically.
    """
    k = kernel.n
    if k < 1:
        raise IndexRangeError("kernel arity must be at least 1")
    values = []
    for j in range(k):
        denominator = measure.config_probability(k - 1, j)
        if denominator == 0:
            raise DeterministicMeasureError(
                f"conditioning event has probability zero (n={k - 1}, zeros={j})"
            )
        values.append(
            (
                kernel[j + 1] * measure.config_probability(k, j + 1)
                + kernel[j] * measure.config_probability(k, j)
            )
            / denominator
        )
    return SymmetricFunction(tuple(values))


# ---------------------------------------------------------------------------
# affine predictive probabilities (after Diaconis & Ylvisaker, 1979)
# ---------------------------------------------------------------------------


def predictive_affinity_residual(measure, n, p):
    """Second difference in p of the predictive probabilities at order n.

    Vanishing for all 0 <= p <= n-2 says the map p -> P(next is 1 | p zeros)
    is affine at that n; Beta and point-mass measures satisfy it at every
    order.
    """
    if n < 2:
        raise IndexRangeError("n must be at least 2")
    if not 0 <= p <= n - 2:
        raise IndexRangeError(f"need 0 <= p <= n-2, got p={p} n={n}")
    pp = measure.predictive_probability
    return pp(n, p + 2) - 2 * pp(n, p + 1) + pp(n, p)


def affine_predictive_coefficients(a, b, n):
    """Closed-form affine predictive family (a_n, b_n) = (1, b) / (1 + a(n-1)).

    The two-parameter family realized by sequences whose predictive
    probabilities are affine at every order, for a > 0, b > 0, a + b < 1.
    """
    a, b = F(a), F(b)
    if a <= 0 or b <= 0 or a + b >= 1:
        raise ParameterRangeError("need a > 0, b > 0 and a + b < 1")
    if n < 1:
        raise IndexRangeError("n must be at least 1")
    denominator = 1 + a * (n - 1)
    return F(1) / denominator, b / denominator


# ---------------------------------------------------------------------------
# moment-region sampler
# ---------------------------------------------------------------------------


def sample_moment_region(count, seed=DEFAULT_REGION_SEED, max_denominator=10**6):
    """Pseudo-random rational triples in S = {0 < x < y < z < 1}.

    Denominators are bounded to keep downstream exact arithmetic fast; the
    draw is deterministic in the seed. The default bound is large enough
    that samples land on the zero sets of the recursion polynomials only
    with negligible probability (small bounds make exact hits routine).
    """
    if count < 0:
        raise IndexRangeError("count must be non-negative")
    rng = random.Random(seed)
    triples = []
    while len(triples) < count:
        draws = set()
        while len(draws) < 3:
            den = rng.randint(2, max_denominator)
            num = rng.randint(1, den - 1)
            draws.add(F(num, den))
        x, y, z = sorted(draws)
        triples.append((x, y, z))
    return triples


# ---------------------------------------------------------------------------
# checks that must survive python -O
# ---------------------------------------------------------------------------


def child_env():
    """The environment of a child interpreter that imports this source tree:
    the caller's, with the tree's source root first on ``PYTHONPATH``."""
    source_root = os.path.dirname(os.path.dirname(hoeffding.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def run_optimized(script):
    """Run a Python script under ``python -O`` against this source tree."""
    return subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=child_env()
    )
