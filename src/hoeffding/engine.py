"""Hoeffding spaces, exact projections, and decomposability tests.

For an exchangeable binary sequence the square-integrable symmetric
statistics of n observations split into n+1 orthogonal layers: the k-th
layer is the part of the span of order-k U-statistics orthogonal to all
lower orders (the ANOVA decomposition). In zero-count coordinates the
order-k U-statistics are the polynomials of degree <= k in z, so this module
computes the layers from the orthogonal polynomials of the weight
C(n,z) P_n(z) (a fraction-free three-term recurrence on the integer
configuration row, see :mod:`hoeffding.linalg`), and runs three equivalent
tests of whether the decomposition is realized by completely degenerate
kernels:

* the alternating-sum residual over conditional zero-count probabilities
  (``decomposability_residual``), which must vanish for every triple
  (n, u, z) exactly when the sequence is decomposable;
* the weak-independence route (the ``cross_residuals`` of
  ``check_decomposable``): symmetrized partial-overlap conditional
  expectations of the canonical degenerate kernel;
* direct subspace equality (``level_subspace_check``, one level at a
  time): each Hoeffding layer must coincide with the span of lifted
  completely degenerate kernels, tested by exact orthogonality to all
  lower-degree polynomials. Each lift goes onto integers once per arity
  m, its common numerators times the zero-count weights of order m, and
  each orthogonality is the integer dot product of that row with a
  column C(z, j), compared with zero.

The two residual routes are tied by the exact identity

    weak(n,u,z) * C(n-1,z) * P_{n-1}(z zeros) = residual(n,u,z) * P_n(0 zeros)

so they vanish simultaneously. A scan computes each row (n, u) once, as
integer numerators over the common denominator of the integer row of
order n+u-1 (see :mod:`hoeffding.measures`) and the reciprocal row of
order n, and passes it by value: the residuals are those numerators over
that denominator, and the weak row is the same numerators scaled by the
identity, one ``Fraction`` per nonzero value; every zero numerator maps
to one shared ``Fraction(0)``. The reciprocal row is built in this
module from the integer row of order n (``_reciprocal_row``), once per n
in a scan and once for a single certified residual. The checks
are against the definitions, in code that reads neither that sum nor the
reciprocal row:

* the first nonzero residual of a scan, the reported witness, is
  certified on both routes: its value against ``decomposability_residual``,
  the public definition (the alternating sum of ``conditional_zero_count``
  quotients), and the weak row holding it against the composed
  ``symmetrize(cond_expectation_overlap(canonical_degenerate_kernel))``;
* one whole weak row per scan is checked against that composed
  definition, so a fault that zeroes the sum, which leaves no witness to
  certify, still raises;
* the subspace route checks its integer verdict against
  ``inner_product``: a failing pair (m, j) must be nonzero there, and on
  a passing level the pair (2n-1, n-1) must be zero.

A verdict of "decomposable up to n_max" is a bounded claim: the tests
quantify over every n >= 2, and this module scans only n <= n_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from . import linalg
from .errors import (
    DeterministicMeasureError,
    IndexRangeError,
    InternalError,
    ParameterRangeError,
)
from .measures import DeFinettiMeasure
from .rationals import as_rational, binom
from .symmetric import (
    SymmetricFunction,
    _common_numerators,
    _zero_count_weights,
    cond_expectation_overlap,
    cond_expectation_prefix,
    inner_product,
    lift_ustatistic,
    symmetrize,
)

Triple = tuple[int, int, int]

# the one value every zero numerator of a scan maps to
_ZERO = Fraction(0)


class Verdict(Enum):
    DECOMPOSABLE_UP_TO_N_MAX = "DECOMPOSABLE_UP_TO_N_MAX"
    NOT_DECOMPOSABLE = "NOT_DECOMPOSABLE"


@dataclass(frozen=True)
class HoeffdingDecomposition:
    """Orthogonal layers of one statistic: components[k] is the order-k part.

    Invariants (exact, enforced by construction and asserted in the test
    suite): the components sum pointwise to the input statistic, and any two
    distinct components are orthogonal under the measure's inner product.
    ``mean`` is the constant value of component 0.
    """

    n: int
    measure_digest: str
    components: tuple[SymmetricFunction, ...]
    mean: Fraction


@dataclass(frozen=True, eq=False)
class DecomposabilityReport:
    """Residuals of both test routes over all scanned (n, u, z) triples.

    The verdict is NOT_DECOMPOSABLE exactly when some residual is nonzero;
    the witness is the first such triple in (n, u, z) scan order, carrying
    no minimality claim beyond the scanned range.
    """

    n_max: int
    residuals: Mapping[Triple, Fraction]
    cross_residuals: Mapping[Triple, Fraction]
    verdict: Verdict
    witness: Optional[Triple]


def canonical_degenerate_kernel(measure: DeFinettiMeasure, n: int) -> SymmetricFunction:
    """The spanning element of the completely degenerate kernels of order n.

    Alternates in sign against the configuration probabilities,

        phi(k zeros) = (-1)^k P_n(0 zeros) / P_n(k zeros),

    normalized so the all-ones value is 1. The common denominator of the
    row cancels, so each value is a quotient of two integer-row entries.
    """
    if n < 1:
        raise IndexRangeError("arity must be at least 1")
    measure.require_nondeterministic(n)
    ints, _ = measure._int_row(n)
    top = ints[0]
    return SymmetricFunction(
        tuple(Fraction(top if k % 2 == 0 else -top, ints[k]) for k in range(n + 1))
    )


def degenerate_kernel_basis(measure: DeFinettiMeasure, n: int) -> list[SymmetricFunction]:
    """Basis of the null space of the one-step degeneracy map.

    Averaging out one argument of a kernel with j zeros among the other
    n-1 gives the bidiagonal system

        phi(j) P_n(j) / P_{n-1}(j) + phi(j+1) P_n(j+1) / P_{n-1}(j) = 0,
        j = 0..n-1.

    For a non-deterministic measure every coefficient is positive, so
    equation j fixes phi(j+1) / phi(j) = -P_n(j) / P_n(j+1), the solutions
    form a line, and the canonical kernel, whose consecutive values have
    exactly that ratio, spans it. The returned basis is the canonical
    kernel (normalized to value 1 on the all-ones configuration).

    It stays public although it wraps one call: it is in ``__all__``,
    acceptance criterion 3 (the degenerate kernels form a line) checks it,
    and the benchmark's ``project`` op calls it.
    """
    return [canonical_degenerate_kernel(measure, n)]


def hoeffding_decomposition(
    statistic: SymmetricFunction, measure: DeFinettiMeasure
) -> HoeffdingDecomposition:
    """Split a statistic into its orthogonal U-statistic layers.

    The order-k U-statistics are the polynomials of degree <= k in the zero
    count z, so layer k is spanned by the k-th orthogonal polynomial q_k of
    the weight C(n,z) P_n(z) on z = 0..n, and component k is
    <T, q_k> / <q_k, q_k> q_k. Component 0 is the mean. The components are
    pairwise orthogonal and sum back to the statistic.

    The polynomials come from the Stieltjes procedure (Gautschi 2004) run
    fraction-free in the manner of Bareiss (1968), see
    :mod:`hoeffding.linalg`: primitive integer vectors Q_k orthogonal under
    the integer weights W_z = C(n,z) P_n(z) D_n of the integer row.
    With the statistic on its common denominator S, the entry of component
    k at z is the single ``Fraction`` <t, Q_k>_W Q_k(z) / (S <Q_k, Q_k>_W).
    """
    n = statistic.n
    measure.require_nondeterministic(n)
    # the row's common denominator D_n cancels from every projection
    weights, _ = _zero_count_weights(measure, n)
    scale, t = _common_numerators(statistic.values)
    weighted = [w * x for w, x in zip(weights, t)]
    components = []
    for q, norm in linalg.orthogonal_polynomials(weights):
        projection = sum(map(int.__mul__, weighted, q))
        denominator = scale * norm
        components.append(
            SymmetricFunction(tuple(Fraction(projection * x, denominator) for x in q))
        )
    return HoeffdingDecomposition(
        n=n,
        measure_digest=measure.describe(),
        components=tuple(components),
        mean=components[0][0],
    )


def iid_projection(statistic: SymmetricFunction, p, k: int) -> SymmetricFunction:
    """Order-k component under the i.i.d.(p) law, via inclusion-exclusion.

    The component is assembled from the nested conditional expectations of
    the centered statistic: with h_a = E[T - E T | a observations],

        component_k = sum_{a=1}^{k} (-1)^(k-a) C(n-a, k-a) * lift(h_a, n).

    The subset-multiplicity factor C(n-a, k-a) counts the k-subsets each
    a-subset sits inside; it is what makes the lifted sums telescope to the
    exact orthogonal projection (verified exactly in the test suite).
    """
    p = as_rational(p, "p")
    if not 0 < p < 1:
        raise ParameterRangeError("p must lie strictly between 0 and 1")
    n = statistic.n
    if not 1 <= k <= n:
        raise IndexRangeError(f"need 1 <= k <= n, got k={k} n={n}")
    measure = DeFinettiMeasure.dirac(p)
    mean = inner_product(statistic, SymmetricFunction.constant(n, 1), measure)
    centered = statistic - SymmetricFunction.constant(n, mean)
    out = SymmetricFunction.constant(n, 0)
    for a in range(1, k + 1):
        conditional = cond_expectation_prefix(centered, measure, a)
        lifted = lift_ustatistic(conditional, n)
        out = out + lifted.scale((-1) ** (k - a) * binom(n - a, k - a))
    return out


def polya_projection_coefficients(alpha, beta) -> tuple[Fraction, Fraction, Fraction]:
    """Projection coefficients for arity-3 statistics of a Polya sequence.

    In s = alpha + beta, for the (order, block) pairs (1,1), (2,1), (2,2):

        ((s+1)/(s+3),  -2(s+1)/(s+4),  (s+2)/(s+4))

    Component 1 of an arity-3 statistic T is (1,1) times the lift of
    E[T - E T | X_1], and component 2 is (2,1) times that lift plus (2,2)
    times the lift of E[T - E T | X_1, X_2]. The forms are verified exactly
    against an independent Gram-matrix projection in the test suite; the
    closed forms printed in the literature do not reproduce it.
    """
    alpha, beta = as_rational(alpha, "alpha"), as_rational(beta, "beta")
    if alpha <= 0 or beta <= 0:
        raise ParameterRangeError("alpha and beta must be positive")
    s = alpha + beta
    return ((s + 1) / (s + 3), -2 * (s + 1) / (s + 4), (s + 2) / (s + 4))


def decomposability_residual(
    measure: DeFinettiMeasure, n: int, u: int, z: int
) -> Fraction:
    """Alternating sum of conditional zero-count probabilities at (n, u, z).

    Vanishing of this quantity for every n >= 2, u = 2..n, z = 0..n-1 is
    necessary and sufficient for Hoeffding decomposability; a nonzero value
    is an explicit witness of non-decomposability. The sum is

        sum_k (-1)^k C(n-u, k) sum_m (-1)^m C(u, m) P(m+z | m+k),

    with P(b | a) = C(u-1, b-a) P_{n+u-1}(b zeros) / P_n(a zeros) the
    conditional zero-count probability, evaluated term by term, one
    ``Fraction`` per term. This is the definition that a scan certifies
    its witness against. Callers that need many triples should use
    ``check_decomposable``, which computes each row (n, u) once on
    integers.
    """
    if n < 2:
        raise IndexRangeError("n must be at least 2")
    if not 2 <= u <= n:
        raise IndexRangeError(f"need 2 <= u <= n, got u={u} n={n}")
    if not 0 <= z <= n - 1:
        raise IndexRangeError(f"need 0 <= z <= n-1, got z={z} n={n}")
    measure.require_nondeterministic(n + u - 1)
    total = Fraction(0)
    for k in range(max(0, z - (u - 1)), min(z, n - u) + 1):
        inner = sum(
            (
                (-1) ** m
                * binom(u, m)
                * measure.conditional_zero_count(n, u - 1, m + k, m + z)
                for m in range(u + 1)
            ),
            Fraction(0),
        )
        total += (-1) ** k * binom(n - u, k) * inner
    return total


def _reciprocal_row(ints: tuple[int, ...], common: int) -> tuple[tuple[int, ...], int]:
    """``(r, L)`` with ``r[i] / L == common / ints[i]``, the reciprocals of
    the integer row ``(ints, common)``, and ``L`` the lcm of the row's
    numerators: one gcd per entry puts ``ints[i] / common`` in lowest
    terms."""
    numerators, denominators = [], []
    for i, x in enumerate(ints):
        if x == 0:
            raise DeterministicMeasureError(
                f"conditioning event has probability zero (zeros={i})"
            )
        g = math.gcd(x, common)
        numerators.append(x // g)
        denominators.append(common // g)
    least = math.lcm(*numerators)
    return tuple(d * (least // p) for p, d in zip(numerators, denominators)), least


def _residual_numerators(
    measure: DeFinettiMeasure, n: int, u: int, reciprocal_row: tuple[tuple[int, ...], int]
) -> tuple[list[int], int]:
    """``(t, C)`` with ``t[z] / C`` the residual at (n, u, z), z = 0..n-1.

    With the integer row ``(I, D)`` of order n+u-1 and the reciprocal row
    ``(r, L)`` of order n (``_reciprocal_row``), C = D L and

        t[z] = sum_k C(n-u,k) C(u-1,z-k) sum_m C(u,m) (-1)^(k+m) r[k+m] I[z+m].

    The signs, C(n-u,k) and C(u,m) are folded into one block per k,
    ``blocks[k][m] = (-1)^(k+m) C(n-u,k) C(u,m) r[k+m]``, built once per
    (n, u), so each z is a plain slice of the row dotted with each block.
    Callers check non-determinism up to order n+u-1 first.
    """
    ints, common = measure._int_row(n + u - 1)
    reciprocals, reciprocal_common = reciprocal_row
    v, w = n - u, u - 1
    signed_u = [(-1) ** m * math.comb(u, m) for m in range(u + 1)]
    choose_w = [math.comb(w, j) for j in range(w + 1)]
    blocks = []
    for k in range(v + 1):
        scale = (-1) ** k * math.comb(v, k)
        blocks.append([scale * c * r for c, r in zip(signed_u, reciprocals[k : k + u + 1])])
    numerators = []
    for z in range(n):
        window = ints[z : z + u + 1]
        numerators.append(
            sum(
                choose_w[z - k] * sum(map(int.__mul__, window, blocks[k]))
                for k in range(max(0, z - w), min(z, v) + 1)
            )
        )
    return numerators, common * reciprocal_common


def _weak_residual_row(
    measure: DeFinettiMeasure, n: int, u: int, numerators: list[int], common: int
) -> SymmetricFunction:
    """Symmetrized overlap conditional of the canonical kernel, all z at once.

    By the route identity the value at z is the primary residual times
    P_n(0) / (C(n-1,z) P_{n-1}(z)). With the residual numerators ``(t, C)``
    and the integer rows ``(g, G)`` of order n-1 and ``(ints_n, D_n)`` of
    order n,

        weak(z) = G ints_n[0] t[z] / (C D_n g[z] C(n-1,z)),

    one ``Fraction`` per nonzero t[z] and the shared zero for the rest.
    ``_certify_weak_row`` checks it against the composed definition, which
    reads neither these numerators nor the reciprocal row.
    """
    given, given_common = measure._int_row(n - 1)
    order_n, order_n_common = measure._int_row(n)
    scale = given_common * order_n[0]
    common *= order_n_common
    return SymmetricFunction(
        tuple(
            Fraction(scale * t, common * given[z] * math.comb(n - 1, z)) if t else _ZERO
            for z, t in enumerate(numerators)
        )
    )


def _certify_weak_row(
    measure: DeFinettiMeasure, n: int, u: int, row: SymmetricFunction
) -> None:
    """Check a whole weak row against its composed definition: the
    canonical kernel's overlap conditional expectation, symmetrized."""
    kernel = canonical_degenerate_kernel(measure, n)
    composed = symmetrize(cond_expectation_overlap(kernel, measure, u))
    if row != composed:
        raise InternalError(
            f"weak row at {(n, u)} is {row.values}, "
            f"but its composed definition gives {composed.values}"
        )


def _certify_witness(
    measure: DeFinettiMeasure, triple: Triple, primary: Fraction, row: SymmetricFunction
) -> None:
    """Check a nonzero residual against the definitions of both routes:
    the primary value against ``decomposability_residual``, and the weak
    row that holds its weak value against the composed definition."""
    n, u, z = triple
    reference = decomposability_residual(measure, n, u, z)
    if primary != reference:
        raise InternalError(
            f"witness residual at {triple} is {primary}, "
            f"but its alternating sum is {reference}"
        )
    _certify_weak_row(measure, n, u, row)


def _certified_residual(measure: DeFinettiMeasure, n: int, u: int, z: int) -> Fraction:
    """The residual at one triple, read from its row and certified on both
    routes, as a scan certifies its witness, when it is nonzero."""
    measure.require_nondeterministic(n + u - 1)
    numerators, common = _residual_numerators(
        measure, n, u, _reciprocal_row(*measure._int_row(n))
    )
    primary = Fraction(numerators[z], common)
    if primary:
        row = _weak_residual_row(measure, n, u, numerators, common)
        _certify_witness(measure, (n, u, z), primary, row)
    return primary


def _subspace_sums(
    measure: DeFinettiMeasure, lifted: SymmetricFunction, columns: list[list[int]]
) -> list[int]:
    """``sum_z C(z, j) W[z] t[z]`` for each column ``C(z, j)``, z = 0..m:
    the inner products of the lifted kernel of arity m with the columns,
    times the positive common denominators D_m S that set only their
    scale, with ``(W, D_m)`` the zero-count weights of order m and
    ``(S, t)`` the lift on its common numerators."""
    weights, _ = _zero_count_weights(measure, lifted.n)
    _, t = _common_numerators(lifted.values)
    weighted = list(map(int.__mul__, weights, t))
    return [sum(map(int.__mul__, column, weighted)) for column in columns]


def _certify_subspace_pair(
    measure: DeFinettiMeasure, lifted: SymmetricFunction, j: int, vanishes: bool
) -> None:
    """Check one pair (m, j) of the subspace route against its definition,
    ``inner_product(lifted, C(z, j))``: zero when ``vanishes``, else
    nonzero."""
    m = lifted.n
    subsets = SymmetricFunction(tuple(binom(z, j) for z in range(m + 1)))
    value = inner_product(lifted, subsets, measure)
    if (value == 0) != vanishes:
        expected = "zero" if vanishes else "nonzero"
        raise InternalError(
            f"subspace pair {(m, j)} reads {expected} on integers, "
            f"but its inner product is {value}"
        )


def level_subspace_check(measure: DeFinettiMeasure, n: int) -> bool:
    """Subspace route at a single level n.

    Checks, for the canonical degenerate kernel of order n lifted to every
    statistic arity m = n..2n-1, that the n-th Hoeffding layer of an
    m-sample equals the span of the lifted kernel. The layer is the line of
    the degree-n orthogonal polynomial, and the lift is a nonzero polynomial
    of degree <= n in the zero count (lifting is injective), so the two
    coincide exactly when the lift is orthogonal to every C(z, j), j < n.
    Equivalent to the vanishing of all residuals with first index n.

    Each lift is put on integers once per m: with the zero-count weights
    W of order m and the lift's common numerators t, the pair (m, j) is
    the integer sum ``sum_z C(z, j) W[z] t[z]`` (``_subspace_sums``)
    compared with zero, and no ``Fraction`` is built per pair. Two
    certificates check these sums against the definition,
    ``inner_product(lift, C(z, j))``, and raise ``InternalError`` on a
    mismatch: on a False verdict the failing pair must be nonzero, and on a
    True verdict the pair (2n-1, n-1) must be zero, so a fault that zeroes
    every sum still raises on a level that fails there.
    """
    if n < 2:
        raise IndexRangeError("n must be at least 2")
    measure.require_nondeterministic(2 * n - 1)
    kernel = canonical_degenerate_kernel(measure, n)
    # C(z, j) for z = 0..2n-1, zero below z = j; each lift reads its first m+1
    columns = [[math.comb(z, j) for z in range(2 * n)] for j in range(n)]
    for m in range(n, 2 * n):
        lifted = lift_ustatistic(kernel, m)
        for j, total in enumerate(_subspace_sums(measure, lifted, columns)):
            if total:
                _certify_subspace_pair(measure, lifted, j, vanishes=False)
                return False
    _certify_subspace_pair(measure, lifted, n - 1, vanishes=True)
    return True


def check_decomposable(measure: DeFinettiMeasure, n_max: int) -> DecomposabilityReport:
    """Scan all triples up to n_max through both residual routes.

    Each row (n, u) is computed once on integers (``_residual_numerators``)
    and gives both routes. The witness must equal its definitions: its
    value the public ``decomposability_residual``, the alternating sum of
    conditional zero-count probabilities, and its whole weak row the
    composed overlap conditional of the canonical kernel. The weak row at
    (n_max, max(2, (n_max+1)//2)) must equal its composed definition too;
    any failure raises ``InternalError``. That row has both overlap blocks
    nonempty once n_max >= 3, so every term of the residual sum enters it,
    and it is checked whether or not the scan finds a witness. The verdict
    is bounded ("decomposable up to n_max"), never a claim for all n.
    """
    if n_max < 2:
        raise IndexRangeError("n_max must be at least 2")
    measure.require_nondeterministic(2 * n_max - 1)
    residuals: dict[Triple, Fraction] = {}
    cross: dict[Triple, Fraction] = {}
    witness: Optional[Triple] = None
    certified_row = (n_max, max(2, (n_max + 1) // 2))
    for n in range(2, n_max + 1):
        reciprocal_row = _reciprocal_row(*measure._int_row(n))
        for u in range(2, n + 1):
            numerators, common = _residual_numerators(measure, n, u, reciprocal_row)
            row = _weak_residual_row(measure, n, u, numerators, common)
            for z, t in enumerate(numerators):
                triple = (n, u, z)
                residuals[triple] = Fraction(t, common) if t else _ZERO
                cross[triple] = row[z]
                if t and witness is None:
                    _certify_witness(measure, triple, residuals[triple], row)
                    witness = triple
            if (n, u) == certified_row:
                _certify_weak_row(measure, n, u, row)
    verdict = Verdict.NOT_DECOMPOSABLE if witness else Verdict.DECOMPOSABLE_UP_TO_N_MAX
    return DecomposabilityReport(
        n_max=n_max,
        residuals=residuals,
        cross_residuals=cross,
        verdict=verdict,
        witness=witness,
    )
