"""Symmetric and block-symmetric functions on binary configurations.

A symmetric function of n binary arguments is determined by its value on the
zero count of the configuration, so it is stored as n+1 rationals indexed by
the number of zeros (index j holds the value on any configuration with j
zeros). Block-symmetric functions, which appear as partial-overlap
conditional expectations, are stored on the full (v+1) x (w+1) zero-count
grid of their two blocks.

Operations: U-statistic lifting, the L2 inner product of an exchangeable
law, nested and partial-overlap conditional expectations, and canonical
symmetrization. All are linear in their function argument and exact. Each
puts its function operands on their common denominators and the law on the
integer configuration rows of :mod:`hoeffding.measures`, sums integers,
and builds one ``Fraction`` per output entry: no gcd per term. The
Hoeffding layers of :mod:`hoeffding.engine` use the same integer
zero-count weights as :func:`inner_product`, in the Stieltjes recurrence
(Gautschi 2004) that :mod:`hoeffding.linalg` runs fraction-free after
Bareiss (1968).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityMismatchError, IndexRangeError, ParseError
from .measures import DeFinettiMeasure
from .rationals import as_rational, load_json, parse_rational


def _as_fraction(value) -> Fraction:
    """A function value as a ``Fraction``; one that is no rational raises
    ``ParseError``."""
    return value if type(value) is Fraction else as_rational(value, "a function value")


@dataclass(frozen=True)
class SymmetricFunction:
    """A symmetric function on {0,1}^n stored by zero count.

    ``values[j]`` is the common value on configurations with j zeros; the
    arity is ``len(values) - 1``. Arity 0 (a bare constant) is allowed so
    conditional expectations can collapse all the way down.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(_as_fraction, self.values)))
        if not self.values:
            raise IndexRangeError("a symmetric function needs at least one value")

    @property
    def n(self) -> int:
        return len(self.values) - 1

    @classmethod
    def constant(cls, n: int, value) -> "SymmetricFunction":
        return cls((as_rational(value, "a constant value"),) * (n + 1))

    def __getitem__(self, zeros: int) -> Fraction:
        return self.values[zeros]

    def __add__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        self._check_arity(other)
        return SymmetricFunction(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        self._check_arity(other)
        return SymmetricFunction(tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, factor) -> "SymmetricFunction":
        factor = as_rational(factor, "a scale factor")
        return SymmetricFunction(tuple(factor * a for a in self.values))

    def _check_arity(self, other: "SymmetricFunction") -> None:
        if self.n != other.n:
            raise ArityMismatchError(f"arity mismatch: {self.n} vs {other.n}")


@dataclass(frozen=True)
class BiSymmetricFunction:
    """A function on {0,1}^(v+w), symmetric within each of two blocks.

    ``values[k][l]`` is the common value on configurations whose first block
    (v arguments) contains k zeros and whose second block (w arguments)
    contains l zeros. The full rectangular grid is stored even though
    consumers only combine diagonals k + l = z.
    """

    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        grid = tuple(tuple(map(_as_fraction, row)) for row in self.values)
        object.__setattr__(self, "values", grid)
        if not grid or any(len(row) != len(grid[0]) for row in grid):
            raise IndexRangeError("bi-symmetric grid must be rectangular and non-empty")

    @property
    def v(self) -> int:
        return len(self.values) - 1

    @property
    def w(self) -> int:
        return len(self.values[0]) - 1

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        k, l = index
        return self.values[k][l]


def lift_ustatistic(kernel: SymmetricFunction, n: int) -> SymmetricFunction:
    """Sum the kernel over all k-subsets of n observations.

    On a configuration with z zeros there are C(z,j) * C(n-z, k-j) subsets
    containing exactly j zeros, so the lift collapses to a Vandermonde-
    weighted sum; linear in the kernel. With the kernel on its common
    denominator S, each value is one integer (``_lift_numerators``) over S.
    """
    k = kernel.n
    if not 0 <= k <= n:
        raise IndexRangeError(f"kernel arity {k} must lie in 0..{n}")
    scale, t = _common_numerators(kernel.values)
    lifted = _lift_numerators(t, n)[-1]
    return SymmetricFunction(tuple(Fraction(x, scale) for x in lifted))


def _lift_numerators(t, n: int) -> list[list[int]]:
    """The lifts of the kernel with integer numerators t, of order
    k = len(t) - 1, to the arities m = k..n: entry m - k holds
    ``sum_j C(z,j) C(m-z,k-j) t[j]`` for z = 0..m, on the kernel's scale.

    Each lift comes from the one below it. Of the m-subsets of m+1
    observations, m+1-k hold any given k-subset, and an m-subset leaves
    out one of the z zeros or one of the m+1-z ones, so

        L_{m+1}(z) = (z L_m(z-1) + (m+1-z) L_m(z)) / (m+1-k),

    an exact division: O(m) integer operations per arity, no binomials.
    """
    k = len(t) - 1
    lifts = [list(t)]
    for m in range(k, n):
        below, count = lifts[-1], m + 1 - k
        lifts.append(
            [
                (z * x + (m + 1 - z) * y) // count
                for z, (x, y) in enumerate(zip([0, *below], [*below, 0]))
            ]
        )
    return lifts


def inner_product(
    t1: SymmetricFunction, t2: SymmetricFunction, measure: DeFinettiMeasure
) -> Fraction:
    """E[T1 T2] under the exchangeable law with the given mixing measure.

    One integer sum over the zero-count weights and the two functions'
    common numerators, and one ``Fraction``.
    """
    if t1.n != t2.n:
        raise ArityMismatchError(f"arity mismatch: {t1.n} vs {t2.n}")
    weights, common = _zero_count_weights(measure, t1.n)
    scale1, a = _common_numerators(t1.values)
    scale2, b = _common_numerators(t2.values)
    total = sum(w * x * y for w, x, y in zip(weights, a, b))
    return Fraction(total, common * scale1 * scale2)


def pairwise_inner_products(
    functions, measure: DeFinettiMeasure
) -> dict[tuple[int, int], Fraction]:
    """``inner_product(functions[i], functions[j], measure)`` for every pair
    i < j of functions of one arity, each function put on its common
    denominator once."""
    arities = sorted({f.n for f in functions})
    if len(arities) > 1:
        raise ArityMismatchError(f"arity mismatch: {arities}")
    if len(functions) < 2:
        return {}
    weights, common = _zero_count_weights(measure, arities[0])
    numerators = [_common_numerators(f.values) for f in functions]
    out = {}
    for i, (scale1, a) in enumerate(numerators):
        weighted = [w * x for w, x in zip(weights, a)]
        for j in range(i + 1, len(numerators)):
            scale2, b = numerators[j]
            total = sum(map(int.__mul__, weighted, b))
            out[(i, j)] = Fraction(total, common * scale1 * scale2)
    return out


def _zero_count_weights(measure: DeFinettiMeasure, n: int) -> tuple[list[int], int]:
    """``(W, D_n)`` with ``W[z] / D_n == C(n, z) P_n(z)``, the law of the zero
    count of n observations on the integer row of order n."""
    ints, common = measure._int_row(n)
    return [math.comb(n, z) * p for z, p in enumerate(ints)], common


def cond_expectation_prefix(
    statistic: SymmetricFunction, measure: DeFinettiMeasure, a: int
) -> SymmetricFunction:
    """E[T(X_1..X_n) | X_1..X_a] as a symmetric function of arity a.

    Conditioned on j zeros among the first a observations, the remaining
    n - a carry m extra zeros with probability
    C(n-a, m) P_n(j+m zeros) / P_a(j zeros). At a = n - 1 this is the
    one-step degeneracy residual, zero exactly for degenerate kernels.

    With the statistic on its common denominator S and the integer rows
    ``(ints, D)`` of order n and ``(given, G)`` of order a, value j is

        G * sum_m C(n-a, m) t[j+m] ints[j+m] / (S * D * given[j]).
    """
    n = statistic.n
    if not 0 <= a <= n:
        raise IndexRangeError(f"need 0 <= a <= n, got a={a} n={n}")
    # every value divides by an entry of row a: check them before order n
    measure.require_nondeterministic(a)
    given, given_common = measure._int_row(a)
    ints, common = measure._int_row(n)
    scale, t = _common_numerators(statistic.values)
    weights = [math.comb(n - a, m) for m in range(n - a + 1)]
    values = []
    for j in range(a + 1):
        total = sum(c * t[j + m] * ints[j + m] for m, c in enumerate(weights))
        values.append(Fraction(total * given_common, scale * common * given[j]))
    return SymmetricFunction(tuple(values))


def cond_expectation_overlap(
    statistic: SymmetricFunction, measure: DeFinettiMeasure, u: int
) -> BiSymmetricFunction:
    """E[T(X_1..X_n) | X_{u+1}..X_{u+n-1}] for a window sharing n-u points.

    The conditioning window keeps the last n-u arguments of T (first block,
    k zeros) and adds u-1 later observations (second block, l zeros); the u
    unobserved arguments of T contribute m further zeros with the usual
    hypergeometric-style weight. Result: a block-symmetric function with
    blocks of sizes v = n-u and w = u-1.

    With the statistic on its common denominator S and the integer rows
    ``(ints, D)`` of order n-1+u and ``(given, G)`` of order n-1, the cell
    (k, l) is

        G * sum_m C(u, m) t[k+m] ints[k+l+m] / (S * D * given[k+l]).
    """
    n = statistic.n
    if not 2 <= u <= n:
        raise IndexRangeError(f"need 2 <= u <= n, got u={u} n={n}")
    v, w = n - u, u - 1
    # every cell divides by an entry of row n-1: check them before order n-1+u
    measure.require_nondeterministic(n - 1)
    given, given_common = measure._int_row(n - 1)
    ints, common = measure._int_row(n - 1 + u)
    scale, t = _common_numerators(statistic.values)
    weights = [math.comb(u, m) for m in range(u + 1)]
    rows = []
    for k in range(v + 1):
        row = []
        for l in range(w + 1):
            z = k + l
            total = sum(c * t[k + m] * ints[z + m] for m, c in enumerate(weights))
            row.append(Fraction(total * given_common, scale * common * given[z]))
        rows.append(tuple(row))
    return BiSymmetricFunction(tuple(rows))


def _common_numerators(values) -> tuple[int, tuple[int, ...]]:
    """``(S, t)`` with ``t[i] / S == values[i]`` and S the lcm of the
    denominators."""
    common = math.lcm(*(x.denominator for x in values))
    return common, tuple(x.numerator * (common // x.denominator) for x in values)


def symmetrize(f: BiSymmetricFunction) -> SymmetricFunction:
    """Average a block-symmetric function over all argument permutations.

    The value on z total zeros is the C(v,k) C(w,z-k)-weighted average of
    the grid along the diagonal k + l = z; the weights sum to C(v+w, z).
    Each diagonal is summed on its common denominator.
    """
    v, w = f.v, f.w
    m = v + w
    grid = f.values
    values = []
    for z in range(m + 1):
        ks = range(max(0, z - w), min(z, v) + 1)
        common, t = _common_numerators([grid[k][z - k] for k in ks])
        numerator = sum(
            math.comb(v, k) * math.comb(w, z - k) * x for k, x in zip(ks, t)
        )
        values.append(Fraction(numerator, common * math.comb(m, z)))
    return SymmetricFunction(tuple(values))


# Largest arity of a statistic document: the arity bound of
# ``project --statistic``, the same as the CLI's bound on --n and --max-n.
MAX_STATISTIC_ARITY = 32


def parse_statistic_spec(document: str) -> SymmetricFunction:
    """Parse a JSON statistic document: {"n": 2, "values": ["0", "0", "1"]}.

    Values are indexed by zero count, rationals as "p/q" text. Documents of
    arity above ``MAX_STATISTIC_ARITY`` are refused before any value is
    parsed.
    """
    payload = load_json(document)
    if not isinstance(payload, dict) or set(payload) != {"n", "values"}:
        raise ParseError('statistic document must be {"n": ..., "values": [...]}')
    n = payload["n"]
    values = payload["values"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError("n must be a non-negative integer")
    if n > MAX_STATISTIC_ARITY:
        raise ParseError(f"--statistic arity must be at most {MAX_STATISTIC_ARITY}, got {n}")
    if not isinstance(values, list) or len(values) != n + 1:
        raise ParseError(f"values must be a list of exactly {n + 1} rationals")
    return SymmetricFunction(tuple(parse_rational(v) for v in values))
