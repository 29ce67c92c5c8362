"""Symmetric and block-symmetric functions on binary configurations.

A symmetric function of n binary arguments is determined by its value on the
zero count of the configuration, so it is stored as n+1 rationals indexed by
the number of zeros (index j holds the value on any configuration with j
zeros). Block-symmetric functions, which appear as partial-overlap
conditional expectations, are stored on the full (v+1) x (w+1) zero-count
grid of their two blocks.

Operations: U-statistic lifting, the L2 inner product of an exchangeable
law, nested and partial-overlap conditional expectations, and canonical
symmetrization. All are linear in their function argument and exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ArityMismatchError,
    DeterministicMeasureError,
    IndexRangeError,
    ParseError,
)
from .measures import DeFinettiMeasure
from .rationals import binom, parse_rational


@dataclass(frozen=True)
class SymmetricFunction:
    """A symmetric function on {0,1}^n stored by zero count.

    ``values[j]`` is the common value on configurations with j zeros; the
    arity is ``len(values) - 1``. Arity 0 (a bare constant) is allowed so
    conditional expectations can collapse all the way down.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if not self.values:
            raise IndexRangeError("a symmetric function needs at least one value")

    @property
    def n(self) -> int:
        return len(self.values) - 1

    @classmethod
    def constant(cls, n: int, value) -> "SymmetricFunction":
        return cls(tuple(Fraction(value) for _ in range(n + 1)))

    def __getitem__(self, zeros: int) -> Fraction:
        return self.values[zeros]

    def __add__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        self._check_arity(other)
        return SymmetricFunction(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        self._check_arity(other)
        return SymmetricFunction(tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, factor) -> "SymmetricFunction":
        factor = Fraction(factor)
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
        grid = tuple(tuple(Fraction(x) for x in row) for row in self.values)
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
    weighted sum; linear in the kernel.
    """
    k = kernel.n
    if not 0 <= k <= n:
        raise IndexRangeError(f"kernel arity {k} must lie in 0..{n}")
    return SymmetricFunction(
        tuple(
            sum(
                (binom(z, j) * binom(n - z, k - j) * kernel[j] for j in range(k + 1)),
                Fraction(0),
            )
            for z in range(n + 1)
        )
    )


def inner_product(
    t1: SymmetricFunction, t2: SymmetricFunction, measure: DeFinettiMeasure
) -> Fraction:
    """E[T1 T2] under the exchangeable law with the given mixing measure."""
    if t1.n != t2.n:
        raise ArityMismatchError(f"arity mismatch: {t1.n} vs {t2.n}")
    n = t1.n
    return sum(
        (
            binom(n, z) * measure.config_probability(n, z) * t1[z] * t2[z]
            for z in range(n + 1)
        ),
        Fraction(0),
    )


def cond_expectation_prefix(
    statistic: SymmetricFunction, measure: DeFinettiMeasure, a: int
) -> SymmetricFunction:
    """E[T(X_1..X_n) | X_1..X_a] as a symmetric function of arity a.

    Conditioned on j zeros among the first a observations, the remaining
    n - a carry m extra zeros with probability
    C(n-a, m) P_n(j+m zeros) / P_a(j zeros). At a = n - 1 this is the
    one-step degeneracy residual, zero exactly for degenerate kernels.
    """
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
                    binom(n - a, m)
                    * statistic[j + m]
                    * measure.config_probability(n, j + m)
                    for m in range(n - a + 1)
                ),
                Fraction(0),
            )
            / denominator
        )
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
    """
    n = statistic.n
    if not 2 <= u <= n:
        raise IndexRangeError(f"need 2 <= u <= n, got u={u} n={n}")
    v, w = n - u, u - 1
    rows = []
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
                        binom(u, m)
                        * statistic[k + m]
                        * measure.config_probability(n - 1 + u, z + m)
                        for m in range(u + 1)
                    ),
                    Fraction(0),
                )
                / denominator
            )
        rows.append(tuple(row))
    return BiSymmetricFunction(tuple(rows))


def symmetrize(f: BiSymmetricFunction) -> SymmetricFunction:
    """Average a block-symmetric function over all argument permutations.

    The value on z total zeros is the C(v,k) C(w,z-k)-weighted average of
    the grid along the diagonal k + l = z; the weights sum to C(v+w, z).
    """
    v, w = f.v, f.w
    m = v + w
    values = []
    for z in range(m + 1):
        numerator = sum(
            (
                binom(v, k) * binom(w, z - k) * f[k, z - k]
                for k in range(max(0, z - w), min(z, v) + 1)
            ),
            Fraction(0),
        )
        values.append(numerator / binom(m, z))
    return SymmetricFunction(tuple(values))


def parse_statistic_spec(document: str) -> SymmetricFunction:
    """Parse a JSON statistic document: {"n": 2, "values": ["0", "0", "1"]}.

    Values are indexed by zero count, rationals as "p/q" text.
    """
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or set(payload) != {"n", "values"}:
        raise ParseError('statistic document must be {"n": ..., "values": [...]}')
    n = payload["n"]
    values = payload["values"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError("n must be a non-negative integer")
    if not isinstance(values, list) or len(values) != n + 1:
        raise ParseError(f"values must be a list of exactly {n + 1} rationals")
    return SymmetricFunction(tuple(parse_rational(v) for v in values))
