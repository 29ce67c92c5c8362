"""Shared test measures, brute-force enumeration oracles and the Gram oracle.

The oracles are deliberately naive: they enumerate binary configurations
(or permutations, or subsets) and weight them with per-atom mixture
probabilities, or project by Gauss-Jordan solves of Gram matrices. They
share no code with the library paths they check, so exact agreement between
the two is meaningful.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest

from hoeffding import DeFinettiMeasure, SymmetricFunction

F = Fraction


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


def published_polya_coefficients(alpha, beta):
    """The arity-3 Polya projection coefficients as printed in the literature,
    in s = alpha + beta; they do NOT reproduce the exact projections."""
    s = F(alpha) + F(beta)
    first = (s + 1) / (s + 2)
    second = -((s + 1) * (s + 4)) / ((s + 3) * (s + 2)) - (s + 1) / (s + 2)
    third = (s + 4) / (s + 2)
    return (first, second, third)
