"""Symmetric-function operations against worked values, enumeration oracles,
and linearity/tower properties."""

import json
import random
from fractions import Fraction

import pytest

from hoeffding import (
    ArityMismatchError,
    BiSymmetricFunction,
    IndexRangeError,
    ParseError,
    SymmetricFunction,
    canonical_degenerate_kernel,
    cond_expectation_overlap,
    cond_expectation_prefix,
    inner_product,
    lift_ustatistic,
    parse_statistic_spec,
    symmetrize,
)
from hoeffding.rationals import format_rational
from conftest import (
    degeneracy_residual,
    dirac12,
    enum_cond_expectation_overlap,
    enum_cond_expectation_prefix,
    enum_inner_product,
    enum_lift,
    enum_symmetrize,
    rank,
    twopoint,
    unif_half,
)

F = Fraction


def random_function(n, rng):
    return SymmetricFunction(
        tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1))
    )


def random_grid(v, w, rng):
    return BiSymmetricFunction(
        tuple(
            tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(w + 1))
            for _ in range(v + 1)
        )
    )


class TestLift:
    def test_full_arity_is_identity(self):
        kernel = SymmetricFunction((F(2), F(-1), F(5)))
        assert lift_ustatistic(kernel, 2) == kernel

    def test_constant_kernel_counts_subsets(self):
        kernel = SymmetricFunction.constant(2, 1)
        lifted = lift_ustatistic(kernel, 5)
        assert all(v == 10 for v in lifted.values)

    def test_ones_indicator(self):
        # arity-1 kernel equal to the observation itself
        kernel = SymmetricFunction((F(1), F(0)))
        lifted = lift_ustatistic(kernel, 3)
        assert lifted.values == (F(3), F(2), F(1), F(0))

    def test_matches_subset_enumeration(self):
        rng = random.Random(11)
        for n in range(1, 6):
            for k in range(n + 1):
                kernel = random_function(k, rng)
                assert list(lift_ustatistic(kernel, n).values) == enum_lift(
                    kernel.values, n
                )

    def test_linearity(self):
        rng = random.Random(5)
        for _ in range(10):
            a = random_function(2, rng)
            b = random_function(2, rng)
            c = F(rng.randint(-5, 5), rng.randint(1, 5))
            left = lift_ustatistic(a + b.scale(c), 5)
            right = lift_ustatistic(a, 5) + lift_ustatistic(b, 5).scale(c)
            assert left == right

    def test_arity_range(self):
        with pytest.raises(IndexRangeError):
            lift_ustatistic(SymmetricFunction.constant(3, 1), 2)


class TestInnerProduct:
    def test_normalization(self, any_measure):
        one = SymmetricFunction.constant(3, 1)
        assert inner_product(one, one, any_measure) == 1

    def test_worked_example(self):
        t = SymmetricFunction((F(1), F(-1), F(1)))
        assert inner_product(t, t, dirac12()) == 1

    def test_degenerate_kernel_has_zero_mean(self, any_measure):
        for n in (2, 3, 4):
            kernel = canonical_degenerate_kernel(any_measure, n)
            lifted = lift_ustatistic(kernel, 5)
            one = SymmetricFunction.constant(5, 1)
            assert inner_product(lifted, one, any_measure) == 0

    def test_matches_enumeration(self):
        rng = random.Random(3)
        m = twopoint()
        for n in range(1, 6):
            t1, t2 = random_function(n, rng), random_function(n, rng)
            assert inner_product(t1, t2, m) == enum_inner_product(
                m, t1.values, t2.values
            )

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            inner_product(
                SymmetricFunction.constant(2, 1),
                SymmetricFunction.constant(3, 1),
                dirac12(),
            )


class TestCondExpectationPrefix:
    def test_full_prefix_unchanged(self, any_measure):
        t = SymmetricFunction((F(1), F(2), F(-3)))
        assert cond_expectation_prefix(t, any_measure, 2) == t

    def test_constant_preserved(self, any_measure):
        t = SymmetricFunction.constant(4, F(7, 3))
        out = cond_expectation_prefix(t, any_measure, 2)
        assert out == SymmetricFunction.constant(2, F(7, 3))

    def test_worked_example(self):
        t = SymmetricFunction((F(0), F(0), F(1)))
        out = cond_expectation_prefix(t, dirac12(), 1)
        assert out.values == (F(0), F(1, 2))

    def test_tower_property(self, any_measure):
        rng = random.Random(17)
        for n in range(2, 6):
            t = random_function(n, rng)
            mean = inner_product(t, SymmetricFunction.constant(n, 1), any_measure)
            for a in range(1, n + 1):
                conditional = cond_expectation_prefix(t, any_measure, a)
                conditional_mean = inner_product(
                    conditional, SymmetricFunction.constant(a, 1), any_measure
                )
                assert conditional_mean == mean

    def test_matches_enumeration(self):
        rng = random.Random(23)
        m = twopoint()
        for n in range(2, 6):
            t = random_function(n, rng)
            for a in range(1, n + 1):
                assert list(
                    cond_expectation_prefix(t, m, a).values
                ) == enum_cond_expectation_prefix(m, t.values, a)

    def test_linearity(self, any_measure):
        rng = random.Random(29)
        t1, t2 = random_function(4, rng), random_function(4, rng)
        c = F(3, 7)
        left = cond_expectation_prefix(t1 + t2.scale(c), any_measure, 2)
        right = cond_expectation_prefix(t1, any_measure, 2) + cond_expectation_prefix(
            t2, any_measure, 2
        ).scale(c)
        assert left == right


class TestCondExpectationOverlap:
    def test_iid_degenerate_vanishes(self):
        t = SymmetricFunction((F(1), F(-1), F(1)))
        grid = cond_expectation_overlap(t, dirac12(), 2)
        assert all(v == 0 for row in grid.values for v in row)

    def test_uniform_worked_values(self):
        t = canonical_degenerate_kernel(unif_half(), 2)
        assert t.values == (1, F(-1, 2), F(1, 7))
        grid = cond_expectation_overlap(t, unif_half(), 2)
        assert grid.v == 0 and grid.w == 1
        assert grid[0, 0] == F(-1, 56)
        assert grid[0, 1] == F(1, 168)

    def test_constant_preserved(self, any_measure):
        t = SymmetricFunction.constant(3, F(5, 2))
        grid = cond_expectation_overlap(t, any_measure, 2)
        assert all(v == F(5, 2) for row in grid.values for v in row)

    def test_matches_enumeration(self):
        rng = random.Random(31)
        m = twopoint()
        for n in range(2, 6):
            t = random_function(n, rng)
            for u in range(2, n + 1):
                grid = cond_expectation_overlap(t, m, u)
                expected = enum_cond_expectation_overlap(m, t.values, u)
                assert [list(row) for row in grid.values] == expected

    def test_linearity(self, any_measure):
        rng = random.Random(67)
        t1, t2 = random_function(4, rng), random_function(4, rng)
        c = F(5, 3)
        for u in (2, 3, 4):
            left = cond_expectation_overlap(t1 + t2.scale(c), any_measure, u)
            a = cond_expectation_overlap(t1, any_measure, u)
            b = cond_expectation_overlap(t2, any_measure, u)
            assert left.values == tuple(
                tuple(av + c * bv for av, bv in zip(arow, brow))
                for arow, brow in zip(a.values, b.values)
            )

    def test_index_range(self):
        t = SymmetricFunction.constant(3, 1)
        with pytest.raises(IndexRangeError):
            cond_expectation_overlap(t, dirac12(), 1)
        with pytest.raises(IndexRangeError):
            cond_expectation_overlap(t, dirac12(), 4)


class TestSymmetrize:
    def test_two_point_average(self):
        grid = BiSymmetricFunction(((F(1), F(3)), (F(5), F(7))))
        out = symmetrize(grid)
        assert out.values[1] == (F(3) + F(5)) / 2

    def test_already_symmetric_unchanged(self):
        # grid value depends only on k + l
        grid = BiSymmetricFunction(
            tuple(tuple(F((k + l) ** 2) for l in range(3)) for k in range(2))
        )
        out = symmetrize(grid)
        assert out.values == (F(0), F(1), F(4), F(9))

    def test_weighted_average_example(self):
        rng = random.Random(37)
        grid = random_grid(1, 2, rng)
        out = symmetrize(grid)
        assert out.values[1] == (2 * grid[0, 1] + grid[1, 0]) / 3

    def test_matches_permutation_average(self):
        rng = random.Random(41)
        for v in (1, 2):
            for w in (1, 2, 3):
                grid = random_grid(v, w, rng)
                rows = [list(r) for r in grid.values]
                assert list(symmetrize(grid).values) == enum_symmetrize(rows, v, w)

    def test_linearity(self):
        rng = random.Random(71)
        a, b = random_grid(2, 2, rng), random_grid(2, 2, rng)
        c = F(-7, 4)
        combined = BiSymmetricFunction(
            tuple(
                tuple(av + c * bv for av, bv in zip(arow, brow))
                for arow, brow in zip(a.values, b.values)
            )
        )
        assert symmetrize(combined) == symmetrize(a) + symmetrize(b).scale(c)

    def test_zero_criterion(self):
        # symmetrization vanishes iff each diagonal's weighted sum vanishes
        grid = BiSymmetricFunction(((F(0), F(1)), (F(-1), F(0))))
        out = symmetrize(grid)
        assert out.values == (F(0), F(0), F(0))
        assert 1 * grid[0, 1] + 1 * grid[1, 0] == 0
        rng = random.Random(73)
        for v, w in ((1, 2), (2, 2), (2, 3)):
            grid = random_grid(v, w, rng)
            sym = symmetrize(grid)
            from hoeffding.rationals import binom

            for z in range(v + w + 1):
                weighted = sum(
                    binom(v, k) * binom(w, z - k) * grid[k, z - k]
                    for k in range(max(0, z - w), min(z, v) + 1)
                )
                assert (sym[z] == 0) == (weighted == 0)


class TestDegeneracyResidual:
    def test_canonical_kernel_is_degenerate(self, any_measure):
        for n in (1, 2, 3, 4):
            kernel = canonical_degenerate_kernel(any_measure, n)
            residual = cond_expectation_prefix(kernel, any_measure, n - 1)
            assert all(v == 0 for v in residual.values)

    def test_constant_kernel(self, any_measure):
        kernel = SymmetricFunction.constant(3, 1)
        out = cond_expectation_prefix(kernel, any_measure, 2)
        assert out == SymmetricFunction.constant(2, 1)

    def test_iid_worked_example(self):
        kernel = SymmetricFunction((F(1), F(-1), F(1)))
        residual = cond_expectation_prefix(kernel, dirac12(), 1)
        assert all(v == 0 for v in residual.values)

    def test_matches_generic_conditional_path(self, any_measure):
        rng = random.Random(43)
        for k in range(2, 6):
            kernel = random_function(k, rng)
            direct = degeneracy_residual(kernel, any_measure)
            generic = cond_expectation_prefix(kernel, any_measure, k - 1)
            assert direct == generic

    def test_linearity(self, any_measure):
        rng = random.Random(47)
        k1, k2 = random_function(3, rng), random_function(3, rng)
        c = F(-2, 5)
        left = cond_expectation_prefix(k1 + k2.scale(c), any_measure, 2)
        right = cond_expectation_prefix(k1, any_measure, 2) + cond_expectation_prefix(
            k2, any_measure, 2
        ).scale(c)
        assert left == right


class TestLiftInjectivity:
    def test_lift_matrix_has_full_rank(self):
        # the kernel of a U-statistic is unique: lifting is injective
        for n in range(1, 7):
            for k in range(n + 1):
                columns = []
                for j in range(k + 1):
                    basis_kernel = SymmetricFunction(
                        tuple(F(1) if i == j else F(0) for i in range(k + 1))
                    )
                    columns.append(list(lift_ustatistic(basis_kernel, n).values))
                assert rank(columns) == k + 1


def render_statistic_spec(statistic):
    return json.dumps(
        {"n": statistic.n, "values": [format_rational(v) for v in statistic.values]}
    )


class TestStatisticDocuments:
    def test_round_trip(self):
        t = SymmetricFunction((F(0), F(0), F(1)))
        assert parse_statistic_spec(render_statistic_spec(t)) == t

    def test_parse_example(self):
        t = parse_statistic_spec('{"n": 2, "values": ["0","0","1"]}')
        assert t.values == (F(0), F(0), F(1))

    @pytest.mark.parametrize(
        "document",
        [
            "nope",
            '{"n": 2, "values": ["0","0"]}',
            '{"n": "2", "values": ["0","0","1"]}',
            '{"n": 2, "values": ["0","0","0.5"]}',
            '{"n": 2}',
        ],
    )
    def test_rejected(self, document):
        with pytest.raises(ParseError):
            parse_statistic_spec(document)
