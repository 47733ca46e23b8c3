import math

import numpy as np
import pytest

from quatcurves.quaternion import (
    E1,
    E2,
    E3,
    ONE,
    ZERO,
    Quaternion,
    add,
    conjugate,
    inner,
    mul,
    norm,
    scale,
    spatial_cross_check,
)


def random_quaternion(rng, lo=0.1, hi=10.0):
    q = Quaternion(rng.normal(), tuple(rng.normal(size=3)))
    target = rng.uniform(lo, hi)
    return scale(target / q.norm(), q)


def h_formula(p, q):
    # Independent oracle for the inner product: (p * conj(q) + q * conj(p)) / 2.
    half = scale(0.5, add(mul(p, conjugate(q)), mul(q, conjugate(p))))
    assert max(abs(c) for c in half.v) < 1e-12
    return half.s


class TestMultiplicationTable:
    def test_unit_squares_exact(self):
        minus_one = Quaternion(-1.0, (0.0, 0.0, 0.0))
        assert mul(E1, E1) == minus_one
        assert mul(E2, E2) == minus_one
        assert mul(E3, E3) == minus_one
        assert mul(mul(E1, E2), E3) == minus_one

    def test_cyclic_products_exact(self):
        assert mul(E1, E2) == E3
        assert mul(E2, E3) == E1
        assert mul(E3, E1) == E2
        assert mul(E2, E1) == -E3
        assert mul(E3, E2) == -E1
        assert mul(E1, E3) == -E2

    def test_identity(self):
        q = Quaternion(2.0, (1.0, -3.0, 0.5))
        assert mul(q, ONE) == q
        assert mul(ONE, q) == q

    def test_worked_product(self):
        # (1 + e1)(1 + e2) = 1 + e1 + e2 + e3
        got = mul(Quaternion(1.0, (1.0, 0.0, 0.0)), Quaternion(1.0, (0.0, 1.0, 0.0)))
        assert got == Quaternion(1.0, (1.0, 1.0, 1.0))


class TestAddScaleConjugate:
    def test_add_componentwise(self):
        got = add(Quaternion(1, (1, 0, 0)), Quaternion(0, (0, 1, 0)))
        assert got == Quaternion(1, (1, 1, 0))

    def test_add_identity_and_inverse(self):
        q = Quaternion(2, (1, 2, 3))
        assert add(q, ZERO) == q
        assert add(q, -q) == ZERO

    def test_scale(self):
        q = Quaternion(1, (0, 1, 0))
        assert scale(1.0, q) == q
        assert scale(0.0, q) == ZERO
        assert scale(2.0, q) == Quaternion(2, (0, 2, 0))
        assert 2.0 * q == scale(2.0, q)

    def test_conjugate(self):
        assert conjugate(Quaternion(2, (1, 0, 0))) == Quaternion(2, (-1, 0, 0))
        assert conjugate(Quaternion(0, (1, 2, 3))) == Quaternion(0, (-1, -2, -3))
        q = Quaternion(0.3, (-1.5, 2.0, 0.25))
        assert conjugate(conjugate(q)) == q

    def test_finite_validation(self):
        with pytest.raises(ValueError):
            Quaternion(float("nan"), (0, 0, 0))
        with pytest.raises(ValueError):
            Quaternion(0.0, (0, float("inf"), 0))


class TestInnerAndNorm:
    def test_orthogonal_units(self):
        assert inner(E1, E2) == 0.0

    def test_self_inner_is_squared_norm(self):
        q = Quaternion(1, (1, 1, 1))
        assert inner(q, q) == 4.0
        assert norm(q) == 2.0

    def test_norm_zero(self):
        assert norm(ZERO) == 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert inner(p, q) == inner(q, p)

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            p, q = random_quaternion(rng), random_quaternion(rng)
            got = norm(mul(p, q))
            want = norm(p) * norm(q)
            assert abs(got - want) <= 1e-10 * want

    def test_h_formula_matches_dot_product(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert abs(h_formula(p, q) - inner(p, q)) <= 1e-12 * max(1.0, abs(inner(p, q)))


class TestAlgebraProperties:
    def test_associativity(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            p = random_quaternion(rng, 0.1, 2.0)
            q = random_quaternion(rng, 0.1, 2.0)
            r = random_quaternion(rng, 0.1, 2.0)
            left = mul(mul(p, q), r)
            right = mul(p, mul(q, r))
            assert left.approx_eq(right, 1e-12)

    def test_conjugate_antihomomorphism(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            p = random_quaternion(rng, 0.1, 3.0)
            q = random_quaternion(rng, 0.1, 3.0)
            assert conjugate(mul(p, q)).approx_eq(mul(conjugate(q), conjugate(p)), 1e-12)


class TestSpatialCross:
    def test_unit_pairs(self):
        assert spatial_cross_check(E1, E2) == 0.0
        assert spatial_cross_check(E2, E3) == 0.0

    def test_random_orthogonal_pairs(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            v1 = rng.normal(size=3)
            v2 = rng.normal(size=3)
            v2 -= (v2 @ v1) / (v1 @ v1) * v1
            v1 *= rng.uniform(0.5, 2.0) / np.linalg.norm(v1)
            v2 *= rng.uniform(0.5, 2.0) / np.linalg.norm(v2)
            p = Quaternion.spatial(*v1)
            q = Quaternion.spatial(*v2)
            assert spatial_cross_check(p, q) <= 1e-12

    def test_rejects_non_spatial(self):
        with pytest.raises(ValueError):
            spatial_cross_check(ONE, E2)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            spatial_cross_check(E1, Quaternion.spatial(1.0, 1.0, 0.0))

    def test_scalar_part_vanishes(self):
        # For orthogonal spatial factors the product is again spatial.
        p = Quaternion.spatial(2.0, 0.0, 0.0)
        q = Quaternion.spatial(0.0, -1.5, 3.0)
        assert mul(p, q).s == 0.0


def test_vec4_round_trip():
    q = Quaternion(0.5, (1.0, -2.0, 4.0))
    assert Quaternion.from_vec4(q.as_vec4()) == q
    assert math.isclose(np.linalg.norm(q.as_vec4()), q.norm())


def view_values():
    rng = np.random.default_rng(17)
    return [ZERO, E1, E2, E3, *(random_quaternion(rng) for _ in range(50))]


def test_values_read_the_row_kernel():
    # A value is one row: its inner product and norm are the row functions' numbers.
    values = view_values()
    for p in values:
        row = p.as_vec4()
        assert norm(p) == norm(row) and p.norm() == norm(row)
        for q in values:
            assert inner(p, q) == inner(row, q.as_vec4())


def test_value_operations_are_row_operations():
    values = view_values()
    for p, q in zip(values, values[1:] + values[:1]):
        row, other = p.as_vec4(), q.as_vec4()
        assert np.array_equal(add(p, q).as_vec4(), row + other)
        assert np.array_equal(scale(2.5, p).as_vec4(), 2.5 * row)
        assert np.array_equal((2.5 * p).as_vec4(), 2.5 * row)
        assert np.array_equal((-p).as_vec4(), -1.0 * row)
        assert np.array_equal(conjugate(p).as_vec4(), row * np.array([1.0, -1.0, -1.0, -1.0]))
        assert np.array_equal(mul(p, q).as_vec4(), mul(row, other))
