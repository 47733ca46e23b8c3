import dataclasses
import math

import numpy as np
import pytest

from quatcurves.curves import (
    ParametricCurve,
    circle3,
    fourier_curve,
    helix3,
    torus_curve,
)
from quatcurves.errors import DegeneracyError
from quatcurves.frames import (
    curvature_profile,
    frame3_at,
    frame4_from_pair,
    frame4_intrinsic,
    frame_determinant,
    frame_ode_residual,
    frames3,
    frames4,
    frames_on_grid,
    orthonormality_residual,
)
from quatcurves.quaternion import mul

from conftest import TORUS_K, TORUS_M, TORUS_R

SQ2 = math.sqrt(0.5)


def straight_line3():
    return fourier_curve([[0.0], [0.0], [0.0]], [[0.0], [0.0], [0.0]], linear=[1.0, 0.0, 0.0])


def straight_line4():
    zeros = [[0.0]] * 4
    return fourier_curve(zeros, zeros, linear=[1.0, 0.0, 0.0, 0.0])


def warped(curve):
    """``curve`` traced as ``u -> curve(u + 0.3 sin u)``, with analytic derivatives.

    On a domain [0, 2*pi*m] the warp maps the domain onto itself with
    derivative at least 0.7, so the trace and its curvatures are unchanged.
    """
    def grid(u, n=0):
        w = (u + 0.3 * np.sin(u), 1.0 + 0.3 * np.cos(u), -0.3 * np.sin(u),
             -0.3 * np.cos(u), 0.3 * np.sin(u))
        d = [curve.points(w[0])] + [curve.derivatives(w[0], k) for k in (1, 2, 3, 4)]
        # Faa di Bruno's formula up to order 4.
        terms = {
            0: [(d[0], 1.0)],
            1: [(d[1], w[1])],
            2: [(d[2], w[1] ** 2), (d[1], w[2])],
            3: [(d[3], w[1] ** 3), (d[2], 3.0 * w[1] * w[2]), (d[1], w[3])],
            4: [(d[4], w[1] ** 4), (d[3], 6.0 * w[1] ** 2 * w[2]),
                (d[2], 3.0 * w[2] ** 2 + 4.0 * w[1] * w[3]), (d[1], w[4])],
        }[n]
        return sum(v * np.reshape(f, (-1, 1)) for v, f in terms)

    return ParametricCurve(curve.dim, grid, curve.domain, grid, name="warped")


class TestFrame3:
    def test_unit_circle(self):
        c = circle3(1.0)
        for s in (0.5, 2.0, 5.0):
            f = frame3_at(c, s)
            assert abs(f.k - 1.0) <= 1e-10
            assert abs(f.r) <= 1e-10

    def test_helix_classical_curvatures(self):
        a, h = 3.0, 4.0
        c = helix3(a, h)
        for s in (1.0, 7.0, 20.0):
            f = frame3_at(c, s)
            assert abs(f.k - a / (a * a + h * h)) <= 1e-10
            assert abs(f.r - h / (a * a + h * h)) <= 1e-10

    def test_orthonormality_random_points(self):
        c = helix3(3.0, 4.0)
        rng = np.random.default_rng(21)
        lo, hi = c.domain
        for s in rng.uniform(lo + 0.5, hi - 0.5, 10):
            f = frame3_at(c, float(s))
            assert orthonormality_residual(f.vectors()) <= 1e-8

    def test_binormal_is_quaternion_product(self):
        c = helix3(1.0, 0.5)
        f = frame3_at(c, 2.0)
        assert f.b.approx_eq(mul(f.t, f.n), 1e-8)

    def test_zero_curvature(self):
        with pytest.raises(DegeneracyError, match="zero curvature"):
            frame3_at(straight_line3(), 3.0)

    def test_requires_dimension3(self):
        with pytest.raises(ValueError, match="dimension 3"):
            frame3_at(torus_curve(0.6, 1.0, 0.4, 2.0), 1.0)


class TestFrame4Intrinsic:
    def test_torus_invariants_frozen_values(self, torus):
        for s in (0.3, 1.7, 4.4):
            f = frame4_intrinsic(torus, s)
            assert abs(f.K - TORUS_K) <= 1e-12
            assert abs(f.torsion + TORUS_R) <= 1e-12
            assert abs(f.bitorsion - TORUS_M) <= 1e-12

    def test_orientation_is_positive(self, torus):
        f = frame4_intrinsic(torus, 2.2)
        assert abs(frame_determinant(f) - 1.0) <= 1e-8

    def test_orthonormality(self, torus, torus2):
        for curve in (torus, torus2):
            for s in np.linspace(0.2, 6.0, 13):
                f = frame4_intrinsic(curve, float(s))
                assert orthonormality_residual(f.vectors()) <= 1e-8

    def test_equal_frequency_curve_has_unit_curvature(self):
        c = torus_curve(SQ2, 1.0, SQ2, 1.0)
        d2 = c.derivative(1.0, 2)
        assert abs(np.linalg.norm(d2) - 1.0) <= 1e-12

    def test_equal_frequency_curve_is_torsion_degenerate(self):
        # Equal frequencies force N1' + K T = 0 identically.
        for curve in (torus_curve(SQ2, 1.0, SQ2, 1.0), torus_curve(0.8, 1.0, 0.6, 1.0)):
            with pytest.raises(DegeneracyError, match="zero torsion"):
                frame4_intrinsic(curve, 1.0)

    def test_zero_curvature_line(self):
        with pytest.raises(DegeneracyError, match="zero curvature"):
            frame4_intrinsic(straight_line4(), 3.0)


@pytest.mark.parametrize("curve", [torus_curve(0.6, 1.0, 0.4, 2.0), helix3(3.0, 4.0)],
                         ids=["torus", "helix"])
def test_reparameterization_invariants(curve):
    # Frames and curvatures are functions of the trace: reading them in the
    # warped parameter u changes nothing but round-off.
    u = np.linspace(*curve.domain, 41)
    at = u + 0.3 * np.sin(u)
    read = frames3 if curve.dim == 3 else frames4
    got, want = read(warped(curve), u), read(curve, at)
    assert np.max(np.abs(np.stack(got.vectors()) - np.stack(want.vectors()))) <= 1e-12
    names = ("k", "r") if curve.dim == 3 else ("K", "torsion", "bitorsion")
    for name in names:
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-12, name
    if curve.dim == 4:
        assert np.max(np.abs(got.K - TORUS_K)) <= 1e-12
        assert np.max(np.abs(got.torsion + TORUS_R)) <= 1e-12
        assert np.max(np.abs(got.bitorsion - TORUS_M)) <= 1e-12


class TestFrame4Pair:
    def test_pair_readings(self, torus, helix_assoc):
        for s in (0.4, 2.0, 5.1):
            f = frame4_from_pair(torus, helix_assoc, s)
            assert abs(f.K - TORUS_K) <= 1e-10
            assert abs(f.torsion - TORUS_R) <= 1e-10
            assert abs(f.bitorsion + TORUS_M) <= 1e-10
            assert orthonormality_residual(f.vectors()) <= 1e-8

    def test_n1_is_product_by_construction(self, torus, helix_assoc):
        s = 1.3
        f3 = frame3_at(helix_assoc, s)
        f4 = frame4_from_pair(torus, helix_assoc, s)
        assert f4.N1.approx_eq(mul(f3.b, f4.T), 0.0)

    def test_first_row_of_frame_ode(self, torus, helix_assoc):
        # T' = K N1 ties the pair frame to the curve's own second derivative.
        for s in (0.9, 3.3):
            f = frame4_from_pair(torus, helix_assoc, s)
            d2 = torus.derivative(s, 2)
            assert np.max(np.abs(d2 - f.K * f.N1.as_vec4())) <= 1e-5

    def test_agrees_with_intrinsic_up_to_vector_signs(self, torus, helix_assoc):
        for s in (0.8, 2.9):
            fi = frame4_intrinsic(torus, s)
            fp = frame4_from_pair(torus, helix_assoc, s)
            assert fp.T.approx_eq(fi.T, 1e-5)
            assert fp.N1.approx_eq(fi.N1, 1e-5)
            for got, want in ((fp.N2, fi.N2), (fp.N3, fi.N3)):
                direct = max(abs(a - b) for a, b in zip(got.components, want.components))
                flipped = max(abs(a + b) for a, b in zip(got.components, want.components))
                assert min(direct, flipped) <= 1e-5
            assert abs(abs(fp.torsion) - abs(fi.torsion)) <= 1e-10
            assert abs(abs(fp.bitorsion) - abs(fi.bitorsion)) <= 1e-10

    def test_pair_orientation_is_negative(self, torus, helix_assoc):
        # b = t*n makes the product frame left-oriented in R^4; the intrinsic
        # frame normalizes orientation to +1 instead.
        f = frame4_from_pair(torus, helix_assoc, 1.0)
        assert abs(frame_determinant(f) + 1.0) <= 1e-8

    def test_unrelated_pair_still_orthonormal(self, torus):
        # Right multiplication by the unit tangent is an isometry, so the
        # orthonormality check cannot distinguish a wrong spatial curve; the
        # ODE residual does.
        wrong = helix3(3.0, 4.0, domain=torus.domain)
        f = frame4_from_pair(torus, wrong, 1.0)
        assert orthonormality_residual(f.vectors()) <= 1e-8
        report = frame_ode_residual(
            torus, np.linspace(0.5, 5.5, 7), provider=lambda s: frames4(torus, s, wrong)
        )
        assert report.max_residual > 0.1


class TestOdeResidual:
    def test_torus_residual_small(self, torus, grid101):
        inner = grid101[3:-3]
        report = frame_ode_residual(torus, inner[:: len(inner) // 15])
        assert report.max_residual < 1e-4

    def test_line_degenerates(self):
        with pytest.raises(DegeneracyError, match="zero curvature"):
            frame_ode_residual(straight_line4(), [3.0, 3.5])

    def test_corrupted_frame_detected(self, torus):
        def corrupted(s):
            f = frames4(torus, s)
            return dataclasses.replace(f, N2=-f.N2)

        report = frame_ode_residual(torus, [1.0, 2.0, 3.0], provider=corrupted)
        assert report.max_residual > 0.1

    def test_skew_symmetry_structure(self, torus):
        # Coefficients recovered by projecting field derivatives must form an
        # antisymmetric matrix with zeros at (T,N2), (T,N3) and (N1,N3).
        h = 1e-4
        for s in (1.1, 3.7):
            f0 = frame4_intrinsic(torus, s)
            basis = np.stack([v.as_vec4() for v in f0.vectors()])

            def vectors(x):
                return np.stack([v.as_vec4() for v in frame4_intrinsic(torus, x).vectors()])

            deriv = (vectors(s + h) - vectors(s - h)) / (2 * h)
            coeff = deriv @ basis.T
            assert np.max(np.abs(coeff + coeff.T)) <= 1e-5
            for i, j in ((0, 2), (0, 3), (1, 3)):
                assert abs(coeff[i, j]) <= 1e-5


class TestCurvatureProfile:
    def test_constant_on_torus(self, torus_profile):
        assert np.ptp(torus_profile.K) < 1e-6
        assert np.ptp(torus_profile.r) < 1e-6
        assert np.ptp(torus_profile.k) < 1e-6

    def test_grid_passthrough(self, torus, grid101):
        prof = curvature_profile(torus, grid101)
        assert np.array_equal(prof.s, grid101)
        assert prof.source == "intrinsic"

    def test_k_is_curvature_minus_bitorsion(self, torus_profile):
        assert np.allclose(torus_profile.k, torus_profile.K - torus_profile.bitorsion)

    def test_pair_profile_recovers_spatial_curvature(self, torus, helix_assoc):
        grid = np.linspace(0.3, 5.8, 12)
        prof = curvature_profile(torus, grid, curve3=helix_assoc)
        assert prof.source == "pair"
        k_helix = TORUS_K + 2.0 / TORUS_K
        assert np.max(np.abs(prof.k - k_helix)) <= 1e-9
        assert np.max(np.abs(prof.r + TORUS_R)) <= 1e-9

    def test_degenerate_curve_propagates(self):
        c = torus_curve(SQ2, 1.0, SQ2, 1.0)
        with pytest.raises(DegeneracyError):
            curvature_profile(c, [0.5, 1.0, 1.5])


def test_frames_on_grid_continuity(torus):
    frames = frames_on_grid(torus, np.linspace(0.2, 6.0, 24))
    for prev, cur in zip(frames, frames[1:]):
        assert prev.N2.dot(cur.N2) > 0.0
        assert prev.N3.dot(cur.N3) > 0.0
