import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatcurves.curves import (
    CurveSpec,
    ParametricCurve,
    circle3,
    derivative,
    fourier_curve,
    helix3,
    torus_curve,
)
from quatcurves import series
from quatcurves.errors import DegeneracyError
from quatcurves.frames import (
    PAIR_TOL,
    _spatial_parameters,
    curvature_profile,
    frame3_at,
    frame4_from_pair,
    frame4_intrinsic,
    frame_determinant,
    frame_ode_residual,
    frames3,
    frames4,
    orthonormality_residual,
)
from quatcurves.quaternion import inner, mul

from conftest import TORUS_K, TORUS_M, TORUS_R
from test_cli import FAST_TORUS_DOC

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
    The jet of orders 0-7 composes the Taylor series of the curve at the
    warped parameter with the series of the warp's increment.
    """
    def grid(u, orders=(0,)):
        steps = [np.zeros_like(u), 1.0 + 0.3 * np.cos(u)]
        steps += [0.3 * np.sin(u + k * math.pi / 2.0) for k in range(2, 8)]
        at = curve.jet(u + 0.3 * np.sin(u), range(8))
        d = series.compose(series.taylor(at, 0, 7), series.taylor(np.stack(steps), 0, 7))
        return np.stack([math.factorial(n) * d[n] for n in orders])

    return ParametricCurve(curve.dim, curve.domain, grid, name="warped")


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
        assert np.max(np.abs(f.b - mul(f.t, f.n))) <= 1e-8

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
        d2 = derivative(c, 1.0, 2)
        assert abs(np.linalg.norm(d2) - 1.0) <= 1e-12

    def test_equal_frequency_curve_is_torsion_degenerate(self):
        # Equal frequencies force N1' + K T = 0 identically.
        for curve in (torus_curve(SQ2, 1.0, SQ2, 1.0), torus_curve(0.8, 1.0, 0.6, 1.0)):
            with pytest.raises(DegeneracyError, match="zero torsion"):
                frame4_intrinsic(curve, 1.0)

    # Two curves 1e-9 to 1e-8 out of the plane of (cos u - cos 2u / 2, sin u + b sin 2u).
    # Torsion vanishes where rho_2 is at most DEGENERACY_EPS times the grid's largest
    # |d3|, as the curvature does against |d2|, whatever the torsion-to-curvature
    # ratio: the first keeps that ratio above 3e-9 while its rho_2 falls to 3e-10
    # of max |d3|; the second has rho_2 above 3.7e-9 of max |d3| while the ratio
    # falls to 4e-10 where it bends hardest.
    @pytest.mark.parametrize("b, z, w, eps, degenerate", [
        (0.5, [0.0, 0.0, 1.0], [0.0, 1.0], 1e-9, True),
        (2.0, [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], 5e-9, False),
    ])
    def test_near_planar_torsion_reads_against_the_grid(self, b, z, w, eps, degenerate):
        curve = fourier_curve([[0.0, 1.0, -0.5], [0.0], [eps * x for x in z], [0.0]],
                              [[0.0], [0.0, 1.0, b], [0.0], [eps * x for x in w]],
                              domain=(0.0, 6.0))
        grid = np.linspace(0.0, 6.0, 21)
        if degenerate:
            with pytest.raises(DegeneracyError, match="zero torsion"):
                frames4(curve, grid)
        else:
            assert np.min(-frames4(curve, grid).torsion) > 0.0

    def test_zero_curvature_line(self):
        with pytest.raises(DegeneracyError, match="zero curvature"):
            frame4_intrinsic(straight_line4(), 3.0)

    @pytest.mark.parametrize("u", [0.0, math.pi])
    def test_zero_curvature_at_inflection(self, u):
        # (u, sin u, sin 2u, sin 3u) has d2 = 0 at multiples of pi, but the
        # computed d2 there is round-off (sin(pi) is 1.2e-16), about 20 degrees
        # off d1: the floor must read it against the grid's d2, not its own.
        zeros = [[0.0]] * 4
        curve = fourier_curve(zeros, [[0.0], [0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]],
                              linear=[1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegeneracyError, match="zero curvature"):
            frames4(curve, [u, 1.0, 2.0])


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
        assert np.array_equal(f4.N1, mul(f3.b, f4.T))

    def test_first_row_of_frame_ode(self, torus, helix_assoc):
        # T' = K N1 ties the pair frame to the curve's own second derivative.
        for s in (0.9, 3.3):
            f = frame4_from_pair(torus, helix_assoc, s)
            d2 = derivative(torus, s, 2)
            assert np.max(np.abs(d2 - f.K[0] * f.N1[0])) <= 1e-5

    def test_agrees_with_intrinsic_up_to_vector_signs(self, torus, helix_assoc):
        for s in (0.8, 2.9):
            fi = frame4_intrinsic(torus, s)
            fp = frame4_from_pair(torus, helix_assoc, s)
            assert np.max(np.abs(fp.T - fi.T)) <= 1e-5
            assert np.max(np.abs(fp.N1 - fi.N1)) <= 1e-5
            for got, want in ((fp.N2, fi.N2), (fp.N3, fi.N3)):
                direct = np.max(np.abs(got - want))
                flipped = np.max(np.abs(got + want))
                assert min(direct, flipped) <= 1e-5
            assert abs(abs(fp.torsion) - abs(fi.torsion)) <= 1e-10
            assert abs(abs(fp.bitorsion) - abs(fi.bitorsion)) <= 1e-10

    def test_pair_orientation_is_negative(self, torus, helix_assoc):
        # b = t*n makes the product frame left-oriented in R^4; the intrinsic
        # frame normalizes orientation to +1 instead.
        f = frame4_from_pair(torus, helix_assoc, 1.0)
        assert abs(frame_determinant(f) + 1.0) <= 1e-8

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(vectors=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10))
    def test_products_are_orthonormal_for_any_spatial_frame(self, vectors):
        # Right multiplication by a unit T is an isometry, so {T, b*T, n*T,
        # t*T} is orthonormal whichever spatial frame (t, n, b = t*n) it
        # takes: orthonormality cannot tell an associated curve from another.
        T = np.array(vectors[:4])
        t, n = np.array([0.0, *vectors[4:7]]), np.array([0.0, *vectors[7:]])
        assume(np.linalg.norm(T) > 0.1 and np.linalg.norm(t) > 0.1)
        T, t = T / np.linalg.norm(T), t / np.linalg.norm(t)
        n = n - inner(n, t) * t
        assume(np.linalg.norm(n) > 0.1)
        n = n / np.linalg.norm(n)
        b = mul(t, n)
        assert orthonormality_residual([T, mul(b, T), mul(n, T), mul(t, T)]) <= 1e-14

    @pytest.mark.parametrize("speed", [1, 2], ids=["torus", "fast-torus"])
    def test_type2_torsion_and_bitorsion_are_the_spatial_curvatures(self, torus, helix_assoc,
                                                                     speed):
        # The Type 2 frame's Frenet equations: torsion -r and bitorsion K - k
        # of the spatial curve at the matched parameters sigma, bit for bit.
        curve = torus if speed == 1 else CurveSpec.from_dict(FAST_TORUS_DOC).build()
        s = np.linspace(0.05, curve.domain[1] - 0.05, 31)
        f3 = frames3(helix_assoc, _spatial_parameters(curve, helix_assoc, s))
        f = frames4(curve, s, helix_assoc)
        assert np.array_equal(f.torsion, -f3.r)
        assert np.array_equal(f.bitorsion, f.K - f3.k)

    @pytest.mark.parametrize("nudge", [1e-6, 1e-5])
    def test_nearly_associated_pair_still_frames(self, torus, nudge):
        # The associated helix with its drift nudged by 1e-6 of itself: b*T
        # departs from the principal normal by about 2.7e-7, inside PAIR_TOL.
        # Its frame keeps -r and K - k, which no longer see that departure,
        # and still satisfies the frame ODE.  Nudged by 1e-5, it departs by
        # about 2.7e-6, a decade past the first and over PAIR_TOL.
        amp, zeros = -1.64 / (3.0 * TORUS_K), [0.0] * 4
        nudged = fourier_curve([zeros, [0.0, 0.0, 0.0, amp], zeros],
                               [zeros, zeros, [0.0, 0.0, 0.0, amp]],
                               linear=[-0.48 / TORUS_K * (1.0 + nudge), 0.0, 0.0])
        grid = np.linspace(0.3, 5.8, 23)
        T, n1 = frames4(torus, grid).vectors()[:2]
        f3 = frames3(nudged, grid)
        departure = np.max(np.linalg.norm(n1 - mul(f3.b, T), axis=1))
        if nudge > 1e-6:
            assert PAIR_TOL < departure < 1e2 * PAIR_TOL
            with pytest.raises(DegeneracyError, match="not associated"):
                frames4(torus, grid, nudged)
        else:
            assert 1e-8 < departure < PAIR_TOL
            f = frames4(torus, grid, nudged)
            assert np.array_equal(f.torsion, -f3.r) and np.array_equal(f.bitorsion, f.K - f3.k)
            assert frame_ode_residual(torus, grid, nudged).max_residual < 1e-4

    def test_unrelated_pair_is_not_associated(self, torus):
        # b*T of the helix's frames is not the torus's principal normal.
        with pytest.raises(DegeneracyError, match="not associated"):
            frames4(torus, np.linspace(0.5, 5.5, 7), helix3(3.0, 4.0))


class TestOdeResidual:
    def test_torus_residual_small(self, torus, grid101):
        inner = grid101[3:-3]
        report = frame_ode_residual(torus, inner[:: len(inner) // 15])
        assert report.max_residual < 1e-4

    @pytest.mark.parametrize("mu", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
    def test_scaled_torus_residual_small(self, mu):
        # The step is FD_STEP of the domain's length, so the torus scaled by mu
        # reads its ODE to about 3e-12 of its curvature at every size.
        torus = torus_curve(0.6 * mu, 1.0 / mu, 0.4 * mu, 2.0 / mu, domain=(0.0, 2.0 * math.pi * mu))
        report = frame_ode_residual(torus, np.linspace(0.3, 6.0, 25) * mu)
        assert report.max_residual <= 1e-10 * TORUS_K / mu

    def test_grid_as_list_tuple_or_array(self, torus):
        grid = np.linspace(1.0, 3.0, 5)
        reports = [frame_ode_residual(torus, g) for g in (grid, list(grid), tuple(grid))]
        for report in reports[1:]:
            for field in ("grid", "max_per_row", "mean_per_row"):
                assert np.array_equal(getattr(report, field), getattr(reports[0], field))

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
            basis = np.concatenate(f0.vectors())

            def vectors(x):
                return np.concatenate(frame4_intrinsic(torus, x).vectors())

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
    frames = frames4(torus, np.linspace(0.2, 6.0, 24))
    assert np.all(inner(frames.N2[:-1], frames.N2[1:]) > 0.0)
    assert np.all(inner(frames.N3[:-1], frames.N3[1:]) > 0.0)
