import dataclasses
import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatcurves import bertrand
from quatcurves.bertrand import (
    VERIFY_MEASURES,
    VERIFY_TOLERANCES,
    BertrandConstants,
    BertrandReport,
    check_conditions,
    construct_mate,
    fit_constants,
    mate_curvatures_Kk_form,
    mate_curvatures_closed_form,
    mate_frame_closed_form,
    mate_spatial_curvatures,
    phi_prime,
    verify_mate,
)
from quatcurves.curves import ParametricCurve
from quatcurves.errors import FitError
from quatcurves.frames import (
    DEGENERACY_EPS,
    CurvatureProfile,
    Frames4,
    curvature_profile,
    frames4,
    orthonormality_residual,
)
from quatcurves.quaternion import inner, mul

from conftest import TORUS_K, TORUS_M, TORUS_R, VARYING, bertrand_curvatures

SQ2 = math.sqrt(2.0)


def constant_profile(K, r, k, n=9):
    s = np.linspace(0.0, 1.0, n)
    return CurvatureProfile(s=s, K=np.full(n, K), r=np.full(n, r), k=np.full(n, k))


def varying_profile(K, r, m):
    return CurvatureProfile(s=np.linspace(0.0, 1.0, len(K)), K=K, r=r, k=K - m)


def bertrand_profile(m, **consts):
    """The profile on the line of the fixture's constants (or those given) with
    bitorsion ``m = K - k``."""
    K, r = bertrand_curvatures(m=m, **{**VARYING, **consts})
    return varying_profile(K, r, m)


def worked_constants():
    # For the profile K=1, r=1, k=0 the constants (1, 2, 0, 1) satisfy all
    # four conditions directly.
    return BertrandConstants(a=1.0, b=2.0, c=0.0, d=1.0, epsilon=1, delta=1)


def random_frame4(rng, K, torsion, bitorsion):
    mat = rng.normal(size=(4, 4))
    basis, _ = np.linalg.qr(mat)
    if np.linalg.det(basis) < 0:
        basis[:, 3] = -basis[:, 3]
    T, N1, N2, N3 = (basis[None, :, i] for i in range(4))
    return Frames4(T=T, N1=N1, N2=N2, N3=N3, K=np.array([K]), torsion=np.array([torsion]),
                   bitorsion=np.array([bitorsion]))


def stack_frames(frames):
    """One record holding the rows of every record in ``frames``, in order."""
    return Frames4(*(np.concatenate([getattr(f, field.name) for f in frames])
                     for field in dataclasses.fields(Frames4)))


def frame_row(frames, i):
    """Row ``i`` of ``frames`` as a one-row record."""
    return Frames4(*(getattr(frames, field.name)[i:i + 1] for field in dataclasses.fields(Frames4)))


def random_valid_tuple(rng):
    """Curvatures and constants jointly satisfying the two equalities."""
    while True:
        c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        K = rng.uniform(0.5, 2.0)
        r = rng.uniform(-1.5, 1.5)
        m = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
        b = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        if abs(K - c * r) < 0.1:
            continue
        a = (1.0 + c * b * m) / (K - c * r)
        if abs(a) < 1e-3:
            continue
        combo = a * r + b * m
        if abs(combo) < 1e-6:
            continue
        d = (c * K + r) / m
        consts = BertrandConstants(a=a, b=b, c=c, d=d,
                                   epsilon=int(np.sign(combo)), delta=int(np.sign(m)))
        return K, r, K - m, consts


class TestConstants:
    def test_validation(self):
        with pytest.raises(ValueError, match="a must be nonzero"):
            BertrandConstants(a=0.0, b=1.0, c=0.0, d=0.0)
        with pytest.raises(ValueError, match="b must be nonzero"):
            BertrandConstants(a=1.0, b=0.0, c=0.0, d=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            BertrandConstants(a=1.0, b=1.0, c=0.0, d=0.0, epsilon=2)

    def test_json_round_trip(self):
        c = BertrandConstants(a=0.5, b=-1.5, c=2.0, d=0.25, epsilon=-1, delta=1)
        assert BertrandConstants.from_json_dict(c.to_json_dict()) == c


class TestCheckConditions:
    def test_worked_profile_passes(self):
        report = check_conditions(constant_profile(1.0, 1.0, 0.0), worked_constants())
        assert report.verdict
        assert report.conditions["curvature_relation"].max_residual <= 1e-15
        assert report.conditions["torsion_relation"].max_residual <= 1e-15
        assert report.conditions["mate_regularity"].min_abs == pytest.approx(3.0)
        assert report.conditions["mate_torsion_nonzero"].min_abs == pytest.approx(1.0)

    def test_wrong_a_fails_with_unit_residual(self):
        consts = BertrandConstants(a=2.0, b=2.0, c=0.0, d=1.0, epsilon=1, delta=1)
        report = check_conditions(constant_profile(1.0, 1.0, 0.0), consts)
        assert not report.verdict
        assert report.conditions["curvature_relation"].max_residual == pytest.approx(1.0)

    def test_torus_fitted_constants(self, torus_profile, torus_constants):
        report = check_conditions(torus_profile, torus_constants)
        assert report.verdict
        for name in ("curvature_relation", "torsion_relation"):
            assert report.conditions[name].max_residual < 1e-8

    @pytest.mark.parametrize("mu", [1e-12, 1e-3, 1e3, 1e12])
    def test_scaled_profile_keeps_its_verdicts(self, mu):
        # Curvatures scale by 1/mu and the offsets a, b by mu: each verdict
        # stays, and each tolerance scales by the power of mu of its units.
        def scaled(K, r, k, consts, mu):
            return (constant_profile(K / mu, r / mu, k / mu),
                    dataclasses.replace(consts, a=consts.a * mu, b=consts.b * mu))

        worked = worked_constants()
        powers = {"mate_regularity": 0, "curvature_relation": 0, "torsion_relation": -1,
                  "mate_torsion_nonzero": -2, "epsilon_sign": 0, "delta_sign": 0}
        for K, r, k, consts in [(1.0, 1.0, 0.0, worked),
                                (1.0, 1.0, 0.0, dataclasses.replace(worked, a=2.0)),  # (R2)
                                (1.0, 1.0, 0.0, dataclasses.replace(worked, d=2.0)),  # (R3)
                                (1.0, 0.0, 0.0, dataclasses.replace(worked, d=0.0))]:  # (R4)
            want = check_conditions(constant_profile(K, r, k), consts)
            got = check_conditions(*scaled(K, r, k, consts, mu))
            assert got.verdict == want.verdict
            for name, power in powers.items():
                assert got.conditions[name].passed == want.conditions[name].passed, name
                assert got.conditions[name].tolerance == pytest.approx(
                    want.conditions[name].tolerance * mu ** power, rel=1e-15), name

    def test_empty_profile_rejected(self, torus_constants):
        empty = CurvatureProfile(s=np.array([]), K=np.array([]), r=np.array([]), k=np.array([]))
        with pytest.raises(ValueError, match="nonempty"):
            check_conditions(empty, torus_constants)


class TestFitConstants:
    def test_torus_fit_is_exact(self, torus_profile, torus_constants):
        report = check_conditions(torus_profile, torus_constants, tol=1e-12)
        assert report.verdict
        assert torus_constants.c == 0.0
        assert torus_constants.a == pytest.approx(1.0 / TORUS_K, rel=1e-12)
        assert torus_constants.d == pytest.approx(0.72, abs=1e-12)

    def test_varying_profile_is_fit_exactly(self):
        # The triples of a varying profile lie on the line of its constants:
        # (R3) gives c and (R2) a and c*b.
        s = np.linspace(0.0, 1.0, 41)
        for m in (1.0 + 0.4 * s, 1.0 + 0.3 * np.sin(3.0 * s)):
            consts = fit_constants(bertrand_profile(m))
            got = [consts.a, consts.b, consts.c, consts.d]
            assert got == pytest.approx([VARYING[name] for name in "abcd"], rel=0.0, abs=1e-13)

    def test_non_constant_d_rejected(self):
        # K = 1, K - k = 0.75 and r = s: no d is constant.  (R3) reads the
        # least-squares c = -0.32, and (R2), a*(1 + 0.32*s) - 0.75*c*b = 1,
        # then has the exact solution a = 0, under the length floor.
        n = 21
        s = np.linspace(0.0, 1.0, n)
        profile = CurvatureProfile(s=s, K=np.full(n, 1.0), r=s.copy(), k=np.full(n, 0.25))
        with pytest.raises(FitError, match="a or b indistinguishable from zero"):
            fit_constants(profile)

    def test_short_profile_rejected(self):
        profile = constant_profile(1.0, 1.0, 0.0, n=2)
        with pytest.raises(FitError, match="at least 3"):
            fit_constants(profile)

    def test_vanishing_bitorsion_rejected(self):
        profile = constant_profile(1.0, 1.0, 1.0)
        with pytest.raises(FitError, match="K-k"):
            fit_constants(profile)

    # The fit only solves; check_conditions judges its constants, and the
    # FitError names each condition they fail.  Each profile below fails the
    # condition its test names, a decade or more past its tolerance.

    @pytest.mark.parametrize("signs, fits", [((1.0, 1.0), True), ((1.0, -1.0), False)],
                             ids=["one-sign", "sign-flip"])
    def test_bitorsion_sign_is_judged_by_delta_sign(self, signs, fits):
        # The line of (a, b, c, d) = (0.8, 0.2, 0.5, 0.5) with |K - k| = 0.2 to
        # 0.3: K = 1 + 0.3*m and r = 0.35*m - 0.5 keep (R2) and (R3) for either
        # sign of m = K - k, and (R1) = 0.48*m - 0.4 stays negative.
        m = (0.2 + 0.1 * np.linspace(0.0, 1.0, 10)) * np.resize(signs, 10)
        profile = bertrand_profile(m, a=0.8, b=0.2, c=0.5, d=0.5)
        if fits:
            assert check_conditions(profile, fit_constants(profile)).verdict
        else:
            with pytest.raises(FitError, match=r"fail delta_sign \(residual 1, tol 0\)$"):
                fit_constants(profile)

    def test_varying_K_with_c_zero_fails_curvature_relation(self):
        # r = 0 with K and K - k not proportional: (R3) reads c = 0, so the fit
        # takes a = 1/mean(K); (R2) then misses by a*K - 1 = 0.2 at the ends (and
        # the (R4) term, K*r, vanishes).
        s = np.linspace(0.0, 1.0, 21)
        profile = CurvatureProfile(s=s, K=1.0 + 0.5 * s, r=np.zeros(21), k=0.5 * s - s * s)
        with pytest.raises(FitError, match=r"curvature_relation \(residual 0\.2, tol 1e-08\)"):
            fit_constants(profile)

    @pytest.mark.parametrize("wiggle, fits", [(4e-11, True), (4e-9, False)],
                             ids=["decade-inside", "decade-outside"])
    def test_torsion_relation_read_at_the_check_tolerance(self, wiggle, fits):
        # K = 1, r = 5 and K - k = 0.2 -+ wiggle: a constant profile with
        # c = 0 and d = 25, whose d varies by 25*wiggle/0.2 (at most 5e-7)
        # and whose (R3) residual 25*wiggle is 1e-9 or 1e-7, against the
        # check's 1e-8*kappa.
        m = 0.2 + wiggle * np.resize([1.0, -1.0], 9)
        profile = CurvatureProfile(s=np.linspace(0.0, 1.0, 9), K=np.ones(9),
                                   r=np.full(9, 5.0), k=1.0 - m)
        if fits:
            consts = fit_constants(profile)
            assert (consts.c, consts.d) == (0.0, pytest.approx(25.0, abs=1e-6))
        else:
            with pytest.raises(FitError, match=r"fail torsion_relation \(residual 1\.1\de-07"):
                fit_constants(profile)

    # The fit's own guards, each tripped and then missed by a decade; a profile
    # that passes a guard goes on to the check, whose FitError names a condition.

    @pytest.mark.parametrize("m", [1e-7, 1e-5])
    def test_vanishing_torsion_fits_c_one(self, m):
        # K = 1, r = 0: c = 0 would make (R4) = K*r vanish, so the fit takes c
        # = +1, the sign of K - k, and (R4) = K^2 - m^2.  (R1) = b*K*m / K = m is
        # then a decade and more over its 1e-9 floor, with a = 1 + m.
        profile = constant_profile(1.0, 0.0, 1.0 - m)
        consts = fit_constants(profile)
        assert (consts.c, consts.b, consts.a) == (1.0, 1.0, 1.0 + profile.bitorsion[0])
        assert check_conditions(profile, consts).verdict

    @pytest.mark.parametrize("r, m, c, b", [
        (1e-10, 0.5, 1.0, 1.0), (-1e-10, -0.5, -1.0, 1.0),
        (1e-8, 0.5, 0.0, 1.0), (-1e-8, 0.5, 0.0, -1.0),
    ], ids=["under-plus", "under-minus", "decade-over", "decade-over-mirrored"])
    def test_c_reads_the_r4_floor(self, r, m, c, b):
        # K = 1: |K*r| = 1e-10 is under the (R4) floor 1e-9, so c = +-1 with the
        # sign of K - k; a decade over it, c = 0 and b takes the sign of r*(K-k).
        profile = constant_profile(1.0, r, 1.0 - m)
        consts = fit_constants(profile)
        assert (consts.c, consts.b) == (c, b)
        assert check_conditions(profile, consts).verdict

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(K=st.floats(0.1, 10.0),
           r=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
           ratio=st.floats(1e-6, 5.0),
           sign=st.sampled_from([1.0, -1.0]))
    def test_closed_form_keeps_regularity(self, K, r, ratio, sign):
        # (R1) = (r + b*K*(K-k)) / (K - c*r): with c = 0 the sign of b makes both
        # terms share a sign, and c = +-1 is taken only where r = 0 here, so
        # (R1) never falls under |b*(K-k)|*K / |K - c*r| by cancellation.
        assume(r == 0.0 or abs(K * r) > DEGENERACY_EPS * K * K)
        assume(r != 0.0 or abs(1.0 - ratio) > 1e-8)  # (R4) = +-(K^2 - (K-k)^2)
        profile = constant_profile(K, r, K - sign * ratio * K)
        consts = fit_constants(profile)
        m = float(profile.bitorsion[0])
        bound = abs(consts.b * m) * K / abs(K - consts.c * r)
        assert abs(consts.a * r + consts.b * m) >= bound * (1.0 - 1e-12)
        assert check_conditions(profile, consts).verdict

    @pytest.mark.parametrize("wiggle, fits", [(5e-8, False), (5e-10, True)],
                             ids=["trips", "decade-under"])
    def test_spread_threshold(self, wiggle, fits):
        # K = 1 -+ wiggle, r = 1 and K - k = 1 spread 2*wiggle: 1e-9 is a
        # constant profile against the 1e-8*kappa spread, fit with c = 0 and
        # b = 1; 1e-7 is a varying one, whose two distinct triples any
        # constants would fit.
        profile = varying_profile(1.0 + wiggle * np.resize([1.0, -1.0], 9), np.ones(9), np.ones(9))
        if fits:
            consts = fit_constants(profile)
            assert (consts.c, consts.b) == (0.0, 1.0)
            assert check_conditions(profile, consts).verdict
        else:
            with pytest.raises(FitError, match="fewer than three distinct"):
                fit_constants(profile)

    @pytest.mark.parametrize("c, fitted_c, fitted_b", [(1e-11, 0.0, 1.0), (1e-9, 1e-9, 0.5)],
                             ids=["decade-under", "decade-over"])
    def test_c_reads_its_zero_floor(self, c, fitted_c, fitted_b):
        # (R3) reads c; at |c| <= 1e-10 the fit takes c = 0 and the constant
        # branch's b, as b = (c*b) / c would carry the solve's round-off over c.
        profile = bertrand_profile(1.0 + 0.4 * np.linspace(0.0, 1.0, 9), b=0.5, c=c)
        consts = fit_constants(profile)
        assert (consts.c, consts.b) == (pytest.approx(fitted_c, rel=1e-5, abs=0.0),
                                        pytest.approx(fitted_b, rel=1e-5))
        assert check_conditions(profile, consts).verdict

    def test_varying_profile_with_c_zero(self):
        # K = 1 and r = -(K - k): (R3) reads c = 0 and d = -1.  b takes the
        # sign of d, as b = +1 would make (R1) = a*r + b*(K - k) vanish.
        m = 0.5 + 0.3 * np.linspace(0.0, 1.0, 9)
        profile = varying_profile(np.ones(9), -m, m)
        consts = fit_constants(profile)
        assert (consts.a, consts.b, consts.c, consts.d) == (1.0, -1.0, 0.0, pytest.approx(-1.0))
        assert check_conditions(profile, consts).verdict

    @pytest.mark.parametrize("m", [np.ones(9), 1.0 + np.linspace(0.0, 1.0, 9)],
                             ids=["constant", "varying"])
    def test_vanishing_curvature_and_torsion_rejected(self, m):
        # K = r = 0 leaves (R2) nothing to divide by: with c = +-1 on the
        # constant profile, with c = 0 (no c fits (R3)) on the varying one.
        with pytest.raises(FitError, match="K - c\\*r vanishes"):
            fit_constants(varying_profile(np.zeros(9), np.zeros(9), m))

    @pytest.mark.parametrize("b, fits", [(0.0, False), (1e-11 / 1.84, True)],
                             ids=["trips", "decade-over"])
    def test_fitted_b_floor(self, b, fits):
        # On the line of (0.8, b, 0.5, 1.5) (R2) gives c*b exactly: b = 0, or
        # 1e-11 over the 1e-12 / kappa floor (kappa = 1.84), as b = (c*b) / c.
        profile = bertrand_profile(1.0 + 0.4 * np.linspace(0.0, 1.0, 9), b=b)
        assert bertrand._curvature_scale(profile.K) == pytest.approx(1.84)
        if fits:
            assert fit_constants(profile).b == pytest.approx(b, rel=1e-4)
        else:
            with pytest.raises(FitError, match="a or b indistinguishable from zero"):
                fit_constants(profile)


class TestConstructMate:
    def test_zero_offsets_reproduce_curve(self, torus):
        mate = construct_mate(torus, (0.0, 0.0))
        for s in (0.5, 2.5, 5.0):
            assert np.max(np.abs(mate.point(s) - torus.point(s))) <= 1e-12

    def test_constant_distance(self, torus, torus_constants, grid101):
        mate = construct_mate(torus, torus_constants)
        offset = math.hypot(torus_constants.a, torus_constants.b)
        for s in grid101:
            d = np.linalg.norm(mate.point(float(s)) - torus.point(float(s)))
            assert abs(d - offset) <= 1e-10

    def test_speed_matches_phi_prime(self, torus, torus_constants, torus_profile):
        mate = construct_mate(torus, torus_constants)
        for i in (7, 40, 77):
            s = float(torus_profile.s[i])
            pp = phi_prime(torus_profile.K[i], torus_profile.r[i], torus_profile.k[i],
                           torus_constants)
            assert abs(mate.speeds([s])[0] - pp) <= 1e-5


class TestPhiPrime:
    def test_worked_value(self):
        assert phi_prime(1.0, 1.0, 0.0, worked_constants()) == pytest.approx(3.0)

    def test_with_nonzero_c(self):
        consts = BertrandConstants(a=1.0, b=2.0, c=1.0, d=1.0, epsilon=1, delta=1)
        assert phi_prime(1.0, 1.0, 0.0, consts) == pytest.approx(3.0 * SQ2)

    def test_zero_combination_rejected(self):
        consts = BertrandConstants(a=1.0, b=-1.0, c=0.0, d=1.0, epsilon=1, delta=1)
        with pytest.raises(ValueError, match="regularity"):
            phi_prime(1.0, 1.0, 0.0, consts)

    def test_reads_the_regularity_floor_of_check_conditions(self):
        # At K = r = 1, k = 0, a = 1: a*r + b*(K-k) = 1 + b, 5e-10 under
        # DEGENERACY_EPS and 2e-9 over it.
        def consts(combo):
            return BertrandConstants(a=1.0, b=combo - 1.0, c=0.0, d=1.0, epsilon=1, delta=1)

        with pytest.raises(ValueError, match="regularity"):
            phi_prime(1.0, 1.0, 0.0, consts(5e-10))
        assert phi_prime(1.0, 1.0, 0.0, consts(2e-9)) == pytest.approx(2e-9, rel=1e-6, abs=0.0)


class TestClosedFormCurvatures:
    def test_worked_values(self):
        kbar, torsion_bar, bitorsion_bar = mate_curvatures_closed_form(
            1.0, 1.0, 0.0, worked_constants()
        )
        assert abs(kbar - SQ2 / 3.0) <= 1e-12
        assert abs(torsion_bar - 1.0 / (3.0 * SQ2)) <= 1e-12
        assert abs(bitorsion_bar - 1.0 / (3.0 * SQ2)) <= 1e-12

    def test_kk_form_matches_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            K, r, k, consts = random_valid_tuple(rng)
            closed = mate_curvatures_closed_form(K, r, k, consts)
            kk = mate_curvatures_Kk_form(K, k, consts)
            for x, y in zip(closed, kk):
                assert abs(abs(x) - abs(y)) <= 1e-10 * max(1.0, abs(x), abs(y))

    def test_degenerate_root_reads_the_curvature_scale(self):
        # sqrt((c*K + r)^2 + (K-k)^2) = 5e-10 * K, under DEGENERACY_EPS * K at any
        # size K, while a*r + b*(K-k) = 2.3e-9 keeps phi' over its floor.
        for K in (1e-6, 1.0, 1e6):
            consts = BertrandConstants(a=1.0 / K, b=5.0 / K, c=0.0, d=1.0, epsilon=1, delta=1)
            with pytest.raises(ValueError, match="degenerate denominator"):
                mate_curvatures_closed_form(K, 3e-10 * K, K - 4e-10 * K, consts)

    def test_kk_form_guards(self):
        with pytest.raises(ValueError, match="indeterminate"):
            mate_curvatures_Kk_form(1.0, 0.0, worked_constants())
        consts = BertrandConstants(a=1.0, b=1.0, c=1.0, d=1.0, epsilon=1, delta=1)
        with pytest.raises(ValueError, match="indeterminate"):
            mate_curvatures_Kk_form(1.0, 0.5, consts)  # a*K == 1

    def test_kk_form_ignores_torsion(self):
        sig = inspect.signature(mate_curvatures_Kk_form)
        assert "r" not in sig.parameters
        consts = BertrandConstants(a=0.25, b=1.0, c=2.0, d=0.5, epsilon=1, delta=1)
        assert mate_curvatures_Kk_form(1.0, 0.2, consts) == mate_curvatures_Kk_form(
            1.0, 0.2, consts
        )

    def test_spatial_curvatures_consistent(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            K, r, k, consts = random_valid_tuple(rng)
            kbar_s, rbar_s = mate_spatial_curvatures(K, k, consts)
            kbar, torsion_bar, bitorsion_bar = mate_curvatures_Kk_form(K, k, consts)
            assert abs(kbar_s - (kbar - bitorsion_bar)) <= 1e-12 * max(1.0, abs(kbar_s))
            assert rbar_s == -torsion_bar

    def test_spatial_curvatures_guard(self):
        with pytest.raises(ValueError, match="indeterminate"):
            mate_spatial_curvatures(1.0, 0.0, worked_constants())

    def test_array_calls_are_scalar_rows(self):
        # One set of constants; the 50 rows move along the one-parameter
        # family of (K, r, K-k) that satisfies both equalities for it.
        rng = np.random.default_rng(33)
        K0, _, k0, consts = random_valid_tuple(rng)
        a, b, c, d = consts.a, consts.b, consts.c, consts.d
        m = (K0 - k0) * rng.uniform(0.9, 1.1, size=50)
        K = (1.0 + c * (a * d + b) * m) / (a * (1.0 + c * c))
        r = d * m - c * K
        k = K - m
        # Row 17 made degenerate: a*r + b*(K-k) = 0, or 1 - a*K = 0 for the Kk-forms.
        r_bad, K_bad = r.copy(), K.copy()
        r_bad[17], K_bad[17] = -b * m[17] / a, 1.0 / a
        cases = [
            (phi_prime, (K, r, k), (K, r_bad, k)),
            (mate_curvatures_closed_form, (K, r, k), (K, r_bad, k)),
            (mate_curvatures_Kk_form, (K, k), (K_bad, k)),
            (mate_spatial_curvatures, (K, k), (K_bad, k)),
        ]
        for form, args, bad in cases:
            rows = np.array(form(*args, consts)).reshape(-1, 50)
            for i in range(50):
                want = np.array(form(*(float(x[i]) for x in args), consts)).reshape(-1)
                assert np.array_equal(rows[:, i], want), (form.__name__, i)
            with pytest.raises(ValueError) as on_array:
                form(*bad, consts)
            with pytest.raises(ValueError) as on_row:
                form(*(float(x[17]) for x in bad), consts)
            assert str(on_array.value) == str(on_row.value), form.__name__
        # The frame closed form: its n-row call against its one-row calls.
        frames = stack_frames([random_frame4(rng, K[i], -r[i], m[i]) for i in range(50)])
        rows = mate_frame_closed_form(frames, consts)
        for i in range(50):
            one = mate_frame_closed_form(frame_row(frames, i), consts)
            for field in dataclasses.fields(Frames4):
                got, want = getattr(one, field.name)[0], getattr(rows, field.name)[i]
                assert np.array_equal(got, want), (field.name, i)
        bad_frames = dataclasses.replace(frames, torsion=-r_bad)
        with pytest.raises(ValueError) as on_array:
            mate_frame_closed_form(bad_frames, consts)
        with pytest.raises(ValueError) as on_row:
            mate_frame_closed_form(frame_row(bad_frames, 17), consts)
        assert str(on_array.value) == str(on_row.value)


class TestClosedFormFrame:
    def test_c_zero_swaps_tangent_and_n2(self):
        rng = np.random.default_rng(33)
        f = random_frame4(rng, K=1.0, torsion=-1.0, bitorsion=1.0)
        cf = mate_frame_closed_form(f, worked_constants())
        # epsilon = +1 makes the leading factor -1: Tbar = -N2, N2bar = +T.
        assert np.max(np.abs(cf.T + f.N2)) <= 1e-12
        assert np.max(np.abs(cf.N2 - f.T)) <= 1e-12

    def test_worked_gamma_components(self):
        rng = np.random.default_rng(34)
        f = random_frame4(rng, K=1.0, torsion=-1.0, bitorsion=1.0)
        cf = mate_frame_closed_form(f, worked_constants())
        cos_gamma0, sin_gamma0 = inner(cf.N1, f.N1)[0], inner(cf.N1, f.N3)[0]
        assert abs(cos_gamma0 + 1.0 / SQ2) <= 1e-12
        assert abs(sin_gamma0 + 1.0 / SQ2) <= 1e-12
        assert abs(cos_gamma0**2 + sin_gamma0**2 - 1.0) <= 1e-10

    def test_orthonormality_random_inputs(self):
        # The 300 draws in one call: each row carries its own constants.
        rng = np.random.default_rng(35)
        frames, draws = [], []
        for _ in range(300):
            K, r, k, consts = random_valid_tuple(rng)
            frames.append(random_frame4(rng, K=K, torsion=-r, bitorsion=K - k))
            draws.append(consts)
        consts = SimpleNamespace(**{name: np.array([getattr(c, name) for c in draws])
                                    for name in ("a", "b", "c", "d", "epsilon", "delta")})
        cf = mate_frame_closed_form(stack_frames(frames), consts)
        assert orthonormality_residual(cf.vectors()) <= 1e-10
        assert np.max(np.abs(inner(cf.T, cf.N2))) <= 1e-13

    def test_bar_normals_stay_in_span(self):
        rng = np.random.default_rng(36)
        K, r, k, consts = random_valid_tuple(rng)
        f = random_frame4(rng, K=K, torsion=-r, bitorsion=K - k)
        cf = mate_frame_closed_form(f, consts)
        n1, n3 = f.N1[0], f.N3[0]
        for v in (cf.N1[0], cf.N3[0]):
            res = v - (v @ n1) * n1 - (v @ n3) * n3
            assert np.max(np.abs(res)) <= 1e-12


class TestVerifyMate:
    def test_torus_full_verdict(self, torus_report):
        assert torus_report.verdict
        assert torus_report.distance_deviation < 1e-10
        assert torus_report.speed_deviation < 1e-5
        assert torus_report.curvature_deviation < 1e-4
        assert torus_report.span_residual < 1e-5
        assert not torus_report.stage_errors

    def test_perturbed_constants_fail(self, torus, torus_constants, grid101):
        bad = BertrandConstants(
            a=torus_constants.a + 0.1 / TORUS_K,
            b=torus_constants.b,
            c=torus_constants.c,
            d=torus_constants.d,
            epsilon=torus_constants.epsilon,
            delta=torus_constants.delta,
        )
        # Keep the grid light; the condition failure is algebraic.
        report = verify_mate(torus, bad, grid101[:: 5])
        assert not report.verdict
        assert not report.conditions["curvature_relation"].passed

    def test_pair_sourced_verification(self, torus, helix_assoc):
        # Constants fitted from pair-built frames flip epsilon and delta; the
        # mate construction must follow the same frame source.
        grid = np.linspace(0.05, 2.0 * math.pi - 0.05, 61)
        from quatcurves.frames import curvature_profile

        profile = curvature_profile(torus, grid, curve3=helix_assoc)
        consts = fit_constants(profile)
        assert consts.epsilon == -1 and consts.delta == -1
        report = verify_mate(torus, consts, grid, alpha3=helix_assoc)
        assert report.verdict, (report.stage_errors, report.to_json_dict())

    def test_oracle_detects_wrong_closed_form(self, torus, torus_constants, grid101,
                                              monkeypatch):
        # A 0.1% error in the closed-form mate curvature must fail the oracle.
        exact = bertrand.mate_curvatures_closed_form

        def scaled(K, r, k, consts):
            kbar, torsion_bar, bitorsion_bar = exact(K, r, k, consts)
            return 1.001 * kbar, torsion_bar, bitorsion_bar

        monkeypatch.setattr(bertrand, "mate_curvatures_closed_form", scaled)
        report = verify_mate(torus, torus_constants, grid101[:: 5])
        assert not report.verdict
        assert report.curvature_deviation > 1e-4

    def test_regularity_under_the_floor_stops_speed_and_oracle(self, torus, torus_constants):
        # Constants with min|a*r + b*(K-k)| = 5e-10 on the torus: under
        # DEGENERACY_EPS, so check_conditions fails them and phi' refuses them.
        grid = np.linspace(0.0, 2.0 * math.pi, 21)
        consts = dataclasses.replace(torus_constants, a=(5e-10 - TORUS_M) / TORUS_R)
        profile = curvature_profile(torus, grid)
        assert np.min(np.abs(consts.a * profile.r + profile.bitorsion)) == pytest.approx(5e-10)
        assert not check_conditions(profile, consts).conditions["mate_regularity"].passed
        with pytest.raises(ValueError, match="regularity"):
            phi_prime(profile.K, profile.r, profile.k, consts)
        report = verify_mate(torus, consts, grid)
        assert not report.verdict
        assert [e.split(":")[0] for e in report.stage_errors] == ["mate speed", "oracle frame"]
        assert all("mate regularity violated" in e for e in report.stage_errors)

    def test_grid_as_list_tuple_or_array(self, torus, torus_constants):
        grid = np.linspace(0.1, 6.0, 9)
        reports = [verify_mate(torus, torus_constants, g).to_json_dict()
                   for g in (grid, list(grid), tuple(grid))]
        assert reports[0] == reports[1] == reports[2]

    def test_report_json_shape(self, torus_report):
        doc = torus_report.to_json_dict()
        assert set(doc["conditions"]) == {
            "mate_regularity", "curvature_relation", "torsion_relation",
            "mate_torsion_nonzero", "epsilon_sign", "delta_sign",
        }
        for entry in doc["conditions"].values():
            assert {"max_residual", "tolerance", "pass"} <= set(entry)
        for key in ("distance_deviation", "speed_deviation", "curvature_deviation",
                    "span_residual", "verdict", "tolerances"):
            assert key in doc
        assert doc["verdict"] is True

    def test_report_keys_in_table_order(self, torus_report):
        measures = ["distance_deviation", "speed_deviation", "curvature_deviation",
                    "span_residual"]
        assert list(VERIFY_MEASURES.values()) == measures
        assert list(torus_report.to_json_dict()) == [
            "conditions", *measures, "tolerances", "verdict"]
        failed = dataclasses.replace(torus_report, stage_errors=["oracle frame: x"])
        assert list(failed.to_json_dict()) == [
            "conditions", *measures, "stage_errors", "tolerances", "verdict"]

    @pytest.mark.parametrize("name", list(VERIFY_MEASURES))
    def test_each_measure_holds_to_its_tolerance(self, name):
        # Every other measure at 0; this one missing, just over or at its tolerance.
        def passes(value):
            report = BertrandReport(conditions={}, **dict.fromkeys(VERIFY_MEASURES.values(), 0.0))
            setattr(report, VERIFY_MEASURES[name], value)
            return report.measures_pass()

        tol = VERIFY_TOLERANCES[name]
        assert not passes(None)
        assert not passes(tol * (1.0 + 1e-12))
        assert passes(tol)


def test_mate_frame_curvatures_match_oracle_on_torus(torus, torus_constants, torus_report):
    # The worked fixture numbers: phi' and the three closed-form curvature
    # values are constant along the torus; freeze them against the formulas.
    K, r, m = TORUS_K, 1.44 / TORUS_K, 2.0 / TORUS_K
    pp = phi_prime(K, r, K - m, torus_constants)
    assert pp == pytest.approx(1.44 / 2.92 + 2.0 / TORUS_K, rel=1e-12)
    kbar, torsion_bar, bitorsion_bar = mate_curvatures_closed_form(K, r, K - m, torus_constants)
    assert kbar == pytest.approx(math.sqrt(r * r + m * m) / pp, rel=1e-12)
    assert torsion_bar == pytest.approx(K * r / (pp * math.sqrt(r * r + m * m)), rel=1e-12)
    assert bitorsion_bar == pytest.approx(m * K / (pp * math.sqrt(r * r + m * m)), rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rotation_invariance(torus, seed):
    # x -> p x q with unit quaternions p, q is a rotation of R^4 (det +1),
    # so curvatures, fitted constants and the verdict do not move.
    rng = np.random.default_rng(seed)
    p, q = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 4)))

    def grid_fn(u, orders=(0,)):
        return np.stack([mul(p, mul(d, q)) for d in torus.jet(u, orders)])

    moved = ParametricCurve(4, torus.domain, grid_fn, name="moved")
    grid = np.linspace(0.0, 2.0 * math.pi, 21)
    got, want = frames4(moved, grid), frames4(torus, grid)
    for name in ("K", "torsion", "bitorsion"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-12, name
    fitted = [fit_constants(curvature_profile(c, grid)) for c in (moved, torus)]
    for name in ("a", "b", "c", "d"):
        assert abs(getattr(fitted[0], name) - getattr(fitted[1], name)) <= 1e-12, name
    assert (fitted[0].epsilon, fitted[0].delta) == (fitted[1].epsilon, fitted[1].delta)
    off = BertrandConstants(**{**fitted[1].to_json_dict(), "a": fitted[1].a + 0.01})
    verdicts = [[verify_mate(c, k, grid).verdict for c in (moved, torus)] for k in (fitted[1], off)]
    assert verdicts == [[True, True], [False, False]]
