import dataclasses
import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest

from quatcurves import bertrand
from quatcurves.bertrand import (
    BertrandConstants,
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
    CurvatureProfile,
    Frames4,
    curvature_profile,
    frames4,
    orthonormality_residual,
)
from quatcurves.quaternion import inner, mul

from conftest import TORUS_K

SQ2 = math.sqrt(2.0)


def constant_profile(K, r, k, n=9):
    s = np.linspace(0.0, 1.0, n)
    return CurvatureProfile(s=s, K=np.full(n, K), r=np.full(n, r), k=np.full(n, k),
                            source="intrinsic")


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

    def test_empty_profile_rejected(self, torus_constants):
        empty = CurvatureProfile(s=np.array([]), K=np.array([]), r=np.array([]),
                                 k=np.array([]), source="intrinsic")
        with pytest.raises(ValueError, match="nonempty"):
            check_conditions(empty, torus_constants)


class TestFitConstants:
    def test_torus_fit_is_exact(self, torus_profile, torus_constants):
        report = check_conditions(torus_profile, torus_constants, tol=1e-12)
        assert report.verdict
        assert torus_constants.c == 0.0
        assert torus_constants.a == pytest.approx(1.0 / TORUS_K, rel=1e-12)
        assert torus_constants.d == pytest.approx(0.72, abs=1e-12)

    def test_constant_profile_c_override(self):
        profile = constant_profile(1.0, 1.0, 0.0)
        consts = fit_constants(profile, c_override=0.5)
        report = check_conditions(profile, consts, tol=1e-12)
        assert report.verdict
        assert consts.c == 0.5

    def test_degenerate_c_override_rejected(self):
        # c = 1 makes K - c*r vanish on this profile; the offset a is then
        # unconstrained by the curvature relation.
        with pytest.raises(FitError, match="K - c\\*r"):
            fit_constants(constant_profile(1.0, 1.0, 0.0), c_override=1.0)

    def test_non_constant_d_rejected(self):
        n = 21
        s = np.linspace(0.0, 1.0, n)
        profile = CurvatureProfile(s=s, K=np.full(n, 1.0), r=s.copy(),
                                   k=np.full(n, 0.25), source="intrinsic")
        with pytest.raises(FitError, match="non-constant d"):
            fit_constants(profile)

    def test_short_profile_rejected(self):
        profile = constant_profile(1.0, 1.0, 0.0, n=2)
        with pytest.raises(FitError, match="at least 3"):
            fit_constants(profile)

    def test_vanishing_bitorsion_rejected(self):
        profile = constant_profile(1.0, 1.0, 1.0)
        with pytest.raises(FitError, match="K-k"):
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

    moved = ParametricCurve(4, lambda u: grid_fn(u)[0], torus.domain, grid_fn, name="moved")
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
