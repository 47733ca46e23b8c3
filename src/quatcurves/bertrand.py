"""(1,3)-Bertrand apparatus for quaternionic curves in R^4.

A curve with curvature functions (K, r, K-k) admits a mate at constant
offset ``a*N1 + b*N3`` exactly when constants a != 0, b != 0, c, d satisfy

    (R1)  a*r + b*(K-k) != 0                      (mate regularity)
    (R2)  a*K - c*[a*r + b*(K-k)] = 1             (curvature relation)
    (R3)  c*K + r = d*(K-k)                       (torsion relation)
    (R4)  (1-c^2)*K*r + c*(K^2 - r^2 - (K-k)^2) != 0   (mate torsion nonzero)

This module checks those conditions, fits the constants from curvature
data, constructs the mate, evaluates its closed-form frame and curvature
functions, and verifies the closed forms against curvatures read from
finite-difference derivatives of the actual mate curve.  Curvatures are
per arc length and frames pointwise, in the base curve's own parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .curves import ParametricCurve, _number
from .errors import DegeneracyError, FitError
# frame4_intrinsic and curvature_profile are not called here: they stay
# bound as lookup sites that perfbench/tracing.py patches.
from .frames import (  # noqa: F401
    DEGENERACY_EPS,
    CurvatureProfile,
    Frame4,
    _derivative_frame,
    _intrinsic_basis,
    _profile,
    curvature_profile,
    frame4_intrinsic,
    frames4,
)
from .quaternion import Quaternion, inner, norm

__all__ = [
    "BertrandConstants",
    "MateFrameClosedForm",
    "ConditionResult",
    "BertrandReport",
    "VERIFY_TOLERANCES",
    "check_conditions",
    "fit_constants",
    "construct_mate",
    "phi_prime",
    "mate_frame_closed_form",
    "mate_curvatures_closed_form",
    "mate_curvatures_Kk_form",
    "mate_spatial_curvatures",
    "verify_mate",
]

@dataclass(frozen=True)
class BertrandConstants:
    """The constants a, b, c, d with the orientation signs epsilon, delta."""

    a: float
    b: float
    c: float
    d: float
    epsilon: int = 1
    delta: int = 1

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"constant {name} must be finite")
        if self.a == 0.0:
            raise ValueError("constant a must be nonzero")
        if self.b == 0.0:
            raise ValueError("constant b must be nonzero")
        if self.epsilon not in (1, -1) or self.delta not in (1, -1):
            raise ValueError("epsilon and delta must be +1 or -1")

    @classmethod
    def from_json_dict(cls, data: dict) -> "BertrandConstants":
        try:
            a, b, c, d = (_number(data[name], name) for name in "abcd")
            signs = [_number(data.get(name, 1), name) for name in ("epsilon", "delta")]
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"invalid constants document: {exc}") from exc
        if any(sign not in (1.0, -1.0) for sign in signs):
            raise ValueError(
                f"invalid constants document: epsilon and delta must be 1 or -1, not {signs}"
            )
        return cls(a=a, b=b, c=c, d=d, epsilon=int(signs[0]), delta=int(signs[1]))

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "d": self.d,
            "epsilon": self.epsilon,
            "delta": self.delta,
        }


@dataclass(frozen=True)
class MateFrameClosedForm:
    """Closed-form mate frame and curvature functions at one parameter."""

    phi_prime: float
    Tbar: Quaternion
    N1bar: Quaternion
    N2bar: Quaternion
    N3bar: Quaternion
    cos_gamma0: float
    sin_gamma0: float
    Kbar: float
    torsion_bar: float
    bitorsion_bar: float

    def vectors(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return (self.Tbar, self.N1bar, self.N2bar, self.N3bar)


@dataclass(frozen=True)
class ConditionResult:
    max_residual: float
    tolerance: float
    passed: bool
    min_abs: Optional[float] = None


# Fixed tolerances of verify_mate's stages after its algebraic ``tol``: nonzero
# conditions, constant distance, mate speed, span check and oracle curvatures.
VERIFY_TOLERANCES = {
    "nonzero": DEGENERACY_EPS,
    "distance": 1e-10,
    "speed": 1e-5,
    "span": 1e-5,
    "curvature": 1e-4,
}


@dataclass
class BertrandReport:
    """Residuals and verdicts for every checked identity."""

    conditions: dict[str, ConditionResult]
    distance_deviation: Optional[float] = None
    speed_deviation: Optional[float] = None
    curvature_deviation: Optional[float] = None
    span_residual: Optional[float] = None
    stage_errors: list[str] = field(default_factory=list)
    tolerances: dict[str, float] = field(default_factory=dict)
    verdict: bool = False

    def conditions_pass(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def to_json_dict(self) -> dict:
        out: dict = {
            "conditions": {
                name: {
                    "max_residual": res.max_residual,
                    "tolerance": res.tolerance,
                    "pass": res.passed,
                    **({"min_abs": res.min_abs} if res.min_abs is not None else {}),
                }
                for name, res in self.conditions.items()
            }
        }
        out["distance_deviation"] = self.distance_deviation
        out["speed_deviation"] = self.speed_deviation
        out["curvature_deviation"] = self.curvature_deviation
        out["span_residual"] = self.span_residual
        if self.stage_errors:
            out["stage_errors"] = list(self.stage_errors)
        out["tolerances"] = dict(self.tolerances)
        out["verdict"] = self.verdict
        return out


# -- condition checking -----------------------------------------------------------

def check_conditions(
    profile: CurvatureProfile,
    consts: BertrandConstants,
    tol: float = 1e-8,
) -> BertrandReport:
    """Evaluate the four Bertrand conditions over a curvature profile.

    The two equalities are scored by their max residual against ``tol``;
    the two nonzero conditions by their min absolute value against
    ``DEGENERACY_EPS``.  The stored epsilon and delta signs must match the
    profile everywhere.
    """
    if len(profile) == 0:
        raise ValueError("profile must be nonempty")
    a, b, c, d = consts.a, consts.b, consts.c, consts.d
    K, r, m = profile.K, profile.r, profile.bitorsion
    combo = a * r + b * m
    eq2 = np.abs(a * K - c * combo - 1.0)
    eq3 = np.abs(c * K + r - d * m)
    eq1_abs = np.abs(combo)
    eq4_abs = np.abs((1.0 - c * c) * K * r + c * (K * K - r * r - m * m))

    eps_ok = bool(np.all(np.sign(combo) == consts.epsilon))
    delta_ok = bool(np.all(np.sign(m) == consts.delta))

    def nonzero_result(values: np.ndarray) -> ConditionResult:
        min_abs = float(np.min(values))
        shortfall = max(0.0, DEGENERACY_EPS - min_abs)
        return ConditionResult(
            max_residual=shortfall,
            tolerance=DEGENERACY_EPS,
            passed=min_abs >= DEGENERACY_EPS,
            min_abs=min_abs,
        )

    conditions = {
        "mate_regularity": nonzero_result(eq1_abs),
        "curvature_relation": ConditionResult(float(eq2.max()), tol, bool(eq2.max() <= tol)),
        "torsion_relation": ConditionResult(float(eq3.max()), tol, bool(eq3.max() <= tol)),
        "mate_torsion_nonzero": nonzero_result(eq4_abs),
        "epsilon_sign": ConditionResult(0.0 if eps_ok else 1.0, 0.0, eps_ok),
        "delta_sign": ConditionResult(0.0 if delta_ok else 1.0, 0.0, delta_ok),
    }
    report = BertrandReport(
        conditions=conditions,
        tolerances={"algebraic": tol, "nonzero": DEGENERACY_EPS},
    )
    report.verdict = report.conditions_pass()
    return report


# -- constant fitting ----------------------------------------------------------------

_B_CANDIDATES = (1.0, -1.0, 2.0, -2.0)


def fit_constants(
    profile: CurvatureProfile, c_override: Optional[float] = None
) -> BertrandConstants:
    """Fit the Bertrand constants (a, b, c, d) from curvature data.

    The curvature relation is linear in (u, v, w) = (a, c*a, c*b) and is
    solved by least squares over the grid.  Constant profiles leave the
    system underdetermined; the fitter then minimizes |c| (taking c = 0,
    a = 1/K) unless ``c_override`` forces a value, and picks the first
    nonzero-b candidate that keeps the regularity condition alive.  The
    nonzero conditions are held to ``DEGENERACY_EPS``.  Raises
    :class:`FitError` with the reason on failure.
    """
    if len(profile) < 3:
        raise FitError("profile too small: need at least 3 grid points")
    K, r, m = profile.K, profile.r, profile.bitorsion
    scale = max(1.0, float(np.max(np.abs(K))))
    if np.min(np.abs(m)) < 1e-9 * scale:
        raise FitError("bitorsion K-k vanishes on the grid")
    if np.sign(m.min()) != np.sign(m.max()):
        raise FitError("sign flip of K-k across the grid")

    spread = max(float(np.ptp(K)), float(np.ptp(r)), float(np.ptp(m)))
    constant_profile = spread <= 1e-8 * scale

    if constant_profile:
        K0, r0, m0 = float(K.mean()), float(r.mean()), float(m.mean())
        c = 0.0 if c_override is None else float(c_override)
        if abs(K0 - c * r0) < 1e-12:
            raise FitError("rank-deficient system: K - c*r vanishes")
        b = None
        for cand in _B_CANDIDATES:
            a_try = (1.0 + c * cand * m0) / (K0 - c * r0)
            if abs(a_try) <= 1e-12:
                continue
            if abs(a_try * r0 + cand * m0) > 1e-6:
                a, b = a_try, cand
                break
        if b is None:
            raise FitError("sign flip of a*r + b*(K-k): no admissible b found")
    else:
        if c_override is not None:
            raise FitError("c_override is only supported for constant profiles")
        design = np.column_stack([K, -r, -m])
        rhs = np.ones(len(profile))
        solution, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
        u, v, w = (float(x) for x in solution)
        if abs(u) <= 1e-12:
            raise FitError("a or b indistinguishable from zero")
        if abs(v) > 1e-10:
            c = v / u
            a = u
            b = w * u / v
        else:
            if float(np.ptp(K)) > 1e-8 * scale:
                raise FitError("rank-deficient system: c = 0 requires constant K")
            c, a, b = 0.0, 1.0 / float(K.mean()), 1.0

    if abs(a) <= 1e-12 or abs(b) <= 1e-12:
        raise FitError("a or b indistinguishable from zero")

    d_values = (c * K + r) / m
    d = float(d_values.mean())
    d_dev = float(np.max(np.abs(d_values - d)))
    if d_dev > 1e-6:
        raise FitError(f"non-constant d: max deviation {d_dev:.3g} exceeds 1e-06")

    combo = a * r + b * m
    if np.min(np.abs(combo)) < DEGENERACY_EPS:
        raise FitError("a*r + b*(K-k) vanishes on the grid")
    if np.sign(combo.min()) != np.sign(combo.max()):
        raise FitError("sign flip of a*r + b*(K-k) across the grid")
    eq4 = (1.0 - c * c) * K * r + c * (K * K - r * r - m * m)
    if np.min(np.abs(eq4)) < DEGENERACY_EPS:
        raise FitError("mate torsion degenerates: nonzero condition violated")

    return BertrandConstants(
        a=a,
        b=b,
        c=c,
        d=d,
        epsilon=int(np.sign(combo[0])),
        delta=int(np.sign(m[0])),
    )


# -- mate construction ----------------------------------------------------------------

ConstantsLike = Union[BertrandConstants, tuple[float, float]]


def _offset_ab(consts: ConstantsLike) -> tuple[float, float]:
    if isinstance(consts, BertrandConstants):
        return consts.a, consts.b
    a, b = consts
    return float(a), float(b)


def construct_mate(
    alpha4: ParametricCurve,
    consts: ConstantsLike,
    curve3: Optional[ParametricCurve] = None,
) -> ParametricCurve:
    """The curve ``s -> alpha(s) + a*N1(s) + b*N3(s)``.

    N1 and N3 come from the intrinsic frame of ``alpha4``, or from the
    pair-built frame when the associated spatial curve ``curve3`` is given.
    The result stays parameterized by the base parameter ``s`` and is NOT
    unit speed; the oracle in :func:`verify_mate` reads its curvatures in
    that parameter.  Its domain is the base domain less the order-3 reach
    ``alpha4.fd_margin(3)`` at each end.  ``consts`` may be a plain
    ``(a, b)`` pair so that degenerate offsets remain testable.
    """
    a, b = _offset_ab(consts)
    if curve3 is None:
        def n1_n3(s: np.ndarray):
            _, n1, _, n3, _ = _intrinsic_basis(alpha4, s)
            return n1, n3
    else:
        def n1_n3(s: np.ndarray):
            f = frames4(alpha4, s, curve3)
            return f.N1, f.N3

    def evaluate(s: np.ndarray) -> np.ndarray:
        n1, n3 = n1_n3(s)
        return alpha4.points(s) + a * n1 + b * n3

    lo, hi = alpha4.domain
    margin = alpha4.fd_margin(3)
    return ParametricCurve(
        dim=4,
        evaluate=evaluate,
        domain=(lo + margin, hi - margin),
        name=f"{alpha4.name or 'curve'}[mate]",
    )


def _scale(*values):
    """``max(1, |v|, ...)`` element by element, for floats or arrays of one shape."""
    return np.maximum(1.0, np.max(np.abs(values), axis=0))


def phi_prime(K, r, k, consts: BertrandConstants):
    """Derivative of the parameter correspondence s -> sbar.

    ``epsilon * sqrt(1 + c^2) * (a*r + b*(K-k))``; positive whenever the
    stored epsilon matches the sign of the combination.  ``K``, ``r`` and
    ``k`` are floats or arrays of one shape, as in every closed form here;
    a degenerate value anywhere raises.
    """
    combo = consts.a * r + consts.b * (K - k)
    if np.any(np.abs(combo) < 1e-14 * _scale(K, r, K - k)):
        raise ValueError("mate regularity violated: a*r + b*(K-k) = 0")
    return consts.epsilon * math.sqrt(1.0 + consts.c * consts.c) * combo


def mate_curvatures_closed_form(K, r, k, consts: BertrandConstants):
    """Mate curvature functions from the general closed forms.

    Returns (Kbar, torsion_bar, bitorsion_bar) where torsion_bar is the
    mate's frame-ODE torsion entry written with an absolute value, hence
    nonnegative by construction.
    """
    c = consts.c
    m = K - k
    pp = phi_prime(K, r, k, consts)
    # A product, not ``** 2``: NumPy squares arrays as ``w * w`` but float
    # scalars through ``pow``, which can differ in the last bit.
    w = c * K + r
    root = np.sqrt(w * w + m * m)
    if np.any(root < 1e-14 * _scale(K, r, m)):
        raise ValueError("degenerate denominator: (c*K+r)^2 + (K-k)^2 = 0")
    sq = math.sqrt(1.0 + c * c)
    kbar = root / (pp * sq)
    torsion_bar = np.abs((1.0 - c * c) * K * r + c * (K * K - r * r - m * m)) / (pp * sq * root)
    bitorsion_bar = m * K * sq / (pp * root)
    return kbar, torsion_bar, bitorsion_bar


def _Kk_terms(K, k, consts: BertrandConstants):
    """``K - k``, ``1 + c^2``, ``sqrt(1 + d^2)`` and ``1 - a*K`` for the Kk-forms.

    With c = 0 the curvature relation forces a*K = 1 and the denominators
    vanish identically, so that case is rejected, as is ``1 - a*K`` near 0.
    """
    a, c, d = consts.a, consts.c, consts.d
    if c == 0.0:
        raise ValueError("Kk-form indeterminate, use closed_form")
    denom = 1.0 - a * K
    if np.any(np.abs(denom) < 1e-14 * _scale(a * K)):
        raise ValueError("Kk-form indeterminate, use closed_form")
    return K - k, 1.0 + c * c, math.sqrt(1.0 + d * d), denom


def mate_curvatures_Kk_form(K, k, consts: BertrandConstants):
    """Mate curvature functions in terms of K and k only (needs c != 0).

    The whole map never takes the torsion r as an argument.
    """
    c, d, eps, delta = consts.c, consts.d, consts.epsilon, consts.delta
    m, sq_c, sq_d, denom = _Kk_terms(K, k, consts)
    kbar = c * sq_d * m / (eps * delta * sq_c * denom)
    torsion_bar = c * np.abs(c * (1.0 + d * d) * m - sq_c * d * K) / (eps * sq_c * sq_d * denom)
    bitorsion_bar = c * K / (eps * delta * sq_d * denom)
    return kbar, torsion_bar, bitorsion_bar


def mate_spatial_curvatures(K, k, consts: BertrandConstants):
    """Curvature and torsion of the spatial curve associated with the mate."""
    c, d, eps, delta = consts.c, consts.d, consts.epsilon, consts.delta
    m, sq_c, sq_d, denom = _Kk_terms(K, k, consts)
    kbar_spatial = c * ((1.0 + d * d) * m - sq_c * K) / (eps * delta * sq_c * sq_d * denom)
    rbar_spatial = -c * np.abs(c * (1.0 + d * d) * m - sq_c * d * K) / (eps * sq_c * sq_d * denom)
    # Consistency with the Kk-form: kbar equals Kbar - (Kbar - kbar).
    kbar4, _, bit4 = mate_curvatures_Kk_form(K, k, consts)
    if np.any(np.abs(kbar_spatial - (kbar4 - bit4)) > 1e-12 * _scale(kbar_spatial)):
        raise RuntimeError("spatial mate curvature inconsistent with the Kk-form")
    return kbar_spatial, rbar_spatial


def mate_frame_closed_form(
    frame: Frame4, consts: BertrandConstants
) -> MateFrameClosedForm:
    """Closed-form mate frame from the base frame at one parameter.

    The bar vectors are exact algebraic combinations of the base frame, so
    they are h-orthonormal up to round-off; N1bar and N3bar lie in
    span{N1, N3} by construction.
    """
    K = frame.K
    r = -frame.torsion
    m = frame.bitorsion
    k = K - m
    c = consts.c
    root = math.sqrt((c * K + r) ** 2 + m * m)
    if root < 1e-14 * max(1.0, abs(K), abs(r), abs(m)):
        raise ValueError("degenerate denominator: (c*K+r)^2 + (K-k)^2 = 0")
    pp = phi_prime(K, r, k, consts)
    eps_bar = -consts.epsilon
    E = eps_bar * math.sqrt(1.0 + c * c)
    D = eps_bar * root
    cos_g = (c * K + r) / D
    sin_g = m / D
    T, N1, N2, N3 = frame.vectors()
    Tbar = (1.0 / E) * (c * T + N2)
    N1bar = cos_g * N1 + sin_g * N3
    N2bar = (1.0 / E) * (-1.0 * T + c * N2)
    N3bar = -sin_g * N1 + cos_g * N3
    kbar, torsion_bar, bitorsion_bar = mate_curvatures_closed_form(K, r, k, consts)
    return MateFrameClosedForm(
        phi_prime=pp,
        Tbar=Tbar,
        N1bar=N1bar,
        N2bar=N2bar,
        N3bar=N3bar,
        cos_gamma0=cos_g,
        sin_gamma0=sin_g,
        Kbar=kbar,
        torsion_bar=torsion_bar,
        bitorsion_bar=bitorsion_bar,
    )


# -- end-to-end verification --------------------------------------------------------

def verify_mate(
    alpha4: ParametricCurve,
    consts: BertrandConstants,
    grid: Sequence[float],
    alpha3: Optional[ParametricCurve] = None,
    tol: float = 1e-8,
) -> BertrandReport:
    """Full verification of the Bertrand mate against the intrinsic oracle.

    Stages: (i) condition check on the curvature profile, with the
    algebraic tolerance ``tol``; (ii) mate construction with the
    constant-distance check; (iii) the mate's speed versus the closed-form
    phi' times the base curve's speed; (iv) the oracle: at every grid
    point at least ``mate.fd_margin(4)`` inside the mate's domain, the
    Gram-Schmidt reading of the mate's first four finite-difference
    derivatives in the base parameter (Gluck's formulas need no arc-length
    parameter); (v) curvature comparison in absolute value; (vi) span
    check that the oracle N1bar/N3bar (units 1 and 3) stay in span{N1, N3}.
    The base frames are computed once, and the later stages hold to
    ``VERIFY_TOLERANCES``.  Stage failures are recorded in the report, not
    thrown.
    """
    grid = np.asarray(list(grid), dtype=float)
    # The base frames are those the mate is built from: pointwise, from
    # the same source as the profile (pair frames can orient N3
    # oppositely to intrinsic ones).
    base = frames4(alpha4, grid, alpha3)
    profile = _profile(grid, base, alpha3)
    report = check_conditions(profile, consts, tol=tol)
    report.tolerances = {"algebraic": tol, **VERIFY_TOLERANCES}
    a, b = consts.a, consts.b
    offset = math.sqrt(a * a + b * b)

    try:
        mate = construct_mate(alpha4, consts, curve3=alpha3)
        distances = norm(mate.points(grid) - alpha4.points(grid))
        report.distance_deviation = float(np.max(np.abs(distances - offset)))
    except (DegeneracyError, ValueError, RuntimeError) as exc:
        report.stage_errors.append(f"mate construction: {exc}")
        report.verdict = False
        return report

    mate_lo, mate_hi = mate.domain

    def inside(margin: float) -> np.ndarray:
        return np.flatnonzero((grid >= mate_lo + margin) & (grid <= mate_hi - margin))

    try:
        idx = inside(mate.fd_margin(1))
        if not len(idx):
            raise ValueError("no grid points admit the finite-difference margin")
        pp = phi_prime(profile.K[idx], profile.r[idx], profile.k[idx], consts)
        expected = pp * alpha4.speeds(grid[idx])
        report.speed_deviation = float(np.max(np.abs(mate.speeds(grid[idx]) - expected)))
    except (DegeneracyError, ValueError) as exc:
        report.stage_errors.append(f"mate speed: {exc}")

    usable = inside(mate.fd_margin(4))
    if not len(usable):
        report.stage_errors.append("oracle: no grid points admit the finite-difference margins")
        _finalize(report)
        return report

    try:
        K, torsion, bitorsion = base.K[usable], base.torsion[usable], base.bitorsion[usable]
        kbar, torsion_bar, bitorsion_bar = mate_curvatures_closed_form(
            K, -torsion, K - bitorsion, consts
        )
        s = grid[usable]
        units, rho = _derivative_frame([mate.derivatives(s, n) for n in range(1, 5)])
        report.curvature_deviation = float(max(
            np.max(np.abs(rho[1] / rho[0] ** 2 - kbar)),
            np.max(np.abs(rho[2] / (rho[0] * rho[1]) - np.abs(torsion_bar))),
            np.max(np.abs(rho[3] / (rho[0] * rho[2]) - np.abs(bitorsion_bar))),
        ))
        n1, n3 = base.N1[usable], base.N3[usable]
        span_res = 0.0
        for v in (units[1], units[3]):
            off_span = v - inner(v, n1)[:, None] * n1 - inner(v, n3)[:, None] * n3
            span_res = max(span_res, float(np.max(norm(off_span))))
        report.span_residual = span_res
    except (DegeneracyError, ValueError, RuntimeError) as exc:
        report.stage_errors.append(f"oracle frame: {exc}")

    _finalize(report)
    return report


def _finalize(report: BertrandReport):
    measured = {"distance": report.distance_deviation, "speed": report.speed_deviation,
                "curvature": report.curvature_deviation, "span": report.span_residual}
    report.verdict = report.conditions_pass() and not report.stage_errors and all(
        value is not None and value <= VERIFY_TOLERANCES[name] for name, value in measured.items()
    )
