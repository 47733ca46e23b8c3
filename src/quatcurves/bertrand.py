"""(1,3)-Bertrand apparatus for quaternionic curves in R^4.

A curve with curvature functions (K, r, K-k) admits a mate at constant
offset ``a*N1 + b*N3`` exactly when constants a != 0, b != 0, c, d satisfy

    (R1)  a*r + b*(K-k) != 0                      (mate regularity)
    (R2)  a*K - c*[a*r + b*(K-k)] = 1             (curvature relation)
    (R3)  c*K + r = d*(K-k)                       (torsion relation)
    (R4)  (1-c^2)*K*r + c*(K^2 - r^2 - (K-k)^2) != 0   (mate torsion nonzero)

This module checks those conditions, fits the constants from curvature
data, constructs the mate, evaluates its closed-form frame and curvature
functions, and verifies the closed forms against curvatures read from the
exact derivatives of the actual mate curve.  Those derivatives are the
Taylor coefficients of ``alpha + a*N1 + b*N3`` that series arithmetic
(:mod:`quatcurves.series`) gives from one jet of the base curve, of
orders 0-7; no finite difference enters.  Curvatures are per arc length
and frames pointwise, in the base curve's own parameter.  Every closed
form works on whole grids: curvatures as floats or arrays of one shape,
the mate frame as a :class:`~quatcurves.frames.Frames4` record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import series
from .curves import ParametricCurve, _number, row_blocks
from .errors import DegeneracyError, FitError
# frame4_intrinsic and curvature_profile are not called here: they stay
# bound as lookup sites that perfbench/tracing.py patches.
from .frames import (  # noqa: F401
    DEGENERACY_EPS,
    CurvatureProfile,
    Frames4,
    _derivative_frame,
    _intrinsic_basis,
    _intrinsic_frames,
    _pair_frames,
    _profile,
    _require_r4,
    _spatial_parameters,
    curvature_profile,
    frame4_intrinsic,
    frames3,
)
from .quaternion import inner, norm

__all__ = [
    "BertrandConstants",
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

# The mate's Taylor series have degree 4, the oracle's highest order.  N3
# follows from the third derivative of the base curve, so its series of
# degree 4 reads the base curve's jet up to order 7.  The spatial curve of a
# pair enters through its first two derivatives along the base parameter,
# so through its series of degree 6.
_DEGREE = 4
_JET_ORDERS = tuple(range(_DEGREE + 4))
_SPATIAL_DEGREE = _DEGREE + 2
_SPATIAL_ORDERS = tuple(range(_SPATIAL_DEGREE + 1))


def _read_jet(alpha4: ParametricCurve, s: np.ndarray, alpha3: Optional[ParametricCurve]):
    """The jet of ``alpha4`` of orders 0-7 on ``s``, its frames from the rows and
    arithmetic of :func:`~quatcurves.frames.frames4`, and for a pair the jet of
    ``alpha3`` of orders 0-6 at the matching parameters and whether the two
    curves share their parameter (None without a pair)."""
    _require_r4(alpha4)
    jet = alpha4.jet(s, _JET_ORDERS)
    if alpha3 is None:
        return jet, _intrinsic_frames(*jet[1:5]), None
    sigma = _spatial_parameters(alpha4, alpha3, s)
    spatial = alpha3.jet(sigma, _SPATIAL_ORDERS)
    f3 = frames3(alpha3, sigma, spatial[1:4])
    shared = alpha4.is_unit_speed and alpha3.is_unit_speed
    return jet, _pair_frames(jet[1], jet[2], f3), (spatial, shared)


def _gram_schmidt(derivs):
    """The unit series of ``_derivative_frame``'s Gram-Schmidt pass over the derivative
    series ``[d1, d2, ...]``: each less its components along the units before it."""
    units = []
    for d in derivs:
        for u in units:
            d = d - series.product(series.inner(d, u)[..., None], u)
        units.append(series.unit(d))
    return units


def _spatial_offsets(x: np.ndarray, g: np.ndarray, shared: bool) -> np.ndarray:
    """Series of ``sigma(s + t) - sigma(s)`` for the parameter ``sigma`` of the spatial
    curve (jet ``g`` at ``sigma(s)``) that matches arc lengths with the base curve (jet
    ``x``).  A shared parameter gives ``t``; otherwise
    ``sigma' = |alpha'(s)| / |gamma'(sigma)|`` is solved coefficient by coefficient
    (the Taylor-series ODE method)."""
    delta = np.zeros((_SPATIAL_DEGREE + 1,) + x.shape[1:-1])
    if shared:
        delta[1] = 1.0
        return delta
    speed2 = series.inner(*(2 * [series.taylor(x, 1, _SPATIAL_DEGREE - 1)]))
    speed = series.product(speed2, series.rsqrt(speed2))
    tangent = series.taylor(g, 1, _SPATIAL_DEGREE - 1)
    for k in range(_SPATIAL_DEGREE):
        v = series.compose(tangent[:k + 1], delta[:k + 1])
        rate = series.product(speed[:k + 1], series.rsqrt(series.inner(v, v)))
        delta[k + 1] = rate[k] / (k + 1)
    return delta


def _mate_block(x: np.ndarray, a: float, b: float, pair) -> np.ndarray:
    """Taylor coefficients 0-4 of ``alpha + a*N1 + b*N3`` from the jet rows ``x``."""
    d1, d2 = series.taylor(x, 1, _DEGREE), series.taylor(x, 2, _DEGREE)
    if pair is None:
        # N3 is orthogonal to d1, d2, d3, and det[d1 d2 d3 N3] has the sign of
        # det[T N1 -N2 N3] = -1 (the Gram-Schmidt pass is triangular with a
        # positive diagonal), so it is minus their normalized cross product.
        T, N1 = _gram_schmidt([d1, d2])
        N3 = -series.unit(series.cross(d1, d2, series.taylor(x, 3, _DEGREE)))
    else:
        # The spatial curve along the base parameter, gamma(sigma(s + t)),
        # gives t and n; then N1 = b*T and N3 = t*T with b = t*n.
        g, shared = pair
        gamma = series.compose(series.taylor(g, 0, _SPATIAL_DEGREE),
                               _spatial_offsets(x, g, shared))
        velocity = series.derivative(gamma)
        t, n = _gram_schmidt([velocity[:_DEGREE + 1], series.derivative(velocity)])
        T = series.unit(d1)
        N1 = series.qproduct(series.qproduct(t, n), T)
        N3 = series.qproduct(t, T)
    return series.taylor(x, 0, _DEGREE) + a * N1 + b * N3


def _mate_series(jet: np.ndarray, a: float, b: float, pair=None) -> np.ndarray:
    """Taylor coefficients 0-4 of the mate ``alpha + a*N1 + b*N3`` at every grid point,
    shape ``(5, n, 4)``, from the rows of :func:`_read_jet`; built on blocks of at most
    ``ROW_BLOCK`` rows of the jet."""
    out = np.empty((_DEGREE + 1,) + jet.shape[1:])
    for rows in row_blocks(jet.shape[1], len(jet)):
        block_pair = None if pair is None else (pair[0][:, rows], pair[1])
        out[:, rows] = _mate_block(jet[:, rows], a, b, block_pair)
    return out


def construct_mate(
    alpha4: ParametricCurve,
    consts: ConstantsLike,
    curve3: Optional[ParametricCurve] = None,
) -> ParametricCurve:
    """The curve ``s -> alpha(s) + a*N1(s) + b*N3(s)``.

    N1 and N3 come from the intrinsic frame of ``alpha4``, or from the
    pair-built frame when the associated spatial curve ``curve3`` is given.
    The result stays parameterized by the base parameter ``s`` and is NOT
    unit speed.  Its points read one jet of ``alpha4`` per block: the points
    and the derivatives the frame needs.  It carries the exact jet of orders
    0-4 on the domain of ``alpha4``: order 0 its points, order k the k-th
    Taylor coefficient of the series of :func:`_mate_series` times k!.
    ``consts`` may be a plain ``(a, b)`` pair so that degenerate offsets
    remain testable.
    """
    a, b = (consts.a, consts.b) if isinstance(consts, BertrandConstants) else map(float, consts)
    _require_r4(alpha4)

    def evaluate(s: np.ndarray) -> np.ndarray:
        if curve3 is None:
            x, *derivs = alpha4.jet(s, (0, 1, 2, 3))
            _, n1, _, n3, _ = _intrinsic_basis(*derivs)
        else:
            x, d1, d2 = alpha4.jet(s, (0, 1, 2))
            f = _pair_frames(d1, d2, frames3(curve3, _spatial_parameters(alpha4, curve3, s)))
            n1, n3 = f.N1, f.N3
        return x + a * n1 + b * n3

    def jet(s: np.ndarray, orders) -> np.ndarray:
        x, base, pair = _read_jet(alpha4, s, curve3)
        coeffs = _mate_series(x, a, b, pair)
        return np.stack([x[0] + a * base.N1 + b * base.N3 if n == 0
                         else math.factorial(n) * coeffs[n] for n in orders])

    # Exact by construction: building the mate evaluates nothing.
    return ParametricCurve(dim=4, evaluate=evaluate, domain=alpha4.domain, derivatives=jet,
                           name=f"{alpha4.name or 'curve'}[mate]", jet_order=_DEGREE,
                           validate=False)


def _scale(*values):
    """``max(1, |v|, ...)`` element by element, for floats or arrays of one shape."""
    return np.maximum(1.0, np.max(np.abs(values), axis=0))


def phi_prime(K, r, k, consts: BertrandConstants):
    """Derivative of the parameter correspondence s -> sbar.

    ``epsilon * sqrt(1 + c^2) * (a*r + b*(K-k))``; positive whenever the
    stored epsilon matches the sign of the combination.  ``K``, ``r`` and
    ``k`` are floats or arrays of one shape, as in every closed form here;
    a degenerate value anywhere raises.  Here and in
    :func:`mate_curvatures_closed_form` and :func:`mate_frame_closed_form`
    the fields of ``consts`` may be arrays of that shape too.
    """
    combo = consts.a * r + consts.b * (K - k)
    if np.any(np.abs(combo) < 1e-14 * _scale(K, r, K - k)):
        raise ValueError("mate regularity violated: a*r + b*(K-k) = 0")
    return consts.epsilon * np.sqrt(1.0 + consts.c * consts.c) * combo


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
    sq = np.sqrt(1.0 + c * c)
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


def mate_frame_closed_form(frames: Frames4, consts: BertrandConstants) -> Frames4:
    """Closed-form mate frames from the base frames, row by row.

    Returns the record of Tbar, N1bar, N2bar, N3bar with the closed-form
    Kbar, torsion_bar and bitorsion_bar of
    :func:`mate_curvatures_closed_form`, which also rejects degenerate
    rows.  The bar vectors are exact algebraic combinations of the base
    frame, so they are h-orthonormal up to round-off; N1bar and N3bar lie
    in span{N1, N3} by construction, turned by the angle gamma0 with
    ``cos gamma0 = h(N1bar, N1)`` and ``sin gamma0 = h(N1bar, N3)``.
    """
    K, r, m = frames.K, -frames.torsion, frames.bitorsion
    kbar, torsion_bar, bitorsion_bar = mate_curvatures_closed_form(K, r, K - m, consts)
    c, eps_bar = consts.c, -consts.epsilon
    w = c * K + r
    D = eps_bar * np.sqrt(w * w + m * m)
    # Per-row coefficients as columns, to scale the (n, 4) vector rows.
    cos_g, sin_g, c, E = (np.reshape(x, (-1, 1))
                          for x in (w / D, m / D, c, eps_bar * np.sqrt(1.0 + c * c)))
    T, N1, N2, N3 = frames.vectors()
    return Frames4(T=(c * T + N2) / E, N1=cos_g * N1 + sin_g * N3, N2=(c * N2 - T) / E,
                   N3=cos_g * N3 - sin_g * N1, K=kbar, torsion=torsion_bar,
                   bitorsion=bitorsion_bar)


# -- end-to-end verification --------------------------------------------------------

def verify_mate(
    alpha4: ParametricCurve,
    consts: BertrandConstants,
    grid: Sequence[float],
    alpha3: Optional[ParametricCurve] = None,
    tol: float = 1e-8,
) -> BertrandReport:
    """Full verification of the Bertrand mate against the intrinsic oracle.

    One jet of ``alpha4`` of orders 0-7 on the grid (and, for a pair, one
    of ``alpha3``) feeds every stage.  Stages: (i) condition check on the
    curvature profile of the base frames, with the algebraic tolerance
    ``tol``; (ii) mate construction: its points ``alpha + a*N1 + b*N3``
    with the constant-distance check, and its Taylor series of degree 4;
    (iii) the mate's speed (coefficient 1) versus the closed-form phi'
    times the base curve's speed; (iv) the oracle: at every grid point, the
    Gram-Schmidt reading of the mate's first four derivatives (k! times
    coefficient k) in the base parameter (Gluck's formulas need no
    arc-length parameter); (v) curvature comparison in absolute value; (vi)
    span check that the oracle N1bar/N3bar (units 1 and 3) stay in
    span{N1, N3}.  The base frames are those of ``frames4``, row for row,
    and the later stages hold to ``VERIFY_TOLERANCES``.  Stage failures are
    recorded in the report, not thrown.
    """
    grid = np.asarray(grid, dtype=float)
    # The base frames are those the mate is built from: pointwise, from
    # the same source as the profile (pair frames can orient N3
    # oppositely to intrinsic ones).
    jet, base, pair = _read_jet(alpha4, grid, alpha3)
    profile = _profile(grid, base, alpha3)
    report = check_conditions(profile, consts, tol=tol)
    report.tolerances = {"algebraic": tol, **VERIFY_TOLERANCES}
    a, b = consts.a, consts.b
    offset = math.sqrt(a * a + b * b)

    try:
        # The mate's points as construct_mate computes them, less alpha's.
        distances = norm(jet[0] + a * base.N1 + b * base.N3 - jet[0])
        report.distance_deviation = float(np.max(np.abs(distances - offset)))
        coeffs = _mate_series(jet, a, b, pair)
    except (DegeneracyError, ValueError, RuntimeError) as exc:
        report.stage_errors.append(f"mate construction: {exc}")
        report.verdict = False
        return report

    try:
        pp = phi_prime(profile.K, profile.r, profile.k, consts)
        report.speed_deviation = float(np.max(np.abs(norm(coeffs[1]) - pp * norm(jet[1]))))
    except (DegeneracyError, ValueError) as exc:
        report.stage_errors.append(f"mate speed: {exc}")

    try:
        K, torsion, bitorsion = base.K, base.torsion, base.bitorsion
        kbar, torsion_bar, bitorsion_bar = mate_curvatures_closed_form(
            K, -torsion, K - bitorsion, consts
        )
        units, rho = _derivative_frame([math.factorial(k) * coeffs[k]
                                        for k in range(1, _DEGREE + 1)])
        report.curvature_deviation = float(max(
            np.max(np.abs(rho[1] / rho[0] ** 2 - kbar)),
            np.max(np.abs(rho[2] / (rho[0] * rho[1]) - np.abs(torsion_bar))),
            np.max(np.abs(rho[3] / (rho[0] * rho[2]) - np.abs(bitorsion_bar))),
        ))
        n1, n3 = base.N1, base.N3
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
