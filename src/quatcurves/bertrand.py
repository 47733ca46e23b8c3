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
orders 0-7, which the frames layer's one reader of a curve reads with its
base frames; no finite difference enters.  The mate is the curve whose jet
is that series and whose points are ``alpha + a*N1 + b*N3`` from the frame
rows: exact by construction, it is built without a derivative check.
Curvatures are per arc length and frames pointwise, in the base curve's
own parameter.  Every closed form works on whole grids: curvatures as
floats or arrays of one shape, the mate frame as a
:class:`~quatcurves.frames.Frames4` record.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import series
from .curves import ParametricCurve, _number
from .errors import DegeneracyError, FitError
# frame4_intrinsic and curvature_profile are not called here: they stay
# bound as lookup sites that perfbench/tracing.py patches.
from .frames import (  # noqa: F401
    DEGENERACY_EPS,
    CurvatureProfile,
    Frames4,
    _derivative_frame,
    _intrinsic_basis,
    _profile,
    _read,
    _require_r4,
    curvature_profile,
    frame4_intrinsic,
)
from .quaternion import inner, mul, norm

__all__ = [
    "BertrandConstants",
    "ConditionResult",
    "BertrandReport",
    "VERIFY_TOLERANCES",
    "VERIFY_MEASURES",
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
        return asdict(self)


@dataclass(frozen=True)
class ConditionResult:
    max_residual: float
    tolerance: float
    passed: bool
    min_abs: Optional[float] = None


# Dimensionless tolerances of verify_mate's stages after its algebraic ``tol``, each
# held times the scale of its quantity: nonzero conditions, constant distance, mate
# speed, span check and oracle curvatures.
VERIFY_TOLERANCES = {
    "nonzero": DEGENERACY_EPS,
    "distance": 1e-10,
    "speed": 1e-5,
    "span": 1e-5,
    "curvature": 1e-4,
}

# verify_mate's measurements: tolerance name -> report field, in report order.
VERIFY_MEASURES = {
    "distance": "distance_deviation",
    "speed": "speed_deviation",
    "curvature": "curvature_deviation",
    "span": "span_residual",
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
    tolerances: dict[str, Optional[float]] = field(default_factory=VERIFY_TOLERANCES.copy)
    verdict: bool = False

    def conditions_pass(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def measures_pass(self) -> bool:
        """Whether every measurement was taken and is within its tolerance."""
        return all(
            (value := getattr(self, name)) is not None and value <= self.tolerances[tol]
            for tol, name in VERIFY_MEASURES.items()
        )

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
        for name in VERIFY_MEASURES.values():
            out[name] = getattr(self, name)
        if self.stage_errors:
            out["stage_errors"] = list(self.stage_errors)
        out["tolerances"] = dict(self.tolerances)
        out["verdict"] = self.verdict
        return out


# -- condition checking -----------------------------------------------------------

def _curvature_scale(K) -> float:
    """``kappa``, the largest ``|K|`` over the curvature ``K`` (a float or an array).

    A curve's size cannot decide whether it has a mate, so every floor on a
    quantity with units is a dimensionless constant times its power of the
    profile's ``kappa = max|K|``: lengths (a, b, c*a) times 1/kappa, curvatures
    (K - k, K - c*r, the (R3) residual) times kappa, the (R4) term times
    kappa**2.  (R1), (R2), c, d and 1 - a*K are dimensionless.
    """
    return float(np.max(np.abs(K)))


def _r1(a, b, r, m):
    """The (R1) term ``a*r + b*(K-k)``: the constants, then the curvatures, ``m = K - k``."""
    return a * r + b * m


def _r4(c, K, r, m):
    """The (R4) term ``(1-c^2)*K*r + c*(K^2 - r^2 - m^2)``, laid out as :func:`_r1`."""
    return (1.0 - c * c) * K * r + c * (K * K - r * r - m * m)


def check_conditions(
    profile: CurvatureProfile,
    consts: BertrandConstants,
    tol: float = 1e-8,
) -> BertrandReport:
    """Evaluate the four Bertrand conditions over a curvature profile.

    The two equalities are scored by their max residual against ``tol``,
    times ``kappa`` for (R3); the two nonzero conditions by their min
    absolute value, which must exceed ``DEGENERACY_EPS``, times ``kappa**2``
    for (R4) (``kappa = max|K|``, :func:`_curvature_scale`).  The stored
    epsilon and delta signs must match the profile everywhere.
    """
    if len(profile) == 0:
        raise ValueError("profile must be nonempty")
    a, b, c, d = consts.a, consts.b, consts.c, consts.d
    K, r, m = profile.K, profile.r, profile.bitorsion
    combo = _r1(a, b, r, m)
    kappa = _curvature_scale(K)

    eps_ok = bool(np.all(np.sign(combo) == consts.epsilon))
    delta_ok = bool(np.all(np.sign(m) == consts.delta))

    def equality(term: np.ndarray, tolerance: float) -> ConditionResult:
        worst = float(np.max(np.abs(term)))
        return ConditionResult(worst, tolerance, worst <= tolerance)

    def nonzero(term: np.ndarray, floor: float) -> ConditionResult:
        min_abs = float(np.min(np.abs(term)))  # max_residual: the shortfall below the floor
        return ConditionResult(max(0.0, floor - min_abs), floor, min_abs > floor, min_abs)

    conditions = {
        "mate_regularity": nonzero(combo, DEGENERACY_EPS),
        "curvature_relation": equality(a * K - c * combo - 1.0, tol),
        "torsion_relation": equality(c * K + r - d * m, tol * kappa),
        "mate_torsion_nonzero": nonzero(_r4(c, K, r, m), DEGENERACY_EPS * kappa * kappa),
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

def fit_constants(profile: CurvatureProfile) -> BertrandConstants:
    """Fit the Bertrand constants (a, b, c, d) from curvature data.

    (R2) and (R3) are affine in (K, r, K-k), so a Bertrand curve's triples
    lie on a line.  A varying profile needs three triples ``1e-8 * kappa``
    apart, as two fit any constants: (R3), ``[-K, K-k] . (c, d) = r``, gives
    c by least squares and, where ``|c| > 1e-10``, (R2),
    ``[K - c*r, -(K-k)] . (a, c*b) = 1`` gives a and b; else c = 0.  A
    constant profile takes c = 0 where ``|K*r|`` clears the (R4) floor
    ``DEGENERACY_EPS * kappa**2``, else c = +-1 with the sign of K - k.
    Closed forms on the means then keep the nonzero conditions alive: b = 1
    (``2**-floor(log2 kappa)`` where ``kappa <= 1e-12``), negated where c = 0
    and r*(K-k) < 0; a = (1 + c*b*(K-k)) / (K - c*r).  So (R1) =
    (r + b*K*(K-k)) / (K - c*r) cannot cancel: its terms share a sign where
    c = 0, and r is under its floor where c = +-1.  The fit's floors guard
    only the solve; :func:`check_conditions` judges the constants, and one
    :class:`FitError` names every condition they fail.
    """
    if len(profile) < 3:
        raise FitError("profile too small: need at least 3 grid points")
    K, r, m = profile.K, profile.r, profile.bitorsion
    kappa = _curvature_scale(K)
    if np.min(np.abs(m)) <= DEGENERACY_EPS * kappa:
        raise FitError("bitorsion K-k vanishes on the grid")

    triples, spread = np.column_stack([K, r, m]), 1e-8 * kappa
    varying = float(np.max(np.ptp(triples, axis=0))) > spread
    K0, r0, m0 = float(K.mean()), float(r.mean()), float(m.mean())
    if varying:
        # A triple past the spread from triple 0 and from the first triple past it.
        far = np.max(np.abs(triples - triples[0]), axis=1) > spread
        if not np.any(far & (np.max(np.abs(triples - triples[np.argmax(far)]), axis=1) > spread)):
            raise FitError("varying profile holds fewer than three distinct (K, r, K-k) triples")
        c = float(np.linalg.lstsq(np.column_stack([-K, m]), r, rcond=None)[0][0])
        c = c if abs(c) > 1e-10 else 0.0
    else:
        c = 0.0 if abs(K0 * r0) > DEGENERACY_EPS * kappa * kappa else math.copysign(1.0, m0)

    if varying and c != 0.0:
        design = np.column_stack([K - c * r, -m])
        a, cb = (float(x) for x in np.linalg.lstsq(design, np.ones(len(profile)), rcond=None)[0])
        b = cb / c
    else:
        if abs(K0 - c * r0) <= 1e-12 * kappa:
            raise FitError("rank-deficient system: K - c*r vanishes")
        # 2**-floor(log2 kappa), exactly: b * kappa is in [1, 2).
        b = 1.0 if kappa > 1e-12 else math.ldexp(1.0, 1 - math.frexp(kappa)[1])
        if c == 0.0 and r0 * m0 < 0.0:
            b = -b
        a = (1.0 + c * b * m0) / (K0 - c * r0)

    if abs(a) * kappa <= 1e-12 or abs(b) * kappa <= 1e-12:
        raise FitError("a or b indistinguishable from zero")

    # epsilon: the sign of (R1) at the first point, +1 at a zero, which the check then reports.
    consts = BertrandConstants(a, b, c, float(((c * K + r) / m).mean()),
                               1 if _r1(a, b, r[0], m[0]) >= 0.0 else -1, int(np.sign(m[0])))
    failed = ", ".join(
        f"{name} ({'residual' if res.min_abs is None else 'min_abs'} "
        f"{res.max_residual if res.min_abs is None else res.min_abs:.3g}, tol {res.tolerance:.3g})"
        for name, res in check_conditions(profile, consts).conditions.items() if not res.passed
    )
    if failed:
        raise FitError(f"fitted constants fail {failed}")
    return consts


# -- mate construction ----------------------------------------------------------------

ConstantsLike = Union[BertrandConstants, tuple[float, float]]

# Most rows (grid points times orders) of the base curve's jet that one block of
# the mate's Taylor series reads; on a whole 100,000-point grid they need ~360 MB.
ROW_BLOCK = 1 << 15

# The mate's Taylor series have degree 4, the oracle's highest order.  N3
# follows from the third derivative of the base curve, so its series of
# degree 4 reads the base curve's jet up to order 7.  The spatial curve of a
# pair enters only through its unit tangent t in N3 = t*T, so through the
# series of degree 4 of its velocity: its jet of orders 1-5.
_DEGREE = 4
_JET_ORDERS = tuple(range(_DEGREE + 4))
_SPATIAL_ORDERS = tuple(range(1, _DEGREE + 2))


def _mate_point(x: np.ndarray, n1: np.ndarray, n3: np.ndarray, a: float, b: float):
    """The mate ``x + a*n1 + b*n3`` from the base curve and its N1, N3: rows or series."""
    return x + a * n1 + b * n3


def _gram_schmidt(derivs):
    """The unit series of ``_derivative_frame``'s Gram-Schmidt pass over the derivative
    series ``[d1, d2, ...]``: each less its components along the units before it."""
    units = []
    for d in derivs:
        for u in units:
            d = d - series.product(series.inner(d, u)[..., None], u)
        units.append(series.unit(d))
    return units


def _spatial_velocity(x: np.ndarray, g: np.ndarray, shared: bool) -> np.ndarray:
    """Series of ``gamma'(sigma(s + t))`` from the jet ``g`` of orders 1-5 of the
    spatial curve at ``sigma(s)``, for the parameter ``sigma`` that matches arc
    lengths with the base curve (jet ``x``).  A shared parameter gives
    ``sigma(s + t) = s + t``; otherwise ``sigma' = |alpha'(s)| / |gamma'(sigma)|`` is
    solved coefficient by coefficient (the Taylor-series ODE method)."""
    tangent = series.taylor(g, 0, _DEGREE)
    if shared:
        return tangent
    speed2 = series.inner(*(2 * [series.taylor(x, 1, _DEGREE - 1)]))
    speed = series.product(speed2, series.rsqrt(speed2))
    delta = np.zeros((_DEGREE + 1,) + x.shape[1:-1])
    for k in range(_DEGREE):
        v = series.compose(tangent[:k + 1], delta[:k + 1])
        rate = series.product(speed[:k + 1], series.rsqrt(series.inner(v, v)))
        delta[k + 1] = rate[k] / (k + 1)
    return series.compose(tangent, delta)


def _mate_block(x: np.ndarray, a: float, b: float, pair) -> np.ndarray:
    """Taylor coefficients 0-4 of ``alpha + a*N1 + b*N3`` from the jet rows ``x``."""
    d1, d2 = series.taylor(x, 1, _DEGREE), series.taylor(x, 2, _DEGREE)
    T, N1 = _gram_schmidt([d1, d2])
    if pair is None:
        # N3 is orthogonal to d1, d2, d3, and det[d1 d2 d3 N3] has the sign of
        # det[T N1 -N2 N3] = -1 (the Gram-Schmidt pass is triangular with a
        # positive diagonal), so it is minus their normalized cross product.
        # Each series is first scaled per row by 2**-e, e the binary exponent of its
        # largest degree-0 component: exactly, and the trilinear cross stays in range.
        N3 = -series.unit(series.cross(*(
            np.ldexp(d, -np.frexp(np.abs(d[0]).max(axis=-1))[1][..., None])
            for d in (d1, d2, series.taylor(x, 3, _DEGREE)))))
    else:
        # The Type 2 frame's N3 = t*T, t the spatial unit tangent along the base
        # parameter; on an associated pair its N1 = b*T is the principal normal.
        N3 = series.product(series.unit(_spatial_velocity(x, *pair)), T, mul)
    return _mate_point(series.taylor(x, 0, _DEGREE), N1, N3, a, b)


def _mate_series(jet: np.ndarray, a: float, b: float, pair=None) -> np.ndarray:
    """Taylor coefficients 0-4 of the mate ``alpha + a*N1 + b*N3`` at every grid point,
    shape ``(5, n, 4)``, from the jet of orders 0-7 and, for a pair, the spatial jet of
    orders 1-5 with the shared-parameter flag, as :func:`~quatcurves.frames._read`
    gives them; built on blocks of at most ``ROW_BLOCK`` rows of the jet."""
    out = np.empty((_DEGREE + 1,) + jet.shape[1:])
    step = max(1, ROW_BLOCK // len(jet))
    for rows in (slice(i, i + step) for i in range(0, jet.shape[1], step)):
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
    unit speed.  It carries the exact jet of orders 0-4 on the domain of
    ``alpha4``: order k the k-th Taylor coefficient of the series of
    :func:`_mate_series` times k!, and order 0 its points.  The points alone
    (orders ``(0,)``) read one jet of ``alpha4`` of orders 0-3 (0-2 and the
    spatial frames for a pair) and build no series.  The mate is exact by
    construction, so building it evaluates nothing.  ``consts`` may be a plain
    ``(a, b)`` pair so that degenerate offsets remain testable.
    """
    a, b = (consts.a, consts.b) if isinstance(consts, BertrandConstants) else map(float, consts)
    _require_r4(alpha4)

    def points(s: np.ndarray) -> np.ndarray:
        if curve3 is None:
            x, *derivs = alpha4.jet(s, (0, 1, 2, 3))
            _, n1, _, n3, _ = _intrinsic_basis(*derivs)
            return _mate_point(x, n1, n3, a, b)
        x, f, _ = _read(alpha4, s, curve3, (0, 1, 2))
        return _mate_point(x[0], f.N1, f.N3, a, b)

    def jet(s: np.ndarray, orders) -> np.ndarray:
        if orders == (0,):
            return points(s)[None]
        x, base, pair = _read(alpha4, s, curve3, _JET_ORDERS, _SPATIAL_ORDERS)
        rows = series.jet(_mate_series(x, a, b, pair))
        rows[0] = _mate_point(x[0], base.N1, base.N3, a, b)
        return rows.take(orders, axis=0)

    return ParametricCurve(dim=4, domain=alpha4.domain, derivatives=jet,
                           name=f"{alpha4.name or 'curve'}[mate]", jet_order=_DEGREE,
                           validate=False)


def phi_prime(K, r, k, consts: BertrandConstants):
    """Derivative of the parameter correspondence s -> sbar.

    ``epsilon * sqrt(1 + c^2) * (a*r + b*(K-k))``; positive whenever the
    stored epsilon matches the sign of the combination.  ``K``, ``r`` and
    ``k`` are floats or arrays of one shape, as in every closed form here;
    a degenerate value anywhere raises.  Here and in
    :func:`mate_curvatures_closed_form` and :func:`mate_frame_closed_form`
    the fields of ``consts`` may be arrays of that shape too.
    """
    m = K - k
    combo = _r1(consts.a, consts.b, r, m)
    if np.any(np.abs(combo) <= DEGENERACY_EPS):
        raise ValueError("mate regularity violated: |a*r + b*(K-k)| <= DEGENERACY_EPS")
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
    if np.any(root <= DEGENERACY_EPS * _curvature_scale(K)):
        raise ValueError("degenerate denominator: (c*K+r)^2 + (K-k)^2 <= (DEGENERACY_EPS*kappa)^2")
    sq = np.sqrt(1.0 + c * c)
    kbar = root / (pp * sq)
    torsion_bar = np.abs(_r4(c, K, r, m)) / (pp * sq * root)
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
    if np.any(np.abs(denom) < 1e-14):
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
    # The torsion is minus the Kk-form's torsion entry.
    return kbar_spatial, -mate_curvatures_Kk_form(K, k, consts)[1]


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
    ``tol``; (ii) mate construction: the constant-distance check of the
    offset ``a*N1 + b*N3`` its points add to alpha's, and its Taylor series
    of degree 4; (iii) the mate's speed (coefficient 1) versus the
    closed-form phi' times the base curve's speed; (iv) the oracle: at every
    grid point, the Gram-Schmidt reading of the mate's first four
    derivatives (k! times coefficient k) in the base parameter (Gluck's
    formulas need no arc-length parameter); (v) curvature comparison in
    absolute value; (vi) span check that the oracle N1bar/N3bar (units 1
    and 3) stay in span{N1, N3}.  The base frames are those of ``frames4``,
    row for row, and the later stages hold to ``VERIFY_TOLERANCES`` times
    their scales (the offset ``sqrt(a^2 + b^2)``, max ``phi' * |alpha'|``,
    the closed-form max ``|Kbar|``), which the report's ``tolerances`` carry
    (None if a stage failed).  Stage failures are recorded in the report,
    not thrown.
    """
    # The base frames are those the mate is built from: pointwise, from
    # the same source as the profile (pair frames can orient N3
    # oppositely to intrinsic ones).
    jet, base, pair = _read(alpha4, grid, alpha3, _JET_ORDERS, _SPATIAL_ORDERS)
    profile = _profile(grid, base)
    report = check_conditions(profile, consts, tol=tol)
    report.tolerances = {"algebraic": tol, **VERIFY_TOLERANCES, **dict.fromkeys(VERIFY_MEASURES)}
    a, b = consts.a, consts.b
    offset = math.sqrt(a * a + b * b)

    def measured(name, value, scale=1.0):
        setattr(report, VERIFY_MEASURES[name], float(value))
        report.tolerances[name] = VERIFY_TOLERANCES[name] * float(scale)

    # The offset the mate's points add to alpha's, as construct_mate computes
    # it: read from alpha's position, it would carry that position's round-off.
    distances = norm(_mate_point(0.0, base.N1, base.N3, a, b))
    measured("distance", np.max(np.abs(distances - offset)), offset)
    coeffs = _mate_series(jet, a, b, pair)

    try:
        speed = phi_prime(profile.K, profile.r, profile.k, consts) * norm(jet[1])
        measured("speed", np.max(np.abs(norm(coeffs[1]) - speed)), np.max(np.abs(speed)))
    except ValueError as exc:
        report.stage_errors.append(f"mate speed: {exc}")

    try:
        kbar, torsion_bar, bitorsion_bar = mate_curvatures_closed_form(
            profile.K, profile.r, profile.k, consts)
        units, rho = _derivative_frame(series.jet(coeffs)[1:])
        measured("curvature", max(
            np.max(np.abs(rho[1] / rho[0] ** 2 - kbar)),
            np.max(np.abs(rho[2] / (rho[0] * rho[1]) - np.abs(torsion_bar))),
            np.max(np.abs(rho[3] / (rho[0] * rho[2]) - np.abs(bitorsion_bar))),
        ), _curvature_scale(kbar))
        n1, n3 = base.N1, base.N3
        span_res = 0.0
        for v in (units[1], units[3]):
            off_span = v - inner(v, n1)[:, None] * n1 - inner(v, n3)[:, None] * n3
            span_res = max(span_res, float(np.max(norm(off_span))))
        measured("span", span_res)
    except (DegeneracyError, ValueError) as exc:
        report.stage_errors.append(f"oracle frame: {exc}")

    report.verdict = (report.conditions_pass() and not report.stage_errors
                      and report.measures_pass())
    return report
