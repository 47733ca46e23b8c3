"""Moving frames for unit-speed curves in R^3 and R^4.

The spatial frame (t, n, b) uses the quaternion product for the binormal,
``b = t * n``.  The R^4 frame {T, N1, N2, N3} is computed two ways:

* intrinsically, from derivatives of the curve alone, with N2 oriented so
  that the torsion reading ``h(N1', N2)`` is ``-||N1' + K T||`` and N3
  completing a determinant +1 orthonormal basis;
* from a pair (R^4 curve, associated spatial curve) via the products
  ``N1 = b * T``, ``N2 = n * T``, ``N3 = t * T``.

Both satisfy the same skew frame ODE with coefficients K (curvature),
torsion and bitorsion; ``frame_ode_residual`` measures how well finite
differences of the frame fields reproduce that system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .curves import DEFAULT_STEPS, ParametricCurve, _fd_derivative, is_unit_speed
from .errors import DegeneracyError
from .quaternion import Quaternion, mul

__all__ = [
    "Frame3",
    "Frame4",
    "CurvatureProfile",
    "OdeResidualReport",
    "frame3_at",
    "frame4_intrinsic",
    "frame4_from_pair",
    "frames_on_grid",
    "frame_ode_residual",
    "curvature_profile",
    "orthonormality_residual",
    "frame_determinant",
    "FRAME4_CSV_HEADER",
    "FRAME3_CSV_HEADER",
    "DEGENERACY_EPS",
    "UNIT_SPEED_TOL",
    "PAIR_TOL",
]

DEGENERACY_EPS = 1e-9
UNIT_SPEED_TOL = 1e-5
# Largest orthonormality residual of a pair-built frame before the spatial
# curve is rejected as not associated with the R^4 curve.
PAIR_TOL = 1e-6

FRAME4_CSV_HEADER = (
    "s,T0,T1,T2,T3,N1_0,N1_1,N1_2,N1_3,N2_0,N2_1,N2_2,N2_3,"
    "N3_0,N3_1,N3_2,N3_3,K,torsion,bitorsion"
)
FRAME3_CSV_HEADER = "s,t0,t1,t2,n0,n1,n2,b0,b1,b2,k,r"


@dataclass(frozen=True)
class Frame3:
    """Spatial frame with curvature k >= 0 and signed torsion r."""

    t: Quaternion
    n: Quaternion
    b: Quaternion
    k: float
    r: float

    def vectors(self) -> tuple[Quaternion, Quaternion, Quaternion]:
        return (self.t, self.n, self.b)


@dataclass(frozen=True)
class Frame4:
    """R^4 frame with principal curvature K, torsion and bitorsion readings.

    ``torsion`` is the frame-ODE entry h(N1', N2); ``bitorsion`` is
    h(N2', N3).  The spatial-curve curvature implied by the frame is
    ``K - bitorsion``.
    """

    T: Quaternion
    N1: Quaternion
    N2: Quaternion
    N3: Quaternion
    K: float
    torsion: float
    bitorsion: float

    def vectors(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return (self.T, self.N1, self.N2, self.N3)


@dataclass
class CurvatureProfile:
    """Per-grid-point curvature functions K, r, k (k = K - bitorsion)."""

    s: np.ndarray
    K: np.ndarray
    r: np.ndarray
    k: np.ndarray
    source: str

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.K = np.asarray(self.K, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        self.k = np.asarray(self.k, dtype=float)
        if not (len(self.s) == len(self.K) == len(self.r) == len(self.k)):
            raise ValueError("profile arrays must share a length")
        if len(self.s) and np.any(np.diff(self.s) <= 0):
            raise ValueError("profile grid must be strictly increasing")
        for arr in (self.K, self.r, self.k):
            if not np.all(np.isfinite(arr)):
                raise ValueError("profile values must be finite")

    @property
    def bitorsion(self) -> np.ndarray:
        return self.K - self.k

    def __len__(self) -> int:
        return len(self.s)


# -- helpers -------------------------------------------------------------------

def _require_unit_speed(curve: ParametricCurve):
    ok, dev = is_unit_speed(curve, UNIT_SPEED_TOL)
    if not ok:
        raise ValueError(
            f"frame computation requires a unit-speed curve (max |speed-1| = {dev:.3g}); "
            "reparameterize by arc length first"
        )


def _orthonormalize(vec: np.ndarray, against: Sequence[np.ndarray]) -> np.ndarray:
    out = vec.copy()
    for u in against:
        out -= (out @ u) * u
    return out


def _oriented_complement(u1: np.ndarray, u2: np.ndarray, u3: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to u1, u2, u3 making det[u1 u2 u3 x] = +1."""
    m = np.stack([u1, u2, u3], axis=0)
    x = np.array([(-1.0) ** i * np.linalg.det(np.delete(m, i, axis=1)) for i in range(4)])
    nx = np.linalg.norm(x)
    if nx < DEGENERACY_EPS:
        raise DegeneracyError("orientation failure: frame completion is degenerate")
    x /= nx
    if np.linalg.det(np.column_stack([u1, u2, u3, x])) < 0.0:
        x = -x
    return x


def orthonormality_residual(vectors: Sequence[Quaternion]) -> float:
    """Max deviation of all pairwise inner products from the identity pattern."""
    res = 0.0
    for i, p in enumerate(vectors):
        for j, q in enumerate(vectors):
            if j < i:
                continue
            target = 1.0 if i == j else 0.0
            res = max(res, abs(p.dot(q) - target))
    return res


def frame_determinant(frame: Frame4) -> float:
    cols = np.column_stack([v.as_vec4() for v in frame.vectors()])
    return float(np.linalg.det(cols))


# -- spatial frame ---------------------------------------------------------------

def frame3_at(curve: ParametricCurve, s: float) -> Frame3:
    """Frenet frame of a unit-speed spatial curve at parameter ``s``.

    ``t`` is the tangent, ``k = ||t'||`` the curvature, ``n = t'/k``, and
    ``b = t * n`` (quaternion product).  The torsion is the projection
    ``h(n', b)``.
    """
    if curve.dim != 3:
        raise ValueError("frame3_at requires a curve of dimension 3")
    _require_unit_speed(curve)
    d1 = curve.derivative(s, 1)
    d2 = curve.derivative(s, 2)
    d3 = curve.derivative(s, 3)
    k = float(np.linalg.norm(d2))
    if k < DEGENERACY_EPS:
        raise DegeneracyError("zero curvature")
    t_hat = d1 / np.linalg.norm(d1)
    n_vec = _orthonormalize(d2, [t_hat])
    nn = np.linalg.norm(n_vec)
    if nn < DEGENERACY_EPS:
        raise DegeneracyError("zero curvature")
    n_hat = n_vec / nn
    tq = Quaternion.from_vec4(t_hat)
    nq = Quaternion.from_vec4(n_hat)
    bq = mul(tq, nq)
    n_prime = d3 / k - d2 * (d3 @ d2) / k**3
    r = float(n_prime @ bq.as_vec4())
    return Frame3(t=tq, n=nq, b=bq, k=k, r=r)


# -- intrinsic R^4 frame ----------------------------------------------------------

def _frame4_basis(curve: ParametricCurve, s: float):
    """Orthonormal basis (T, N1, N2, N3) plus K, torsion and raw derivatives."""
    d1 = curve.derivative(s, 1)
    d2 = curve.derivative(s, 2)
    d3 = curve.derivative(s, 3)
    K = float(np.linalg.norm(d2))
    if K < DEGENERACY_EPS:
        raise DegeneracyError("zero curvature")
    t_hat = d1 / np.linalg.norm(d1)
    n1 = _orthonormalize(d2, [t_hat])
    n1 /= np.linalg.norm(n1)
    kp = (d3 @ d2) / K
    n1_prime = d3 / K - d2 * kp / K**2
    w = n1_prime + K * t_hat
    wp = _orthonormalize(w, [t_hat, n1])
    wn = float(np.linalg.norm(wp))
    if wn < DEGENERACY_EPS:
        raise DegeneracyError("zero torsion")
    n2 = -wp / wn
    n3 = _oriented_complement(t_hat, n1, n2)
    return t_hat, n1, n2, n3, K, -wn, (d1, d2, d3, w)


def _bitorsion(curve: ParametricCurve, s: float, basis) -> float:
    t_hat, n1, n2, n3, K, torsion, (d1, d2, d3, w) = basis
    d4 = curve.derivative(s, 4)
    L1 = float(np.linalg.norm(d1))
    t_prime = d2 / L1 - d1 * (d2 @ d1) / L1**3
    kp = (d3 @ d2) / K
    kpp = (d4 @ d2 + d3 @ d3 - kp * kp) / K
    n1_pp = d4 / K - 2.0 * d3 * kp / K**2 - d2 * kpp / K**2 + 2.0 * d2 * kp**2 / K**3
    w_prime = n1_pp + kp * t_hat + K * t_prime
    wn = float(np.linalg.norm(w))
    n2_prime = -w_prime / wn + w * (w_prime @ w) / wn**3
    return float(n2_prime @ n3)


def frame4_intrinsic(curve: ParametricCurve, s: float) -> Frame4:
    """R^4 frame recovered from curve derivatives alone.

    ``N1 = T'/K``; ``N2 = -(N1' + K T)/||N1' + K T||`` so the torsion
    reading is always nonpositive; ``N3`` completes the unique orthonormal
    basis with determinant +1.  The bitorsion is ``h(N2', N3)``, with
    ``N2'`` written in closed form from the first four derivatives, so
    analytic and finite-difference curves are read the same way (the latter
    need the order-4 stencil reach ``curve.fd_margin(4)`` from the ends).
    """
    if curve.dim != 4:
        raise ValueError("frame4_intrinsic requires a curve of dimension 4")
    _require_unit_speed(curve)
    basis = _frame4_basis(curve, s)
    t_hat, n1, n2, n3, K, torsion, _ = basis
    return Frame4(
        T=Quaternion.from_vec4(t_hat),
        N1=Quaternion.from_vec4(n1),
        N2=Quaternion.from_vec4(n2),
        N3=Quaternion.from_vec4(n3),
        K=K,
        torsion=torsion,
        bitorsion=_bitorsion(curve, s, basis),
    )


# -- pair-built R^4 frame ----------------------------------------------------------

def frame4_from_pair(curve4: ParametricCurve, curve3: ParametricCurve, s: float) -> Frame4:
    """R^4 frame built from the spatial frame of an associated curve.

    ``N1 = b*T``, ``N2 = n*T``, ``N3 = t*T`` with (t, n, b) the spatial
    frame of ``curve3`` at the same parameter.  Torsion and bitorsion are
    read from the frame-ODE projections h(N1', N2) and h(N2', N3).
    """
    if curve4.dim != 4:
        raise ValueError("frame4_from_pair requires a curve of dimension 4")
    f3 = frame3_at(curve3, s)
    _require_unit_speed(curve4)
    d1 = curve4.derivative(s, 1)
    d2 = curve4.derivative(s, 2)
    K = float(np.linalg.norm(d2))
    if K < DEGENERACY_EPS:
        raise DegeneracyError("zero curvature")
    L1 = float(np.linalg.norm(d1))
    t_hat = d1 / L1
    Tq = Quaternion.from_vec4(t_hat)
    N1 = mul(f3.b, Tq)
    N2 = mul(f3.n, Tq)
    N3 = mul(f3.t, Tq)
    residual = orthonormality_residual((Tq, N1, N2, N3))
    if residual > PAIR_TOL:
        raise DegeneracyError(
            f"pair frame orthonormality residual {residual:.3g} exceeds {PAIR_TOL:.3g}; "
            "the spatial curve is not associated with the R^4 curve"
        )
    # Frame derivatives via the spatial Frenet system and the chain rule.
    t_prime = d2 / L1 - d1 * (d2 @ d1) / L1**3
    Tpq = Quaternion.from_vec4(t_prime)
    b_prime = -f3.r * f3.n
    n_prime = -f3.k * f3.t + f3.r * f3.b
    N1_prime = mul(b_prime, Tq) + mul(f3.b, Tpq)
    N2_prime = mul(n_prime, Tq) + mul(f3.n, Tpq)
    torsion = N1_prime.dot(N2)
    bitorsion = N2_prime.dot(N3)
    return Frame4(T=Tq, N1=N1, N2=N2, N3=N3, K=K, torsion=torsion, bitorsion=bitorsion)


# -- grid-level operations -----------------------------------------------------------

FrameProvider = Callable[[float], Frame4]


def _default_provider(curve4: ParametricCurve, curve3: Optional[ParametricCurve]) -> FrameProvider:
    if curve3 is None:
        return lambda s: frame4_intrinsic(curve4, s)
    return lambda s: frame4_from_pair(curve4, curve3, s)


def _flip_n2_n3(frame: Frame4) -> Frame4:
    # Joint sign flip keeps orthonormality and the determinant; the torsion
    # reading changes sign while the bitorsion is invariant.
    return Frame4(
        T=frame.T,
        N1=frame.N1,
        N2=-frame.N2,
        N3=-frame.N3,
        K=frame.K,
        torsion=-frame.torsion,
        bitorsion=frame.bitorsion,
    )


def frames_on_grid(
    curve4: ParametricCurve,
    grid: Sequence[float],
    curve3: Optional[ParametricCurve] = None,
) -> list[Frame4]:
    """Frames at each grid point with a sequential sign-continuity pass.

    Pointwise frames are deterministic, but where the torsion crosses zero
    the N2 orientation can jump between adjacent points; the pass flips
    (N2, N3) jointly whenever that brings the frame closer to its
    predecessor.
    """
    fn = _default_provider(curve4, curve3)
    frames: list[Frame4] = []
    prev: Optional[Frame4] = None
    for s in grid:
        f = fn(float(s))
        if prev is not None and f.N2.dot(prev.N2) < 0.0:
            f = _flip_n2_n3(f)
        frames.append(f)
        prev = f
    return frames


@dataclass
class OdeResidualReport:
    """Residuals of the frame ODE rows measured by finite differences."""

    grid: np.ndarray
    max_per_row: np.ndarray
    mean_per_row: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(self.max_per_row))


def frame_ode_residual(
    curve4: ParametricCurve,
    grid: Sequence[float],
    curve3: Optional[ParametricCurve] = None,
    provider: Optional[FrameProvider] = None,
) -> OdeResidualReport:
    """Compare finite-difference frame derivatives against the frame ODE.

    For each grid point the four frame fields returned by ``provider``
    (by default the frame of ``curve4``, pair-built when ``curve3`` is
    given) are differentiated centrally with the order-1 step and one
    Richardson level, and compared to the skew system

        T'  =  K N1
        N1' = -K T + torsion * N2
        N2' = -torsion * N1 + bitorsion * N3
        N3' = -bitorsion * N2
    """
    fn = provider or _default_provider(curve4, curve3)
    grid = np.asarray(list(grid), dtype=float)
    residuals = np.zeros((len(grid), 4))

    def frame_vectors(s: float) -> np.ndarray:
        f = fn(s)
        return np.stack([v.as_vec4() for v in f.vectors()])

    for idx, s in enumerate(grid):
        f = fn(s)
        deriv = _fd_derivative(frame_vectors, s, 1, DEFAULT_STEPS[1])
        T, N1, N2, N3 = (v.as_vec4() for v in f.vectors())
        expected = np.stack(
            [
                f.K * N1,
                -f.K * T + f.torsion * N2,
                -f.torsion * N1 + f.bitorsion * N3,
                -f.bitorsion * N2,
            ]
        )
        residuals[idx] = np.linalg.norm(deriv - expected, axis=1)
    return OdeResidualReport(
        grid=grid,
        max_per_row=residuals.max(axis=0),
        mean_per_row=residuals.mean(axis=0),
    )


def curvature_profile(
    curve4: ParametricCurve,
    grid: Sequence[float],
    curve3: Optional[ParametricCurve] = None,
) -> CurvatureProfile:
    """Curvature functions on the grid; ``k`` is recovered as K - bitorsion."""
    frames = frames_on_grid(curve4, grid, curve3=curve3)
    K = np.array([f.K for f in frames])
    r = np.array([-f.torsion for f in frames])
    k = np.array([f.K - f.bitorsion for f in frames])
    return CurvatureProfile(
        s=np.asarray(list(grid), dtype=float),
        K=K,
        r=r,
        k=k,
        source="pair" if curve3 is not None else "intrinsic",
    )


def frame4_csv_row(s: float, frame: Frame4, fmt: Callable[[float], str]) -> str:
    values = [s]
    for v in frame.vectors():
        values.extend(v.components)
    values.extend([frame.K, frame.torsion, frame.bitorsion])
    return ",".join(fmt(x) for x in values)


def frame3_csv_row(s: float, frame: Frame3, fmt: Callable[[float], str]) -> str:
    values = [s]
    for v in frame.vectors():
        values.extend(v.v)
    values.extend([frame.k, frame.r])
    return ",".join(fmt(x) for x in values)
