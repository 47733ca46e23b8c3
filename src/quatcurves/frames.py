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

Frames are built for a whole grid at once: :func:`frames3` and
:func:`frames4` return every frame vector as an ``(n, 4)`` array.
:func:`frame3_at`, :func:`frame4_intrinsic` and :func:`frame4_from_pair`
return one row of that computation as Quaternion-valued frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .curves import DEFAULT_STEPS, ParametricCurve, _fd_derivative, _pointwise, is_unit_speed
from .errors import DegeneracyError
from .quaternion import Quaternion, inner, mul, norm

__all__ = [
    "Frame3",
    "Frame4",
    "Frames3",
    "Frames4",
    "CurvatureProfile",
    "OdeResidualReport",
    "frames3",
    "frames4",
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


@dataclass(frozen=True)
class Frames3:
    """Spatial frames on a grid: ``t, n, b`` of shape ``(n, 4)``, ``k, r`` of shape ``(n,)``."""

    t: np.ndarray
    n: np.ndarray
    b: np.ndarray
    k: np.ndarray
    r: np.ndarray

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.t, self.n, self.b)

    def frame(self, i: int) -> Frame3:
        t, n, b = (Quaternion.from_vec4(v[i]) for v in self.vectors())
        return Frame3(t=t, n=n, b=b, k=float(self.k[i]), r=float(self.r[i]))

    def table(self, s: np.ndarray) -> np.ndarray:
        """Rows in the column order of ``FRAME3_CSV_HEADER``."""
        return np.column_stack([s, self.t[:, 1:], self.n[:, 1:], self.b[:, 1:], self.k, self.r])


@dataclass(frozen=True)
class Frames4:
    """R^4 frames on a grid: ``T, N1, N2, N3`` of shape ``(n, 4)``; ``K``,
    ``torsion`` and ``bitorsion`` of shape ``(n,)``."""

    T: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    N3: np.ndarray
    K: np.ndarray
    torsion: np.ndarray
    bitorsion: np.ndarray

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.T, self.N1, self.N2, self.N3)

    def frame(self, i: int) -> Frame4:
        T, N1, N2, N3 = (Quaternion.from_vec4(v[i]) for v in self.vectors())
        return Frame4(T=T, N1=N1, N2=N2, N3=N3, K=float(self.K[i]), torsion=float(self.torsion[i]),
                      bitorsion=float(self.bitorsion[i]))

    def table(self, s: np.ndarray) -> np.ndarray:
        """Rows in the column order of ``FRAME4_CSV_HEADER``."""
        return np.column_stack([s, *self.vectors(), self.K, self.torsion, self.bitorsion])

    def aligned(self) -> "Frames4":
        """The frames with a sign-continuity pass along the grid.

        Pointwise frames are deterministic, but where the torsion crosses
        zero the N2 orientation can jump between adjacent points.  The pass
        flips (N2, N3) jointly wherever that brings N2 closer to its
        predecessor's: the sign at point i is the product of the signs of
        ``N2_j . N2_(j-1)`` for j <= i (an exactly zero product counts as
        +1).  The joint flip keeps orthonormality and the determinant; the
        torsion reading changes sign while the bitorsion is invariant.
        """
        steps = np.where(inner(self.N2[1:], self.N2[:-1]) < 0.0, -1.0, 1.0)
        sign = np.cumprod(np.concatenate([[1.0], steps]))
        col = sign[:, None]
        return Frames4(T=self.T, N1=self.N1, N2=col * self.N2, N3=col * self.N3, K=self.K,
                       torsion=sign * self.torsion, bitorsion=self.bitorsion)


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


def _orthogonalize(vec: np.ndarray, against: Sequence[np.ndarray]) -> np.ndarray:
    """Rows of ``vec`` less their components along the unit rows of ``against``, in turn."""
    out = vec
    for u in against:
        out = out - inner(out, u)[:, None] * u
    return out


def _oriented_complement(u1: np.ndarray, u2: np.ndarray, u3: np.ndarray) -> np.ndarray:
    """Unit rows orthogonal to u1, u2, u3 making det[u1 u2 u3 x] = +1.

    The 4-D ternary cross product: component i is the cofactor of row i
    in the last column of [u1 u2 u3 x], built from the 2x2 minors of u2, u3.
    """
    a = [u1[:, i] for i in range(4)]
    b = [u2[:, i] for i in range(4)]
    c = [u3[:, i] for i in range(4)]

    def minor(j, k):
        return b[j] * c[k] - b[k] * c[j]

    p01, p02, p03, p12, p13, p23 = (minor(j, k) for j, k in
                                    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    x = np.stack(
        [
            -(a[1] * p23 - a[2] * p13 + a[3] * p12),
            a[0] * p23 - a[2] * p03 + a[3] * p02,
            -(a[0] * p13 - a[1] * p03 + a[3] * p01),
            a[0] * p12 - a[1] * p02 + a[2] * p01,
        ],
        axis=-1,
    )
    nx = norm(x)
    if np.any(nx < DEGENERACY_EPS):
        raise DegeneracyError("orientation failure: frame completion is degenerate")
    return x / nx[:, None]


def orthonormality_residual(vectors: Sequence) -> float:
    """Max deviation of all pairwise inner products from the identity pattern.

    ``vectors`` holds Quaternions, or ``(n, 4)`` arrays of n frames at once.
    """
    res = 0.0
    for i, p in enumerate(vectors):
        for j, q in enumerate(vectors):
            if j < i:
                continue
            target = 1.0 if i == j else 0.0
            res = max(res, float(np.max(np.abs(inner(p, q) - target), initial=0.0)))
    return res


def frame_determinant(frame: Frame4) -> float:
    cols = np.column_stack([v.as_vec4() for v in frame.vectors()])
    return float(np.linalg.det(cols))


def _one(s: float) -> np.ndarray:
    return np.array([s], dtype=float)


# -- spatial frame ---------------------------------------------------------------

def frames3(curve: ParametricCurve, s) -> Frames3:
    """Frenet frames of a unit-speed spatial curve at every parameter of ``s``.

    ``t`` is the tangent, ``k = ||t'||`` the curvature, ``n = t'/k``, and
    ``b = t * n`` (quaternion product).  The torsion is the projection
    ``h(n', b)``.
    """
    if curve.dim != 3:
        raise ValueError("frame3_at requires a curve of dimension 3")
    _require_unit_speed(curve)
    s = np.asarray(s, dtype=float)
    d1, d2, d3 = (curve.derivatives(s, order) for order in (1, 2, 3))
    k = norm(d2)
    if np.any(k < DEGENERACY_EPS):
        raise DegeneracyError("zero curvature")
    t_hat = d1 / norm(d1)[:, None]
    n_vec = _orthogonalize(d2, [t_hat])
    nn = norm(n_vec)
    if np.any(nn < DEGENERACY_EPS):
        raise DegeneracyError("zero curvature")
    n_hat = n_vec / nn[:, None]
    b = mul(t_hat, n_hat)
    n_prime = d3 / k[:, None] - d2 * inner(d3, d2)[:, None] / k[:, None] ** 3
    return Frames3(t=t_hat, n=n_hat, b=b, k=k, r=inner(n_prime, b))


def frame3_at(curve: ParametricCurve, s: float) -> Frame3:
    """Frenet frame of a unit-speed spatial curve at ``s``: the row of :func:`frames3`."""
    return frames3(curve, _one(s)).frame(0)


# -- intrinsic R^4 frame ----------------------------------------------------------

def _intrinsic_basis(curve: ParametricCurve, s: np.ndarray):
    """Orthonormal rows (T, N1, N2, N3) plus K, torsion and raw derivatives."""
    d1, d2, d3 = (curve.derivatives(s, order) for order in (1, 2, 3))
    K = norm(d2)
    if np.any(K < DEGENERACY_EPS):
        raise DegeneracyError("zero curvature")
    Kc = K[:, None]
    t_hat = d1 / norm(d1)[:, None]
    n1 = _orthogonalize(d2, [t_hat])
    n1 = n1 / norm(n1)[:, None]
    kp = inner(d3, d2)[:, None] / Kc
    n1_prime = d3 / Kc - d2 * kp / Kc**2
    w = n1_prime + Kc * t_hat
    wp = _orthogonalize(w, [t_hat, n1])
    wn = norm(wp)
    if np.any(wn < DEGENERACY_EPS):
        raise DegeneracyError("zero torsion")
    n2 = -wp / wn[:, None]
    n3 = _oriented_complement(t_hat, n1, n2)
    return t_hat, n1, n2, n3, K, -wn, (d1, d2, d3, w)


def _bitorsion(curve: ParametricCurve, s: np.ndarray, basis) -> np.ndarray:
    t_hat, n1, n2, n3, K, torsion, (d1, d2, d3, w) = basis
    d4 = curve.derivatives(s, 4)
    Kc = K[:, None]
    L1 = norm(d1)[:, None]
    t_prime = d2 / L1 - d1 * inner(d2, d1)[:, None] / L1**3
    kp = inner(d3, d2)[:, None] / Kc
    kpp = (inner(d4, d2)[:, None] + inner(d3, d3)[:, None] - kp * kp) / Kc
    n1_pp = d4 / Kc - 2.0 * d3 * kp / Kc**2 - d2 * kpp / Kc**2 + 2.0 * d2 * kp**2 / Kc**3
    w_prime = n1_pp + kp * t_hat + Kc * t_prime
    wn = norm(w)[:, None]
    n2_prime = -w_prime / wn + w * inner(w_prime, w)[:, None] / wn**3
    return inner(n2_prime, n3)


def _intrinsic_frames(curve: ParametricCurve, s) -> Frames4:
    if curve.dim != 4:
        raise ValueError("frame4_intrinsic requires a curve of dimension 4")
    _require_unit_speed(curve)
    s = np.asarray(s, dtype=float)
    basis = _intrinsic_basis(curve, s)
    t_hat, n1, n2, n3, K, torsion, _ = basis
    return Frames4(T=t_hat, N1=n1, N2=n2, N3=n3, K=K, torsion=torsion,
                   bitorsion=_bitorsion(curve, s, basis))


def frame4_intrinsic(curve: ParametricCurve, s: float) -> Frame4:
    """R^4 frame recovered from curve derivatives alone.

    ``N1 = T'/K``; ``N2 = -(N1' + K T)/||N1' + K T||`` so the torsion
    reading is always nonpositive; ``N3`` completes the unique orthonormal
    basis with determinant +1.  The bitorsion is ``h(N2', N3)``, with
    ``N2'`` written in closed form from the first four derivatives, so
    analytic and finite-difference curves are read the same way (the latter
    need the order-4 stencil reach ``curve.fd_margin(4)`` from the ends).
    Returns the row of ``frames4(curve, [s])``.
    """
    return _intrinsic_frames(curve, _one(s)).frame(0)


# -- pair-built R^4 frame ----------------------------------------------------------

def _pair_frames(curve4: ParametricCurve, curve3: ParametricCurve, s) -> Frames4:
    if curve4.dim != 4:
        raise ValueError("frame4_from_pair requires a curve of dimension 4")
    s = np.asarray(s, dtype=float)
    f3 = frames3(curve3, s)
    _require_unit_speed(curve4)
    d1 = curve4.derivatives(s, 1)
    d2 = curve4.derivatives(s, 2)
    K = norm(d2)
    if np.any(K < DEGENERACY_EPS):
        raise DegeneracyError("zero curvature")
    L1 = norm(d1)[:, None]
    T = d1 / L1
    N1 = mul(f3.b, T)
    N2 = mul(f3.n, T)
    N3 = mul(f3.t, T)
    residual = orthonormality_residual((T, N1, N2, N3))
    if residual > PAIR_TOL:
        raise DegeneracyError(
            f"pair frame orthonormality residual {residual:.3g} exceeds {PAIR_TOL:.3g}; "
            "the spatial curve is not associated with the R^4 curve"
        )
    # Frame derivatives via the spatial Frenet system and the chain rule.
    t_prime = d2 / L1 - d1 * inner(d2, d1)[:, None] / L1**3
    k, r = f3.k[:, None], f3.r[:, None]
    b_prime = -r * f3.n
    n_prime = -k * f3.t + r * f3.b
    N1_prime = mul(b_prime, T) + mul(f3.b, t_prime)
    N2_prime = mul(n_prime, T) + mul(f3.n, t_prime)
    return Frames4(T=T, N1=N1, N2=N2, N3=N3, K=K, torsion=inner(N1_prime, N2),
                   bitorsion=inner(N2_prime, N3))


def frame4_from_pair(curve4: ParametricCurve, curve3: ParametricCurve, s: float) -> Frame4:
    """R^4 frame built from the spatial frame of an associated curve.

    ``N1 = b*T``, ``N2 = n*T``, ``N3 = t*T`` with (t, n, b) the spatial
    frame of ``curve3`` at the same parameter.  Torsion and bitorsion are
    read from the frame-ODE projections h(N1', N2) and h(N2', N3).
    Returns the row of ``frames4(curve4, [s], curve3)``.
    """
    return _pair_frames(curve4, curve3, _one(s)).frame(0)


# -- grid-level operations -----------------------------------------------------------

def frames4(curve4: ParametricCurve, s, curve3: Optional[ParametricCurve] = None) -> Frames4:
    """R^4 frames at every parameter of ``s``, each computed on its own.

    Intrinsic frames of ``curve4``, or pair-built ones when the associated
    spatial curve ``curve3`` is given; see :func:`frame4_intrinsic` and
    :func:`frame4_from_pair`.  No sign-continuity pass: see
    :meth:`Frames4.aligned`.
    """
    if curve3 is None:
        return _intrinsic_frames(curve4, s)
    return _pair_frames(curve4, curve3, s)


FrameProvider = Callable[[float], Frame4]


def _default_provider(curve4: ParametricCurve, curve3: Optional[ParametricCurve]) -> FrameProvider:
    if curve3 is None:
        return lambda s: frame4_intrinsic(curve4, s)
    return lambda s: frame4_from_pair(curve4, curve3, s)


def frames_on_grid(
    curve4: ParametricCurve,
    grid: Sequence[float],
    curve3: Optional[ParametricCurve] = None,
) -> list[Frame4]:
    """Frames at each grid point with the sign-continuity pass of
    :meth:`Frames4.aligned`."""
    frames = frames4(curve4, grid, curve3).aligned()
    return [frames.frame(i) for i in range(len(frames.K))]


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

    def frame_vectors(s: float) -> np.ndarray:
        return np.stack([v.as_vec4() for v in fn(s).vectors()])

    deriv = _fd_derivative(_pointwise(frame_vectors), grid, 1, DEFAULT_STEPS[1])
    frames = [fn(s) for s in grid]
    T, N1, N2, N3 = (np.array([v.as_vec4() for v in vs]) for vs in zip(*(f.vectors() for f in frames)))
    K, torsion, bitorsion = (np.array([[getattr(f, c)] for f in frames])
                             for c in ("K", "torsion", "bitorsion"))
    expected = np.stack(
        [
            K * N1,
            -K * T + torsion * N2,
            -torsion * N1 + bitorsion * N3,
            -bitorsion * N2,
        ],
        axis=1,
    )
    residuals = np.linalg.norm(deriv - expected, axis=2)
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
    grid = np.asarray(grid, dtype=float)
    frames = frames4(curve4, grid, curve3).aligned()
    return CurvatureProfile(
        s=grid,
        K=frames.K,
        r=-frames.torsion,
        k=frames.K - frames.bitorsion,
        source="pair" if curve3 is not None else "intrinsic",
    )
