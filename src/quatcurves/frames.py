"""Moving frames for regular curves in R^3 and R^4, in any parameter.

Every frame is a pointwise function of the curve's derivatives in its own
parameter: a Gram-Schmidt pass over ``[d1, d2, ...]`` gives the unit
vectors, and the norms of the orthogonalized derivatives give the
curvatures per arc length (Gluck, "Higher curvatures of curves in
Euclidean space", Amer. Math. Monthly 73, 1966).

The spatial frame (t, n, b) uses the quaternion product for the binormal,
``b = t * n``.  The R^4 frame {T, N1, N2, N3} is computed two ways:

* intrinsically, from derivatives of the curve alone, with N2 oriented so
  that the torsion reading ``h(N1', N2)`` is nonpositive and N3
  completing a determinant +1 orthonormal basis;
* from a pair (R^4 curve, associated spatial curve) via the products
  ``N1 = b * T``, ``N2 = n * T``, ``N3 = t * T``: the paper's Type 2
  frame, whose torsion and bitorsion are the spatial curve's ``-r`` and
  ``K - k``.

Both satisfy the same skew frame ODE in arc length with coefficients K
(curvature), torsion and bitorsion; ``frame_ode_residual`` measures how
well finite differences of the frame fields reproduce that system.

Frames are built for a whole grid at once: :func:`frames3` and
:func:`frames4` return every frame vector as an ``(n, 4)`` array, in the
records :class:`Frames3` and :class:`Frames4`.  :func:`frame3_at`,
:func:`frame4_intrinsic` and :func:`frame4_from_pair` return the
one-row record at a single parameter; they are kept as lookup sites for
per-layer tracing.  One reader, ``_read``, gives :func:`frames4` and the
Bertrand layer a curve's jet with its intrinsic or Type 2 frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import series
from .curves import DEGENERACY_EPS, ParametricCurve, _end_slack, _fd_derivative
from .errors import DegeneracyError
from .quaternion import inner, mul, norm

__all__ = [
    "Frames3",
    "Frames4",
    "CurvatureProfile",
    "OdeResidualReport",
    "frames3",
    "frames4",
    "frame3_at",
    "frame4_intrinsic",
    "frame4_from_pair",
    "frame_ode_residual",
    "curvature_profile",
    "orthonormality_residual",
    "frame_determinant",
    "FRAME4_CSV_HEADER",
    "FRAME3_CSV_HEADER",
    "DEGENERACY_EPS",
    "PAIR_TOL",
]

# Largest distance between the R^4 curve's principal normal and b*T, both unit
# vectors, before the spatial curve is rejected as not associated with it.
PAIR_TOL = 1e-6

FRAME4_CSV_HEADER = (
    "s,T0,T1,T2,T3,N1_0,N1_1,N1_2,N1_3,N2_0,N2_1,N2_2,N2_3,"
    "N3_0,N3_1,N3_2,N3_3,K,torsion,bitorsion"
)
FRAME3_CSV_HEADER = "s,t0,t1,t2,n0,n1,n2,b0,b1,b2,k,r"


@dataclass(frozen=True)
class Frames3:
    """Spatial frames on a grid: ``t, n, b`` of shape ``(n, 4)``, ``k, r`` of shape ``(n,)``.

    ``k >= 0`` is the curvature and ``r`` the signed torsion.
    """

    t: np.ndarray
    n: np.ndarray
    b: np.ndarray
    k: np.ndarray
    r: np.ndarray

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.t, self.n, self.b)

    def table(self, s: np.ndarray) -> np.ndarray:
        """Rows in the column order of ``FRAME3_CSV_HEADER``."""
        return np.column_stack([s, self.t[:, 1:], self.n[:, 1:], self.b[:, 1:], self.k, self.r])


@dataclass(frozen=True)
class Frames4:
    """R^4 frames on a grid: ``T, N1, N2, N3`` of shape ``(n, 4)``; ``K``,
    ``torsion`` and ``bitorsion`` of shape ``(n,)``.

    ``K`` is the principal curvature, ``torsion`` the frame-ODE entry
    h(N1', N2) and ``bitorsion`` h(N2', N3).  The spatial-curve curvature
    implied by the frame is ``K - bitorsion``.
    """

    T: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    N3: np.ndarray
    K: np.ndarray
    torsion: np.ndarray
    bitorsion: np.ndarray

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.T, self.N1, self.N2, self.N3)

    def table(self, s: np.ndarray) -> np.ndarray:
        """Rows in the column order of ``FRAME4_CSV_HEADER``."""
        return np.column_stack([s, *self.vectors(), self.K, self.torsion, self.bitorsion])


@dataclass
class CurvatureProfile:
    """Per-grid-point curvature functions K, r, k (k = K - bitorsion)."""

    s: np.ndarray
    K: np.ndarray
    r: np.ndarray
    k: np.ndarray

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

def _require_r4(curve: ParametricCurve):
    """Reject a curve that is not in R^4 where one is needed."""
    if curve.dim != 4:
        raise ValueError(f"the R^4 curve must have dimension 4, not {curve.dim}")


def _orthogonalize(vec: np.ndarray, against: Sequence[np.ndarray]) -> np.ndarray:
    """Rows of ``vec`` less their components along the unit rows of ``against``, in turn."""
    out = vec
    for u in against:
        out = out - inner(out, u)[:, None] * u
    return out


def _oriented_complement(u1: np.ndarray, u2: np.ndarray, u3: np.ndarray) -> np.ndarray:
    """Unit rows orthogonal to u1, u2, u3 making det[u1 u2 u3 x] = +1: the 4-D
    ternary cross product of the rows (:func:`~quatcurves.series.cross`), normalized."""
    x = series.cross(u1, u2, u3, np.multiply)
    return x / norm(x)[:, None]


# What vanishes when derivative j has no component off the ones before it.
_VANISHING = ("irregular curve: speed below threshold", "zero curvature", "zero torsion",
              "zero bitorsion")


def _derivative_frame(derivs: Sequence[np.ndarray]):
    """Unit rows ``e_j`` and norms ``rho_j`` of the derivative rows ``[d1, d2, ...]``.

    ``e_j`` is ``d_(j+1)`` less its components along ``e_0 .. e_(j-1)``,
    normalized; ``rho_j`` is the norm it had.  In any regular parameter the
    curvatures per arc length are ``rho_j / (rho_0 rho_(j-1))`` for j >= 1
    (``rho_1 / rho_0^2`` is the curvature).  Raises
    :class:`DegeneracyError` where any ``rho_j`` is at most ``DEGENERACY_EPS``
    times the grid's largest ``|d_(j+1)|``, one rule for speed, curvature,
    torsion and bitorsion: where a curvature vanishes the computed ``rho_j``
    is round-off of terms that size (a cusp's ``d1``, an inflection's ``d2``),
    so no row can be read against its own.  The floor compares rows, so
    scaling the curve or its parameter does not move it.
    """
    units, rhos = [], []
    for j, d in enumerate(derivs):
        v = _orthogonalize(d, units)
        rho = norm(v)
        if np.any(rho <= DEGENERACY_EPS * norm(d).max(initial=0.0)):
            raise DegeneracyError(_VANISHING[j])
        units.append(v / rho[:, None])
        rhos.append(rho)
    return units, rhos


def orthonormality_residual(vectors: Sequence) -> float:
    """Max deviation of all pairwise inner products from the identity pattern.

    ``vectors`` holds one ``(n, 4)`` array per frame vector, n frames at once.
    """
    res = 0.0
    for i, p in enumerate(vectors):
        for j, q in enumerate(vectors):
            if j < i:
                continue
            target = 1.0 if i == j else 0.0
            res = max(res, float(np.max(np.abs(inner(p, q) - target), initial=0.0)))
    return res


def frame_determinant(frames: Frames4) -> np.ndarray:
    """Determinant of the columns T, N1, N2, N3 on every row of ``frames``."""
    return np.linalg.det(np.stack(frames.vectors(), axis=-1))


# -- spatial frame ---------------------------------------------------------------

def frames3(curve: ParametricCurve, s, derivs: Optional[Sequence[np.ndarray]] = None) -> Frames3:
    """Frenet frames of a spatial curve at every parameter of ``s``.

    ``t`` and ``n`` are the Gram-Schmidt units of the first two
    derivatives, ``k = rho_1 / rho_0^2`` the curvature, and ``b = t * n``
    (quaternion product).  The torsion is ``r = h(d3, b) / (rho_0 rho_1)``,
    read from the part of ``d3`` orthogonal to t and n.  ``derivs``, if
    given, is ``curve.jet(s, (1, 2, 3))``, read by the caller.
    """
    if curve.dim != 3:
        raise ValueError(f"the spatial curve must have dimension 3, not {curve.dim}")
    d1, d2, d3 = curve.jet(s, (1, 2, 3)) if derivs is None else derivs
    (t, n), (rho0, rho1) = _derivative_frame([d1, d2])
    b = mul(t, n)
    r = inner(_orthogonalize(d3, [t, n]), b) / (rho0 * rho1)
    return Frames3(t=t, n=n, b=b, k=rho1 / rho0**2, r=r)


def frame3_at(curve: ParametricCurve, s: float) -> Frames3:
    """Frenet frame of a spatial curve at ``s``: the one-row :func:`frames3`."""
    return frames3(curve, [s])


# -- intrinsic R^4 frame ----------------------------------------------------------

def _intrinsic_basis(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray):
    """Rows T, N1, N2, N3 of the intrinsic frame of d1, d2, d3 and the norms rho_0..2."""
    (T, N1, e3), rhos = _derivative_frame([d1, d2, d3])
    N2 = -e3
    return T, N1, N2, _oriented_complement(T, N1, N2), rhos


def _intrinsic_frames(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray,
                      d4: np.ndarray) -> Frames4:
    """R^4 frames from the derivative rows d1..d4 alone, in any regular parameter.

    T, N1 and ``-N2`` are the Gram-Schmidt units of the first three
    derivatives, so the torsion reading ``-rho_2 / (rho_0 rho_1)`` is
    always nonpositive; ``N3`` completes the unique orthonormal basis with
    determinant +1.  The bitorsion ``h(N2', N3)`` is
    ``-h(d4, N3) / (rho_0 rho_2)``, read from the part of ``d4`` orthogonal
    to T, N1, N2.
    """
    T, N1, N2, N3, (rho0, rho1, rho2) = _intrinsic_basis(d1, d2, d3)
    d4 = _orthogonalize(d4, [T, N1, N2])
    return Frames4(T=T, N1=N1, N2=N2, N3=N3, K=rho1 / rho0**2, torsion=-rho2 / (rho0 * rho1),
                   bitorsion=-inner(d4, N3) / (rho0 * rho2))


def frame4_intrinsic(curve: ParametricCurve, s: float) -> Frames4:
    """Intrinsic R^4 frame at ``s``: the one-row ``frames4(curve, [s])``."""
    return frames4(curve, [s])


# -- pair-built R^4 frame ----------------------------------------------------------

def _spatial_parameters(curve4: ParametricCurve, curve3: ParametricCurve,
                        s: np.ndarray) -> np.ndarray:
    """Parameters of ``curve3`` at the arc lengths that ``s`` has on ``curve4``.

    Two unit-speed curves share their parameter; otherwise arc length is
    counted from the start of each curve's domain, and one beyond the end
    of ``curve3`` is a ``ValueError``.
    """
    if curve4.is_unit_speed and curve3.is_unit_speed:
        return s
    lengths, table = curve4.arc_lengths.lengths_at(s), curve3.arc_lengths
    if np.any(lengths > table.total + _end_slack(0.0, table.total)):
        raise ValueError(f"arc length {float(np.max(lengths))!r} is beyond the end of the "
                         f"spatial curve at {table.total!r}")
    return table.parameters_at(lengths)


def _pair_frames(d1: np.ndarray, d2: np.ndarray, f3: Frames3) -> Frames4:
    """The paper's Type 2 frame: ``N1 = b*T``, ``N2 = n*T``, ``N3 = t*T`` with T
    the unit tangent of the derivative rows d1, d2 of the R^4 curve and (t, n,
    b) the spatial frames ``f3`` at the same arc lengths (the same parameter
    when both curves are unit speed).  The four products are orthonormal for
    any spatial curve (right multiplication by the unit T is an isometry); the
    curve is associated when ``b*T`` is the principal normal ``n1``, so that
    ``T' = K N1``, and :class:`DegeneracyError` where ``|n1 - b*T|`` exceeds
    ``PAIR_TOL``.  Then the spatial Frenet system gives ``N1' = -K T - r N2``
    and ``N2' = r N1 + (K - k) N3`` (``b*b = -1``, ``n*b = t``): the torsion is
    ``-r`` and the bitorsion ``K - k``, k the spatial curvature: exact on an
    associated pair, else within ``K |n1 - b*T|`` of h(N1', N2) and h(N2', N3).
    """
    (T, n1), (rho0, rho1) = _derivative_frame([d1, d2])
    K = rho1 / rho0**2
    N1 = mul(f3.b, T)
    departure = float(np.max(norm(n1 - N1), initial=0.0))
    if departure > PAIR_TOL:
        raise DegeneracyError(
            f"pair frame: the principal normal departs from b*T by {departure:.3g}, "
            f"over {PAIR_TOL:.3g}; the spatial curve is not associated with the R^4 curve"
        )
    return Frames4(T=T, N1=N1, N2=mul(f3.n, T), N3=mul(f3.t, T), K=K, torsion=-f3.r,
                   bitorsion=K - f3.k)


def frame4_from_pair(curve4: ParametricCurve, curve3: ParametricCurve, s: float) -> Frames4:
    """Pair-built R^4 frame at ``s``: the one-row ``frames4(curve4, [s], curve3)``."""
    return frames4(curve4, [s], curve3)


# -- grid-level operations -----------------------------------------------------------

def _read(curve4: ParametricCurve, s, curve3: Optional[ParametricCurve], orders: Sequence[int],
          spatial_orders: Sequence[int] = (1, 2, 3)):
    """The jet of ``curve4`` of ``orders`` (from 0 or 1 up) on ``s``; its frames, intrinsic
    from orders 1-4, or Type 2 from orders 1-2 and the frames of the jet of ``curve3``
    of ``spatial_orders`` (1-3 first) at :func:`_spatial_parameters`; and for a pair that
    jet with whether the two curves share their parameter (None without a pair)."""
    _require_r4(curve4)
    jet = curve4.jet(s, orders)
    d = jet[orders.index(1):]
    if curve3 is None:
        return jet, _intrinsic_frames(*d[:4]), None
    sigma = _spatial_parameters(curve4, curve3, s)
    spatial = curve3.jet(sigma, spatial_orders)
    shared = curve4.is_unit_speed and curve3.is_unit_speed
    return jet, _pair_frames(d[0], d[1], frames3(curve3, sigma, spatial[:3])), (spatial, shared)


def frames4(curve4: ParametricCurve, s, curve3: Optional[ParametricCurve] = None) -> Frames4:
    """R^4 frames at every parameter of ``s``, each computed on its own.

    Intrinsic frames of ``curve4``, or pair-built ones when the associated
    spatial curve ``curve3`` is given; see :func:`_intrinsic_frames` and
    :func:`_pair_frames`.
    """
    return _read(curve4, s, curve3, (1, 2, 3, 4) if curve3 is None else (1, 2))[1]


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
    provider: Optional[Callable[[np.ndarray], Frames4]] = None,
) -> OdeResidualReport:
    """Compare finite-difference frame derivatives against the frame ODE.

    ``provider`` maps a parameter grid to its :class:`Frames4`; by default
    ``frames4(curve4, s, curve3)``, pair-built when ``curve3`` is given.
    The four frame fields are differentiated centrally on the whole grid
    with the step ``curve4.fd_step`` (``FD_STEP`` of its domain's length)
    and one Richardson level, divided by the speed of ``curve4`` to take
    them per arc length, and compared to the skew system

        T'  =  K N1
        N1' = -K T + torsion * N2
        N2' = -torsion * N1 + bitorsion * N3
        N3' = -bitorsion * N2
    """
    provider = provider or (lambda s: frames4(curve4, s, curve3))
    grid = np.asarray(grid, dtype=float)
    speeds = curve4.speeds(grid)  # rejects a grid that is not 1-D before the stencil
    deriv = _fd_derivative(lambda s: np.stack(provider(s).vectors(), axis=1), grid, curve4.fd_step)
    deriv = deriv / speeds[:, None, None]
    f = provider(grid)
    K, torsion, bitorsion = (v[:, None] for v in (f.K, f.torsion, f.bitorsion))
    expected = np.stack(
        [
            K * f.N1,
            -K * f.T + torsion * f.N2,
            -torsion * f.N1 + bitorsion * f.N3,
            -bitorsion * f.N2,
        ],
        axis=1,
    )
    residuals = np.linalg.norm(deriv - expected, axis=2)
    return OdeResidualReport(
        grid=grid,
        max_per_row=residuals.max(axis=0),
        mean_per_row=residuals.mean(axis=0),
    )


def _profile(s: np.ndarray, frames: Frames4) -> CurvatureProfile:
    """The curvature functions that ``frames`` read on the grid ``s``."""
    return CurvatureProfile(s=s, K=frames.K, r=-frames.torsion, k=frames.K - frames.bitorsion)


def curvature_profile(
    curve4: ParametricCurve,
    grid: Sequence[float],
    curve3: Optional[ParametricCurve] = None,
) -> CurvatureProfile:
    """Curvature functions on the grid; ``k`` is recovered as K - bitorsion."""
    return _profile(grid, frames4(curve4, grid, curve3))
