"""Parametric curves in R^3 and R^4 and their numerical calculus.

Curves evaluate whole grids: a parameter array of shape ``(n,)`` maps to
an ``(n, 4)`` array whose rows hold quaternion components
``(q0, q1, q2, q3)``; curves of dimension 3 keep ``q0 == 0`` (spatial
quaternions).  Row ``i`` depends on parameter ``i`` alone, so the scalar
methods ``point``, ``derivative`` and ``speed`` evaluate a length-1 grid
and return its row.  The module provides high-order differentiation
(analytic when the family ships derivatives, central finite differences
with one Richardson extrapolation level otherwise) and a cumulative
arc-length table whose Newton inversion maps arc lengths to parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DegeneracyError
from .quaternion import norm

__all__ = [
    "ParametricCurve",
    "CurveSpec",
    "ArcLengthTable",
    "derivative",
    "derivatives",
    "arc_length",
    "is_unit_speed",
    "torus_curve",
    "circle3",
    "helix3",
    "fourier_curve",
    "DEFAULT_STEPS",
    "SPEED_EPS",
    "NEWTON_STEPS",
    "TABLE_PANELS",
]

# Default finite-difference steps per derivative order; chosen to balance
# truncation against round-off for the downstream ~1e-6 frame tolerances
# (Richardson halves the step once, so round-off grows fast below these).
DEFAULT_STEPS = {1: 1e-4, 2: 1e-3, 3: 3e-3, 4: 1e-2}

# Speed below this is treated as an irregular (non-regular) curve.
SPEED_EPS = 1e-9

# Newton steps an arc-length inversion may take before it is reported as
# not converged.
NEWTON_STEPS = 8

# Panels of the arc-length table a curve keeps for its whole domain.
TABLE_PANELS = 256

_TWO_PI = 2.0 * math.pi


def _number(value, name: str) -> float:
    """A JSON number as a float; strings, booleans, NaN and infinities are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(f"{name} must be a finite number, not {value!r}")
    return float(value)


def _require_finite(values: np.ndarray, s: np.ndarray, what: str):
    bad = ~np.all(np.isfinite(values), axis=-1)
    if np.any(bad):
        raise ValueError(f"{what} at u={float(s[bad][0])!r}")


class ParametricCurve:
    """Immutable evaluatable curve ``u -> point`` on a closed interval.

    Parameters
    ----------
    dim : 3 or 4
    evaluate : callable mapping a parameter grid ``(n,)`` to ``(n, 4)``
    domain : (u_min, u_max)
    derivatives : optional callable ``(s, order) -> (n, 4)`` for orders 1..4;
        validated against finite differences of ``evaluate`` on construction.
    """

    def __init__(
        self,
        dim: int,
        evaluate: Callable[[np.ndarray], np.ndarray],
        domain: tuple[float, float],
        derivatives: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
        name: str = "",
    ):
        if dim not in (3, 4):
            raise ValueError("curve dimension must be 3 or 4")
        lo, hi = float(domain[0]), float(domain[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError("domain must be a finite interval [u_min, u_max] with u_min < u_max")
        self.dim = dim
        self.domain = (lo, hi)
        self._eval = evaluate
        self._derivs = derivatives
        self.name = name
        if derivatives is not None:
            self._validate_derivatives()

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, s: np.ndarray):
        lo, hi = self.domain
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        outside = ~((lo - slack <= s) & (s <= hi + slack))
        if np.any(outside):
            raise ValueError(f"parameter {float(s[outside][0])!r} outside domain [{lo}, {hi}]")

    def points(self, s) -> np.ndarray:
        """Points at every parameter of the grid ``s`` (shape ``(n,)``), as ``(n, 4)``."""
        s = np.asarray(s, dtype=float)
        self._check_domain(s)
        p = np.asarray(self._eval(s), dtype=float)
        if p.shape != (len(s), 4):
            raise ValueError("curve evaluation must return 4 quaternion components")
        _require_finite(p, s, "curve evaluation is not finite")
        return p

    def point(self, u: float) -> np.ndarray:
        return self.points(np.array([u], dtype=float))[0]

    @property
    def has_analytic_derivatives(self) -> bool:
        return self._derivs is not None

    def derivatives(self, s, order: int) -> np.ndarray:
        return derivatives(self, s, order)

    def derivative(self, u: float, order: int) -> np.ndarray:
        return derivative(self, u, order)

    def speeds(self, s) -> np.ndarray:
        return norm(self.derivatives(s, 1))

    def speed(self, u: float) -> float:
        return float(self.speeds(np.array([u], dtype=float))[0])

    def fd_margin(self, order: int) -> float:
        """Distance from the boundary required to differentiate at ``order``."""
        return 0.0 if self.has_analytic_derivatives else _fd_reach(order)

    @cached_property
    def arc_lengths(self) -> "ArcLengthTable":
        """Arc length from the start of the domain, tabulated on ``TABLE_PANELS`` panels."""
        return ArcLengthTable.build(self, *self.domain, TABLE_PANELS)

    @cached_property
    def unit_speed_deviation(self) -> float:
        """Max |speed - 1| on a 101-point uniform grid (finite-difference safe)."""
        lo, hi = self.domain
        m = self.fd_margin(1)
        grid = np.linspace(lo + m, hi - m, 101)
        return float(np.max(np.abs(self.speeds(grid) - 1.0)))

    def _validate_derivatives(self):
        lo, hi = self.domain
        margin = _fd_reach(2) + 1e-9 * (hi - lo)
        rng = np.random.default_rng(20240831)
        us = rng.uniform(lo + margin, hi - margin, size=10)
        for order in (1, 2):
            exact = np.asarray(self._derivs(us, order), dtype=float)
            fd = _fd_derivative(self.points, us, order, DEFAULT_STEPS[order])
            off = np.max(np.abs(exact - fd), axis=-1) > 1e-6
            if np.any(off):
                raise ValueError(
                    "analytic derivatives disagree with finite differences "
                    f"(order {order} at u={us[off][0]:.6g})"
                )


# -- differentiation ---------------------------------------------------------

def _fd_reach(order: int) -> float:
    """How far the Richardson-central stencil of ``order`` reaches from its centre."""
    return 2.0 * order * DEFAULT_STEPS[order]


# The Richardson pair of central stencils of each order samples u + k*h at
# these k; the stencils at h and h/2 share u +- h, since 2 * (h/2) == h.
_FD_SHIFTS = {
    1: (-1.0, -0.5, 0.5, 1.0),
    2: (-1.0, -0.5, 0.0, 0.5, 1.0),
    3: (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0),
    4: (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0),
}


def _central_stencil(v: Callable[[float], np.ndarray], order: int, h: float) -> np.ndarray:
    """Central difference of ``order`` from ``v(k)``, the function at ``u + k*h``."""
    if order == 1:
        return (v(1) - v(-1)) / (2.0 * h)
    if order == 2:
        return (v(1) - 2.0 * v(0) + v(-1)) / (h * h)
    if order == 3:
        return (v(2) - 2.0 * v(1) + 2.0 * v(-1) - v(-2)) / (2.0 * h**3)
    return (v(2) - 4.0 * v(1) + 6.0 * v(0) - 4.0 * v(-1) + v(-2)) / h**4


def _fd_derivative(f: Callable, u: np.ndarray, order: int, h: float) -> np.ndarray:
    """Richardson-central derivative of ``f`` of ``order`` on the grid ``u``, base step ``h``.

    ``f`` maps a parameter array ``(m,)`` to ``(m, ...)`` and is called
    once, on all shifted grids stacked.
    """
    shifts = _FD_SHIFTS[order]
    values = np.split(f(np.concatenate([u + k * h for k in shifts])), len(shifts))
    at = dict(zip(shifts, values))
    # One Richardson level: the central stencils are O(h^2), so the
    # combination (4 D(h/2) - D(h)) / 3 cancels the leading error term.
    d_h = _central_stencil(lambda k: at[k], order, h)
    d_h2 = _central_stencil(lambda k: at[k / 2], order, h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


def derivatives(curve: ParametricCurve, s, order: int) -> np.ndarray:
    """Derivatives of ``order`` (1..4) at every parameter of the grid ``s``, as ``(n, 4)``.

    Uses the analytic derivative when the curve carries one, otherwise
    central finite differences of the stated order with step
    ``DEFAULT_STEPS[order]`` and one Richardson extrapolation level, which
    needs every parameter at least ``curve.fd_margin(order)`` inside the
    domain.  Deterministic for fixed inputs.
    """
    if not 1 <= order <= 4:
        raise ValueError("derivative order must be between 1 and 4")
    s = np.asarray(s, dtype=float)
    if curve.has_analytic_derivatives:
        curve._check_domain(s)
        d = np.asarray(curve._derivs(s, order), dtype=float)
    else:
        lo, hi = curve.domain
        margin = curve.fd_margin(order)
        short = (s - margin < lo) | (s + margin > hi)
        if np.any(short):
            raise ValueError(
                f"parameter {float(s[short][0])!r} violates the differentiation margin "
                f"{margin:.3g} for order {order} on [{lo}, {hi}]"
            )
        d = _fd_derivative(curve.points, s, order, DEFAULT_STEPS[order])
    _require_finite(d, s, "derivative is not finite")
    return d


def derivative(curve: ParametricCurve, u: float, order: int) -> np.ndarray:
    """Derivative of the curve at ``u``: the row of :func:`derivatives` on ``[u]``."""
    return derivatives(curve, np.array([u], dtype=float), order)[0]


# -- arc length ---------------------------------------------------------------

def arc_length(curve: ParametricCurve, u0: float, u1: float) -> float:
    """Arc length from ``u0`` to ``u1``: the total of a ``TABLE_PANELS``-panel table."""
    lo, hi = curve.domain
    if not (lo <= u0 <= u1 <= hi):
        raise ValueError("need u0 <= u1 inside the curve domain")
    if u0 == u1:
        return 0.0
    return ArcLengthTable.build(curve, u0, u1, TABLE_PANELS).total


def _node_speeds(speed, a: np.ndarray, b: np.ndarray, nodes: np.ndarray):
    """Half-widths of the intervals [a_i, b_i] and the speeds at their Gauss nodes."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = speed((mid[:, None] + half[:, None] * nodes).ravel())
    return half, values.reshape(len(a), len(nodes))


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Node by node, so a row's sum does not depend on the other rows.
    return sum(w * values[:, k] for k, w in enumerate(weights))


@dataclass
class ArcLengthTable:
    """Cumulative arc length on a panel grid; strictly monotone, starts at 0.

    Panel integrals use fixed composite Gauss-Legendre quadrature.  A fixed
    rule keeps the cumulative length a smooth function of the endpoint;
    adaptive quadrature would introduce kinks at refinement boundaries that
    finite differences downstream would amplify.
    """

    curve: ParametricCurve
    edges: np.ndarray
    lengths: np.ndarray
    _nodes: np.ndarray = field(repr=False, default=None)
    _weights: np.ndarray = field(repr=False, default=None)
    _speed: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)

    GAUSS_DEGREE = 8

    @classmethod
    def build(cls, curve: ParametricCurve, u0: float, u1: float, panels: int) -> "ArcLengthTable":
        if panels < 2:
            raise ValueError("need at least 2 panels")
        nodes, weights = np.polynomial.legendre.leggauss(cls.GAUSS_DEGREE)
        speed = curve.speeds
        edges = np.linspace(u0, u1, panels + 1)
        half, speeds = _node_speeds(speed, edges[:-1], edges[1:], nodes)
        if np.any(speeds < SPEED_EPS):
            raise DegeneracyError("irregular curve: speed below threshold")
        lengths = np.concatenate([[0.0], np.cumsum(half * _weighted_sum(weights, speeds))])
        if np.any(np.diff(lengths) <= 0):
            raise DegeneracyError("irregular curve: arc length not strictly increasing")
        return cls(curve, edges, lengths, nodes, weights, speed)

    @property
    def total(self) -> float:
        return float(self.lengths[-1])

    def lengths_at(self, u) -> np.ndarray:
        """Arc length from the table start to every parameter of ``u``."""
        u = np.minimum(np.maximum(np.asarray(u, dtype=float), self.edges[0]), self.edges[-1])
        j = np.searchsorted(self.edges, u, side="right") - 1
        j = np.minimum(np.maximum(j, 0), len(self.edges) - 2)
        # On a panel edge the half-width is 0 and the tabulated length stays exact.
        half, speeds = _node_speeds(self._speed, self.edges[j], u, self._nodes)
        return self.lengths[j] + half * _weighted_sum(self._weights, speeds)

    def length_at(self, u: float) -> float:
        """Arc length from the table start to ``u``."""
        return float(self.lengths_at(np.array([u], dtype=float))[0])

    def parameters_at(self, targets) -> np.ndarray:
        """Parameters ``u`` with ``length_at(u) == target`` for every target, Newton-refined.

        Targets are clamped to ``[0, total]``.  The first guess interpolates
        the table linearly.  Each target stops at the first Newton step
        whose residual is within ``1e-13 * max(1, total)``; one still
        outside after ``NEWTON_STEPS`` steps raises :class:`DegeneracyError`
        with the worst residual.
        """
        lo, hi = self.edges[0], self.edges[-1]
        goal = np.minimum(np.maximum(np.asarray(targets, dtype=float), 0.0), self.total)
        u = np.interp(goal, self.lengths, self.edges)
        tol = 1e-13 * max(1.0, self.total)
        active = np.arange(len(goal))
        for step in range(NEWTON_STEPS + 1):
            err = self.lengths_at(u[active]) - goal[active]
            moving = np.abs(err) > tol
            active, err = active[moving], err[moving]
            if not len(active):
                break
            if step == NEWTON_STEPS:
                raise DegeneracyError(
                    "arc-length inversion did not converge: residual "
                    f"{float(np.max(np.abs(err))):.3g} after {NEWTON_STEPS} Newton steps"
                )
            u[active] = np.minimum(np.maximum(u[active] - err / self._speed(u[active]), lo), hi)
        return u

    def invert(self, target: float) -> float:
        """Parameter ``u`` with ``length_at(u) == target``: the row of :meth:`parameters_at`."""
        return float(self.parameters_at(np.array([target], dtype=float))[0])


def is_unit_speed(curve: ParametricCurve, tol: float) -> tuple[bool, float]:
    """Sample speed on a 101-point grid; true iff max |speed - 1| <= tol."""
    dev = curve.unit_speed_deviation
    return dev <= tol, dev


# -- curve families -----------------------------------------------------------

def torus_curve(A: float, p: float, B: float, q: float,
                domain: tuple[float, float] = (0.0, _TWO_PI)) -> ParametricCurve:
    """Flat-torus curve ``(A cos pu, A sin pu, B cos qu, B sin qu)`` in R^4.

    Requires ``A^2 p^2 + B^2 q^2 == 1`` (unit speed) within 1e-12.
    """
    if abs(A * A * p * p + B * B * q * q - 1.0) > 1e-12:
        raise ValueError("torus_curve parameters must satisfy A^2 p^2 + B^2 q^2 = 1")

    def grid(u, n=0):
        # d^n/du^n cos(pu) = p^n cos(pu + n*pi/2), same phase shift for sin;
        # order 0 is the curve itself.
        ph = n * math.pi / 2.0
        return np.stack(
            [
                A * p**n * np.cos(p * u + ph),
                A * p**n * np.sin(p * u + ph),
                B * q**n * np.cos(q * u + ph),
                B * q**n * np.sin(q * u + ph),
            ],
            axis=-1,
        )

    return ParametricCurve(4, grid, domain, grid, name="torus_curve")


def circle3(R: float, mode: str = "arclength",
            domain: Optional[tuple[float, float]] = None) -> ParametricCurve:
    """Circle of radius R in the e1-e2 plane.

    ``mode='arclength'`` gives the unit-speed parameterization on
    [0, 2*pi*R]; ``mode='angle'`` parameterizes by angle on [0, 2*pi].
    """
    if R <= 0:
        raise ValueError("circle radius must be positive")
    if mode not in ("arclength", "angle"):
        raise ValueError("circle3 mode must be 'arclength' or 'angle'")
    w = 1.0 / R if mode == "arclength" else 1.0
    if domain is None:
        domain = (0.0, _TWO_PI * R) if mode == "arclength" else (0.0, _TWO_PI)

    def grid(u, n=0):
        ph = n * math.pi / 2.0
        zero = np.zeros_like(u)
        return np.stack(
            [zero, R * w**n * np.cos(w * u + ph), R * w**n * np.sin(w * u + ph), zero], axis=-1
        )

    return ParametricCurve(3, grid, domain, grid, name="circle3")


def helix3(a: float, h: float,
           domain: Optional[tuple[float, float]] = None) -> ParametricCurve:
    """Unit-speed circular helix with radius ``a`` and pitch slope ``h``.

    Curvature is ``a / (a^2 + h^2)`` and torsion ``h / (a^2 + h^2)``.
    """
    if a <= 0:
        raise ValueError("helix radius must be positive")
    c = math.sqrt(a * a + h * h)
    if domain is None:
        domain = (0.0, _TWO_PI * c)

    def grid(u, n=0):
        ph = n * math.pi / 2.0
        rise = h * u / c if n == 0 else np.full_like(u, h / c if n == 1 else 0.0)
        return np.stack(
            [
                np.zeros_like(u),
                a * c**-n * np.cos(u / c + ph),
                a * c**-n * np.sin(u / c + ph),
                rise,
            ],
            axis=-1,
        )

    return ParametricCurve(3, grid, domain, grid, name="helix3")


def fourier_curve(
    cos_coeffs,
    sin_coeffs,
    linear=None,
    domain: tuple[float, float] = (0.0, _TWO_PI),
) -> ParametricCurve:
    """Trigonometric-polynomial curve plus an optional linear drift.

    ``cos_coeffs`` and ``sin_coeffs`` hold one coefficient list per
    coordinate (3 lists for a spatial curve, 4 for a curve in R^4); entry
    ``m`` of a list multiplies ``cos(m*u)`` / ``sin(m*u)``.  ``linear``
    optionally adds ``linear[i] * u`` per coordinate.
    """
    cos_c = [list(map(float, row)) for row in cos_coeffs]
    sin_c = [list(map(float, row)) for row in sin_coeffs]
    ncoords = len(cos_c)
    if ncoords != len(sin_c) or ncoords not in (3, 4):
        raise ValueError("fourier coefficients need 3 or 4 per-coordinate lists for cos and sin")
    lin = [0.0] * ncoords if linear is None else list(map(float, linear))
    if len(lin) != ncoords:
        raise ValueError("linear coefficients must match the coordinate count")
    dim = ncoords
    offset = 0 if dim == 4 else 1

    def coord(u, i, n):
        total = np.zeros_like(u)
        ph = n * math.pi / 2.0
        for m, c in enumerate(cos_c[i]):
            if c:
                total = total + (c * float(m) ** n * np.cos(m * u + ph) if n
                                 else c * np.cos(m * u))
        for m, s in enumerate(sin_c[i]):
            if s:
                total = total + (s * float(m) ** n * np.sin(m * u + ph) if n
                                 else s * np.sin(m * u))
        if lin[i]:
            if n == 0:
                total = total + lin[i] * u
            elif n == 1:
                total = total + lin[i]
        return total

    def grid(u, n=0):
        # Order 0 is the curve itself.
        out = np.zeros((len(u), 4))
        for i in range(ncoords):
            out[:, offset + i] = coord(u, i, n)
        return out

    return ParametricCurve(dim, grid, domain, grid, name="fourier")


# -- curve specifications ------------------------------------------------------

_FAMILIES = ("torus_curve", "circle3", "helix3", "fourier")


@dataclass(frozen=True)
class CurveSpec:
    """JSON-loadable description of a built-in curve family."""

    family: str
    params: dict
    domain: Optional[tuple[float, float]] = None

    @classmethod
    def from_json(cls, text: str) -> "CurveSpec":
        data = json.loads(text)
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "CurveSpec":
        if not isinstance(data, dict):
            raise ValueError("curve spec must be a JSON object")
        family = data.get("family")
        if family not in _FAMILIES:
            raise ValueError(f"unknown curve family {family!r}; expected one of {_FAMILIES}")
        params = data.get("params")
        if not isinstance(params, dict):
            raise ValueError("curve spec needs a 'params' object")
        domain = data.get("domain")
        if domain is not None:
            if not isinstance(domain, (list, tuple)) or len(domain) != 2:
                raise ValueError("curve spec 'domain' must be [u_min, u_max]")
            try:
                domain = (_number(domain[0], "u_min"), _number(domain[1], "u_max"))
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"curve spec 'domain' must hold two numbers: {exc}") from exc
        return cls(family=family, params=params, domain=domain)

    @classmethod
    def from_file(cls, path) -> "CurveSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def build(self) -> ParametricCurve:
        p = self.params

        def numbers(values, name):
            return [_number(x, name) for x in values]

        try:
            if self.family == "torus_curve":
                kwargs = {name: _number(p[name], name) for name in ("A", "p", "B", "q")}
                return torus_curve(**kwargs) if self.domain is None else torus_curve(
                    **kwargs, domain=self.domain
                )
            if self.family == "circle3":
                return circle3(_number(p["R"], "R"), p.get("mode", "arclength"), self.domain)
            if self.family == "helix3":
                return helix3(_number(p["a"], "a"), _number(p["h"], "h"), self.domain)
            coeffs = p["coeffs"]
            kwargs = dict(
                cos_coeffs=[numbers(row, "cos") for row in coeffs["cos"]],
                sin_coeffs=[numbers(row, "sin") for row in coeffs["sin"]],
                linear=coeffs.get("linear"),
            )
            if kwargs["linear"] is not None:
                kwargs["linear"] = numbers(kwargs["linear"], "linear")
            if self.domain is not None:
                kwargs["domain"] = self.domain
            return fourier_curve(**kwargs)
        except KeyError as exc:
            raise ValueError(f"curve spec for {self.family!r} is missing parameter {exc}") from exc
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"curve spec for {self.family!r} has a malformed parameter: "
                             f"{exc}") from exc
