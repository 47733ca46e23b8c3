"""Parametric curves in R^3 and R^4 and their numerical calculus.

Curves evaluate to length-4 arrays holding quaternion components
``(q0, q1, q2, q3)``; curves of dimension 3 keep ``q0 == 0`` (spatial
quaternions).  The module provides high-order differentiation (analytic
when the family ships derivatives, central finite differences with one
Richardson extrapolation level otherwise), arc length by quadrature, and
arc-length reparameterization with a monotone-cubic initial guess refined
by Newton iteration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from .errors import DegeneracyError

__all__ = [
    "ParametricCurve",
    "CurveSpec",
    "ArcLengthTable",
    "derivative",
    "arc_length",
    "reparameterize_by_arclength",
    "is_unit_speed",
    "torus_curve",
    "circle3",
    "helix3",
    "fourier_curve",
    "DEFAULT_STEPS",
    "SPEED_EPS",
]

# Default finite-difference steps per derivative order; chosen to balance
# truncation against round-off for the downstream ~1e-6 frame tolerances
# (Richardson halves the step once, so round-off grows fast below these).
DEFAULT_STEPS = {1: 1e-4, 2: 1e-3, 3: 3e-3, 4: 1e-2}

# Speed below this is treated as an irregular (non-regular) curve.
SPEED_EPS = 1e-9

_TWO_PI = 2.0 * math.pi


class ParametricCurve:
    """Immutable evaluatable curve ``u -> point`` on a closed interval.

    Parameters
    ----------
    dim : 3 or 4
    evaluate : callable mapping a float parameter to a length-4 array
    domain : (u_min, u_max)
    derivatives : optional callable ``(u, order) -> array`` for orders 1..4;
        validated against finite differences of ``evaluate`` on construction.
    """

    def __init__(
        self,
        dim: int,
        evaluate: Callable[[float], np.ndarray],
        domain: tuple[float, float],
        derivatives: Optional[Callable[[float, int], np.ndarray]] = None,
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

    def point(self, u: float) -> np.ndarray:
        lo, hi = self.domain
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if not (lo - slack <= u <= hi + slack):
            raise ValueError(f"parameter {u!r} outside domain [{lo}, {hi}]")
        p = np.asarray(self._eval(float(u)), dtype=float)
        if p.shape != (4,):
            raise ValueError("curve evaluation must return 4 quaternion components")
        if not np.all(np.isfinite(p)):
            raise ValueError(f"curve evaluation is not finite at u={u!r}")
        return p

    @property
    def has_analytic_derivatives(self) -> bool:
        return self._derivs is not None

    def derivative(self, u: float, order: int) -> np.ndarray:
        return derivative(self, u, order)

    def speed(self, u: float) -> float:
        return float(np.linalg.norm(self.derivative(u, 1)))

    def fd_margin(self, order: int) -> float:
        """Distance from the boundary required to differentiate at ``order``."""
        return 0.0 if self.has_analytic_derivatives else _fd_reach(order)

    @cached_property
    def unit_speed_deviation(self) -> float:
        """Max |speed - 1| on a 101-point uniform grid (finite-difference safe)."""
        lo, hi = self.domain
        m = self.fd_margin(1)
        grid = np.linspace(lo + m, hi - m, 101)
        return float(max(abs(self.speed(u) - 1.0) for u in grid))

    def _validate_derivatives(self):
        lo, hi = self.domain
        margin = _fd_reach(2) + 1e-9 * (hi - lo)
        rng = np.random.default_rng(20240831)
        for u in rng.uniform(lo + margin, hi - margin, size=10):
            for order in (1, 2):
                exact = np.asarray(self._derivs(float(u), order), dtype=float)
                fd = _fd_derivative(self.point, float(u), order, DEFAULT_STEPS[order])
                if np.max(np.abs(exact - fd)) > 1e-6:
                    raise ValueError(
                        "analytic derivatives disagree with finite differences "
                        f"(order {order} at u={u:.6g})"
                    )


# -- differentiation ---------------------------------------------------------

def _fd_reach(order: int) -> float:
    """How far the Richardson-central stencil of ``order`` reaches from its centre."""
    return 2.0 * order * DEFAULT_STEPS[order]


def _central_stencil(f, u: float, order: int, h: float) -> np.ndarray:
    if order == 1:
        return (f(u + h) - f(u - h)) / (2.0 * h)
    if order == 2:
        return (f(u + h) - 2.0 * f(u) + f(u - h)) / (h * h)
    if order == 3:
        return (f(u + 2 * h) - 2.0 * f(u + h) + 2.0 * f(u - h) - f(u - 2 * h)) / (2.0 * h**3)
    if order == 4:
        return (
            f(u + 2 * h) - 4.0 * f(u + h) + 6.0 * f(u) - 4.0 * f(u - h) + f(u - 2 * h)
        ) / h**4
    raise ValueError("derivative order must be between 1 and 4")


def _fd_derivative(f: Callable[[float], np.ndarray], u: float, order: int,
                   h: float) -> np.ndarray:
    # One Richardson level: the central stencils are O(h^2), so the
    # combination (4 D(h/2) - D(h)) / 3 cancels the leading error term.
    d_h = _central_stencil(f, u, order, h)
    d_h2 = _central_stencil(f, u, order, h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


def derivative(curve: ParametricCurve, u: float, order: int) -> np.ndarray:
    """Derivative of the curve at ``u`` for orders 1..4.

    Uses the analytic derivative when the curve carries one, otherwise
    central finite differences of the stated order with step
    ``DEFAULT_STEPS[order]`` and one Richardson extrapolation level, which
    needs ``u`` at least ``curve.fd_margin(order)`` inside the domain.
    Deterministic for fixed inputs.
    """
    if not 1 <= order <= 4:
        raise ValueError("derivative order must be between 1 and 4")
    lo, hi = curve.domain
    if curve.has_analytic_derivatives:
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if not (lo - slack <= u <= hi + slack):
            raise ValueError(f"parameter {u!r} outside domain [{lo}, {hi}]")
        d = np.asarray(curve._derivs(float(u), order), dtype=float)
        if not np.all(np.isfinite(d)):
            raise ValueError(f"derivative is not finite at u={u!r}")
        return d
    margin = curve.fd_margin(order)
    if u - margin < lo or u + margin > hi:
        raise ValueError(
            f"parameter {u!r} violates the differentiation margin "
            f"{margin:.3g} for order {order} on [{lo}, {hi}]"
        )
    d = _fd_derivative(curve.point, float(u), order, DEFAULT_STEPS[order])
    if not np.all(np.isfinite(d)):
        raise ValueError(f"derivative is not finite at u={u!r}")
    return d


# -- arc length ---------------------------------------------------------------

def arc_length(curve: ParametricCurve, u0: float, u1: float) -> float:
    """Arc length by adaptive quadrature of the speed (absolute tol 1e-10)."""
    lo, hi = curve.domain
    if not (lo <= u0 <= u1 <= hi):
        raise ValueError("need u0 <= u1 inside the curve domain")
    if u0 == u1:
        return 0.0
    value, _ = quad(curve.speed, u0, u1, epsabs=1e-10, epsrel=1e-12, limit=200)
    if not math.isfinite(value):
        raise ValueError("non-finite speed encountered during arc-length quadrature")
    return float(value)


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
    _speed: Callable[[float], float] = field(repr=False, default=None)
    _inverse_guess: PchipInterpolator = field(repr=False, default=None)

    GAUSS_DEGREE = 8

    @classmethod
    def build(cls, curve: ParametricCurve, u0: float, u1: float, panels: int) -> "ArcLengthTable":
        if panels < 2:
            raise ValueError("need at least 2 panels")
        nodes, weights = np.polynomial.legendre.leggauss(cls.GAUSS_DEGREE)
        speed = _plain_speed(curve)
        edges = np.linspace(u0, u1, panels + 1)
        increments = np.empty(panels)
        for j in range(panels):
            a, b = edges[j], edges[j + 1]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            speeds = np.array([speed(mid + half * x) for x in nodes])
            if np.any(speeds < SPEED_EPS):
                raise DegeneracyError("irregular curve: speed below threshold")
            increments[j] = half * float(weights @ speeds)
        lengths = np.concatenate([[0.0], np.cumsum(increments)])
        if np.any(np.diff(lengths) <= 0):
            raise DegeneracyError("irregular curve: arc length not strictly increasing")
        table = cls(curve, edges, lengths, nodes, weights, speed)
        table._inverse_guess = PchipInterpolator(lengths, edges)
        return table

    @property
    def total(self) -> float:
        return float(self.lengths[-1])

    def length_at(self, u: float) -> float:
        """Arc length from the table start to ``u``."""
        u = min(max(u, self.edges[0]), self.edges[-1])
        j = int(np.searchsorted(self.edges, u, side="right") - 1)
        j = min(max(j, 0), len(self.edges) - 2)
        a = self.edges[j]
        if u == a:
            return float(self.lengths[j])
        mid, half = 0.5 * (a + u), 0.5 * (u - a)
        speeds = np.array([self._speed(mid + half * x) for x in self._nodes])
        return float(self.lengths[j] + half * (self._weights @ speeds))

    def invert(self, target: float) -> float:
        """Parameter ``u`` with ``length_at(u) == target``, Newton-refined."""
        target = min(max(target, 0.0), self.total)
        u = float(self._inverse_guess(target))
        u = min(max(u, self.edges[0]), self.edges[-1])
        tol = 1e-13 * max(1.0, self.total)
        for _ in range(8):
            err = self.length_at(u) - target
            if abs(err) <= tol:
                break
            u -= err / self._speed(u)
            u = min(max(u, self.edges[0]), self.edges[-1])
        return u


def _plain_speed(curve: ParametricCurve) -> Callable[[float], float]:
    """Speed via a single central difference; cheap and smooth in u.

    Used inside arc-length quadrature where the O(h^2) bias is a smooth
    function of the endpoint and therefore harmless to the inversion.
    """
    if curve.has_analytic_derivatives:
        return curve.speed
    h = DEFAULT_STEPS[1]

    def speed(u: float) -> float:
        return float(np.linalg.norm((curve.point(u + h) - curve.point(u - h)) / (2.0 * h)))

    return speed


def is_unit_speed(curve: ParametricCurve, tol: float) -> tuple[bool, float]:
    """Sample speed on a 101-point grid; true iff max |speed - 1| <= tol."""
    dev = curve.unit_speed_deviation
    return dev <= tol, dev


def reparameterize_by_arclength(curve: ParametricCurve, samples: int = 256) -> ParametricCurve:
    """Return the same trace parameterized by arc length.

    ``samples`` sets the panel count of the underlying cumulative-length
    table.  Raises :class:`DegeneracyError` for irregular curves (speed
    below ``SPEED_EPS`` anywhere on the sample grid) and when the result's
    speed strays more than 1e-6 from 1 on a validation grid.  The returned
    curve carries no analytic derivatives.
    """
    lo, hi = curve.domain
    m = curve.fd_margin(1)
    lo, hi = lo + m, hi - m
    probe = np.linspace(lo, hi, max(samples, 32) + 1)
    for u in probe:
        if curve.speed(u) < SPEED_EPS:
            raise DegeneracyError("irregular curve: speed below threshold")
    table = ArcLengthTable.build(curve, lo, hi, max(samples, 32))
    new = ParametricCurve(
        dim=curve.dim,
        evaluate=lambda sbar: curve.point(table.invert(sbar)),
        domain=(0.0, table.total),
        derivatives=None,
        name=f"{curve.name or 'curve'}[arclength]",
    )
    ok, dev = is_unit_speed(new, 1e-6)
    if not ok:
        raise DegeneracyError(
            f"arc-length reparameterization missed tolerance: deviation {dev:.3g}"
        )
    return new


# -- curve families -----------------------------------------------------------

def torus_curve(A: float, p: float, B: float, q: float,
                domain: tuple[float, float] = (0.0, _TWO_PI)) -> ParametricCurve:
    """Flat-torus curve ``(A cos pu, A sin pu, B cos qu, B sin qu)`` in R^4.

    Requires ``A^2 p^2 + B^2 q^2 == 1`` (unit speed) within 1e-12.
    """
    if abs(A * A * p * p + B * B * q * q - 1.0) > 1e-12:
        raise ValueError("torus_curve parameters must satisfy A^2 p^2 + B^2 q^2 = 1")

    def evaluate(u):
        return np.array(
            [A * math.cos(p * u), A * math.sin(p * u), B * math.cos(q * u), B * math.sin(q * u)]
        )

    def derivs(u, n):
        # d^n/du^n cos(pu) = p^n cos(pu + n*pi/2), same phase shift for sin.
        ph = n * math.pi / 2.0
        return np.array(
            [
                A * p**n * math.cos(p * u + ph),
                A * p**n * math.sin(p * u + ph),
                B * q**n * math.cos(q * u + ph),
                B * q**n * math.sin(q * u + ph),
            ]
        )

    return ParametricCurve(4, evaluate, domain, derivs, name="torus_curve")


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

    def evaluate(u):
        return np.array([0.0, R * math.cos(w * u), R * math.sin(w * u), 0.0])

    def derivs(u, n):
        ph = n * math.pi / 2.0
        return np.array(
            [0.0, R * w**n * math.cos(w * u + ph), R * w**n * math.sin(w * u + ph), 0.0]
        )

    return ParametricCurve(3, evaluate, domain, derivs, name="circle3")


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

    def evaluate(u):
        return np.array([0.0, a * math.cos(u / c), a * math.sin(u / c), h * u / c])

    def derivs(u, n):
        ph = n * math.pi / 2.0
        out = np.array(
            [0.0, a * c**-n * math.cos(u / c + ph), a * c**-n * math.sin(u / c + ph), 0.0]
        )
        if n == 1:
            out[3] = h / c
        return out

    return ParametricCurve(3, evaluate, domain, derivs, name="helix3")


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
        total = 0.0
        ph = n * math.pi / 2.0
        for m, c in enumerate(cos_c[i]):
            if c:
                total += c * float(m) ** n * math.cos(m * u + ph) if n else c * math.cos(m * u)
        for m, s in enumerate(sin_c[i]):
            if s:
                total += s * float(m) ** n * math.sin(m * u + ph) if n else s * math.sin(m * u)
        if lin[i]:
            if n == 0:
                total += lin[i] * u
            elif n == 1:
                total += lin[i]
        return total

    def evaluate(u):
        out = np.zeros(4)
        for i in range(ncoords):
            out[offset + i] = coord(u, i, 0)
        return out

    def derivs(u, n):
        out = np.zeros(4)
        for i in range(ncoords):
            out[offset + i] = coord(u, i, n)
        return out

    return ParametricCurve(dim, evaluate, domain, derivs, name="fourier")


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
                domain = (float(domain[0]), float(domain[1]))
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"curve spec 'domain' must hold two numbers: {exc}") from exc
        return cls(family=family, params=params, domain=domain)

    @classmethod
    def from_file(cls, path) -> "CurveSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def build(self) -> ParametricCurve:
        p = self.params
        try:
            if self.family == "torus_curve":
                kwargs = dict(A=float(p["A"]), p=float(p["p"]), B=float(p["B"]), q=float(p["q"]))
                return torus_curve(**kwargs) if self.domain is None else torus_curve(
                    **kwargs, domain=self.domain
                )
            if self.family == "circle3":
                return circle3(float(p["R"]), p.get("mode", "arclength"), self.domain)
            if self.family == "helix3":
                return helix3(float(p["a"]), float(p["h"]), self.domain)
            coeffs = p["coeffs"]
            kwargs = dict(
                cos_coeffs=coeffs["cos"],
                sin_coeffs=coeffs["sin"],
                linear=coeffs.get("linear"),
            )
            if self.domain is not None:
                kwargs["domain"] = self.domain
            return fourier_curve(**kwargs)
        except KeyError as exc:
            raise ValueError(f"curve spec for {self.family!r} is missing parameter {exc}") from exc
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"curve spec for {self.family!r} has a malformed parameter: "
                             f"{exc}") from exc
