"""Parametric curves in R^3 and R^4 and their numerical calculus.

Curves evaluate whole grids: a parameter array of shape ``(n,)`` maps to
an ``(n, 4)`` array whose rows hold quaternion components
``(q0, q1, q2, q3)``; curves of dimension 3 keep ``q0 == 0`` (spatial
quaternions).  Row ``i`` depends on parameter ``i`` alone, so ``point``
and :func:`derivative` evaluate a length-1 grid and return its row.

``curve.jet(s, orders)`` returns the points (order 0) and derivatives of
all requested orders as one ``(len(orders), n, 4)`` array.  A built-in
family is one jet function of orders 0-7, which evaluates each
trigonometric term once for all orders; the Bertrand mate of such a curve
carries the exact jet of orders 0-4 that Taylor-series arithmetic gives
(:mod:`quatcurves.series`).  Every curve carries a jet: it is the only
source of derivatives.  ``points`` and a jet evaluate in blocks of at most
``ROW_BLOCK`` rows (grid points times orders): that bounds the memory and,
rows being independent, changes no bit.  A cumulative arc-length table,
inverted by Newton steps, maps arc lengths to parameters.  Central
finite differences with one Richardson level only check a jet against
its curve and measure how well frames follow their ODE.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DegeneracyError
from .quaternion import norm

__all__ = [
    "ParametricCurve",
    "CurveSpec",
    "ArcLengthTable",
    "derivative",
    "arc_length",
    "torus_curve",
    "circle3",
    "helix3",
    "fourier_curve",
    "DEFAULT_STEPS",
    "SPEED_EPS",
    "NEWTON_STEPS",
    "TABLE_PANELS",
    "UNIT_SPEED_TOL",
    "ROW_BLOCK",
    "row_blocks",
]

# Finite-difference steps per derivative order; chosen to balance
# truncation against round-off for the downstream ~1e-6 frame tolerances
# (Richardson halves the step once, so round-off grows fast below these).
DEFAULT_STEPS = {1: 1e-4, 2: 1e-3, 3: 3e-3, 4: 1e-2}

# Speed below this is treated as an irregular (non-regular) curve.
SPEED_EPS = 1e-9

# A curve whose speed stays this close to 1 is read as parameterized by
# arc length: the CLI keeps its parameter as the grid, and a pair of such
# curves shares one parameter.
UNIT_SPEED_TOL = 1e-5

# Newton steps an arc-length inversion may take before it is reported as
# not converged.
NEWTON_STEPS = 8

# Panels of the arc-length table a curve keeps for its whole domain.
TABLE_PANELS = 256

# Most rows (grid points times orders) one call of a curve's evaluation or
# jet receives; the mate's Taylor series are built on blocks of as
# many rows of the base curve's jet of orders 0-7.
ROW_BLOCK = 1 << 15

_TWO_PI = 2.0 * math.pi


def _quote(value) -> str:
    """``repr(value)`` in at most 80 characters, however large or deep the value."""
    return reprlib.repr(value)[:80]


def _number(value, name: str) -> float:
    """A JSON number as a float; strings, booleans, NaN and infinities are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(f"{name} must be a finite number, not {_quote(value)}")
    return float(value)


def row_blocks(n: int, orders: int) -> list[slice]:
    """Slices of ``range(n)`` of at most ``ROW_BLOCK // orders`` grid points each."""
    step = max(1, ROW_BLOCK // orders)
    return [slice(i, i + step) for i in range(0, n, step)]


def _require_finite(values: np.ndarray, s: np.ndarray, what: str):
    if np.isfinite(values).all():
        return
    bad = ~np.all(np.isfinite(values), axis=(0, -1) if values.ndim == 3 else -1)  # jet: any order
    if np.any(bad):
        raise ValueError(f"{what} at u={float(s[bad][0])!r}")


class ParametricCurve:
    """Immutable evaluatable curve ``u -> point`` on a closed interval.

    Parameters
    ----------
    dim : 3 or 4
    evaluate : callable mapping a parameter grid ``(n,)`` to ``(n, 4)``
    domain : (u_min, u_max)
    derivatives : jet callable ``(s, orders) -> (len(orders), n, 4)``, row
        ``k`` of order ``orders[k]`` (0..``jet_order``, 0 being the points);
        validated against ``evaluate`` and finite differences on construction
        unless ``validate`` is false.
    jet_order : highest order the jet provides (7 for the built-in families,
        4 for a Bertrand mate).
    """

    def __init__(
        self,
        dim: int,
        evaluate: Callable[[np.ndarray], np.ndarray],
        domain: tuple[float, float],
        derivatives: Callable[[np.ndarray, tuple[int, ...]], np.ndarray],
        name: str = "",
        jet_order: int = 7,
        validate: bool = True,
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
        self.jet_order = jet_order
        self.name = name
        if validate:
            self._validate_derivatives()

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, s) -> np.ndarray:
        """The grid ``s`` as a float array of shape ``(n,)`` inside the domain."""
        s = np.asarray(s, dtype=float)
        if s.ndim != 1:
            raise ValueError(f"a parameter grid must have shape (n,), not {s.shape}")
        lo, hi = self.domain
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if not len(s) or lo - slack <= s.min() and s.max() <= hi + slack:  # NaN fails both
            return s
        outside = ~((lo - slack <= s) & (s <= hi + slack))
        raise ValueError(f"parameter {float(s[outside][0])!r} outside domain [{lo}, {hi}]")

    def points(self, s) -> np.ndarray:
        """Points at every parameter of the grid ``s`` (shape ``(n,)``), as ``(n, 4)``;
        ``evaluate`` receives blocks of at most ``ROW_BLOCK`` rows."""
        s = self._check_domain(s)
        p = np.empty((len(s), 4))
        for rows in row_blocks(len(s), 1):
            block = np.asarray(self._eval(s[rows]), dtype=float)
            if block.shape != (len(s[rows]), 4):
                raise ValueError("curve evaluation must return 4 quaternion components")
            p[rows] = block
        _require_finite(p, s, "curve evaluation is not finite")
        return p

    def point(self, u: float) -> np.ndarray:
        return self.points(np.array([u], dtype=float))[0]

    @property
    def has_analytic_derivatives(self) -> bool:
        """Always true, as every curve carries a jet; kept for ``perfbench/tracing.py``."""
        return True

    def jet(self, s, orders) -> np.ndarray:
        """Points (order 0) and derivatives of the ``orders`` (0..``jet_order``) on the
        grid ``s``, as ``(len(orders), n, 4)``, from one call of the curve's jet per
        block of ``ROW_BLOCK`` rows; row ``k`` is ``jet(s, (orders[k],))[0]`` bit for bit.
        """
        if not all(0 <= order <= self.jet_order for order in orders):
            raise ValueError(f"derivative orders must be between 0 and {self.jet_order}")
        s = self._check_domain(s)
        blocks = []
        for rows in row_blocks(len(s), len(orders)):
            blocks.append(np.asarray(self._derivs(s[rows], orders), dtype=float))
            if blocks[-1].shape != (len(orders), len(s[rows]), 4):
                raise ValueError("a derivative jet must return one (n, 4) array per order")
        d = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        _require_finite(d, s, "derivative is not finite")
        return d

    def derivatives(self, s, order: int) -> np.ndarray:
        """Derivatives of ``order`` (1..4, the orders a frame reads) on the grid ``s``:
        the one-order :meth:`jet`."""
        if not 1 <= order <= 4:
            raise ValueError("derivative order must be between 1 and 4")
        return self.jet(s, (order,))[0]

    def speeds(self, s) -> np.ndarray:
        return norm(self.derivatives(s, 1))

    @cached_property
    def arc_lengths(self) -> "ArcLengthTable":
        """Arc length from the start of the domain, tabulated on ``TABLE_PANELS`` panels."""
        return ArcLengthTable.build(self, *self.domain, TABLE_PANELS)

    @cached_property
    def unit_speed_deviation(self) -> float:
        """Max |speed - 1| on a 101-point uniform grid."""
        return float(np.max(np.abs(self.speeds(np.linspace(*self.domain, 101)) - 1.0)))

    @cached_property
    def is_unit_speed(self) -> bool:
        """Whether the parameter is read as arc length (deviation <= ``UNIT_SPEED_TOL``)."""
        return self.unit_speed_deviation <= UNIT_SPEED_TOL

    def _validate_derivatives(self):
        """Check the jet's order 0 against ``evaluate`` and each order k + 1 against
        the order-1 stencil of order k, from one jet call on 10 draws and their
        shifts by +-h and +-h/2."""
        lo, hi = self.domain
        # The reach of the order-2 stencil, 2 * 2 * DEFAULT_STEPS[2], and a little more.
        margin = 4.0 * DEFAULT_STEPS[2] + 1e-9 * (hi - lo)
        if not lo + margin <= hi - margin:
            raise ValueError(f"domain [{lo}, {hi}] is too short for the derivative check")
        # The doubles of default_rng(20240831).uniform(lo + margin, hi - margin, 10).
        us = (lo + margin) + ((hi - margin) - (lo + margin)) * _validation_draws()
        orders, h, ks = range(self.jet_order + 1), DEFAULT_STEPS[1], (0.0,) + _FD_SHIFTS[1]
        jet = self.jet((us + h * np.array(ks)[:, None]).ravel(), orders)
        at = dict(zip(ks, jet.reshape(len(orders), len(ks), len(us), 4).swapaxes(0, 1)))
        # Row k: order k of the jet, what it should equal, and the rows that
        # comparison differentiates (none for the points).
        rows, source = at[0.0], np.concatenate([at[0.0][:1], at[0.0][:-1]])
        approx = np.concatenate([self.points(us)[None], _richardson(at, 1, h)[:-1]])
        # The stencils' round-off grows with the size of the rows they
        # differentiate, so the bound does too (1e-6 on rows of unit size).
        tol = 1e-6 * np.maximum(1.0, np.abs(source).max(axis=-1).max(axis=-1))
        off = np.abs(rows - approx).max(axis=-1) > tol[:, None]
        if off.any():
            order, i = np.argwhere(off)[0]
            what = ("analytic derivatives disagree with finite differences" if order
                    else "analytic jet disagrees with the curve's evaluation")
            raise ValueError(f"{what} (order {order} at u={us[i]:.6g})")


@cache
def _validation_draws() -> np.ndarray:
    """Uniforms placing the derivative check's points; drawn once, shared read-only."""
    draws = np.random.default_rng(20240831).random(10)
    draws.flags.writeable = False
    return draws


# -- differentiation ---------------------------------------------------------

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


def _richardson(at: dict, order: int, h: float) -> np.ndarray:
    """Derivative of ``order`` from ``at[k]``, the function at ``u + k*h`` for the
    shifts of ``_FD_SHIFTS[order]``: one Richardson level on the central stencils,
    which are O(h^2), so (4 D(h/2) - D(h)) / 3 cancels the leading error term."""
    d_h = _central_stencil(lambda k: at[k], order, h)
    d_h2 = _central_stencil(lambda k: at[k / 2], order, h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


def _fd_derivative(f: Callable, u: np.ndarray, order: int, h: float) -> np.ndarray:
    """Richardson-central derivative of ``f`` of ``order`` on the grid ``u``, base
    step ``h``; ``f`` maps ``(m,)`` to ``(m, ...)`` and is called once, on the
    shifted grids stacked."""
    ks = _FD_SHIFTS[order]
    values = np.split(f(np.concatenate([u + k * h for k in ks])), len(ks))
    return _richardson(dict(zip(ks, values)), order, h)


def derivative(curve: ParametricCurve, u: float, order: int) -> np.ndarray:
    """Derivative of the curve at ``u``: the row of ``curve.derivatives`` on ``[u]``."""
    return curve.derivatives(np.array([u], dtype=float), order)[0]


# -- arc length ---------------------------------------------------------------

def arc_length(curve: ParametricCurve, u0: float, u1: float) -> float:
    """Arc length from ``u0`` to ``u1``: the total of a ``TABLE_PANELS``-panel table."""
    lo, hi = curve.domain
    if not (lo <= u0 <= u1 <= hi):
        raise ValueError("need u0 <= u1 inside the curve domain")
    if u0 == u1:
        return 0.0
    return ArcLengthTable.build(curve, u0, u1, TABLE_PANELS).total


@cache
def _gauss_legendre(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``degree``-point Gauss-Legendre rule, computed once
    per process; read-only, as every table shares them."""
    rule = np.polynomial.legendre.leggauss(degree)
    for array in rule:
        array.flags.writeable = False
    return rule


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

    edges: np.ndarray
    lengths: np.ndarray
    _speed: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)

    GAUSS_DEGREE = 8

    @classmethod
    def build(cls, curve: ParametricCurve, u0: float, u1: float, panels: int) -> "ArcLengthTable":
        if panels < 2:
            raise ValueError("need at least 2 panels")
        nodes, weights = _gauss_legendre(cls.GAUSS_DEGREE)
        speed = curve.speeds
        edges = np.linspace(u0, u1, panels + 1)
        half, speeds = _node_speeds(speed, edges[:-1], edges[1:], nodes)
        if np.any(speeds < SPEED_EPS):
            raise DegeneracyError("irregular curve: speed below threshold")
        lengths = np.concatenate([[0.0], np.cumsum(half * _weighted_sum(weights, speeds))])
        if np.any(np.diff(lengths) <= 0):
            raise DegeneracyError("irregular curve: arc length not strictly increasing")
        return cls(edges, lengths, speed)

    @property
    def total(self) -> float:
        return float(self.lengths[-1])

    def lengths_at(self, u) -> np.ndarray:
        """Arc length from the table start to every parameter of ``u``."""
        u = np.minimum(np.maximum(np.asarray(u, dtype=float), self.edges[0]), self.edges[-1])
        j = np.searchsorted(self.edges, u, side="right") - 1
        j = np.minimum(np.maximum(j, 0), len(self.edges) - 2)
        # On a panel edge the half-width is 0 and the tabulated length stays exact.
        nodes, weights = _gauss_legendre(self.GAUSS_DEGREE)
        half, speeds = _node_speeds(self._speed, self.edges[j], u, nodes)
        return self.lengths[j] + half * _weighted_sum(weights, speeds)

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


# -- curve families -----------------------------------------------------------
# d^n/du^n cos(wu) = w^n cos(wu + n*pi/2), the same shift for sin: one call on
# the stacked shifted arguments serves every order, each row keeping the
# arithmetic of its order alone.

def _family(dim: int, jet, domain, name: str) -> ParametricCurve:
    """A curve whose points are the order-0 row of its ``jet``."""
    return ParametricCurve(dim, lambda u: jet(u, (0,))[0], domain, jet, name=name)


def _phases(orders) -> np.ndarray:
    return np.array([n * math.pi / 2.0 for n in orders])[:, None]


def _scales(c: float, w: float, powers) -> np.ndarray:
    return np.array([c * w**n for n in powers])[:, None]


def torus_curve(A: float, p: float, B: float, q: float,
                domain: tuple[float, float] = (0.0, _TWO_PI)) -> ParametricCurve:
    """Flat-torus curve ``(A cos pu, A sin pu, B cos qu, B sin qu)`` in R^4.

    Requires ``A^2 p^2 + B^2 q^2 == 1`` (unit speed) within 1e-12.
    """
    if abs(A * A * p * p + B * B * q * q - 1.0) > 1e-12:
        raise ValueError("torus_curve parameters must satisfy A^2 p^2 + B^2 q^2 = 1")

    def jet(u, orders):
        ph = _phases(orders)
        pu, qu = p * u + ph, q * u + ph
        sa, sb = _scales(A, p, orders), _scales(B, q, orders)
        return np.stack([sa * np.cos(pu), sa * np.sin(pu), sb * np.cos(qu), sb * np.sin(qu)],
                        axis=-1)

    return _family(4, jet, domain, "torus_curve")


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

    def jet(u, orders):
        wu, scale = w * u + _phases(orders), _scales(R, w, orders)
        zero = np.zeros_like(wu)
        return np.stack([zero, scale * np.cos(wu), scale * np.sin(wu), zero], axis=-1)

    return _family(3, jet, domain, "circle3")


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

    def jet(u, orders):
        angle, scale = u / c + _phases(orders), _scales(a, c, [-n for n in orders])
        rise = np.stack([h * u / c if n == 0 else np.full_like(u, h / c if n == 1 else 0.0)
                         for n in orders])
        return np.stack([np.zeros_like(angle), scale * np.cos(angle), scale * np.sin(angle),
                         rise], axis=-1)

    return _family(3, jet, domain, "helix3")


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

    def jet(u, orders):
        ph = _phases(orders)
        out = np.zeros((len(orders), len(u), 4))
        for i in range(ncoords):
            # Terms in coefficient order, the drift last, as order by order.
            total = np.zeros((len(orders), len(u)))
            for coeffs, trig in ((cos_c[i], np.cos), (sin_c[i], np.sin)):
                for m, c in enumerate(coeffs):
                    if c:
                        total = total + _scales(c, float(m), orders) * trig(m * u + ph)
            for j, n in enumerate(orders):
                if lin[i] and n < 2:
                    total[j] = total[j] + (lin[i] * u if n == 0 else lin[i])
            out[:, :, offset + i] = total
        return out

    return _family(dim, jet, domain, "fourier")


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
            raise ValueError(f"unknown curve family {_quote(family)}; expected one of {_FAMILIES}")
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
