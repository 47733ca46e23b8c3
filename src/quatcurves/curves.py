"""Parametric curves in R^3 and R^4 and their numerical calculus.

Curves evaluate whole grids: a parameter array of shape ``(n,)`` maps to
an ``(n, 4)`` array whose rows hold quaternion components
``(q0, q1, q2, q3)``; curves of dimension 3 keep ``q0 == 0`` (spatial
quaternions).  Row ``i`` depends on parameter ``i`` alone, so ``point``
and :func:`derivative` evaluate a length-1 grid and return its row.

A curve is its jet: ``curve.jet(s, orders)`` returns the points (order 0)
and derivatives of all requested orders as one ``(len(orders), n, 4)``
array, and ``points``, ``derivatives`` and ``speeds`` read it.  ``jet``
alone calls the curve's function, once on the whole grid, and refuses a
non-finite value by its parameter.  Every built-in family
is a sum of trigonometric terms and a linear drift, and one kernel gives
each its jet of orders 0-7, each term's one angle array serving all orders,
one term at a time; the Bertrand mate of such a curve
carries the exact jet of orders 0-4 that Taylor-series arithmetic gives
(:mod:`quatcurves.series`).  Both are exact by construction and built
unchecked; a jet that a caller supplies is checked on construction
against the one Richardson-central stencil of step ``FD_STEP`` of the
domain's length, which also measures how well frames follow their ODE.
A cumulative arc-length table, inverted by Newton steps of one speed
call each, maps arc lengths to parameters.
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
    "FD_STEP",
    "DEGENERACY_EPS",
    "NEWTON_STEPS",
    "TABLE_PANELS",
    "UNIT_SPEED_TOL",
]

# Step of the first-order finite-difference stencil as a fraction of the
# domain's length (``ParametricCurve.fd_step``): it balances truncation
# against round-off, and a curve and its scaled copies read alike.
FD_STEP = 1e-4

# A speed or curvature row this small against the grid's largest is read as 0.
DEGENERACY_EPS = 1e-9

# A curve whose speed stays this close to 1 is read as parameterized by
# arc length: the CLI keeps its parameter as the grid, and a pair of such
# curves shares one parameter.
UNIT_SPEED_TOL = 1e-5

# Newton steps an arc-length inversion may take before it is reported as
# not converged.
NEWTON_STEPS = 8

# Panels of the arc-length table a curve keeps for its whole domain.
TABLE_PANELS = 256

_TWO_PI = 2.0 * math.pi


def _quote(value) -> str:
    """``repr(value)`` in at most 80 characters, however large or deep the value."""
    return reprlib.repr(value)[:80]


def _number(value, name: str) -> float:
    """A JSON number as a float; strings, booleans, NaN and infinities are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(f"{name} must be a finite number, not {_quote(value)}")
    return float(value)


def _end_slack(lo: float, hi: float) -> float:
    """Round-off a parameter or arc length may pass ``[lo, hi]`` by: 1e-12 of its size."""
    return 1e-12 * max(abs(lo), abs(hi))


def _grid(values, what: str) -> np.ndarray:
    """``values`` as a float array of shape ``(n,)``; any other shape is refused by name."""
    s = np.asarray(values, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"{what} grid must have shape (n,), not {s.shape}")
    return s


class ParametricCurve:
    """Immutable curve ``u -> point`` on a closed interval, defined by its jet.

    Parameters
    ----------
    dim : 3 or 4
    domain : (u_min, u_max)
    derivatives : jet callable ``(s, orders) -> (len(orders), n, 4)``, row
        ``k`` of order ``orders[k]`` (0..``jet_order``, 0 being the points),
        ``orders`` a tuple; checked against finite differences on
        construction unless ``validate`` is false (the built-in families and
        the Bertrand mate, exact by construction).
    jet_order : highest order the jet provides (7 for the built-in families,
        4 for a Bertrand mate).
    """

    def __init__(
        self,
        dim: int,
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
        self.fd_step = FD_STEP * (hi - lo)  # the one finite-difference step on this curve
        self._derivs = derivatives
        self.jet_order = jet_order
        self.name = name
        if validate:
            self._validate_derivatives()

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, s) -> np.ndarray:
        """The grid ``s`` as a float array of shape ``(n,)`` inside the domain."""
        s = _grid(s, "a parameter")
        lo, hi = self.domain
        slack = _end_slack(lo, hi)
        if not len(s) or lo - slack <= s.min() and s.max() <= hi + slack:  # NaN fails both
            return s
        outside = ~((lo - slack <= s) & (s <= hi + slack))
        raise ValueError(f"parameter {float(s[outside][0])!r} outside domain [{lo}, {hi}]")

    def points(self, s) -> np.ndarray:
        """Points at every parameter of the grid ``s`` (shape ``(n,)``), as ``(n, 4)``:
        the jet's order 0."""
        return self.jet(s, (0,))[0]

    def point(self, u: float) -> np.ndarray:
        return self.points(np.array([u], dtype=float))[0]

    @property
    def has_analytic_derivatives(self) -> bool:
        """Always true, as every curve carries a jet; kept for ``perfbench/tracing.py``."""
        return True

    def jet(self, s, orders) -> np.ndarray:
        """Points (order 0) and derivatives of the ``orders`` (0..``jet_order``) on the
        grid ``s``, as ``(len(orders), n, 4)``, from one call of the curve's jet on the
        whole grid; row ``k`` is ``jet(s, (orders[k],))[0]`` bit for bit."""
        orders = tuple(orders)
        if not all(0 <= order <= self.jet_order for order in orders):
            raise ValueError(f"derivative orders must be between 0 and {self.jet_order}")
        s = self._check_domain(s)
        d = np.asarray(self._derivs(s, orders), dtype=float)
        if d.shape != (len(orders), len(s), 4):
            raise ValueError("a derivative jet must return one (n, 4) array per order")
        if not np.isfinite(d).all():
            bad = ~np.isfinite(d).all(axis=(0, -1))
            raise ValueError(f"curve jet is not finite at u={float(s[bad][0])!r}")
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
        """Check each order k + 1 of the jet against the stencil of its order k on 10
        draws ``fd_step`` inside the domain, to 1e-6 * max(|order k+1|, |order k| / (hi - lo))."""
        lo, hi = self.domain
        h = self.fd_step
        # The doubles of default_rng(20240831).uniform(lo + h, hi - h, 10).
        us = (lo + h) + ((hi - h) - (lo + h)) * np.random.default_rng(20240831).random(10)
        orders = range(self.jet_order + 1)
        jet = self.jet(us, orders)
        approx = _fd_derivative(lambda v: self.jet(v, orders[:-1]).swapaxes(0, 1), us, h)
        size = np.abs(jet).max(axis=(1, 2))
        tol = 1e-6 * np.maximum(size[1:], size[:-1] / (hi - lo))
        off = np.abs(jet[1:] - approx.swapaxes(0, 1)).max(axis=-1) > tol[:, None]
        if off.any():
            k, i = np.argwhere(off)[0]
            raise ValueError("analytic derivatives disagree with finite differences "
                             f"(order {k + 1} at u={us[i]:.6g})")


# -- differentiation ---------------------------------------------------------

# The Richardson pair of central first-order stencils samples u + k*h at
# these k; the stencils at h and h/2 reach u +- h and u +- h/2.
_FD_SHIFTS = (-1.0, -0.5, 0.5, 1.0)


def _fd_derivative(f: Callable, u: np.ndarray, h: float) -> np.ndarray:
    """Richardson-central first derivative of ``f`` on the grid ``u``, base step ``h``;
    ``f`` maps ``(m,)`` to ``(m, ...)`` and is called once, on the shifted grids
    stacked.  The central stencils at ``h`` and ``h/2`` are O(h^2), so one
    Richardson level, (4 D(h/2) - D(h)) / 3, cancels the leading error term."""
    values = f(np.concatenate([u + k * h for k in _FD_SHIFTS]))
    left, left_half, right_half, right = np.split(values, len(_FD_SHIFTS))
    d_h = (right - left) / (2.0 * h)
    d_h2 = (right_half - left_half) / (2.0 * (h / 2.0))
    return (4.0 * d_h2 - d_h) / 3.0


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


def _node_speeds(speed, a: np.ndarray, b: np.ndarray, nodes: np.ndarray, at=()):
    """Half-widths of the intervals [a_i, b_i], the speeds at their Gauss nodes and,
    from the same call of ``speed``, the speeds at the parameters ``at``."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    values = speed(np.concatenate([x, at]) if len(at) else x)
    return half, values[:len(x)].reshape(len(a), len(nodes)), values[len(x):]


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
        half, speeds, _ = _node_speeds(speed, edges[:-1], edges[1:], nodes)
        # Above the floor every panel is at least DEGENERACY_EPS / panels of the
        # total, far over 2**-53, so the cumulative lengths strictly increase.
        if np.any(speeds <= DEGENERACY_EPS * speeds.max()):
            raise DegeneracyError("irregular curve: speed below threshold")
        lengths = np.concatenate([[0.0], np.cumsum(half * _weighted_sum(weights, speeds))])
        return cls(edges, lengths, speed)

    @property
    def total(self) -> float:
        return float(self.lengths[-1])

    def _lengths(self, u: np.ndarray, speeds_at: bool = False):
        """Arc lengths at the parameters ``u`` (shape ``(n,)``) and, when ``speeds_at``,
        the speeds at ``u``, all from one call of the speed."""
        u = np.minimum(np.maximum(u, self.edges[0]), self.edges[-1])
        j = np.searchsorted(self.edges, u, side="right") - 1
        j = np.minimum(np.maximum(j, 0), len(self.edges) - 2)
        # On a panel edge the half-width is 0 and the tabulated length stays exact.
        nodes, weights = _gauss_legendre(self.GAUSS_DEGREE)
        half, speeds, at_u = _node_speeds(self._speed, self.edges[j], u, nodes,
                                          u if speeds_at else ())
        return self.lengths[j] + half * _weighted_sum(weights, speeds), at_u

    def lengths_at(self, u) -> np.ndarray:
        """Arc length from the table start to every parameter of the grid ``u`` (shape ``(n,)``)."""
        return self._lengths(_grid(u, "a parameter"))[0]

    def length_at(self, u: float) -> float:
        """Arc length from the table start to ``u``."""
        return float(self.lengths_at(np.array([u], dtype=float))[0])

    def parameters_at(self, targets) -> np.ndarray:
        """Parameters ``u`` with ``length_at(u) == target`` for every target of the grid
        ``targets`` (shape ``(n,)``), Newton-refined.

        Targets are clamped to ``[0, total]``.  The first guess interpolates
        the table linearly.  Each Newton step reads the lengths at the guesses
        and the speeds there from one call of the speed.  Each target stops at
        the first step whose residual is within ``1e-13 * total``; one
        still outside after ``NEWTON_STEPS`` steps raises
        :class:`DegeneracyError` with the worst residual.
        """
        lo, hi = self.edges[0], self.edges[-1]
        goal = np.minimum(np.maximum(_grid(targets, "an arc-length"), 0.0), self.total)
        u = np.interp(goal, self.lengths, self.edges)
        tol = 1e-13 * self.total
        active = np.arange(len(goal))
        for step in range(NEWTON_STEPS + 1):
            lengths, speeds = self._lengths(u[active], speeds_at=True)
            err = lengths - goal[active]
            moving = np.abs(err) > tol
            active, err = active[moving], err[moving]
            if not len(active):
                break
            if step == NEWTON_STEPS:
                raise DegeneracyError(
                    "arc-length inversion did not converge: residual "
                    f"{float(np.max(np.abs(err))):.3g} after {NEWTON_STEPS} Newton steps"
                )
            u[active] = np.minimum(np.maximum(u[active] - err / speeds[moving], lo), hi)
        return u

    def invert(self, target: float) -> float:
        """Parameter ``u`` with ``length_at(u) == target``: the row of :meth:`parameters_at`."""
        return float(self.parameters_at(np.array([target], dtype=float))[0])


# -- curve families -----------------------------------------------------------
# Each family is a list of terms amp * cos(w u) or amp * sin(w u), one
# coordinate each, plus a drift lin * u per coordinate, and _trig_curve gives
# all four their jets of orders 0-7.  d^n/du^n cos(wu) = w^n cos(wu + n*pi/2),
# the same shift for sin, so each term's angle array w*u + phase serves every
# order, each row keeping the arithmetic of its order alone, and the term takes
# only its own cos or sin of it.  A jet call holds one angle array at a time,
# so its memory does not grow with the harmonic count.  The scale columns
# amp * w**n over orders 0-7 are computed once per distinct (amp, w) when the
# curve is built (a scale that overflows raises there), and their rows are
# taken once per orders tuple (selecting them costs more than a small grid's
# trigonometry, and ndarray.take about a third of a fancy index).  A
# coordinate's first term is written in place into one preallocated
# (len(orders), n, 4) array; its other terms, in the order listed, then its
# drift are added to it.

_ORDERS = range(8)
_PHASES = np.array([n * math.pi / 2.0 for n in _ORDERS])[:, None]


def _family(dim: int, jet, domain, name: str) -> ParametricCurve:
    """A curve whose points are the order-0 row of its ``jet``; the jet is exact by
    construction, so it is not checked against finite differences."""
    return ParametricCurve(dim, domain, jet, name=name, validate=False)


def _scales(c: float, w: float, powers=_ORDERS) -> np.ndarray:
    """The column ``c * w**n`` over ``powers``; an entry out of range raises
    OverflowError, as ``w**n`` itself does."""
    column = [c * w**n for n in powers]
    if not all(map(math.isfinite, column)):
        raise OverflowError(f"derivative scale {c!r} * {w!r}**n out of range")
    return np.array(column)[:, None]


def _trig_curve(dim: int, terms, domain, name: str, drift=(),
                over: float = 1.0) -> ParametricCurve:
    """The family curve whose coordinate ``i`` sums ``amp * fn(w * u / over)`` over
    its ``terms`` ``(i, fn, w, amp)``, ``fn`` being ``np.cos`` or ``np.sin``, in the
    order listed, then ``lin * u / over`` over its ``drift`` pairs ``(i, lin)``.

    ``over`` is 1 but for the unit-speed helix, whose frequency ``1 / c`` is
    the divisor ``c`` (its terms have ``w = 1``), so that each value rounds as
    its closed form: the angle ``u / c``, the scale ``a * c**-n`` and the rise
    ``h * u / c``.
    """
    # One scale column per distinct (amp, w).
    slots, ops, seen = {}, [], set()
    for i, fn, w, amp in terms:
        ops.append((i, slots.setdefault((amp, w), len(slots)), fn, w, i not in seen))
        seen.add(i)
    columns = [_scales(amp, w) for amp, w in slots]
    if over != 1.0:
        down = _scales(1.0, over, [-n for n in _ORDERS])
        columns = [column * down for column in columns]
    fill = np.empty if len(seen) == 4 else np.zeros  # a coordinate without terms is 0
    picked = {}

    def jet(u, orders):
        if orders not in picked:
            picked[orders] = _PHASES.take(orders, 0), [column.take(orders, 0) for column in columns]
        ph, rows = picked[orders]
        v = u if over == 1.0 else u / over
        out = fill((len(orders), len(u), 4))
        for i, s, fn, w, first in ops:
            angle = w * v + ph
            if first:
                np.multiply(rows[s], fn(angle), out=out[..., i])
            else:
                total = out[..., i]
                total += rows[s] * fn(angle)
        for i, lin in drift:
            for k, n in enumerate(orders):  # the drift; 0 from order 2 on
                if n < 2:
                    out[k, :, i] += lin * u / over if n == 0 else lin / over
        return out

    return _family(dim, jet, domain, name)


def torus_curve(A: float, p: float, B: float, q: float,
                domain: Optional[tuple[float, float]] = None) -> ParametricCurve:
    """Flat-torus curve ``(A cos pu, A sin pu, B cos qu, B sin qu)`` in R^4.

    Requires ``A^2 p^2 + B^2 q^2 == 1`` (unit speed) within 1e-12.
    """
    if abs(A * A * p * p + B * B * q * q - 1.0) > 1e-12:
        raise ValueError("torus_curve parameters must satisfy A^2 p^2 + B^2 q^2 = 1")
    if domain is None:
        domain = (0.0, _TWO_PI)
    terms = [(0, np.cos, p, A), (1, np.sin, p, A), (2, np.cos, q, B), (3, np.sin, q, B)]
    return _trig_curve(4, terms, domain, "torus_curve")


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
    return _trig_curve(3, [(1, np.cos, w, R), (2, np.sin, w, R)], domain, "circle3")


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
    return _trig_curve(3, [(1, np.cos, 1.0, a), (2, np.sin, 1.0, a)], domain, "helix3",
                       drift=[(3, h)], over=c)


def fourier_curve(
    cos_coeffs,
    sin_coeffs,
    linear=None,
    domain: Optional[tuple[float, float]] = None,
) -> ParametricCurve:
    """Trigonometric-polynomial curve plus an optional linear drift.

    ``cos_coeffs`` and ``sin_coeffs`` hold one coefficient list per
    coordinate (3 lists for a spatial curve, 4 for a curve in R^4); entry
    ``m`` of a list multiplies ``cos(m*u)`` / ``sin(m*u)``.  ``linear``
    optionally adds ``linear[i] * u`` per coordinate.  Each coefficient must
    be a finite number (:func:`_number`; a ``TypeError`` names the list).
    """
    cos_c = [[_number(x, "cos") for x in row] for row in cos_coeffs]
    sin_c = [[_number(x, "sin") for x in row] for row in sin_coeffs]
    lin = [] if linear is None else [_number(x, "linear") for x in linear]
    ncoords = len(cos_c)
    if ncoords != len(sin_c) or ncoords not in (3, 4):
        raise ValueError("fourier coefficients need 3 or 4 per-coordinate lists for cos and sin")
    if linear is not None and len(lin) != ncoords:
        raise ValueError("linear coefficients must match the coordinate count")
    offset = 4 - ncoords
    # The nonzero terms of each coordinate, in coefficient order, cosines first.
    terms = [(offset + i, fn, float(m), c) for i in range(ncoords)
             for fn, coeffs in ((np.cos, cos_c[i]), (np.sin, sin_c[i]))
             for m, c in enumerate(coeffs) if c]
    drift = [(offset + i, x) for i, x in enumerate(lin) if x]
    if domain is None:
        domain = (0.0, _TWO_PI)
    return _trig_curve(ncoords, terms, domain, "fourier", drift)


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
        try:
            if self.family == "torus_curve":
                kwargs = {name: _number(p[name], name) for name in ("A", "p", "B", "q")}
                return torus_curve(**kwargs, domain=self.domain)
            if self.family == "circle3":
                return circle3(_number(p["R"], "R"), p.get("mode", "arclength"), self.domain)
            if self.family == "helix3":
                return helix3(_number(p["a"], "a"), _number(p["h"], "h"), self.domain)
            coeffs = p["coeffs"]
            # A coeffs that is not an object fails at coeffs["cos"].
            return fourier_curve(coeffs["cos"], coeffs["sin"], coeffs.get("linear"), self.domain)
        except KeyError as exc:
            raise ValueError(f"curve spec for {self.family!r} is missing parameter {exc}") from exc
        except (TypeError, OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"curve spec for {self.family!r} has a malformed parameter: "
                             f"{exc}") from exc
