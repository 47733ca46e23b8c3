"""Real quaternion algebra on ``(..., 4)`` rows, and values that are one row.

A quaternion is a scalar part plus a three component vector part over the
unit vectors e1, e2, e3 with e1^2 = e2^2 = e3^2 = e1*e2*e3 = -1.  Values
are never renormalized implicitly; frame construction normalizes
explicitly where it needs unit vectors.

``mul``, ``inner`` and ``norm`` take ``(..., 4)`` arrays of components
``(s, v0, v1, v2)`` and work row by row.  A :class:`Quaternion` value is one
such row: every operation on values converts them with ``as_vec4``, runs the
array code the frames run and converts back with ``from_vec4``.  Row results
never depend on the other rows, so a grid computed at once and one point
computed alone agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "ZERO",
    "ONE",
    "E1",
    "E2",
    "E3",
    "add",
    "scale",
    "conjugate",
    "mul",
    "inner",
    "norm",
    "spatial_cross_check",
]


@dataclass(frozen=True)
class Quaternion:
    """A real quaternion ``s + v[0]*e1 + v[1]*e2 + v[2]*e3``."""

    s: float
    v: tuple[float, float, float]

    def __post_init__(self):
        if len(self.v) != 3:
            raise ValueError("vector part must have exactly three components")
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "v", tuple(float(c) for c in self.v))
        if not all(math.isfinite(c) for c in (self.s, *self.v)):
            raise ValueError("quaternion components must be finite")

    @classmethod
    def spatial(cls, x: float, y: float, z: float) -> "Quaternion":
        """Quaternion with zero scalar part, identified with a point of R^3."""
        return cls(0.0, (x, y, z))

    @classmethod
    def from_vec4(cls, vec) -> "Quaternion":
        w, x, y, z = (float(c) for c in vec)
        return cls(w, (x, y, z))

    def as_vec4(self) -> np.ndarray:
        return np.array([self.s, *self.v], dtype=float)

    def norm(self) -> float:
        return norm(self)

    def is_spatial(self, atol: float = 1e-12) -> bool:
        return abs(self.s) <= atol

    def approx_eq(self, other: "Quaternion", atol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.as_vec4() - other.as_vec4()) <= atol))

    def __neg__(self) -> "Quaternion":
        return scale(-1.0, self)

    def __rmul__(self, c) -> "Quaternion":
        return scale(float(c), self)


ZERO = Quaternion(0.0, (0.0, 0.0, 0.0))
ONE = Quaternion(1.0, (0.0, 0.0, 0.0))
E1 = Quaternion(0.0, (1.0, 0.0, 0.0))
E2 = Quaternion(0.0, (0.0, 1.0, 0.0))
E3 = Quaternion(0.0, (0.0, 0.0, 1.0))

_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


def add(p: Quaternion, q: Quaternion) -> Quaternion:
    """Componentwise sum."""
    return Quaternion.from_vec4(p.as_vec4() + q.as_vec4())


def scale(c: float, q: Quaternion) -> Quaternion:
    """Multiply every component by the real scalar ``c``."""
    return Quaternion.from_vec4(c * q.as_vec4())


def conjugate(q: Quaternion) -> Quaternion:
    """Scalar part unchanged, vector part negated."""
    return Quaternion.from_vec4(q.as_vec4() * _CONJUGATE)


def mul(p, q):
    """Quaternion product: associative, distributive, not commutative.

    Scalar part is ``s_p*s_q - <v_p, v_q>``; vector part is
    ``s_p*v_q + s_q*v_p + v_p x v_q``.  Two Quaternions give a Quaternion;
    two ``(..., 4)`` arrays give the ``(..., 4)`` array of row products.
    """
    if isinstance(p, Quaternion):
        return Quaternion.from_vec4(_product(p.as_vec4(), q.as_vec4()))
    return _product(np.asarray(p, dtype=float), np.asarray(q, dtype=float))


def _product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    a1, b1, c1, d1 = (p[..., i] for i in range(4))
    a2, b2, c2, d2 = (q[..., i] for i in range(4))
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + d1 * b2 - b1 * d2,
            a1 * d2 + d1 * a2 + b1 * c2 - c1 * b2,
        ],
        axis=-1,
    )


def inner(p, q):
    """Symmetric bilinear inner product; equals the 4D Euclidean dot product.

    On ``(..., 4)`` arrays, the row-wise products summed in component order;
    on two Quaternions, the ``float`` of their rows' inner product.
    """
    if isinstance(p, Quaternion):
        return float(inner(p.as_vec4(), q.as_vec4()))
    products = p * q
    return products[..., 0] + products[..., 1] + products[..., 2] + products[..., 3]


def norm(q):
    """Nonnegative; ``norm(q)**2 == inner(q, q)``.  Row-wise on ``(..., 4)`` arrays."""
    if isinstance(q, Quaternion):
        return float(norm(q.as_vec4()))
    return np.sqrt(inner(q, q))


def spatial_cross_check(p: Quaternion, q: Quaternion, atol: float = 1e-9) -> float:
    """Max componentwise gap between ``mul(p, q)`` and the 3D cross product.

    Both inputs must be spatial and mutually orthogonal; for such pairs the
    quaternion product reduces to the cross product of the vector parts, so
    the returned gap is zero up to round-off.
    """
    if not p.is_spatial(atol) or not q.is_spatial(atol):
        raise ValueError("spatial_cross_check requires spatial quaternions")
    if abs(inner(p, q)) > atol * max(1.0, p.norm() * q.norm()):
        raise ValueError("spatial_cross_check requires orthogonal inputs")
    gap = mul(p, q).as_vec4() - np.array([0.0, *np.cross(p.v, q.v)])
    return float(np.max(np.abs(gap)))
