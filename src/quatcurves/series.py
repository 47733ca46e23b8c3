"""Truncated Taylor series on grids.

A series of degree ``d`` is an array whose axis 0 holds the Taylor
coefficients ``x_0 .. x_d`` (``x_k = x^(k) / k!``) at every grid point;
the trailing axes are the grid and, for a vector, its 4 quaternion
components.  Every operation is the standard recurrence of Taylor-series
arithmetic (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM
2008, ch. 13), truncated at the degree of its operands, and works row by
row, so a grid point's series never depends on the other points.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["taylor", "product", "inner", "rsqrt", "unit", "compose", "cross", "jet"]


# k! for the degrees a jet of orders 0-7 gives.
_FACTORIALS = np.array([math.factorial(k) for k in range(8)], dtype=float)
# The weights j/2 - k, j = 1..k, of the recurrence of x^(-1/2), shaped (k, 1).
_RSQRT_WEIGHTS = [None] + [(np.arange(1, k + 1) / 2.0 - k)[:, None] for k in range(1, 8)]


def taylor(jet: np.ndarray, order: int, degree: int) -> np.ndarray:
    """The series of derivative ``order`` from the jet rows of orders 0, 1, ...
    (axis 0), up to ``degree``: coefficient i is row ``order + i`` over ``i!``."""
    rows = jet[order:order + degree + 1]
    return rows / _FACTORIALS[:degree + 1].reshape((-1,) + (1,) * (rows.ndim - 1))


def product(a: np.ndarray, b: np.ndarray, multiply=np.multiply) -> np.ndarray:
    """Cauchy product ``c_k = sum_i a_i b_(k-i)`` of two series of one degree, each term
    ``multiply(a_i, b_(k-i))``: ``np.multiply`` (trailing axes broadcast) or
    :func:`~quatcurves.quaternion.mul` for quaternion series."""
    c = multiply(a[0], b)
    for i in range(1, len(a)):
        c[i:] += multiply(a[i], b[:-i])
    return c


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Series of the row inner products of two vector series."""
    return product(x, y).sum(axis=-1)


def rsqrt(x: np.ndarray) -> np.ndarray:
    """Series of ``x^(-1/2)`` for a scalar series ``x`` of shape ``(degree + 1, n)``:
    from ``y' x = -y x' / 2``, ``y_k = sum_(j=1..k) (j/2 - k) x_j y_(k-j) / (k x_0)``."""
    y = np.empty_like(x)
    y[0] = 1.0 / np.sqrt(x[0])
    reciprocal = 1.0 / x[0]
    for k in range(1, len(x)):
        y[k] = (_RSQRT_WEIGHTS[k] * x[1:k + 1] * y[k - 1::-1]).sum(axis=0) * (reciprocal / k)
    return y


def unit(v: np.ndarray) -> np.ndarray:
    """The vector series ``v / |v|``."""
    return product(rsqrt(inner(v, v))[..., None], v)


def compose(c: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Series of ``f(u + delta)`` from f's Taylor coefficients ``c`` at u (axis 0) and
    the series ``delta`` with ``delta_0 = 0``, by Horner's rule; degree of ``delta``."""
    out = np.zeros(delta.shape + c.shape[2:])
    for m in range(len(c) - 1, -1, -1):
        if m < len(c) - 1:
            out = product(out, delta.reshape(delta.shape + (1,) * (c.ndim - 2)))
        out[0] += c[m]
    return out


# The 4-D ternary cross product x of a, b, c by cofactor expansion along the last
# column of [a b c x]: with the 2x2 minors p = b_j c_k - b_k c_j for (j, k) = (0,1)
# (0,2) (0,3) (1,2) (1,3) (2,3) and the products t_m = a[row[i, m]] * p[minor[i, m]],
# component i is sign[i] * (t_0 - t_1 + t_2).
_MINOR_J, _MINOR_K = np.array([[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]])
_ROW = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_MINOR = np.array([[5, 4, 3], [5, 2, 1], [4, 2, 0], [3, 1, 0]])
_OUTER_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])


def cross(a: np.ndarray, b: np.ndarray, c: np.ndarray, multiply=product) -> np.ndarray:
    """The vector orthogonal to a, b, c with det[a b c x] = |x|^2 by the expansion above:
    ``multiply`` is :func:`product` on series, ``np.multiply`` on rows.  Each component
    adds its terms in column order, as ``sum`` could flip a zero's sign, which CSVs write."""
    p = multiply(b[..., _MINOR_J], c[..., _MINOR_K]) - multiply(b[..., _MINOR_K], c[..., _MINOR_J])
    t = multiply(a[..., _ROW], p[..., _MINOR])
    return (t[..., 0] - t[..., 1] + t[..., 2]) * _OUTER_SIGN


def jet(x: np.ndarray) -> np.ndarray:
    """The jet rows of a series, the inverse of ``taylor(jet, 0, degree)``: row k is k! x_k."""
    return x * _FACTORIALS[:len(x)].reshape((-1,) + (1,) * (x.ndim - 1))
