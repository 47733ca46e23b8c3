"""The grid kernel against the pointwise construction, and its scalar wrappers.

The reference below builds one frame per grid point of a unit-speed
curve: derivatives from ``curves.derivative``, Gram-Schmidt with ``@``,
N3 from five determinants, and the unit-speed chain-rule formulas for
N1', N2' and the curvatures.  The kernel reads the same frame from the
norms of its Gram-Schmidt pass, sums its inner products in another order
and builds N3 from closed-form minors, so the two agree to the last bits
(1e-13 absolute on vectors and mate points, 1e-13 relative on K, torsion
and bitorsion).
"""

import math

import numpy as np
import pytest

from conftest import TORUS, TORUS2, associated_helix
from test_cli import FAST_TORUS_DOC
from quatcurves.bertrand import construct_mate
from quatcurves.curves import ArcLengthTable, CurveSpec, derivative, torus_curve
from quatcurves.frames import (
    curvature_profile,
    frame3_at,
    frame4_from_pair,
    frame4_intrinsic,
    frames3,
    frames4,
)
from quatcurves.quaternion import Quaternion, mul

TOL = 1e-13
OFFSETS = (0.3, -0.7)


# -- pointwise reference ----------------------------------------------------------

def ref_orthonormalize(vec, against):
    out = vec.copy()
    for u in against:
        out -= (out @ u) * u
    return out


def ref_complement(u1, u2, u3):
    m = np.stack([u1, u2, u3], axis=0)
    x = np.array([(-1.0) ** i * np.linalg.det(np.delete(m, i, axis=1)) for i in range(4)])
    x /= np.linalg.norm(x)
    if np.linalg.det(np.column_stack([u1, u2, u3, x])) < 0.0:
        x = -x
    return x


def ref_basis(curve, s):
    d1, d2, d3 = (derivative(curve, s, n) for n in (1, 2, 3))
    K = float(np.linalg.norm(d2))
    t = d1 / np.linalg.norm(d1)
    n1 = ref_orthonormalize(d2, [t])
    n1 /= np.linalg.norm(n1)
    kp = (d3 @ d2) / K
    w = d3 / K - d2 * kp / K**2 + K * t
    wp = ref_orthonormalize(w, [t, n1])
    wn = float(np.linalg.norm(wp))
    n2 = -wp / wn
    return np.stack([t, n1, n2, ref_complement(t, n1, n2)]), K, -wn, (d1, d2, d3, w)


def ref_intrinsic(curve, s):
    vectors, K, torsion, (d1, d2, d3, w) = ref_basis(curve, s)
    t = vectors[0]
    d4 = derivative(curve, s, 4)
    L1 = float(np.linalg.norm(d1))
    t_prime = d2 / L1 - d1 * (d2 @ d1) / L1**3
    kp = (d3 @ d2) / K
    kpp = (d4 @ d2 + d3 @ d3 - kp * kp) / K
    n1_pp = d4 / K - 2.0 * d3 * kp / K**2 - d2 * kpp / K**2 + 2.0 * d2 * kp**2 / K**3
    w_prime = n1_pp + kp * t + K * t_prime
    wn = float(np.linalg.norm(w))
    n2_prime = -w_prime / wn + w * (w_prime @ w) / wn**3
    return vectors, K, torsion, float(n2_prime @ vectors[3])


def qmul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 + c1 * a2 + d1 * b2 - b1 * d2,
        a1 * d2 + d1 * a2 + b1 * c2 - c1 * b2,
    ])


def ref_spatial(curve, s):
    d1, d2, d3 = (derivative(curve, s, n) for n in (1, 2, 3))
    k = float(np.linalg.norm(d2))
    t = d1 / np.linalg.norm(d1)
    n = ref_orthonormalize(d2, [t])
    n /= np.linalg.norm(n)
    b = qmul(t, n)
    n_prime = d3 / k - d2 * (d3 @ d2) / k**3
    return t, n, b, k, float(n_prime @ b)


def ref_pair(curve4, curve3, s):
    t, n, b, k, r = ref_spatial(curve3, s)
    d1, d2 = (derivative(curve4, s, order) for order in (1, 2))
    K = float(np.linalg.norm(d2))
    L1 = float(np.linalg.norm(d1))
    T = d1 / L1
    N1, N2, N3 = qmul(b, T), qmul(n, T), qmul(t, T)
    t_prime = d2 / L1 - d1 * (d2 @ d1) / L1**3
    N1_prime = qmul(-r * n, T) + qmul(b, t_prime)
    N2_prime = qmul(-k * t + r * b, T) + qmul(n, t_prime)
    return np.stack([T, N1, N2, N3]), K, float(N1_prime @ N2), float(N2_prime @ N3)


def ref_frames(curve4, grid, curve3=None):
    if curve3 is None:
        return [ref_intrinsic(curve4, float(s)) for s in grid]
    return [ref_pair(curve4, curve3, float(s)) for s in grid]


def ref_mate(curve4, grid, curve3=None):
    a, b = OFFSETS
    rows = []
    for s in grid:
        s = float(s)
        if curve3 is None:
            vectors = ref_basis(curve4, s)[0]
        else:
            vectors = ref_pair(curve4, curve3, s)[0]
        rows.append(curve4.point(s) + a * vectors[1] + b * vectors[3])
    return np.array(rows)


# -- cases -------------------------------------------------------------------------

def cases():
    torus, full = torus_curve(**TORUS), np.linspace(0.0, 2.0 * math.pi, 101)
    return {
        "torus": (torus, None, full),
        "torus2": (torus_curve(**TORUS2), None, full),
        "torus-helix": (torus, associated_helix(), np.linspace(0.05, 2.0 * math.pi - 0.05, 61)),
    }


CASES = cases()


def max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def max_rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.abs(b)))


@pytest.mark.parametrize("name", list(CASES))
def test_kernel_matches_pointwise_reference(name):
    curve4, curve3, grid = CASES[name]
    ref = ref_frames(curve4, grid, curve3)
    raw = frames4(curve4, grid, curve3)
    assert max_abs(np.stack(raw.vectors(), axis=1), [f[0] for f in ref]) <= TOL
    for got, i in ((raw.K, 1), (raw.torsion, 2), (raw.bitorsion, 3)):
        assert max_rel(got, [f[i] for f in ref]) <= TOL

    profile = curvature_profile(curve4, grid, curve3=curve3)
    assert max_rel(profile.K, [f[1] for f in ref]) <= TOL
    assert max_rel(profile.r, [-f[2] for f in ref]) <= TOL
    assert max_rel(profile.bitorsion, [f[3] for f in ref]) <= TOL

    mate = construct_mate(curve4, OFFSETS, curve3=curve3)
    assert max_abs(mate.points(grid), ref_mate(curve4, grid, curve3)) <= TOL


# -- scalar wrappers return the batch rows bit for bit ---------------------------------

def frame_rows(frame):
    return np.concatenate(frame.vectors())


@pytest.mark.parametrize("name", list(CASES))
def test_scalar_wrappers_are_batch_rows(name):
    curve4, curve3, grid = CASES[name]
    batch = frames4(curve4, grid, curve3)
    mate = construct_mate(curve4, OFFSETS, curve3=curve3)
    mate_points = mate.points(grid)
    points = curve4.points(grid)
    derivs = {n: curve4.derivatives(grid, n) for n in (1, 2, 3, 4)}
    for i, s in enumerate(grid):
        s = float(s)
        f = frame4_intrinsic(curve4, s) if curve3 is None else frame4_from_pair(curve4, curve3, s)
        assert np.array_equal(frame_rows(f), np.stack(batch.vectors(), axis=1)[i])
        assert (f.K[0], f.torsion[0], f.bitorsion[0]) == (batch.K[i], batch.torsion[i],
                                                          batch.bitorsion[i])
        assert np.array_equal(curve4.point(s), points[i])
        for n, rows in derivs.items():
            assert np.array_equal(derivative(curve4, s, n), rows[i])
        assert np.array_equal(mate.point(s), mate_points[i])
    if curve3 is not None:
        spatial = frames3(curve3, grid)
        for i, s in enumerate(grid):
            f = frame3_at(curve3, float(s))
            assert np.array_equal(frame_rows(f), np.stack(spatial.vectors(), axis=1)[i])
            assert (f.k[0], f.r[0]) == (spatial.k[i], spatial.r[i])


def test_arc_length_wrappers_are_batch_rows():
    curve = CurveSpec.from_dict(FAST_TORUS_DOC).build()
    table = ArcLengthTable.build(curve, 0.1, 3.0, 64)
    u = np.linspace(0.1, 3.0, 37)
    targets = np.linspace(0.0, table.total, 37)
    lengths, params = table.lengths_at(u), table.parameters_at(targets)
    for i in range(len(u)):
        assert table.length_at(float(u[i])) == lengths[i]
        assert table.invert(float(targets[i])) == params[i]


def test_quaternion_product_is_batch_row():
    rng = np.random.default_rng(7)
    p, q = rng.normal(size=(50, 4)), rng.normal(size=(50, 4))
    rows = mul(p, q)
    for i in range(len(p)):
        got = mul(Quaternion.from_vec4(p[i]), Quaternion.from_vec4(q[i]))
        assert np.array_equal(got.as_vec4(), rows[i])
        assert np.array_equal(qmul(p[i], q[i]), rows[i])
