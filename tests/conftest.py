import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from quatcurves import (
    curvature_profile,
    fit_constants,
    fourier_curve,
    torus_curve,
    verify_mate,
)
from quatcurves.curves import ParametricCurve

# Canonical R^4 fixture: A=0.6, p=1, B=0.4, q=2 gives unit speed exactly.
TORUS = dict(A=0.6, p=1.0, B=0.4, q=2.0)
TORUS_K = math.sqrt(2.92)          # principal curvature
TORUS_R = 1.44 / TORUS_K           # torsion magnitude (intrinsic sign is negative)
TORUS_M = 2.0 / TORUS_K            # bitorsion K - k

TORUS2 = dict(A=0.4, p=2.0, B=0.2, q=3.0)
TORUS2_K = math.sqrt(5.8)


@pytest.fixture(scope="session")
def torus():
    return torus_curve(**TORUS)


@pytest.fixture(scope="session")
def torus2():
    return torus_curve(**TORUS2)


@pytest.fixture(scope="session")
def grid101():
    return np.linspace(0.0, 2.0 * math.pi, 101)


def associated_helix():
    """Spatial curve whose frame reproduces the torus fixture's R^4 frame.

    The tangent field of the torus fixture's frame projects onto a circular
    helix with axis e1; its integral is a trigonometric polynomial plus a
    linear drift, expressible in the fourier family.
    """
    amp = -1.64 / (3.0 * TORUS_K)
    drift = -0.48 / TORUS_K
    zeros = [0.0, 0.0, 0.0, 0.0]
    return fourier_curve(
        cos_coeffs=[zeros, [0.0, 0.0, 0.0, amp], zeros],
        sin_coeffs=[zeros, zeros, [0.0, 0.0, 0.0, amp]],
        linear=[drift, 0.0, 0.0],
    )


@pytest.fixture(scope="session")
def helix_assoc():
    return associated_helix()


@pytest.fixture(scope="session")
def torus_profile(torus, grid101):
    return curvature_profile(torus, grid101)


@pytest.fixture(scope="session")
def torus_constants(torus_profile):
    return fit_constants(torus_profile)


@pytest.fixture(scope="session")
def torus_report(torus, torus_constants, grid101):
    # One full oracle run shared by the bertrand and acceptance tests.
    return verify_mate(torus, torus_constants, grid101)


# -- a (1,3)-Bertrand curve whose curvatures vary ----------------------------------

# Constants and bitorsion K - k = 1 + 0.4*s of the varying fixture on [0, 1].
VARYING = dict(a=0.8, b=1.0, c=0.5, d=1.5)
VARYING_M = (1.0, 0.4)


def bertrand_curvatures(a, b, c, d, m, one=1.0):
    """K and r that make (R2) and (R3) hold for the constants with bitorsion
    ``m = K - k``: values on a grid, or Taylor coefficients with ``one`` the
    series of 1."""
    K = (one + c * (a * d + b) * m) / (a * (1.0 + c * c))
    return K, d * m - c * K


def taylor_curve(m, a, b, c, d, degree=60):
    """Unit-speed curve on [0, 1] whose profile is ``bertrand_curvatures`` of the
    bitorsion with Taylor coefficients ``m`` (at s = 0), so that (a, b, c, d) are its
    Bertrand constants.

    The frame rows F = [T, N1, N2, N3] solve F' = C(s) F with C(s) skew, its
    entries K, torsion -r and bitorsion m; the coefficients of F follow
    (k + 1) F_(k+1) = sum_j C_j F_(k-j) from F_0 = I, and the curve's from
    alpha' = T (the Taylor-series method).  At degree 60 on [0, 1] the last
    coefficient is below 1e-40, so the polynomial is the curve to round-off.
    """
    m = np.pad(np.asarray(m, dtype=float), (0, degree + 1 - len(m)))
    K, r = bertrand_curvatures(a, b, c, d, m, one=np.eye(1, degree + 1)[0])
    C = np.zeros((degree + 1, 4, 4))
    for (i, j), f in {(0, 1): K, (1, 2): -r, (2, 3): m}.items():
        C[:, i, j], C[:, j, i] = f, -f
    F = np.zeros((degree + 1, 4, 4))
    F[0] = np.eye(4)
    for k in range(degree):
        F[k + 1] = np.einsum("jab,jbc->ac", C[:k + 1], F[k::-1]) / (k + 1)
    coeffs = np.zeros((degree + 2, 4))
    coeffs[1:] = F[:, 0] / np.arange(1, degree + 2)[:, None]
    polys = [coeffs]
    for _ in range(7):
        p = polys[-1]
        polys.append(p[1:] * np.arange(1, len(p))[:, None])

    def jet(s, orders):
        return np.stack([P.polyval(s, polys[o]).T for o in orders])

    return ParametricCurve(4, (0.0, 1.0), jet, name="taylor")


def reflected(curve):
    """The mirror image x4 -> -x4 of an R^4 curve."""
    flip = np.array([1.0, 1.0, 1.0, -1.0])
    return ParametricCurve(4, curve.domain, lambda s, orders: curve.jet(s, orders) * flip,
                           name=curve.name + " reflected", validate=False)


@pytest.fixture(scope="session")
def varying_curve():
    return taylor_curve(VARYING_M, **VARYING)
