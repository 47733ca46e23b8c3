"""The built-in families' jets are exact, and their geometry does not depend on size.

A family is built without a finite-difference check, so the proof of its
closed-form jet lives here: each order k + 1 against the first-order
stencil of order k, with the step scaled to the curve's highest
frequency, over drawn parameters of every family.  Frames, curvatures and
the Bertrand verdict are geometric: a torus scaled by mu, alone or with its
associated helix scaled alike, has curvatures scaled by 1/mu and keeps its
verdict, for mu from 1e-3 to 1e3.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TORUS, TORUS_K, associated_helix
from quatcurves.bertrand import fit_constants, verify_mate
from quatcurves.curves import (
    FD_STEP,
    ParametricCurve,
    _fd_derivative,
    circle3,
    fourier_curve,
    helix3,
    torus_curve,
)
from quatcurves.frames import curvature_profile, frames4

unit = st.floats(0.05, 0.95)


@st.composite
def tori(draw):
    p, q, ap = draw(st.floats(0.1, 50.0)), draw(st.floats(0.1, 50.0)), draw(unit)
    return torus_curve(ap / p, p, math.sqrt(1.0 - ap * ap) / q, q), max(p, q)


@st.composite
def circles(draw):
    R, mode = draw(st.floats(0.01, 100.0)), draw(st.sampled_from(["arclength", "angle"]))
    return circle3(R, mode), (1.0 / R if mode == "arclength" else 1.0)


@st.composite
def helices(draw):
    a, h = draw(st.floats(0.01, 100.0)), draw(st.floats(-100.0, 100.0))
    return helix3(a, h), 1.0 / math.sqrt(a * a + h * h)


@st.composite
def fouriers(draw):
    n = draw(st.sampled_from([3, 4]))
    rows = st.lists(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
                    min_size=n, max_size=n)
    cos, sin = draw(rows), draw(rows)
    linear = draw(st.none() | st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    top = max([m for row in cos + sin for m, c in enumerate(row) if c], default=1)
    return fourier_curve(cos, sin, linear), float(max(top, 1))


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(drawn=st.one_of(tori(), circles(), helices(), fouriers()))
def test_family_jets_agree_with_the_stencil(drawn):
    # Order k + 1 against the stencil of order k at the step FD_STEP / w, with w
    # the highest frequency: its round-off is about eps / (h * w) = 2e-12 of the
    # size of order k times w, and its truncation error smaller still.
    curve, w = drawn
    h = FD_STEP / w
    lo, hi = curve.domain
    u = np.linspace(lo + h, hi - h, 9)
    jet = curve.jet(u, range(8))
    fd = _fd_derivative(lambda v: np.moveaxis(curve.jet(v, range(7)), 0, 1), u, h)
    for k in range(7):
        scale = max(float(np.max(np.abs(jet[k]))) * w, float(np.max(np.abs(jet[k + 1]))))
        assert np.max(np.abs(fd[:, k] - jet[k + 1])) <= 1e-9 * scale, k


def scaled(curve, mu):
    """``curve`` scaled by ``mu`` in space and in its parameter, ``u -> mu * c(u / mu)``:
    order n of its jet is ``mu**(1 - n)`` times the curve's at ``u / mu``."""
    lo, hi = curve.domain
    powers = np.array([mu ** (1 - n) for n in range(8)])

    def jet(u, orders):
        return powers[list(orders), None, None] * curve.jet(u / mu, orders)

    return ParametricCurve(curve.dim, (mu * lo, mu * hi), jet, validate=False)


def scaled_torus(mu):
    A, p, B, q = TORUS["A"], TORUS["p"], TORUS["B"], TORUS["q"]
    return torus_curve(A * mu, p / mu, B * mu, q / mu, domain=(0.0, 2.0 * math.pi * mu))


MUS = [1e-3, 1.0 / 200.0, 0.03, 1.0, 40.0, 1e3]


@pytest.mark.parametrize("pair", [False, True], ids=["intrinsic", "pair"])
@pytest.mark.parametrize("mu", MUS)
def test_scaled_torus_has_scaled_curvatures_and_its_verdict(mu, pair):
    grid = np.linspace(0.05, 2.0 * math.pi - 0.05, 41)
    helix = associated_helix() if pair else None
    want = frames4(torus_curve(**TORUS), grid, helix)
    torus = scaled_torus(mu)
    helix = scaled(helix, mu) if pair else None
    got = frames4(torus, mu * grid, helix)
    for name in ("K", "torsion", "bitorsion"):
        ratio = mu * getattr(got, name) / getattr(want, name)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-12, name
    assert abs(mu * float(np.mean(got.K)) / TORUS_K - 1.0) <= 1e-12
    consts = fit_constants(curvature_profile(torus, mu * grid, helix))
    report = verify_mate(torus, consts, mu * grid, alpha3=helix)
    assert report.verdict, report.to_json_dict()
    assert report.curvature_deviation * mu <= 1e-12
