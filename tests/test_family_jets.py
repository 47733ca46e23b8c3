"""The built-in families' jets are exact, and their geometry does not depend on size.

A family is built without a finite-difference check, so the proof of its
closed-form jet lives here: each order k + 1 against the first-order
stencil of order k, with the step scaled to the curve's highest
frequency, over drawn parameters of every family.  The one kernel that
evaluates all four families gives the same doubles as the per-family jets
it replaced, kept here as references, and holds one angle array at a time
however many harmonics a curve has.  Frames, curvatures and the Bertrand
verdict are geometric: a torus scaled by mu, alone or with its associated
helix scaled alike, has curvatures scaled by 1/mu, fits the same constants
b = 1 and c = 0 and keeps its verdict, for mu from 1e-12 to 1e12.
"""

import math
import tracemalloc

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


# -- the kernel against the per-family jets it replaced --------------------------
# Each reference keeps the arithmetic of one family's former jet as written:
# the scale columns c * w**n, the angles w*u + n*pi/2 (u / c for the helix),
# the torus written in place, the fourier terms added to zeros coordinate by
# coordinate, cosines first, then the drift.

PHASES = np.array([n * math.pi / 2.0 for n in range(8)])[:, None]


def columns(c, w, powers=range(8)):
    return np.array([c * w**n for n in powers])[:, None]


def torus_reference(A, p, B, q):
    sa, sb = columns(A, p), columns(B, q)

    def jet(u, orders):
        ph, ra, rb = PHASES[list(orders)], sa[list(orders)], sb[list(orders)]
        pu, qu = p * u + ph, q * u + ph
        out = np.empty((len(orders), len(u), 4))
        np.multiply(ra, np.cos(pu), out=out[..., 0])
        np.multiply(ra, np.sin(pu), out=out[..., 1])
        np.multiply(rb, np.cos(qu), out=out[..., 2])
        np.multiply(rb, np.sin(qu), out=out[..., 3])
        return out

    return jet


def circle_reference(R, mode):
    w = 1.0 / R if mode == "arclength" else 1.0
    scales = columns(R, w)

    def jet(u, orders):
        ph, scale = PHASES[list(orders)], scales[list(orders)]
        wu = w * u + ph
        out = np.zeros((len(orders), len(u), 4))
        np.multiply(scale, np.cos(wu), out=out[..., 1])
        np.multiply(scale, np.sin(wu), out=out[..., 2])
        return out

    return jet


def helix_reference(a, h):
    c = math.sqrt(a * a + h * h)
    scales = columns(a, c, [-n for n in range(8)])

    def jet(u, orders):
        ph, scale = PHASES[list(orders)], scales[list(orders)]
        angle = u / c + ph
        out = np.zeros((len(orders), len(u), 4))
        np.multiply(scale, np.cos(angle), out=out[..., 1])
        np.multiply(scale, np.sin(angle), out=out[..., 2])
        for k, n in enumerate(orders):
            if n < 2:
                out[k, :, 3] = h * u / c if n == 0 else h / c
        return out

    return jet


def fourier_reference(cos, sin, linear):
    offset = 4 - len(cos)
    lin = [0.0] * len(cos) if linear is None else linear
    terms = [[(kind, m, c) for kind, coeffs in ((0, cos[i]), (1, sin[i]))
              for m, c in enumerate(coeffs) if c] for i in range(len(cos))]
    harmonics = sorted({m for row in terms for _, m, _ in row})
    ms = np.array(harmonics, dtype=float)[:, None, None]
    scales = [[columns(c, float(m)) for _, m, c in row] for row in terms]

    def jet(u, orders):
        ph = PHASES[list(orders)]
        angles = ms * u + ph
        trig = (np.cos(angles), np.sin(angles))
        out = np.zeros((len(orders), len(u), 4))
        for i, row in enumerate(terms):
            total = out[:, :, offset + i]
            for (kind, m, _), scale in zip(row, scales[i]):
                total += scale[list(orders)] * trig[kind][harmonics.index(m)]
            if lin[i]:
                for k, n in enumerate(orders):
                    if n < 2:
                        total[k] += lin[i] * u if n == 0 else lin[i]
        return out

    return jet


sign = st.sampled_from([-1.0, 1.0])
amplitude = st.sampled_from([0.0]) | st.floats(-2.0, 2.0)


@st.composite
def torus_pairs(draw):
    p, q = draw(sign) * draw(st.floats(0.1, 50.0)), draw(sign) * draw(st.floats(0.1, 50.0))
    ap = draw(unit)
    A, B = draw(sign) * ap / abs(p), draw(sign) * math.sqrt(1.0 - ap * ap) / abs(q)
    return torus_curve(A, p, B, q), torus_reference(A, p, B, q)


@st.composite
def circle_pairs(draw):
    R, mode = draw(st.floats(0.01, 100.0)), draw(st.sampled_from(["arclength", "angle"]))
    return circle3(R, mode), circle_reference(R, mode)


@st.composite
def helix_pairs(draw):
    a, h = draw(st.floats(0.01, 100.0)), draw(st.floats(-100.0, 100.0))
    return helix3(a, h), helix_reference(a, h)


@st.composite
def fourier_pairs(draw):
    n = draw(st.sampled_from([3, 4]))
    rows = st.lists(st.lists(amplitude, min_size=1, max_size=8), min_size=n, max_size=n)
    cos, sin = draw(rows), draw(rows)
    linear = draw(st.none() | st.lists(amplitude, min_size=n, max_size=n))
    return fourier_curve(cos, sin, linear), fourier_reference(cos, sin, linear)


ORDERS = [(0,), (1,), (1, 2), (1, 2, 3, 4), (0, 1, 2, 3), tuple(range(8)), (2, 0, 5)]


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(drawn=st.one_of(torus_pairs(), circle_pairs(), helix_pairs(), fourier_pairs()))
def test_family_kernel_gives_the_former_jets_doubles(drawn):
    # np.array_equal holds 0.0 and -0.0 equal: a first term written in place
    # keeps a sign of zero that adding it to 0.0 dropped, and no output reads it.
    curve, reference = drawn
    former = ParametricCurve(curve.dim, curve.domain, reference, validate=False)
    for n in (1, 41, 2001):
        u = np.linspace(*curve.domain, n)
        for orders in ORDERS:
            assert np.array_equal(curve.jet(u, orders), former.jet(u, orders)), (n, orders)
    # One whole-grid call past 32,768 rows (8 orders of 4,097 points) gives them too.
    u = np.linspace(*curve.domain, 4097)
    assert np.array_equal(curve.jet(u, range(8)), former.jet(u, range(8)))


def test_kernel_memory_does_not_grow_with_the_harmonic_count():
    # 64 harmonics on every coordinate: the kernel holds one angle array at a
    # time, not one per harmonic (each a quarter of the (8, n, 4) result,
    # 16 MB in all), and gives the former jet's doubles.
    cos = [[0.0] + [1e-3] * 64 for _ in range(4)]
    sin = [[0.0] + [1e-3] * 64 for _ in range(4)]
    curve, former = fourier_curve(cos, sin), fourier_reference(cos, sin, None)
    u = np.linspace(*curve.domain, 4096)
    tracemalloc.start()
    try:
        jet = curve.jet(u, range(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * jet.nbytes
    assert np.array_equal(jet, former(u, range(8)))


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


MUS = [1e-12, 1e-11, 1e-9, 1e-6, 1e-3, 1.0 / 200.0, 0.03, 1.0, 40.0, 1e3, 1e6, 1e9, 1e10,
       1e12]


GRID = np.linspace(0.05, 2.0 * math.pi - 0.05, 41)


def scaled_frames(mu, pair):
    """The torus scaled by ``mu``, its helix scaled alike for a ``pair`` (else None)
    and their frames on ``mu * GRID``, checked to have the curvatures of the
    unscaled frames on ``GRID`` times 1/mu."""
    helix = associated_helix() if pair else None
    want = frames4(torus_curve(**TORUS), GRID, helix)
    torus, helix = scaled_torus(mu), (scaled(helix, mu) if pair else None)
    got = frames4(torus, mu * GRID, helix)
    for name in ("K", "torsion", "bitorsion"):
        ratio = mu * getattr(got, name) / getattr(want, name)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-12, name
    return torus, helix, got


# Past mu = 1.7e12 the length b = 1 is under the fit's floor, 1e-12 / kappa.
# From about 1e40 on, the intrinsic mate's cross product of derivative series
# would leave the float range unless each series is first scaled to size 1.
LARGE_MUS = [1e13, 1e20, 1e30, 1e40, 1e50]


@pytest.mark.parametrize("pair", [False, True], ids=["intrinsic", "pair"])
@pytest.mark.parametrize("mu", MUS + LARGE_MUS)
def test_scaled_torus_has_scaled_curvatures_and_its_verdict(mu, pair):
    torus, helix, got = scaled_frames(mu, pair)
    assert abs(mu * float(np.mean(got.K)) / TORUS_K - 1.0) <= 1e-12
    # Every floor of the fit and every tolerance of verify is written in
    # the units of its quantity, so no size reads as degenerate; b = 1 where
    # it is a length over the floor, else 2**-floor(log2 kappa).
    consts = fit_constants(curvature_profile(torus, mu * GRID, helix))
    assert consts.c == 0.0
    if mu in LARGE_MUS:
        assert 1.0 <= consts.b * float(np.max(np.abs(got.K))) < 2.0
    else:
        assert consts.b == 1.0
    report = verify_mate(torus, consts, mu * GRID, alpha3=helix)
    assert report.verdict, report.to_json_dict()
    assert report.curvature_deviation * mu <= 1e-12
