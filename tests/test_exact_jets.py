"""The mate's exact jet, and the paper's two statements read with it.

The mate ``alpha + a*N1 + b*N3`` carries the Taylor series that series
arithmetic gives from the base curve's jet of orders 0-7, so the oracle in
``verify_mate`` reads its curvatures to round-off.  That margin lets the
tests below hold the paper's statements to 1e-10 and finer: a mate along
N1 alone is never a Bertrand mate of a curve with nonzero torsion and
bitorsion, and every admissible flat torus has its (1,3) mate, in any
speed of its parameter and for every member of its admissible family.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import TORUS_K
from quatcurves import bertrand
from quatcurves.bertrand import construct_mate, fit_constants, verify_mate
from quatcurves.curves import DEFAULT_STEPS, CurveSpec, _fd_derivative, torus_curve
from quatcurves.errors import FitError
from quatcurves.frames import curvature_profile, frames4
from quatcurves.quaternion import inner, norm
from test_cli import FAST_TORUS_DOC, TORUS_DOC

# (curve, spatial curve) cases: the intrinsic frame, a unit-speed pair
# sharing its parameter, and a 2x-speed torus whose helix parameter is
# solved for by the Taylor-series ODE method.
CASES = ["intrinsic", "pair", "fast-pair"]


def case(name, torus, helix):
    curve = CurveSpec.from_dict(FAST_TORUS_DOC).build() if name == "fast-pair" else torus
    curve3 = None if name == "intrinsic" else helix
    lo, hi = curve.domain
    grid = np.linspace(lo + 0.05, hi - 0.05, 61)
    return curve, curve3, grid, fit_constants(curvature_profile(curve, grid, curve3=curve3))


@pytest.mark.parametrize("name", CASES)
def test_series_coefficient_zero_is_the_mate_point(torus, helix_assoc, name):
    curve, curve3, grid, consts = case(name, torus, helix_assoc)
    jet, _, spatial = bertrand._read_jet(curve, grid, curve3)
    series = bertrand._mate_series(jet, consts.a, consts.b, spatial)
    mate = construct_mate(curve, consts, curve3=curve3)
    assert np.max(np.abs(series[0] - mate.points(grid))) <= 1e-14
    # The jet's order 0 is the points bit for bit; order k is k! times coefficient k.
    rows = mate.jet(grid, (0, 1, 2, 3, 4))
    assert np.array_equal(rows[0], mate.points(grid))
    for k in range(1, 5):
        assert np.array_equal(rows[k], math.factorial(k) * series[k])


@pytest.mark.parametrize("name", CASES)
def test_exact_jet_agrees_with_its_order_one_stencil(torus, helix_assoc, name):
    curve, curve3, grid, consts = case(name, torus, helix_assoc)
    mate = construct_mate(curve, consts, curve3=curve3)
    rows = mate.jet(grid, (1, 2, 3, 4))
    stencil = _fd_derivative(lambda u: np.moveaxis(mate.jet(u, (0, 1, 2, 3)), 0, 1), grid, 1,
                             DEFAULT_STEPS[1])
    # Richardson's O(h^4) error and O(eps / h) round-off: about 1e-11 here.
    for k in range(4):
        scale = max(1.0, float(np.max(np.abs(rows[k]))))
        assert np.max(np.abs(stencil[:, k] - rows[k])) <= 1e-9 * scale, k


@pytest.mark.parametrize("name", CASES)
def test_oracle_reads_round_off(torus, helix_assoc, name):
    curve, curve3, grid, consts = case(name, torus, helix_assoc)
    report = verify_mate(curve, consts, grid, alpha3=curve3)
    assert report.verdict
    assert report.curvature_deviation <= 1e-12 and report.span_residual <= 1e-12


def test_exact_oracle_margins(torus, torus_report):
    # The canonical torus at 101 points: every reading to round-off.
    assert torus_report.verdict
    assert torus_report.curvature_deviation <= 1e-12
    assert torus_report.span_residual <= 1e-12
    assert torus_report.speed_deviation <= 1e-12


def test_oracle_resolves_a_relative_error_of_1e_8(torus, torus_constants, grid101, monkeypatch):
    # A sensitivity check, not a verdict: the 1e-4 tolerance still passes.
    exact = bertrand.mate_curvatures_closed_form

    def scaled(K, r, k, consts):
        kbar, torsion_bar, bitorsion_bar = exact(K, r, k, consts)
        return (1.0 + 1e-8) * kbar, torsion_bar, bitorsion_bar

    monkeypatch.setattr(bertrand, "mate_curvatures_closed_form", scaled)
    report = verify_mate(torus, torus_constants, grid101)
    assert report.curvature_deviation > 1e-9
    assert report.verdict


@pytest.mark.parametrize("a", [0.1, 0.3, -0.5, 1.0])
def test_mate_along_n1_alone_is_not_bertrand(torus, grid101, a):
    # The paper's first statement: a mate along N1 alone whose N1bar is
    # +-N1 forces torsion or bitorsion to vanish.  The torus has neither
    # vanish, so N1bar turns away from N1 everywhere.
    base = frames4(torus, grid101)
    assert np.min(np.abs(base.torsion)) > 0.5 and np.min(np.abs(base.bitorsion)) > 0.5
    bar = frames4(construct_mate(torus, (a, 0.0)), grid101)
    assert np.min(1.0 - np.abs(inner(bar.N1, base.N1))) >= 1e-3


def test_fitted_mate_normals_stay_in_span(torus, torus_constants, grid101):
    base = frames4(torus, grid101)
    bar = frames4(construct_mate(torus, torus_constants), grid101)
    for v in (bar.N1, bar.N3):
        off = v - inner(v, base.N1)[:, None] * base.N1 - inner(v, base.N3)[:, None] * base.N3
        assert np.max(norm(off)) <= 1e-12


coprime_pairs = st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(
    lambda pq: pq[0] != pq[1] and math.gcd(*pq) == 1)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(pq=coprime_pairs,
       ap=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True, allow_nan=False))
def test_admissible_flat_tori_have_exact_mates(pq, ap):
    # The paper's second statement on every admissible flat torus drawn:
    # the fitted constants pass, with the oracle at round-off.
    p, q = pq
    torus = torus_curve(ap / p, float(p), math.sqrt(1.0 - ap * ap) / q, float(q))
    grid = np.linspace(0.0, 2.0 * math.pi, 41)
    report = verify_mate(torus, fit_constants(curvature_profile(torus, grid)), grid)
    assert report.verdict, report.to_json_dict()
    assert report.curvature_deviation <= 1e-10


# -- speed-scaled inputs and the whole admissible family ------------------------------

def fourier_torus(p, q, ap, m):
    """The flat torus of ``test_admissible_flat_tori_have_exact_mates`` traced at
    ``m`` times unit speed, built from a ``fourier`` spec."""
    size = m * max(p, q) + 1
    cos = [[0.0] * size for _ in range(4)]
    sin = [[0.0] * size for _ in range(4)]
    cos[0][m * p] = sin[1][m * p] = ap / p
    cos[2][m * q] = sin[3][m * q] = math.sqrt(1.0 - ap * ap) / q
    return CurveSpec.from_dict({
        "family": "fourier",
        "params": {"coeffs": {"cos": cos, "sin": sin}},
        "domain": [0.0, 2.0 * math.pi / m],
    }).build()


def helix_at(harmonic):
    """The associated helix of tests/conftest.py at ``harmonic / 3`` times unit
    speed, built from a ``fourier`` spec whose domain has the torus's length."""
    speed = harmonic / 3.0
    amp = [0.0] * harmonic + [-1.64 / (3.0 * TORUS_K)]
    zeros = [0.0] * (harmonic + 1)
    return CurveSpec.from_dict({
        "family": "fourier",
        "params": {"coeffs": {"cos": [zeros, amp, zeros], "sin": [zeros, zeros, amp],
                              "linear": [-0.48 * speed / TORUS_K, 0.0, 0.0]}},
        "domain": [0.0, 2.0 * math.pi / speed],
    }).build()


@settings(derandomize=True, deadline=None, max_examples=24, database=None)
@given(pq=coprime_pairs,
       ap=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True, allow_nan=False),
       m=st.sampled_from([2, 3]))
def test_speed_scaled_tori_have_exact_mates(pq, ap, m):
    # Frames and curvatures are read in the curve's own parameter, so a torus
    # traced faster passes with the same round-off margin.
    torus = fourier_torus(*pq, ap, m)
    grid = np.linspace(*torus.domain, 41)
    report = verify_mate(torus, fit_constants(curvature_profile(torus, grid)), grid)
    assert report.verdict, report.to_json_dict()
    assert report.curvature_deviation <= 1e-10


@pytest.mark.parametrize("torus_speed", [1, 2])
@pytest.mark.parametrize("harmonic", [1, 2, 4, 6])
def test_pairs_with_a_non_unit_speed_helix(torus_speed, harmonic):
    # Neither pair shares its parameter, so sigma's series solves
    # sigma' = |alpha'| / |gamma'(sigma)| with gamma' of length harmonic / 3.
    torus = CurveSpec.from_dict(FAST_TORUS_DOC if torus_speed == 2 else TORUS_DOC).build()
    helix = helix_at(harmonic)
    assert not helix.is_unit_speed
    lo, hi = torus.domain
    grid = np.linspace(lo + 0.05, hi - 0.05, 41)
    consts = fit_constants(curvature_profile(torus, grid, curve3=helix))
    report = verify_mate(torus, consts, grid, alpha3=helix)
    assert report.verdict, report.to_json_dict()
    assert report.curvature_deviation <= 1e-10 and report.span_residual <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(name=st.sampled_from(["intrinsic", "pair"]),
       b=st.sampled_from(bertrand._B_CANDIDATES),
       c=st.floats(-10.0, 10.0, allow_nan=False))
def test_admissible_family_members_have_exact_mates(torus, helix_assoc, name, b, c):
    # A constant profile admits a mate for every c and nonzero b that keep the
    # nonzero conditions; the fitter returns c = 0 and the first b.  Here
    # c_override picks c, and b is the only candidate the fitter may take.
    curve, curve3, grid, _ = case(name, torus, helix_assoc)
    profile = curvature_profile(curve, grid, curve3=curve3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bertrand, "_B_CANDIDATES", (b,))
        try:
            consts = fit_constants(profile, c_override=c)
        except FitError:
            assume(False)  # c sits on a singular member: a = 0, or a nonzero condition fails
    assert (consts.b, consts.c) == (b, c)
    report = verify_mate(curve, consts, grid, alpha3=curve3)
    assert report.verdict, report.to_json_dict()
    assert report.curvature_deviation <= 1e-10 and report.span_residual <= 1e-10
