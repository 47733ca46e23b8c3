import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatcurves.curves import (
    FD_STEP,
    TABLE_PANELS,
    ArcLengthTable,
    CurveSpec,
    ParametricCurve,
    circle3,
    derivative,
    fourier_curve,
    helix3,
    torus_curve,
    _fd_derivative,
)
from quatcurves.bertrand import BertrandConstants, verify_mate
from quatcurves.errors import DegeneracyError
from quatcurves.frames import CurvatureProfile, frame_ode_residual, frames4
from quatcurves.quaternion import Quaternion
from test_cli import FAST_TORUS_DOC, WOBBLE_DOC, scaled_amplitudes

SQ2 = math.sqrt(0.5)


def builtin_families():
    return {
        "torus": torus_curve(0.6, 1.0, 0.4, 2.0),
        "torus2": torus_curve(0.4, 2.0, 0.2, 3.0),
        "circle3": circle3(1.0),
        "helix3": helix3(3.0, 4.0),
        "fourier": fourier_curve(
            [[0.0, 0.3], [0.0, 0.0, 0.2], [0.1]],
            [[0.0, 0.0], [0.0, 0.4], [0.0, 0.0, 0.0, 0.05]],
        ),
    }


class TestDerivative:
    def test_torus_first_derivative_at_zero(self):
        c = torus_curve(SQ2, 1.0, SQ2, 1.0, domain=(-math.pi, math.pi))
        want = np.array([0.0, SQ2, 0.0, SQ2])
        assert np.allclose(derivative(c, 0.0, 1), want, atol=1e-14)
        # finite-difference path must agree
        fd = _fd_derivative(c.points, np.array([0.0]), FD_STEP)[0]
        assert np.allclose(fd, want, atol=1e-9)

    def test_constant_curve_all_orders_zero(self):
        c = fourier_curve([[0.5], [1.0], [-2.0]], [[0.0], [0.0], [0.0]])
        for order in (1, 2, 3, 4):
            assert np.allclose(derivative(c, 1.0, order), 0.0, atol=1e-15)

    def test_circle_second_derivative_norm(self):
        R = 2.5
        c = circle3(R)
        d2 = derivative(c, 1.0, 2)
        assert math.isclose(np.linalg.norm(d2), 1.0 / R, rel_tol=1e-12)

    def test_fd_matches_analytic_all_families(self):
        # Each order k + 1 of the jet against the stencil of its order k, to
        # 1e-6 of the size of the rows the stencil differentiates.
        rng = np.random.default_rng(20240901)
        for name, c in builtin_families().items():
            lo, hi = c.domain
            u = rng.uniform(lo + 0.5, hi - 0.5, 8)
            jet = c.jet(u, range(8))
            fd = _fd_derivative(lambda v: np.moveaxis(c.jet(v, range(7)), 0, 1), u, FD_STEP)
            for k in range(7):
                scale = max(1.0, float(np.max(np.abs(jet[k]))))
                assert np.max(np.abs(jet[k + 1] - fd[:, k])) <= 1e-6 * scale, (name, k)

    def test_order_validation(self):
        c = circle3(1.0)
        with pytest.raises(ValueError):
            derivative(c, 1.0, 0)
        with pytest.raises(ValueError):
            derivative(c, 1.0, 5)


class TestArcLength:
    def test_unit_circle_circumference(self):
        c = circle3(1.0)
        total = ArcLengthTable.build(c, 0.0, 2 * math.pi, TABLE_PANELS).total
        assert abs(total - 2 * math.pi) <= 1e-10

    def test_zero_interval(self):
        c = circle3(1.0)
        assert ArcLengthTable.build(c, 1.0, 1.0, TABLE_PANELS).total == 0.0

    def test_unit_speed_length_equals_span(self):
        c = torus_curve(0.6, 1.0, 0.4, 2.0)
        L = 5.5
        assert abs(ArcLengthTable.build(c, 0.0, L, TABLE_PANELS).total - L) <= 1e-9

    def test_additivity(self):
        c = helix3(3.0, 4.0)
        total, first, second = (ArcLengthTable.build(c, u0, u1, TABLE_PANELS).total
                                for u0, u1 in ((0.5, 9.5), (0.5, 4.0), (4.0, 9.5)))
        split = first + second
        assert abs(total - split) <= 1e-9

    def test_table_monotone(self):
        c = torus_curve(0.6, 1.0, 0.4, 2.0)
        table = ArcLengthTable.build(c, 0.0, 2 * math.pi, 64)
        assert table.lengths[0] == 0.0
        assert np.all(np.diff(table.lengths) > 0)
        assert abs(table.total - 2 * math.pi) <= 1e-9
        # inversion round-trip
        for target in (0.3, 2.0, 5.9):
            u = table.invert(target)
            assert abs(table.length_at(u) - target) <= 1e-11

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(exponent=st.floats(-150.0, 150.0),
           coeffs=st.lists(st.floats(-1.0, 1.0), min_size=28, max_size=28))
    def test_table_lengths_strictly_increase_at_any_scale(self, exponent, coeffs):
        # The table refuses a speed at most DEGENERACY_EPS times its largest,
        # so each panel holds at least DEGENERACY_EPS / TABLE_PANELS of the
        # total and the cumulative lengths strictly increase at any size: the
        # 2x-speed torus, of length 2*pi*mu, and a drawn Fourier curve with a
        # drift, scaled by mu on their fixed domains.
        mu = 10.0 ** exponent
        fast = CurveSpec.from_dict(scaled_amplitudes(FAST_TORUS_DOC, mu)).build()
        table = ArcLengthTable.build(fast, *fast.domain, TABLE_PANELS)
        assert np.all(np.diff(table.lengths) > 0)
        assert abs(table.total / (2.0 * math.pi * mu) - 1.0) <= 1e-12
        rows = [[mu * c for c in coeffs[i:i + 3]] for i in range(0, 24, 3)]
        drawn = fourier_curve(rows[:4], rows[4:], [mu * c for c in coeffs[24:]])
        try:
            table = ArcLengthTable.build(drawn, *drawn.domain, TABLE_PANELS)
        except DegeneracyError as exc:
            assert "irregular curve" in str(exc)
        else:
            assert np.all(np.diff(table.lengths) > 0)

    def test_inversion_reports_non_convergence(self):
        # With the speed halved after the table is built, the length inside a
        # panel reaches only half of the panel's tabulated increment, so a
        # target in the upper half of a panel has no solution and Newton
        # cycles between panels.
        c = torus_curve(0.6, 1.0, 0.4, 2.0)
        table = ArcLengthTable.build(c, 0.0, 2 * math.pi, 8)
        slow = dataclasses.replace(table, _speed=lambda u: 0.5 * c.speeds(u))
        with pytest.raises(DegeneracyError, match="did not converge: residual"):
            slow.invert(0.75 * table.lengths[1])


class TestReparameterize:
    # Arc length is mapped to the parameter by the table's Newton inversion.
    def test_identity_on_unit_speed_curve(self):
        c = torus_curve(0.6, 1.0, 0.4, 2.0)
        table = ArcLengthTable.build(c, *c.domain, 128)
        s = np.linspace(0.1, 5.0, 9)
        u = table.parameters_at(s)
        assert np.max(np.abs(c.points(u) - c.points(s + c.domain[0]))) <= 1e-8

    def test_angle_circle_becomes_unit_speed(self):
        c = circle3(2.0, mode="angle")
        assert not c.is_unit_speed
        table = ArcLengthTable.build(c, *c.domain, 128)
        assert abs(table.total - 4 * math.pi) <= 1e-8
        s = np.linspace(0.0, table.total, 17)
        zero = np.zeros_like(s)
        at_length = np.column_stack([zero, 2.0 * np.cos(s / 2.0), 2.0 * np.sin(s / 2.0), zero])
        assert np.max(np.abs(c.points(table.parameters_at(s)) - at_length)) <= 1e-8

    def test_point_curve_rejected(self):
        c = fourier_curve([[1.0], [0.0], [0.0]], [[0.0], [0.0], [0.0]])
        with pytest.raises(DegeneracyError, match="irregular"):
            ArcLengthTable.build(c, *c.domain, 64)


class TestIsUnitSpeed:
    def test_torus_is_unit_speed(self):
        c = torus_curve(0.6, 1.0, 0.4, 2.0)
        ok, dev = c.is_unit_speed, c.unit_speed_deviation
        assert ok and dev < 1e-12

    def test_scaled_curve_fails(self):
        doubled = fourier_curve(
            [[0.0, 1.2], [0.0, 0.0], [0.0, 0.0, 0.8], [0.0, 0.0, 0.0]],
            [[0.0, 0.0], [0.0, 1.2], [0.0, 0.0, 0.0], [0.0, 0.0, 0.8]],
        )
        ok, dev = doubled.is_unit_speed, doubled.unit_speed_deviation
        assert not ok
        assert abs(dev - 1.0) <= 1e-9

    def test_constant_curve_fails(self):
        c = fourier_curve([[0.5], [0.0], [0.0]], [[0.0], [0.0], [0.0]])
        ok, dev = c.is_unit_speed, c.unit_speed_deviation
        assert not ok
        assert abs(dev - 1.0) <= 1e-12

    def test_after_reparameterization_all_families(self):
        # Uniform arc-length targets mapped through the table land on
        # parameters whose arc lengths, measured again, are those targets.
        for name, c in builtin_families().items():
            table = ArcLengthTable.build(c, *c.domain, 128)
            targets = np.linspace(0.0, table.total, 41)
            u = table.parameters_at(targets)
            steps = [ArcLengthTable.build(c, u[i], u[i + 1], TABLE_PANELS).total
                     for i in range(len(u) - 1)]
            assert np.max(np.abs(np.array(steps) - np.diff(targets))) <= 1e-9, name


class TestCurveSpec:
    def test_torus_document(self):
        doc = {
            "family": "torus_curve",
            "params": {"A": 0.70710678118654752, "p": 1.0, "B": 0.70710678118654752, "q": 1.0},
            "domain": [0.0, 6.2831853],
        }
        spec = CurveSpec.from_json(json.dumps(doc))
        curve = spec.build()
        assert curve.dim == 4
        assert np.allclose(curve.point(0.0), [SQ2, 0.0, SQ2, 0.0], atol=1e-8)

    def test_fourier_document(self):
        doc = {
            "family": "fourier",
            "params": {
                "coeffs": {
                    "cos": [[0.0, 1.0], [0.0, 0.0], [0.0]],
                    "sin": [[0.0, 0.0], [0.0, 1.0], [0.0]],
                }
            },
            "domain": [0.0, 6.283185307179586],
        }
        curve = CurveSpec.from_json(json.dumps(doc)).build()
        assert curve.dim == 3
        assert np.allclose(curve.point(0.0), [0.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("doc", [
        {"family": "torus_curve", "params": {"A": 0.6, "p": 1.0, "B": 0.4, "q": 2.0}},
        {"family": "fourier", "params": {"coeffs": {
            "cos": [[0.0, 0.3], [0.0, 0.0, 0.2], [0.1]],
            "sin": [[0.0, 0.0], [0.0, 0.4], [0.0, 0.0, 0.0, 0.05]],
            "linear": [0.0, 0.5, 0.0]}}},
    ], ids=["torus", "fourier"])
    def test_family_without_domain_takes_its_own(self, doc):
        # A spec without a "domain" builds the family on its natural [0, 2*pi].
        implicit = CurveSpec.from_dict(doc).build()
        explicit = CurveSpec.from_dict({**doc, "domain": [0.0, 2.0 * math.pi]}).build()
        assert implicit.domain == explicit.domain == (0.0, 2.0 * math.pi)
        u = np.linspace(0.0, 2.0 * math.pi, 41)
        assert np.array_equal(implicit.jet(u, range(8)), explicit.jet(u, range(8)))

    def test_domain_none_is_the_natural_domain(self):
        curves = [torus_curve(0.6, 1.0, 0.4, 2.0, domain=None),
                  fourier_curve([[0.0, 1.0], [0.0], [0.0]], [[0.0], [0.0, 1.0], [0.0]],
                                domain=None)]
        assert [c.domain for c in curves] == [(0.0, 2.0 * math.pi)] * 2

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            CurveSpec.from_json('{"family": "lemniscate", "params": {}}')

    def test_missing_param(self):
        with pytest.raises(ValueError, match="missing parameter"):
            CurveSpec.from_json('{"family": "torus_curve", "params": {"A": 1.0}}').build()

    def test_malformed_json(self):
        with pytest.raises(json.JSONDecodeError):
            CurveSpec.from_json("{not json")

    def test_torus_unit_speed_validation(self):
        with pytest.raises(ValueError, match="A\\^2"):
            torus_curve(1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad, quoted", [
        (True, "True"), ("1.5", "'1.5'"), (math.nan, "nan"), ([1.0], "[1.0]"),
    ], ids=["bool", "string", "nan", "nested-list"])
    @pytest.mark.parametrize("where", ["sin", "linear"])
    def test_fourier_coefficient_that_is_not_a_number_quoted(self, bad, quoted, where):
        # Each coefficient list is checked in one pass; the first entry that is
        # not a finite number is quoted, by the name of its list.
        coeffs = {"cos": [[0.0, 1.0], [0.0], [0.5]], "sin": [[0.0], [0.0, 1.0], [0.0]],
                  "linear": [0.0, 0.0, 1.0]}
        (coeffs["sin"][1] if where == "sin" else coeffs["linear"])[0] = bad
        spec = CurveSpec.from_dict({"family": "fourier", "params": {"coeffs": coeffs}})
        with pytest.raises(ValueError) as info:
            spec.build()
        assert str(info.value) == ("curve spec for 'fourier' has a malformed parameter: "
                                   f"{where} must be a finite number, not {quoted}")

    @pytest.mark.parametrize("bad", [True, "1.5", math.inf], ids=["bool", "string", "inf"])
    def test_fourier_curve_takes_only_finite_numbers(self, bad):
        # The Python entry checks each coefficient as a spec file's are, once.
        with pytest.raises(TypeError, match="cos must be a finite number"):
            fourier_curve([[0.0, bad], [0.0], [0.5]], [[0.0], [0.0, 1.0], [0.0]])

    @pytest.mark.parametrize("doc, message", [
        ({"family": "torus_curve", "params": {"A": 1e-80, "p": 1e80, "B": 0.0, "q": 1.0},
          "domain": [0, 1]}, "(34, 'Numerical result out of range')"),
        ({"family": "helix3", "params": {"a": 3e-300, "h": 4e-300}, "domain": [0, 1]},
         "0.0 cannot be raised to a negative power"),
        ({"family": "fourier", "params": {"coeffs": {"cos": [[0.0] * 15 + [1e305], [0.0], [0.0]],
                                                     "sin": [[0.0], [0.0], [0.0]]}}},
         "derivative scale 1e+305 * 15.0**n out of range"),
    ], ids=["torus", "helix", "fourier"])
    def test_scale_out_of_range_rejected_at_build(self, doc, message):
        # A family computes the scales of its jet's orders 0-7 when it is built,
        # so one out of range is malformed input there, not at a first evaluation.
        with pytest.raises(ValueError) as info:
            CurveSpec.from_dict(doc).build()
        assert str(info.value) == (f"curve spec for {doc['family']!r} has a malformed "
                                   f"parameter: {message}")


def test_analytic_derivative_validation_catches_mismatch(torus):
    def wrong_derivs(u, orders):
        row = np.stack([0.0 * u, np.cos(u), np.sin(u), 0.0 * u], axis=-1)
        return np.stack([row] * len(orders))  # ignores the order

    with pytest.raises(ValueError, match=re.escape(
            "analytic derivatives disagree with finite differences (order 1 at u=")):
        ParametricCurve(3, (0.0, 6.0), wrong_derivs)

    # Order k of a correct jet off by 1e-3 of its size fails the comparison
    # of order k with the stencil of order k - 1, the first it enters.
    for k in range(1, 8):
        def wrong_order(u, orders, k=k):
            scale = np.array([1.0 + 1e-3 if n == k else 1.0 for n in orders])
            return scale[:, None, None] * torus.jet(u, orders)

        with pytest.raises(ValueError, match=re.escape(f"(order {k} at u=")):
            ParametricCurve(4, torus.domain, wrong_order)


def test_non_finite_jet_names_its_parameter(torus):
    # A caller's jet that is NaN at one parameter is refused by every read,
    # with the one message naming that parameter.
    bad_u = 1.25

    def nan_at(u, orders):
        d = torus.jet(u, orders)
        d[:, u == bad_u] = np.nan
        return d

    curve = ParametricCurve(4, torus.domain, nan_at, validate=False)
    grid = np.array([0.5, bad_u, 2.0])
    message = re.escape(f"curve jet is not finite at u={bad_u!r}")
    for read in (curve.points, lambda s: curve.jet(s, (1, 2)), curve.speeds):
        with pytest.raises(ValueError, match=message):
            read(grid)


@pytest.mark.parametrize("domain", [(0.0, 0.005), (0.0, 0.003)])
def test_short_domain_family_is_exact(domain):
    # A built-in family is exact and built unchecked: its frames hold on a
    # domain of any length, and so does the check of a caller's copy of its jet.
    torus = torus_curve(0.6, 1.0, 0.4, 2.0, domain=domain)
    frames = frames4(torus, np.linspace(*domain, 5))
    assert np.max(np.abs(frames.K - math.sqrt(2.92))) <= 1e-13
    assert ParametricCurve(4, domain, torus.jet).jet_order == 7


@pytest.mark.parametrize("mu", [1e-12, 1.0, 1e12])
def test_domain_end_slack_scales_with_the_domain(mu):
    # A parameter may pass a domain's end by round-off, 1e-12 of the end's
    # magnitude, at any size of the curve; an absolute 1e-12 would let the
    # torus scaled by 1e-12 be read 15% past its end.
    end = 2.0 * math.pi * mu
    torus = torus_curve(0.6 * mu, 1.0 / mu, 0.4 * mu, 2.0 / mu, domain=(0.0, end))
    assert torus.points([end * (1.0 + 5e-13)]).shape == (1, 4)
    for past in (end * (1.0 + 2e-12), 1.15 * end):
        with pytest.raises(ValueError, match="outside domain"):
            torus.points([past])


def scaled_jet(curve, mu, lam, order=None, factor=1.0):
    """The domain and jet of ``curve`` scaled by ``mu`` in space and traced at
    ``lam`` times its speed, with its jet's ``order`` (if given) times ``factor``."""
    def jet(u, orders):
        scales = mu * lam ** np.array(orders, dtype=float)
        rows = curve.jet(lam * u, orders) * scales[:, None, None]
        if order in orders:
            rows[list(orders).index(order)] *= factor
        return rows

    lo, hi = curve.domain
    return (lo / lam, hi / lam), jet


@pytest.mark.parametrize("domain", [(0.0, 1.5 * FD_STEP), (0.0, 0.5 * FD_STEP)])
def test_short_domain_caller_jet_is_checked(torus, domain):
    # The check steps FD_STEP of the domain's length and draws its points that
    # step inside each end, so it holds on a domain of any length: the torus's
    # jet passes, and the same jet with order 2 doubled fails.
    assert ParametricCurve(4, domain, torus.jet).jet_order == 7
    _, doubled = scaled_jet(torus, 1.0, 1.0, order=2, factor=2.0)
    with pytest.raises(ValueError, match=re.escape("(order 2 at u=")):
        ParametricCurve(4, domain, doubled)


@pytest.mark.parametrize("lam", [1e-12, 1e-3, 1.0, 1e3, 1e12])
@pytest.mark.parametrize("mu", [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12])
@pytest.mark.parametrize("name", ["torus", "fast-torus"])
def test_caller_jet_check_is_scale_free(torus, name, mu, lam):
    # The step and the inset are FD_STEP of the domain's length, and order
    # k + 1 is held to max(1e-6 |order k + 1|, 100 eps |order k| / step), so
    # the torus and its 2x-speed fourier form read alike scaled by mu in
    # space and by lam in speed: the jet passes, and each order off by 1e-5
    # (a decade over the bound) fails while 1e-7 (a decade under) passes.
    curve = torus if name == "torus" else CurveSpec.from_dict(FAST_TORUS_DOC).build()
    ParametricCurve(4, *scaled_jet(curve, mu, lam))
    for k in range(1, 8):
        with pytest.raises(ValueError, match=re.escape(f"(order {k} at u=")):
            ParametricCurve(4, *scaled_jet(curve, mu, lam, order=k, factor=1.0 + 1e-5))
        ParametricCurve(4, *scaled_jet(curve, mu, lam, order=k, factor=1.0 + 1e-7))


@pytest.mark.parametrize("shift, start, domain",
                         [(1e6, 0.0, None), (0.0, 0.0, (0.0, 1.5 * FD_STEP)), (0.0, 1e8, None)],
                         ids=["translated-1e6", "short-domain", "parameter-1e8"])
def test_caller_jet_check_reads_no_position(torus, shift, start, domain):
    # The torus's jet moved by 1e6 in space, on a domain of 1.5 FD_STEP, or
    # with its parameter moved by 1e8, passes, and with order 1 off by 1e-3 of
    # itself fails, named order 1: the round-off term of the bound reads the
    # stencil's step, not where the curve sits or how long its domain is, and
    # each stencil divides by the spacing its points have once rounded to u's.
    def moved(factor):
        def jet(u, orders):
            rows = torus.jet(u - start, orders)
            rows[list(orders).index(0)] += shift
            rows[list(orders).index(1)] *= factor
            return rows
        return jet

    domain = domain or tuple(start + np.array(torus.domain))
    assert ParametricCurve(4, domain, moved(1.0)).jet_order == 7
    with pytest.raises(ValueError, match=re.escape("(order 1 at u=")):
        ParametricCurve(4, domain, moved(1.001))


def test_caller_jet_on_a_domain_below_its_spacing_is_refused(torus):
    # On [1e15, 1e15 + 1] the step, 1e-4, is below u's spacing 0.125, so
    # the stencil's points coincide: the check refuses the jet by name, with
    # no division by zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="below the spacing of u at 1e\\+15"):
            ParametricCurve(4, (1e15, 1e15 + 1.0), lambda u, orders: torus.jet(u - 1e15, orders))


@pytest.mark.parametrize("eps", [1e-12, 1e-8])
def test_nearly_straight_caller_jet_is_accepted(eps):
    # x = u + eps*sin(u): order 2 is eps in size, while the stencil's round-off
    # on order 1 is about 1e-16 / FD_STEP of its size 1.  The bound's round-off
    # term, 100 eps * |order 1| / h, keeps the correct jet; 1e-6 of |order 2|
    # alone would refuse it.
    line = fourier_curve([[0.0], [0.0, eps], [0.0], [0.0]], [[0.0, eps], [0.0], [0.0], [0.0]],
                         [1.0, 0.0, 0.0, 0.0])
    assert ParametricCurve(4, line.domain, line.jet).jet_order == 7


@pytest.mark.parametrize("grid", [1.0, [[1.0, 2.0], [3.0, 4.0]]], ids=["0-d", "2-d"])
def test_grid_that_is_not_1d_rejected(torus, helix_assoc, torus_constants, grid):
    # Every entry point rejects the grid where it enters the curve, naming its shape.
    calls = {
        "points": lambda: torus.points(grid),
        "jet": lambda: torus.jet(grid, (0, 1)),
        "frames4": lambda: frames4(torus, grid),
        "frames4-pair": lambda: frames4(torus, grid, helix_assoc),
        "verify_mate": lambda: verify_mate(torus, torus_constants, grid),
        "verify_mate-pair": lambda: verify_mate(torus, torus_constants, grid, helix_assoc),
        "frame_ode_residual": lambda: frame_ode_residual(torus, grid),
    }
    message = re.escape(f"a parameter grid must have shape (n,), not {np.shape(grid)}")
    for name, call in calls.items():
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("grid", [1.0, [[1.0, 2.0], [3.0, 4.0]]], ids=["0-d", "2-d"])
def test_table_grid_that_is_not_1d_rejected(grid):
    table = CurveSpec.from_dict(WOBBLE_DOC).build().arc_lengths
    shape = re.escape(f"grid must have shape (n,), not {np.shape(grid)}")
    with pytest.raises(ValueError, match="a parameter " + shape):
        table.lengths_at(grid)
    with pytest.raises(ValueError, match="an arc-length " + shape):
        table.parameters_at(grid)


def _jet_in_r3(s, orders):
    # Rows of three components where a jet owes four.
    return np.zeros((len(orders), len(s), 3))


@pytest.mark.parametrize("build, message", [
    (lambda: ParametricCurve(5, (0.0, 1.0), _jet_in_r3), "curve dimension must be 3 or 4"),
    (lambda: ParametricCurve(3, (0.0, 1.0), _jet_in_r3, validate=False).points([0.5]),
     re.escape("a derivative jet must return one (n, 4) array per order")),
    (lambda: ArcLengthTable.build(circle3(1.0), 0.0, 1.0, 1), "need at least 2 panels"),
    (lambda: CurvatureProfile([0.0, 1.0], [1.0], [1.0, 1.0], [0.0, 0.0]),
     "profile arrays must share a length"),
    (lambda: CurvatureProfile([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]),
     "profile grid must be strictly increasing"),
    (lambda: CurvatureProfile([0.0, 1.0], [math.nan, 1.0], [1.0, 1.0], [0.0, 0.0]),
     "profile values must be finite"),
    (lambda: BertrandConstants(a=math.inf, b=1.0, c=0.0, d=1.0), "constant a must be finite"),
    (lambda: Quaternion(0.0, (1.0, 2.0)), "vector part must have exactly three components"),
], ids=["dimension", "jet-shape", "one-panel", "profile-lengths",
        "profile-grid", "profile-nan", "constant-inf", "short-vector"])
def test_python_caller_guards(build, message):
    # Inputs no CLI command can produce, refused where a Python caller passes them.
    with pytest.raises(ValueError, match=message):
        build()
