import dataclasses
import json
import math
import re

import numpy as np
import pytest

from quatcurves.curves import (
    DEFAULT_STEPS,
    ArcLengthTable,
    CurveSpec,
    ParametricCurve,
    arc_length,
    circle3,
    derivative,
    fourier_curve,
    helix3,
    torus_curve,
    _fd_derivative,
)
from quatcurves.bertrand import verify_mate
from quatcurves.errors import DegeneracyError
from quatcurves.frames import frame_ode_residual, frames4

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
        fd = _fd_derivative(c.points, np.array([0.0]), 1, 1e-4)[0]
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
        rng = np.random.default_rng(20240901)
        for name, c in builtin_families().items():
            lo, hi = c.domain
            for u in rng.uniform(lo + 0.5, hi - 0.5, 8):
                for order in (1, 2, 3):
                    ex = derivative(c, float(u), order)
                    fd = _fd_derivative(c.points, np.array([u]), order, DEFAULT_STEPS[order])[0]
                    assert np.max(np.abs(ex - fd)) <= 1e-6, (name, order)
                ex = derivative(c, float(u), 4)
                fd = _fd_derivative(c.points, np.array([u]), 4, DEFAULT_STEPS[4])[0]
                assert np.max(np.abs(ex - fd)) <= 1e-4, name

    def test_order_validation(self):
        c = circle3(1.0)
        with pytest.raises(ValueError):
            derivative(c, 1.0, 0)
        with pytest.raises(ValueError):
            derivative(c, 1.0, 5)


class TestArcLength:
    def test_unit_circle_circumference(self):
        c = circle3(1.0)
        assert abs(arc_length(c, 0.0, 2 * math.pi) - 2 * math.pi) <= 1e-10

    def test_zero_interval(self):
        c = circle3(1.0)
        assert arc_length(c, 1.0, 1.0) == 0.0

    def test_unit_speed_length_equals_span(self):
        c = torus_curve(0.6, 1.0, 0.4, 2.0)
        L = 5.5
        assert abs(arc_length(c, 0.0, L) - L) <= 1e-9

    def test_additivity(self):
        c = helix3(3.0, 4.0)
        total = arc_length(c, 0.5, 9.5)
        split = arc_length(c, 0.5, 4.0) + arc_length(c, 4.0, 9.5)
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
            steps = [arc_length(c, u[i], u[i + 1]) for i in range(len(u) - 1)]
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


def test_analytic_derivative_validation_catches_mismatch():
    def evaluate(u):
        return np.stack([0.0 * u, np.cos(u), np.sin(u), 0.0 * u], axis=-1)

    def wrong_derivs(u, orders):
        row = np.stack([0.0 * u, np.cos(u), np.sin(u), 0.0 * u], axis=-1)
        return np.stack([row] * len(orders))  # ignores the order

    with pytest.raises(ValueError, match="disagree"):
        ParametricCurve(3, evaluate, (0.0, 6.0), wrong_derivs)


@pytest.mark.parametrize("domain", [(0.0, 0.005), (0.0, 0.003)])
def test_domain_shorter_than_the_derivative_check_rejected(domain):
    # The check samples at least the order-2 stencil's reach from each end.
    with pytest.raises(ValueError, match="too short for the derivative check"):
        torus_curve(0.6, 1.0, 0.4, 2.0, domain=domain)


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
