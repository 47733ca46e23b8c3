"""Derivative jets: the rows of one call, and the work a frame and a verify do.

A jet returns the points and the derivatives of several orders from one
call of the curve's family (analytic curves) or one ``points`` call on all
shifted grids (finite-difference curves such as the mate).  Its row for an
order is the one-order jet bit for bit.  The counters below are machine
independent: family calls per frame, mate evaluations per verify stage and
rows per evaluation block.
"""

import math

import numpy as np
import pytest

from conftest import TORUS
from quatcurves.bertrand import construct_mate, verify_mate
from quatcurves.curves import (
    ROW_BLOCK,
    ParametricCurve,
    circle3,
    fourier_curve,
    helix3,
    torus_curve,
)
from quatcurves.frames import frames4


def jet_curves():
    return {
        "torus": torus_curve(**TORUS),
        "circle3-arclength": circle3(2.0),
        "circle3-angle": circle3(2.0, mode="angle"),
        "helix3": helix3(3.0, 4.0),
        "fourier3-linear": fourier_curve(
            [[0.1, 0.3], [0.0, 0.0, 0.2], [0.4]],
            [[0.0, 0.5], [0.0, 0.4], [0.0, 0.0, 0.0, 0.05]],
            linear=[1.0, -0.5, 0.25],
        ),
        "fourier4-linear": fourier_curve(
            [[0.0, 0.6], [0.2], [0.0, 0.0, 0.4], [0.0, 0.1, 0.0, 0.03]],
            [[0.0], [0.0, 0.6], [0.0, 0.0, 0.0, 0.02], [0.0, 0.0, 0.4]],
            linear=[0.3, 0.0, -0.2, 0.1],
        ),
        "mate": construct_mate(torus_curve(**TORUS), (0.3, -0.2)),
    }


@pytest.mark.parametrize("name", list(jet_curves()))
def test_jet_rows_equal_single_order_jets(name):
    curve = jet_curves()[name]
    lo, hi = curve.domain
    margin = curve.fd_margin(4)
    s = np.linspace(lo + margin, hi - margin, 37)
    jet = curve.jet(s, (0, 1, 2, 3, 4))
    assert jet.shape == (5, 37, 4)
    for k in range(5):
        assert np.array_equal(jet[k], curve.jet(s, (k,))[0]), k
    assert np.array_equal(jet[0], curve.points(s))
    assert np.array_equal(curve.jet(s, (3, 1))[0], jet[3])


def test_jet_rejects_orders_beyond_four():
    with pytest.raises(ValueError, match="between 0 and 4"):
        torus_curve(**TORUS).jet([1.0], (1, 5))


def counted_torus():
    """The canonical torus with a family jet that records ``(rows, orders)`` per call."""
    torus = torus_curve(**TORUS)
    calls = []

    def jet(u, orders):
        calls.append((len(u), tuple(orders)))
        return torus.jet(u, orders)

    curve = ParametricCurve(4, torus.points, torus.domain, jet, name="counted")
    calls.clear()  # the derivative check on construction
    return curve, calls


def test_frames_make_one_family_call():
    curve, calls = counted_torus()
    grid = np.linspace(0.0, 2.0 * math.pi, 41)
    frames4(curve, grid)
    assert calls == [(41, (1, 2, 3, 4))]


def test_verify_evaluates_the_mate_once_per_stage(monkeypatch, torus_constants):
    # Distance on the grid, the order-1 stencil for the speed, one jet of
    # orders 1-4 for the oracle.
    evaluations = []
    points = ParametricCurve.points

    def counted(self, s):
        if self.name.endswith("[mate]"):
            evaluations.append(len(s))
        return points(self, s)

    monkeypatch.setattr(ParametricCurve, "points", counted)
    report = verify_mate(torus_curve(**TORUS), torus_constants,
                         np.linspace(0.0, 2.0 * math.pi, 41))
    assert report.verdict
    usable = 41 - 2  # the stencils reach past the domain from the two end points
    assert evaluations == [41, 4 * usable, 22 * usable]


def test_mate_evaluations_stay_within_the_row_block(torus_constants):
    curve, calls = counted_torus()
    report = verify_mate(curve, torus_constants, np.linspace(0.0, 2.0 * math.pi, 5000))
    assert report.verdict
    mate_blocks = [rows for rows, orders in calls if orders == (0, 1, 2, 3)]
    assert max(rows for rows, _ in calls) <= ROW_BLOCK
    # The oracle's jet of about 22 * 5000 rows arrives in full blocks and a remainder.
    assert mate_blocks.count(ROW_BLOCK) == 3
    assert sum(mate_blocks) > 22 * 4900
