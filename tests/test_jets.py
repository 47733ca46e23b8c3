"""Derivative jets: the rows of one call, and the work a frame and a verify do.

A jet returns the points and the derivatives of several orders from one
call of the curve's family per block of rows (the built-in families, and
the Bertrand mate of one through its Taylor series).  Its row for an order
is the one-order jet bit for bit.  The counters below are machine independent:
family calls per frame and per verify, and rows per block.
"""

import math

import numpy as np
import pytest

from conftest import TORUS, associated_helix
from quatcurves.bertrand import construct_mate, verify_mate
from quatcurves.curves import (
    ROW_BLOCK,
    CurveSpec,
    ParametricCurve,
    circle3,
    fourier_curve,
    helix3,
    torus_curve,
)
from quatcurves.frames import frames4
from test_cli import FAST_TORUS_DOC


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
        # The pair frame, on a shared parameter and on one matched by arc length.
        "pair-mate": construct_mate(torus_curve(**TORUS), (0.3, -0.2), associated_helix()),
        "fast-pair-mate": construct_mate(CurveSpec.from_dict(FAST_TORUS_DOC).build(), (0.3, -0.2),
                                         associated_helix()),
    }


@pytest.mark.parametrize("name", list(jet_curves()))
def test_jet_rows_equal_single_order_jets(name):
    curve = jet_curves()[name]
    s = np.linspace(*curve.domain, 37)
    jet = curve.jet(s, (0, 1, 2, 3, 4))
    assert jet.shape == (5, 37, 4)
    for k in range(5):
        assert np.array_equal(jet[k], curve.jet(s, (k,))[0]), k
    assert np.array_equal(jet[0], curve.points(s))
    assert np.array_equal(curve.jet(s, (3, 1))[0], jet[3])


def test_jet_rejects_orders_beyond_seven():
    torus = torus_curve(**TORUS)
    assert torus.jet([1.0], (1, 7)).shape == (2, 1, 4)
    with pytest.raises(ValueError, match="between 0 and 7"):
        torus.jet([1.0], (1, 8))
    # The mate's series have degree 4.
    with pytest.raises(ValueError, match="between 0 and 4"):
        construct_mate(torus, (0.3, -0.2)).jet([1.0], (5,))


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


def test_verify_makes_one_family_call(monkeypatch, torus_constants):
    # One jet of orders 0-7 feeds every stage; no mate point is evaluated,
    # so no finite difference of the mate either.
    curve, calls = counted_torus()
    evaluations = []
    points = ParametricCurve.points

    def counted(self, s):
        if self.name.endswith("[mate]"):
            evaluations.append(len(s))
        return points(self, s)

    monkeypatch.setattr(ParametricCurve, "points", counted)
    report = verify_mate(curve, torus_constants, np.linspace(0.0, 2.0 * math.pi, 41))
    assert report.verdict
    assert calls == [(41, tuple(range(8)))]
    assert sum(rows * len(orders) for rows, orders in calls) == 328
    assert evaluations == []


def test_mate_evaluations_stay_within_the_row_block(torus_constants):
    curve, calls = counted_torus()
    report = verify_mate(curve, torus_constants, np.linspace(0.0, 2.0 * math.pi, 5000))
    assert report.verdict
    # The 8 orders of 5000 points are 40,000 rows: full blocks and a remainder.
    assert all(rows * len(orders) <= ROW_BLOCK for rows, orders in calls)
    assert [rows for rows, _ in calls] == [ROW_BLOCK // 8, 5000 - ROW_BLOCK // 8]
