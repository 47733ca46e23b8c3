"""Derivative jets: the rows of one call, and the work a frame and a verify do.

A jet returns the points and the derivatives of several orders from one
call of the curve's family on the whole grid (the built-in families, and
the Bertrand mate of one through its Taylor series).  Its row for an order
is the one-order jet bit for bit, and a built-in family's points are its
order 0.  The counters below are machine independent: family calls per
curve load, per frame, per verify, per mate CSV and per arc-length
inversion, and grid points per block of the mate's series.
"""

import json
import math

import numpy as np
import pytest

from conftest import TORUS, associated_helix
from quatcurves import bertrand, curves
from quatcurves.bertrand import ROW_BLOCK, construct_mate, verify_mate
from quatcurves.cli import main
from quatcurves.curves import (
    CurveSpec,
    ParametricCurve,
    circle3,
    fourier_curve,
    helix3,
    torus_curve,
)
from quatcurves.frames import frames4
from test_cli import FAST_TORUS_DOC, WOBBLE_DOC


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

    curve = ParametricCurve(4, torus.domain, jet, name="counted")
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


def test_mate_evaluations_stay_within_the_row_block(monkeypatch, torus_constants):
    curve, calls = counted_torus()
    blocks = []
    mate_block = bertrand._mate_block

    def counted(x, a, b, pair):
        blocks.append(x.shape[1])
        return mate_block(x, a, b, pair)

    monkeypatch.setattr(bertrand, "_mate_block", counted)
    report = verify_mate(curve, torus_constants, np.linspace(0.0, 2.0 * math.pi, 5000))
    assert report.verdict
    # The 8 orders of 5000 points are 40,000 rows: the family is called once on
    # the whole grid, and the mate's series is built on a full block and a remainder.
    assert calls == [(5000, tuple(range(8)))]
    assert blocks == [ROW_BLOCK // 8, 5000 - ROW_BLOCK // 8]


@pytest.fixture
def family_calls(monkeypatch):
    """``(rows, orders)`` of every call of a built-in family's jet made from now on."""
    calls = []
    family = curves._family

    def counted(dim, jet, domain, name):
        def counted_jet(u, orders):
            calls.append((len(u), tuple(orders)))
            return jet(u, orders)

        return family(dim, counted_jet, domain, name)

    monkeypatch.setattr(curves, "_family", counted)
    return calls


@pytest.mark.parametrize("doc", [
    {"family": "torus_curve", "params": TORUS},
    {"family": "circle3", "params": {"R": 2.0}},
    {"family": "helix3", "params": {"a": 3.0, "h": 4.0}},
    WOBBLE_DOC,
], ids=lambda doc: doc["family"])
def test_building_a_family_makes_no_family_call(family_calls, doc):
    # A family is exact by construction, so building it evaluates nothing.
    CurveSpec.from_dict(doc).build()
    assert family_calls == []


@pytest.mark.parametrize("doc", [
    {"family": "torus_curve", "params": TORUS},
    {"family": "circle3", "params": {"R": 2.0}},
    {"family": "helix3", "params": {"a": 3.0, "h": 4.0}},
    WOBBLE_DOC,
], ids=lambda doc: doc["family"])
def test_loading_a_family_makes_one_family_call(family_calls, doc):
    # A command loads a curve by building it and running the unit-speed test
    # that picks its grid; the test reads the speeds on 101 points in one call.
    CurveSpec.from_dict(doc).build().is_unit_speed
    assert family_calls == [(101, (1,))]


def test_newton_makes_one_family_call_per_step(family_calls):
    # Each step reads the lengths at its guesses (8 Gauss nodes each) and the
    # speeds there from one call; the wobble's 41 targets take 3 steps.
    table = CurveSpec.from_dict(WOBBLE_DOC).build().arc_lengths
    family_calls.clear()
    u = table.parameters_at(np.linspace(0.0, table.total, 41))
    assert len(family_calls) == 3
    assert family_calls[0] == (9 * 41, (1,))
    assert np.max(np.abs(table.lengths_at(u) - np.linspace(0.0, table.total, 41))) <= 1e-12


def test_mate_points_make_one_family_call_and_no_series(family_calls, monkeypatch, tmp_path):
    # `bertrand mate` writes the mate's points, its jet's order 0: one call of
    # orders 0-3 after the unit-speed test's, and no Taylor series.
    series_built = []
    mate_series = bertrand._mate_series

    def counted(*args):
        series_built.append(args[0].shape)
        return mate_series(*args)

    monkeypatch.setattr(bertrand, "_mate_series", counted)
    curve = tmp_path / "torus.json"
    curve.write_text(json.dumps({"family": "torus_curve", "params": TORUS}))
    out = tmp_path / "mate.csv"
    assert main(["bertrand", "mate", "--curve", str(curve), "--constants",
                 json.dumps({"a": 0.3, "b": -0.2, "c": 0.0, "d": 1.0}), "--out", str(out),
                 "--samples", "41"]) == 0
    assert family_calls == [(101, (1,)), (41, (0, 1, 2, 3))]
    assert series_built == []
    assert len(out.read_text().splitlines()) == 42
