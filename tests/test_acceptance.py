"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from quatcurves.bertrand import (
    BertrandConstants,
    check_conditions,
    mate_curvatures_Kk_form,
    mate_curvatures_closed_form,
)
from quatcurves.cli import main
from quatcurves.curves import circle3, helix3, torus_curve
from quatcurves.frames import (
    frame3_at,
    frame4_from_pair,
    frame4_intrinsic,
    frame_ode_residual,
    frames4,
    orthonormality_residual,
)
from quatcurves.quaternion import (
    Quaternion,
    add,
    conjugate,
    inner,
    mul,
    norm,
    scale,
    spatial_cross_check,
    E1,
    E2,
    E3,
    ONE,
)

from test_bertrand import random_valid_tuple

SQ2 = math.sqrt(2.0)


def report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion:02d} PASS: {text}")


def random_quaternion(rng, lo, hi):
    q = Quaternion(rng.normal(), tuple(rng.normal(size=3)))
    return scale(rng.uniform(lo, hi) / q.norm(), q)


def test_criterion_01_quaternion_algebra():
    minus_one = Quaternion(-1.0, (0.0, 0.0, 0.0))
    assert mul(E1, E1) == minus_one
    assert mul(E2, E2) == minus_one
    assert mul(E3, E3) == minus_one
    assert mul(mul(E1, E2), E3) == minus_one
    assert mul(E1, E2) == E3 and mul(E2, E3) == E1 and mul(E3, E1) == E2

    rng = np.random.default_rng(101)
    for _ in range(1000):
        p = random_quaternion(rng, 0.1, 10.0)
        q = random_quaternion(rng, 0.1, 10.0)
        r = random_quaternion(rng, 0.1, 10.0)
        assert mul(mul(p, q), r).approx_eq(mul(p, mul(q, r)), 1e-12 * p.norm() * q.norm() * r.norm())
        assert conjugate(mul(p, q)).approx_eq(mul(conjugate(q), conjugate(p)), 1e-12 * p.norm() * q.norm())
        want = norm(p) * norm(q)
        assert abs(norm(mul(p, q)) - want) <= 1e-10 * want
        oracle = scale(0.5, add(mul(p, conjugate(q)), mul(q, conjugate(p))))
        assert max(abs(c) for c in oracle.v) <= 1e-12 * want
        assert abs(oracle.s - inner(p, q)) <= 1e-12 * max(1.0, want)
    report(1, "multiplication table exact; associativity, conjugate "
              "antihomomorphism, norm multiplicativity, inner-product oracle hold")


def test_criterion_02_spatial_cross_property():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        v1 = rng.normal(size=3)
        v2 = rng.normal(size=3)
        v2 -= (v2 @ v1) / (v1 @ v1) * v1
        v1 *= rng.uniform(0.5, 2.0) / np.linalg.norm(v1)
        v2 *= rng.uniform(0.5, 2.0) / np.linalg.norm(v2)
        worst = max(worst, spatial_cross_check(Quaternion.spatial(*v1), Quaternion.spatial(*v2)))
    assert worst <= 1e-12
    report(2, f"1000 orthogonal spatial products equal the cross product (max gap {worst:.2e})")


def test_criterion_03_frame_orthonormality(torus, torus2, helix_assoc):
    worst = 0.0
    for curve in (circle3(1.0), helix3(3.0, 4.0)):
        lo, hi = curve.domain
        for s in np.linspace(lo + 0.2, hi - 0.2, 101):
            worst = max(worst, orthonormality_residual(frame3_at(curve, float(s)).vectors()))
    for curve in (torus, torus2):
        for s in np.linspace(0.1, 6.1, 101):
            worst = max(worst, orthonormality_residual(frame4_intrinsic(curve, float(s)).vectors()))
    for s in np.linspace(0.1, 6.1, 101):
        worst = max(worst, orthonormality_residual(frame4_from_pair(torus, helix_assoc, float(s)).vectors()))
    assert worst <= 1e-8
    report(3, f"frame inner-product relations hold on all fixtures (max residual {worst:.2e})")


def test_criterion_04_frame_ode_residual(torus):
    grid = np.linspace(0.3, 6.0, 25)
    clean = frame_ode_residual(torus, grid)
    assert clean.max_residual < 1e-4

    def corrupted(s):
        f = frames4(torus, s)
        return dataclasses.replace(f, N2=-f.N2)

    broken = frame_ode_residual(torus, grid[::6], provider=corrupted)
    assert broken.max_residual > 0.1
    report(4, f"frame ODE residual {clean.max_residual:.2e} < 1e-4; corrupted frame "
              f"detected at {broken.max_residual:.2e} > 0.1")


def test_criterion_05_bertrand_conditions(torus_profile, torus_constants):
    rep = check_conditions(torus_profile, torus_constants, tol=1e-8)
    assert rep.verdict
    eq = max(rep.conditions["curvature_relation"].max_residual,
             rep.conditions["torsion_relation"].max_residual)
    assert eq < 1e-8
    report(5, f"fitted constants satisfy all four conditions (max residual {eq:.2e})")


def test_criterion_06_constant_distance(torus_report, torus_constants):
    assert torus_report.distance_deviation is not None
    assert torus_report.distance_deviation < 1e-10
    offset = math.hypot(torus_constants.a, torus_constants.b)
    report(6, f"|mate - curve| stays at {offset:.6f} within {torus_report.distance_deviation:.2e}")


def test_criterion_07_speed_consistency(torus_report):
    assert torus_report.speed_deviation is not None
    assert torus_report.speed_deviation < 1e-5
    report(7, f"finite-difference mate speed matches phi' within {torus_report.speed_deviation:.2e}")


def test_criterion_08_oracle_equivalence(torus_report):
    assert torus_report.curvature_deviation is not None
    assert torus_report.curvature_deviation < 1e-4
    consts = BertrandConstants(a=1.0, b=2.0, c=0.0, d=1.0, epsilon=1, delta=1)
    kbar, torsion_bar, bitorsion_bar = mate_curvatures_closed_form(1.0, 1.0, 0.0, consts)
    assert abs(kbar - SQ2 / 3.0) <= 1e-12
    assert abs(torsion_bar - 1.0 / (3.0 * SQ2)) <= 1e-12
    assert abs(bitorsion_bar - 1.0 / (3.0 * SQ2)) <= 1e-12
    report(8, f"oracle curvatures match closed forms within "
              f"{torus_report.curvature_deviation:.2e}; worked values reproduced to 1e-12")


def test_criterion_09_span_condition(torus_report):
    assert torus_report.span_residual is not None
    assert torus_report.span_residual < 1e-5
    report(9, f"oracle N1bar/N3bar stay in span(N1, N3) within {torus_report.span_residual:.2e}")


def test_criterion_10_curvatures_from_K_and_k():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(1000):
        K, r, k, consts = random_valid_tuple(rng)
        closed = mate_curvatures_closed_form(K, r, k, consts)
        kk = mate_curvatures_Kk_form(K, k, consts)
        for x, y in zip(closed, kk):
            gap = abs(abs(x) - abs(y)) / max(1.0, abs(x), abs(y))
            worst = max(worst, gap)
        kbar, torsion_bar, bitorsion_bar = kk
        import quatcurves.bertrand as B
        kbar_s, _ = B.mate_spatial_curvatures(K, k, consts)
        assert abs(kbar_s - (kbar - bitorsion_bar)) <= 1e-12 * max(1.0, abs(kbar_s))
    assert worst <= 1e-10
    import inspect
    assert "r" not in inspect.signature(mate_curvatures_Kk_form).parameters
    report(10, f"K/k-only forms agree with the general closed forms (worst {worst:.2e}); "
               "spatial curvature consistency at 1e-12; torsion is not an input")


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    torus_doc = {"family": "torus_curve",
                 "params": {"A": 0.6, "p": 1.0, "B": 0.4, "q": 2.0},
                 "domain": [0.0, 6.283185307179586]}
    spec = tmp_path / "torus.json"
    spec.write_text(json.dumps(torus_doc))
    consts_doc = {"a": 1.0 / math.sqrt(2.92), "b": 1.0, "c": 0.0, "d": 0.72,
                  "epsilon": 1, "delta": 1}
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps(consts_doc))

    # exit 0 plus byte-identical reports across runs
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    base = ["verify", "--curve", str(spec), "--constants", str(consts), "--samples", "41"]
    assert main(base + ["--report", str(r1)]) == 0
    assert main(base + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()

    # exit 1: perturbed constants
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**consts_doc, "a": consts_doc["a"] + 0.05}))
    assert main(["verify", "--curve", str(spec), "--constants", str(bad),
                 "--samples", "21", "--report", str(tmp_path / "rb.json")]) == 1

    # exit 2: malformed curve spec
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["frame", "--curve", str(broken), "--out", str(tmp_path / "f.csv")]) == 2

    # exit 3: straight line has zero curvature
    line = tmp_path / "line.json"
    line.write_text(json.dumps({
        "family": "fourier",
        "params": {"coeffs": {"cos": [[0.0], [0.0], [0.0]],
                              "sin": [[0.0], [0.0], [0.0]],
                              "linear": [1.0, 0.0, 0.0]}},
        "domain": [0.0, 6.0],
    }))
    assert main(["frame", "--curve", str(line), "--out", str(tmp_path / "l.csv")]) == 3

    # exit 4: wobbled torus admits no constant d
    wobble = tmp_path / "wobble.json"
    wobble.write_text(json.dumps({
        "family": "fourier",
        "params": {"coeffs": {
            "cos": [[0.0, 0.6, 0.0, 0.02], [0.0], [0.0, 0.0, 0.4], [0.0]],
            "sin": [[0.0], [0.0, 0.6], [0.0], [0.0, 0.0, 0.4]],
        }},
        "domain": [0.0, 6.283185307179586],
    }))
    assert main(["bertrand", "fit", "--curve", str(wobble),
                 "--out", str(tmp_path / "w.json"), "--samples", "7"]) == 4

    report(11, "verify reports byte-identical across runs; exit codes 0-4 exercised")
