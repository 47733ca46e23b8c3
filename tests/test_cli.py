import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quatcurves
from conftest import TORUS, TORUS_K, TORUS_M, TORUS_R, VARYING, associated_helix
from quatcurves import cli
from quatcurves._fmt import BLOCK, fnum, ftable, ftable_blocks
from quatcurves.bertrand import BertrandConstants, construct_mate
from quatcurves.cli import main
from quatcurves.curves import CurveSpec, torus_curve
from quatcurves.errors import DegeneracyError
from quatcurves.frames import FRAME4_CSV_HEADER, frames4

TORUS_DOC = {
    "family": "torus_curve",
    "params": {"A": 0.6, "p": 1.0, "B": 0.4, "q": 2.0},
    "domain": [0.0, 6.283185307179586],
}

LINE_DOC = {
    "family": "fourier",
    "params": {
        "coeffs": {
            "cos": [[0.0], [0.0], [0.0]],
            "sin": [[0.0], [0.0], [0.0]],
            "linear": [1.0, 0.0, 0.0],
        }
    },
    "domain": [0.0, 6.0],
}

CIRCLE_DOC = {"family": "circle3", "params": {"R": 1.0}}

# Unit-speed torus with a third-harmonic wobble: regular, but its curvature
# functions wander, so no constant d exists.
WOBBLE_DOC = {
    "family": "fourier",
    "params": {
        "coeffs": {
            "cos": [[0.0, 0.6, 0.0, 0.02], [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.4], [0.0, 0.0, 0.0, 0.0]],
            "sin": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.6],
                    [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.4]],
        }
    },
    "domain": [0.0, 6.283185307179586],
}

# The canonical torus traced at twice unit speed: regular but not unit
# speed, so the CLI's arc-length grid maps to its parameter through the
# arc-length table.
FAST_TORUS_DOC = {
    "family": "fourier",
    "params": {
        "coeffs": {
            "cos": [[0.0, 0.0, 0.6], [0.0], [0.0, 0.0, 0.0, 0.0, 0.4], [0.0]],
            "sin": [[0.0], [0.0, 0.0, 0.6], [0.0], [0.0, 0.0, 0.0, 0.0, 0.4]],
        }
    },
    "domain": [0.0, 3.141592653589793],
}

# Regular (minimum speed about 0.01) and sharply bent: curvature about
# 9,800 at u = 0.
UNRESOLVED_DOC = {
    "family": "fourier",
    "params": {
        "coeffs": {
            "cos": [[0], [1, -0.99], [0]],
            "sin": [[0, -0.99], [0], [0]],
            "linear": [1, 0, 0.001],
        }
    },
    "domain": [-3, 3],
}

# The associated helix of tests/conftest.py as a spec document.
HELIX_DOC = {
    "family": "fourier",
    "params": {
        "coeffs": {
            "cos": [[0.0] * 4, [0.0, 0.0, 0.0, -1.64 / (3.0 * TORUS_K)], [0.0] * 4],
            "sin": [[0.0] * 4, [0.0] * 4, [0.0, 0.0, 0.0, -1.64 / (3.0 * TORUS_K)]],
            "linear": [-0.48 / TORUS_K, 0.0, 0.0],
        }
    },
}

# A cycloid x = u - sin u, y = 1 - cos u with cos 2u and cos 3u terms in R^4: its
# speed is 0 at u = 0, a cusp.
CUSP_DOC = {
    "family": "fourier",
    "params": {
        "coeffs": {
            "cos": [[0.0], [1.0, -1.0, 0.1], [0.0, 0.0, 0.0, 0.05], [0.0]],
            "sin": [[0.0, -1.0], [0.0], [0.0], [0.0]],
            "linear": [1.0, 0.0, 0.0, 0.0],
        }
    },
}


def scaled_amplitudes(doc, mu):
    """The ``fourier`` spec ``doc`` with every amplitude and drift times ``mu``, on
    its own domain."""
    coeffs = doc["params"]["coeffs"]
    scaled = {key: [[mu * c for c in row] for row in coeffs[key]] for key in ("cos", "sin")}
    if "linear" in coeffs:
        scaled["linear"] = [mu * c for c in coeffs["linear"]]
    return {**doc, "params": {"coeffs": scaled}}


# Constants of the torus fitted from its intrinsic frames.
TORUS_CONSTANTS = {"a": 1.0 / TORUS_K, "b": 1.0, "c": 0.0, "d": 0.72,
                   "epsilon": 1, "delta": 1}

# Constants of the torus fitted from its pair-built frames.
PAIR_CONSTANTS = {"a": 1.0 / TORUS_K, "b": 1.0, "c": 0.0, "d": TORUS_R / TORUS_M,
                  "epsilon": -1, "delta": -1}

# JSON documents that are not curve specs: the wrong types (strings and booleans are
# not JSON numbers, though float() takes them) or values out of a family's range.
MISTYPED = {
    "null-param": {**TORUS_DOC, "params": {**TORUS_DOC["params"], "A": None}},
    "scalar-domain": {**TORUS_DOC, "domain": 5},
    "list-coeffs": {"family": "fourier", "params": {"coeffs": [1, 2]}},
    "huge-int-param": {**TORUS_DOC, "params": {**TORUS_DOC["params"], "q": 10**400}},
    "bool-param": {"family": "circle3", "params": {"R": True}},
    "string-param": {"family": "helix3", "params": {"a": "3", "h": 4.0}},
    "bool-domain": {**TORUS_DOC, "domain": [False, 6]},
    "string-domain": {**TORUS_DOC, "domain": ["0", "6.283185307179586"]},
    "string-coeffs": {**LINE_DOC, "params": {"coeffs": {
        "cos": [["0"], ["0"], ["0"]], "sin": [["0"], ["0"], ["0"]], "linear": ["1", "0", "0"]}}},
    "list-spec": [],
    "negative-radius": {"family": "circle3", "params": {"R": -1.0}},
    "unknown-mode": {"family": "circle3", "params": {"R": 1.0, "mode": "degrees"}},
    "zero-helix-radius": {"family": "helix3", "params": {"a": 0.0, "h": 1.0}},
    "short-linear": {**LINE_DOC, "params": {"coeffs": {**LINE_DOC["params"]["coeffs"],
                                                       "linear": [1.0, 0.0]}}},
}

# Constants documents whose values are not numbers, or not signs +-1.
BAD_CONSTANTS = {
    "huge-epsilon": '{"a":1,"b":1,"c":0,"d":0.72,"epsilon":1e400}',
    "fractional-epsilon": '{"a":1,"b":1,"c":0,"d":0.72,"epsilon":1.7}',
    "string-delta": '{"a":1,"b":1,"c":0,"d":0.72,"delta":"1"}',
    "boolean-epsilon": '{"a":1,"b":1,"c":0,"d":0.72,"epsilon":true}',
    "string-a": '{"a":"0.5852","b":1,"c":0,"d":0.72}',
    "boolean-b": '{"a":1,"b":true,"c":0,"d":0.72}',
}

# Spatial curves whose b*T is not the torus's principal normal.
UNASSOCIATED = {"helix": {"family": "helix3", "params": {"a": 1.0, "h": 0.5}},
                "circle": {"family": "circle3", "params": {"R": 2.0}}}

# (mu, past): the torus scaled by mu with its grid ending past its domain by
# past of its end, which is round-off up to 1e-12.
GRID_ENDS = [(1e-12, 0.11), (1e-12, 2e-12), (1e12, 2e-12), (1e-12, 5e-13), (1e12, 5e-13)]

# A (2,5) flat torus with A*p = 0.858: on a coarse grid its adjacent N2
# fields point more than 90 degrees apart.
TORUS25 = dict(A=0.429, p=2, B=math.sqrt(1.0 - 0.858**2) / 5.0, q=5)


def torus_doc(A, p, B, q, m=1):
    """The flat torus traced at m times unit speed, as a spec document."""
    if m == 1:
        return {"family": "torus_curve", "params": dict(A=A, p=p, B=B, q=q),
                "domain": [0.0, 2.0 * math.pi]}
    size = m * max(p, q) + 1
    cos = [[0.0] * size for _ in range(4)]
    sin = [[0.0] * size for _ in range(4)]
    cos[0][m * p] = sin[1][m * p] = A
    cos[2][m * q] = sin[3][m * q] = B
    return {"family": "fourier", "params": {"coeffs": {"cos": cos, "sin": sin}},
            "domain": [0.0, 2.0 * math.pi / m]}


@pytest.fixture
def torus_spec(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(TORUS_DOC))
    return str(path)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def check_steps(case, label):
    """An exit-code-only test: the steps ``label`` of ``case`` in ``CASES``
    (tests/test_cli_cases.py), which give their commands, exit codes and stderr text,
    and whose commands run once a session.  That module reads this one's documents,
    so it is imported on the call."""
    import test_cli_cases
    test_cli_cases.check_steps(case, label)


class TestFrameCommand:
    def test_torus_frame_csv(self, tmp_path, torus_spec, capsys):
        out = tmp_path / "frame.csv"
        code = main(["frame", "--curve", torus_spec, "--out", str(out), "--samples", "101"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 102
        header = lines[0].split(",")
        assert len(header) == 20
        assert header[0] == "s" and header[1] == "T0" and header[-1] == "bitorsion"
        assert all(len(row.split(",")) == 20 for row in lines[1:])
        assert "max orthonormality residual" in capsys.readouterr().out

    def test_spatial_frame_csv(self, tmp_path, capsys):
        spec = write_json(tmp_path, "circle.json", CIRCLE_DOC)
        out = tmp_path / "frame3.csv"
        code = main(["frame", "--curve", spec, "--out", str(out), "--samples", "11"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["s", "t0"]
        assert len(lines) == 12

    def test_line_degenerates_exit3(self):
        check_steps("degeneracies", "line")

    def test_inflection_degenerates_exit3(self):
        check_steps("degeneracies", "inflection")

    def test_malformed_json_exit2(self):
        check_steps("input-errors", "malformed-json")

    def test_missing_file_exit2(self):
        check_steps("input-errors", "missing-file")

    @pytest.mark.parametrize("name", MISTYPED)
    def test_mistyped_spec_exit2(self, name):
        check_steps("mistyped-specs", name)

    def test_deeply_nested_coefficient_short_message_exit2(self, tmp_path, capsys):
        # The offending value is quoted in a bounded form, not in full.
        nested = json.loads("[" * 900 + "1" + "]" * 900)
        doc = {**LINE_DOC, "params": {"coeffs": {"cos": [nested, [0.0], [0.0]],
                                                 "sin": [[0.0], [0.0], [0.0]]}}}
        spec = write_json(tmp_path, "deep.json", doc)
        assert main(["frame", "--curve", spec, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 300
        assert "cos must be a finite number" in err

    @pytest.mark.parametrize("label", ["4d-spatial", "3d-curve", "3d-mate", "3d-frame"])
    def test_wrong_dimension_names_the_curve_exit2(self, label):
        check_steps("input-errors", label)

    def test_sharp_bend_frame_exit0(self, tmp_path, capsys):
        # The curvature column at the mapped parameters is the classical
        # |a' x a''| / |a'|^3 of the curve in its own parameter.
        spec = write_json(tmp_path, "sharp.json", UNRESOLVED_DOC)
        out = tmp_path / "x.csv"
        assert main(["frame", "--curve", spec, "--out", str(out), "--samples", "11"]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        curve = CurveSpec.from_dict(UNRESOLVED_DOC).build()
        u = curve.arc_lengths.parameters_at(rows[:, 0])
        d1, d2 = (curve.derivatives(u, n)[:, 1:] for n in (1, 2))
        k = np.linalg.norm(np.cross(d1, d2), axis=1) / np.linalg.norm(d1, axis=1) ** 3
        assert np.max(np.abs(rows[:, 10] - k) / k) <= 1e-10
        assert np.max(k) > 9000.0

    def test_large_amplitude_frame_exit0(self, tmp_path, capsys):
        # Correct analytic derivatives of a curve of size 1e4: the order-2
        # stencil's round-off (about 1e-10 of the size) exceeds an absolute
        # 1e-6, so the derivative check must scale with the points.
        doc = {"family": "fourier", "params": {"coeffs": {
            "cos": [[0.0, 1e4], [0.0], [0.0, 0.0, 2.5e3], [0.0]],
            "sin": [[0.0], [0.0, 1e4], [0.0], [0.0, 0.0, 2.5e3]],
        }}, "domain": [0.0, 2.0 * math.pi]}
        spec = write_json(tmp_path, "large.json", doc)
        out = tmp_path / "x.csv"
        assert main(["frame", "--curve", spec, "--out", str(out), "--samples", "21"]) == 0
        assert "max orthonormality residual" in capsys.readouterr().out

    def test_scaled_torus_frame_exit0(self, tmp_path, capsys):
        # The canonical torus scaled by 1e10 has curvature 1.7e-10 per unit
        # length; its frames are exact, and the degeneracy floors are ratios
        # of its derivative rows, so they do not read it as a straight line.
        mu = 1e10
        doc = torus_doc(TORUS["A"] * mu, TORUS["p"] / mu, TORUS["B"] * mu, TORUS["q"] / mu)
        doc["domain"] = [0.0, 2.0 * math.pi * mu]
        spec = write_json(tmp_path, "scaled.json", doc)
        out = tmp_path / "x.csv"
        assert main(["frame", "--curve", spec, "--out", str(out), "--samples", "21"]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.max(np.abs(mu * rows[:, 17] / TORUS_K - 1.0)) <= 1e-12

    @pytest.mark.parametrize("mu", [1e-12, 1e12])
    def test_scaled_torus_frame_fit_and_verify_exit0(self, mu):
        check_steps("scaled-1e12", str(mu))

    @pytest.mark.parametrize("shift", [1e4, 1e6, 1e7, 1e8])
    def test_translated_torus_fit_and_verify_exit0(self, tmp_path, shift):
        # The canonical torus as a fourier spec, moved by shift along x1: a
        # curve's position is one, so it fits the unmoved torus's constants and
        # verifies with its speed, curvature and span measures.  The distance
        # stage reads the offset a*N1 + b*N3 itself: the mate's points less
        # alpha's carried round-off of alpha's size (7.8e-9 at 1e8, exit 1).
        results = []
        for x0 in (0.0, shift):
            doc = {"family": "fourier", "domain": [0.0, 2.0 * math.pi], "params": {"coeffs": {
                "cos": [[x0, 0.6], [0.0], [0.0, 0.0, 0.4], [0.0]],
                "sin": [[0.0], [0.0, 0.6], [0.0], [0.0, 0.0, 0.4]]}}}
            spec = write_json(tmp_path, f"moved{x0:g}.json", doc)
            consts, report = tmp_path / f"c{x0:g}.json", tmp_path / f"r{x0:g}.json"
            grid = ["--samples", "41"]
            assert main(["bertrand", "fit", "--curve", spec, "--out", str(consts), *grid]) == 0
            assert main(["verify", "--curve", spec, "--constants", str(consts),
                         "--report", str(report), *grid]) == 0
            results.append((json.loads(consts.read_text()), json.loads(report.read_text())))
        (consts0, report0), (consts1, report1) = results
        assert consts1 == consts0
        for name in ("speed_deviation", "curvature_deviation", "span_residual"):
            assert report1[name] == report0[name], name
        assert report1["distance_deviation"] <= 1e-15

    @pytest.mark.parametrize("mu", [1e-150, 1e-100, 1e-40, 1e-12, 1e-10, 1e12, 1e40, 1e100,
                                    1e150])
    def test_scaled_fast_torus_frame_fit_and_verify_exit0(self, tmp_path, mu):
        # The 2x-speed torus with its amplitudes scaled by mu on its fixed
        # domain: the speed floor, like the curvature floors, is a ratio of
        # derivative rows, so no size reads as a cusp, and the arc-length
        # inversion stops at a residual relative to the curve's length.
        spec = write_json(tmp_path, "fast.json", scaled_amplitudes(FAST_TORUS_DOC, mu))
        frame, consts, grid = tmp_path / "x.csv", str(tmp_path / "c.json"), ["--samples", "21"]
        assert main(["frame", "--curve", spec, "--out", str(frame), *grid]) == 0
        assert main(["bertrand", "fit", "--curve", spec, "--out", consts, *grid]) == 0
        assert main(["verify", "--curve", spec, "--constants", consts,
                     "--report", str(tmp_path / "r.json"), *grid]) == 0
        K = np.loadtxt(frame, delimiter=",", skiprows=1)[:, 17]
        assert np.max(np.abs(mu * K / TORUS_K - 1.0)) <= 1e-12
        # b = 1 while it is a length over the fit's floor, 1e-12 / kappa.
        b = json.loads(Path(consts).read_text())["b"]
        assert b == 1.0 if mu <= 1e12 else 1.0 <= b * np.max(K) < 2.0

    @pytest.mark.parametrize("mu", [1e-20, 1.0, 1e20])
    @pytest.mark.parametrize("command", ["frame", "fit", "verify"])
    def test_cusp_is_irregular_at_any_size(self, command, mu):
        check_steps("cusp", f"{command}-{mu}")

    @pytest.mark.parametrize("mu", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equal_frequency_torus_has_zero_torsion_at_any_size(self, tmp_path, capsys, m, mu):
        # A = B = 1/sqrt(2), p = q = 1 (at m times unit speed, a fourier spec):
        # N1' = -K T, so the torsion is 0 and its rho_2 is round-off of terms the
        # size of d3, read against the grid's largest |d3| as the curvature is
        # against |d2|, whatever the size of the curve.
        A = math.sqrt(0.5)
        if m == 1:
            doc = torus_doc(A * mu, 1.0 / mu, A * mu, 1.0 / mu)
            doc["domain"] = [0.0, 2.0 * math.pi * mu]
        else:
            doc = scaled_amplitudes(torus_doc(A, 1, A, 1, m), mu)
        spec = write_json(tmp_path, "equal.json", doc)
        curve = CurveSpec.from_dict(doc).build()
        with pytest.raises(DegeneracyError, match="zero torsion"):
            frames4(curve, np.linspace(*curve.domain, 21))
        out = tmp_path / "x.csv"
        assert main(["frame", "--curve", spec, "--out", str(out), "--samples", "21"]) == 3
        assert "degeneracy: zero torsion" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mu, past", GRID_ENDS)
    def test_scaled_torus_grid_end_slack(self, mu, past):
        check_steps("scaled-1e12", f"{mu}-{past}")

    def test_spatial_shorter_than_curve_exit2(self):
        check_steps("input-errors", "spatial-shorter")

    @pytest.mark.parametrize("spatial", UNASSOCIATED)
    @pytest.mark.parametrize("command", ["frame", "fit", "check", "mate", "verify"])
    def test_unassociated_spatial_exit3(self, command, spatial):
        check_steps("unassociated", f"{command}-{spatial}")

    def test_samples_beyond_bound_exit2(self):
        check_steps("input-errors", "samples-beyond-bound")


class TestBertrandCommands:
    def test_fit_and_check_round_trip(self, tmp_path, torus_spec, capsys):
        consts_path = tmp_path / "constants.json"
        code = main(["bertrand", "fit", "--curve", torus_spec, "--out", str(consts_path)])
        assert code == 0
        doc = json.loads(consts_path.read_text())
        assert set(doc) == {"a", "b", "c", "d", "epsilon", "delta"}
        assert doc["a"] == pytest.approx(1.0 / math.sqrt(2.92))
        out = capsys.readouterr().out
        assert "curvature_relation" in out and "PASS" in out

        code = main(["bertrand", "check", "--curve", torus_spec,
                     "--constants", str(consts_path)])
        assert code == 0

    def test_fit_honours_tol(self, tmp_path, torus_spec, capsys):
        # The fitted torus constants leave residuals of about 2e-16.
        code = main(["bertrand", "fit", "--curve", torus_spec,
                     "--out", str(tmp_path / "c.json"), "--tol", "1e-20"])
        assert code == 1
        assert f"(tol {fnum(1e-20)})" in capsys.readouterr().out

    @pytest.mark.parametrize("m", [1, 3], ids=["unit-speed", "3x-speed"])
    def test_fit_coarse_torus25(self, tmp_path, capsys, m):
        spec = write_json(tmp_path, "t.json", torus_doc(**TORUS25, m=m))
        out = tmp_path / "c.json"
        assert main(["bertrand", "fit", "--curve", spec, "--out", str(out),
                     "--samples", "11"]) == 0
        c = json.loads(out.read_text())
        t = TORUS25
        K = math.sqrt(t["A"] ** 2 * t["p"] ** 4 + t["B"] ** 2 * t["q"] ** 4)
        assert abs(c["a"] * K - 1.0) <= 1e-10
        assert abs(abs(c["d"]) - t["A"] * t["B"] * abs(t["q"] ** 2 - t["p"] ** 2)) <= 1e-10

    def test_check_pair_on_fast_torus(self, tmp_path, capsys):
        fast = write_json(tmp_path, "fast.json", FAST_TORUS_DOC)
        helix = write_json(tmp_path, "helix.json", HELIX_DOC)
        report = tmp_path / "r.json"
        assert main(["bertrand", "check", "--curve", fast, "--spatial", helix,
                     "--constants", json.dumps(PAIR_CONSTANTS), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["conditions"]["torsion_relation"]["max_residual"] <= 1e-12

    def test_fit_and_verify_a_varying_curve(self, tmp_path, capsys, monkeypatch, varying_curve):
        # No family has varying curvatures, so the fixture's curve stands in for
        # the loaded spec.
        monkeypatch.setattr(cli, "_load_curve", lambda path: varying_curve)
        consts = tmp_path / "c.json"
        grid = ["--curve", "varying.json", "--samples", "41"]
        assert main(["bertrand", "fit", *grid, "--out", str(consts)]) == 0
        fitted = json.loads(consts.read_text())
        assert [fitted[name] for name in "abcd"] == pytest.approx(
            [VARYING[name] for name in "abcd"], rel=0.0, abs=1e-10)
        report = tmp_path / "r.json"
        assert main(["verify", *grid, "--constants", str(consts), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["verdict"] is True

    def test_mate_csv(self, tmp_path, torus_spec):
        consts = write_json(
            tmp_path, "c.json",
            {"a": 1.0 / math.sqrt(2.92), "b": 1.0, "c": 0.0, "d": 0.72,
             "epsilon": 1, "delta": 1},
        )
        out = tmp_path / "mate.csv"
        code = main(["bertrand", "mate", "--curve", torus_spec,
                     "--constants", consts, "--out", str(out), "--samples", "21"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,x0,x1,x2,x3"
        assert len(lines) == 22

    def test_mate_from_pair_frame(self, tmp_path, torus_spec):
        helix = write_json(tmp_path, "helix.json", HELIX_DOC)
        consts = write_json(tmp_path, "c.json", PAIR_CONSTANTS)
        out = tmp_path / "mate.csv"
        code = main(["bertrand", "mate", "--curve", torus_spec, "--spatial", helix,
                     "--constants", consts, "--out", str(out)])
        assert code == 0
        mate = construct_mate(torus_curve(**TORUS), BertrandConstants(**PAIR_CONSTANTS),
                              curve3=associated_helix())
        grid = [float(s) for s in np.linspace(0.0, 2.0 * math.pi, 101)]
        expected = ["s,x0,x1,x2,x3"] + [
            ",".join(fnum(x) for x in [s, *mate.point(s)]) for s in grid
        ]
        assert out.read_text().splitlines() == expected

    def test_constants_with_zero_a_exit2(self):
        check_steps("input-errors", "zero-a")

    @pytest.mark.parametrize("name", BAD_CONSTANTS)
    def test_constants_not_numbers_or_signs_exit2(self, name):
        check_steps("bad-constants", name)

    def test_deeply_nested_constant_short_message_exit2(self, torus_spec, capsys):
        document = '{"a": ' + "[" * 900 + "1" + "]" * 900 + ', "b": 1, "c": 0, "d": 0.72}'
        code = main(["bertrand", "check", "--curve", torus_spec, "--constants", document])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 300
        assert "a must be a finite number" in err

    @pytest.mark.parametrize("where", ["inline", "file"])
    def test_constants_nested_too_deeply_exit2(self, where):
        check_steps("bad-constants", where)


class TestCsvOutput:
    """CSV tables go to the file block by block, as bytes."""

    @pytest.mark.parametrize("command, samples, cols", [
        (["frame"], 1000, 20),
        (["bertrand", "mate", "--constants", json.dumps(TORUS_CONSTANTS)], 3500, 5),
    ], ids=["frame", "mate"])
    def test_csv_is_header_plus_ftable(self, tmp_path, torus_spec, command, samples, cols):
        assert samples > 2 * (BLOCK // cols)  # at least three blocks
        out = tmp_path / "table.csv"
        assert main([*command, "--curve", torus_spec, "--out", str(out),
                     "--samples", str(samples)]) == 0
        # The default grid of a unit-speed curve: its parameters on the domain.
        curve = CurveSpec.from_file(torus_spec).build()
        s = np.linspace(*curve.domain, samples)
        if command == ["frame"]:
            header, table = FRAME4_CSV_HEADER, frames4(curve, s).table(s)
        else:
            mate = construct_mate(curve, BertrandConstants.from_json_dict(TORUS_CONSTANTS))
            header, table = "s,x0,x1,x2,x3", np.column_stack([s, mate.points(s)])
        assert table.shape == (samples, cols)
        assert out.read_bytes() == (header + "\n" + ftable(table)).encode("ascii")

    def test_non_finite_table_is_refused_before_rendering(self):
        table = np.ones((3 * BLOCK, 2))
        table[2 * BLOCK, 1] = np.inf
        table[-1, 0] = np.nan
        # Raised on the call, before the first block is asked for.
        with pytest.raises(ValueError) as raised:
            ftable_blocks(table)
        with pytest.raises(ValueError) as expected:
            fnum(np.inf)
        assert str(raised.value) == str(expected.value)

    def test_non_finite_mate_writes_no_file(self, tmp_path, torus_spec, monkeypatch, capsys):
        class NanMate:
            def points(self, u):
                rows = np.zeros((len(u), 4))
                rows[len(u) // 2, 2] = np.nan
                return rows

        monkeypatch.setattr(cli, "construct_mate", lambda *args, **kwargs: NanMate())
        out = tmp_path / "mate.csv"
        code = main(["bertrand", "mate", "--curve", torus_spec, "--out", str(out),
                     "--constants", json.dumps(TORUS_CONSTANTS), "--samples", "1000"])
        assert code == 2
        with pytest.raises(ValueError) as expected:
            fnum(np.nan)
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert not out.exists()


class TestVerifyCommand:
    def test_verify_deterministic_and_passing(self, tmp_path, torus_spec, capsys):
        consts = write_json(
            tmp_path, "c.json",
            {"a": 1.0 / math.sqrt(2.92), "b": 1.0, "c": 0.0, "d": 0.72,
             "epsilon": 1, "delta": 1},
        )
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "--curve", torus_spec, "--constants", consts, "--samples", "41"]
        assert main(args + ["--report", str(r1)]) == 0
        assert main(args + ["--report", str(r2)]) == 0
        b1, b2 = r1.read_bytes(), r2.read_bytes()
        assert b1 == b2
        doc = json.loads(b1)
        assert doc["verdict"] is True
        assert doc["distance_deviation"] < 1e-10

    def test_verify_fast_torus(self, tmp_path, capsys):
        fast = write_json(tmp_path, "fast.json", FAST_TORUS_DOC)
        report = tmp_path / "r.json"
        assert main(["verify", "--curve", fast, "--constants", json.dumps(TORUS_CONSTANTS),
                     "--samples", "41", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["curvature_deviation"] < 1e-6

    def test_verify_perturbed_exit1(self, tmp_path, torus_spec):
        consts = write_json(
            tmp_path, "cbad.json",
            {"a": 1.0 / math.sqrt(2.92) + 0.05, "b": 1.0, "c": 0.0, "d": 0.72,
             "epsilon": 1, "delta": 1},
        )
        report = tmp_path / "rep.json"
        code = main(["verify", "--curve", torus_spec, "--constants", consts,
                     "--samples", "21", "--report", str(report)])
        assert code == 1
        doc = json.loads(report.read_text())
        assert doc["verdict"] is False
        assert doc["conditions"]["curvature_relation"]["pass"] is False

    @pytest.mark.parametrize("pair, options, a, code, errors", [
        (False, ["--samples", "5", "--s0", "0", "--s1", "0.07"], None, 0, []),
        (False, ["--samples", "5", "--s0", "0", "--s1", "0.0001"], None, 0, []),
        (True, ["--samples", "11", "--s0", "0.5", "--s1", "2.99"], None, 0, []),
        (True, ["--samples", "11", "--s0", "0.5", "--s1", "3.0"], None, 0, []),
        # a = -2/1.44 makes a*r + b*(K-k) = 0 on the torus: phi' vanishes,
        # and with it the closed forms of both stages.
        (False, ["--samples", "11"], -2.0 / 1.44, 1,
         ["mate speed: mate regularity violated: |a*r + b*(K-k)| <= DEGENERACY_EPS",
          "oracle frame: mate regularity violated: |a*r + b*(K-k)| <= DEGENERACY_EPS"]),
    ], ids=["oracle-margin", "speed-and-oracle-margin", "oracle-domain",
            "speed-and-oracle-domain", "speed-and-oracle-regularity"])
    def test_stage_errors_name_their_stage(self, tmp_path, torus_spec, capsys, pair, options,
                                           a, code, errors):
        # Each stage that cannot run records its own error.  The first four
        # grids are too short for finite-difference stencils, or end where a
        # stencil would reach past a spatial curve cut to [0, 3]; the exact
        # jets need neither, so those verifications pass.
        if pair:
            spatial = ["--spatial", write_json(tmp_path, "helix.json",
                                               {**HELIX_DOC, "domain": [0.0, 3.0]})]
            consts = PAIR_CONSTANTS
        else:
            spatial, consts = [], TORUS_CONSTANTS
        if a is not None:
            consts = {**consts, "a": a}
        report = tmp_path / "r.json"
        assert main(["verify", "--curve", torus_spec, *spatial, "--constants",
                     json.dumps(consts), "--report", str(report), *options]) == code
        doc = json.loads(report.read_text())
        assert doc.get("stage_errors", []) == errors
        assert doc["verdict"] is (code == 0)
        assert capsys.readouterr().err.splitlines() == [f"stage error: {e}" for e in errors]


@pytest.mark.parametrize("command", ["frame", "fit", "mate", "verify"])
def test_default_grid_on_finite_difference_curve(command):
    check_steps("fast-torus", command)


@pytest.mark.parametrize("command, reads_tol", [
    (["frame"], True),
    (["bertrand", "fit"], True),
    (["bertrand", "check"], True),
    (["bertrand", "mate"], False),
    (["verify"], True),
])
def test_registered_options(command, reads_tol, capsys):
    assert main(command + ["--help"]) == 0
    usage = capsys.readouterr().out
    assert "--step" not in usage
    assert "--spatial" in usage
    assert ("--tol" in usage) == reads_tol


def test_usage_error_exit2():
    check_steps("input-errors", "usage")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "abc"])
@pytest.mark.parametrize("command", [
    ["frame", "--out", "out.csv"],
    ["bertrand", "fit", "--out", "out.json"],
    ["bertrand", "check", "--constants", "c.json", "--report", "out.json"],
    ["verify", "--constants", "c.json", "--report", "out.json"],
], ids=["frame", "fit", "check", "verify"])
def test_tol_must_be_finite_and_non_negative(tmp_path, monkeypatch, capsys, command, tol):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "torus.json", TORUS_DOC)
    write_json(tmp_path, "c.json", TORUS_CONSTANTS)
    assert main(command + ["--curve", "torus.json", "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "need a finite tolerance >= 0" in err
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("bound", ["--s1=inf", "--s0=-inf", "--s1=nan"])
def test_non_finite_grid_bound_exit2(bound):
    check_steps("input-errors", bound)


# Runs each command line of the JSON list in argv[1] through one fresh
# interpreter's ``main``, then reports the exit codes, the stdout of each
# command and whether SciPy and each module kept off the start-up path were
# imported.
FRESH_CLI = """
import contextlib, io, json, sys
from quatcurves.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        results.append([main(argv), out.getvalue()])
modules = {name: name in sys.modules for name in ("scipy", "numpy.polynomial", "fractions", "decimal")}
print(json.dumps({"results": results, **modules}))
"""


def run_fresh_cli(cwd, commands):
    src = Path(quatcurves.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", FRESH_CLI, json.dumps(commands)],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_module_entry_point_exits_with_main_code(tmp_path):
    # ``python -m quatcurves`` runs __main__.py, whose exit status is main's code.
    src = Path(quatcurves.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "quatcurves", "frame", "--curve", "missing.json",
                           "--out", "x.csv"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "cannot load curve spec" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_analytic_commands_start_without_scipy(tmp_path):
    write_json(tmp_path, "torus.json", TORUS_DOC)
    write_json(tmp_path, "fast.json", FAST_TORUS_DOC)
    write_json(tmp_path, "c.json", TORUS_CONSTANTS)
    frame = ["frame", "--curve", "torus.json", "--samples", "21"]
    run = run_fresh_cli(tmp_path, [
        frame + ["--out", "a.csv"],
        ["frame"],  # a usage error on the shared parser
        frame + ["--out", "b.csv"],
        ["verify", "--curve", "torus.json", "--constants", "c.json", "--samples", "21",
         "--report", "r.json"],
    ])
    assert [rc for rc, _ in run["results"]] == [0, 2, 0, 0]
    assert run["results"][2][1] == run["results"][0][1]
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    assert not run["scipy"]
    # The formatter's tables and the Gauss-Legendre rule are built on first use.
    assert not (run["numpy.polynomial"] or run["fractions"] or run["decimal"])
    # Nor does the arc-length grid of a curve that is not unit speed.
    fast = run_fresh_cli(tmp_path, [["frame", "--curve", "fast.json", "--samples", "11",
                                     "--out", "f.csv"]])
    assert fast["results"][0][0] == 0
    assert not fast["scipy"]
