import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quatcurves
from conftest import TORUS, TORUS_K, TORUS_M, TORUS_R, associated_helix
from quatcurves._fmt import fnum
from quatcurves.bertrand import BertrandConstants, construct_mate
from quatcurves.cli import MAX_SAMPLES, main
from quatcurves.curves import CurveSpec, torus_curve

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

# Constants of the torus fitted from its intrinsic frames.
TORUS_CONSTANTS = {"a": 1.0 / TORUS_K, "b": 1.0, "c": 0.0, "d": 0.72,
                   "epsilon": 1, "delta": 1}

# Constants of the torus fitted from its pair-built frames.
PAIR_CONSTANTS = {"a": 1.0 / TORUS_K, "b": 1.0, "c": 0.0, "d": TORUS_R / TORUS_M,
                  "epsilon": -1, "delta": -1}

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

    def test_line_degenerates_exit3(self, tmp_path, capsys):
        spec = write_json(tmp_path, "line.json", LINE_DOC)
        out = tmp_path / "frame.csv"
        code = main(["frame", "--curve", spec, "--out", str(out)])
        assert code == 3
        assert "zero curvature" in capsys.readouterr().err

    def test_malformed_json_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json at all")
        code = main(["frame", "--curve", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_file_exit2(self, tmp_path):
        code = main(["frame", "--curve", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("doc", [
        {**TORUS_DOC, "params": {**TORUS_DOC["params"], "A": None}},
        {**TORUS_DOC, "domain": 5},
        {"family": "fourier", "params": {"coeffs": [1, 2]}},
        {**TORUS_DOC, "params": {**TORUS_DOC["params"], "q": 10**400}},
        # Strings and booleans are not JSON numbers, though float() takes them.
        {"family": "circle3", "params": {"R": True}},
        {"family": "helix3", "params": {"a": "3", "h": 4.0}},
        {**TORUS_DOC, "domain": [False, 6]},
        {**TORUS_DOC, "domain": ["0", "6.283185307179586"]},
        {**LINE_DOC, "params": {"coeffs": {"cos": [["0"], ["0"], ["0"]],
                                           "sin": [["0"], ["0"], ["0"]],
                                           "linear": ["1", "0", "0"]}}},
    ], ids=["null-param", "scalar-domain", "list-coeffs", "huge-int-param", "bool-param",
            "string-param", "bool-domain", "string-domain", "string-coeffs"])
    def test_mistyped_spec_exit2(self, tmp_path, capsys, doc):
        spec = write_json(tmp_path, "typed.json", doc)
        code = main(["frame", "--curve", spec, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "cannot load curve spec" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, message", [
        (["frame", "--curve", "torus.json", "--spatial", "torus.json", "--out", "x.csv"],
         "the spatial curve must have dimension 3, not 4"),
        (["verify", "--curve", "circle.json", "--constants", json.dumps(TORUS_CONSTANTS),
          "--report", "x.json"], "the R^4 curve must have dimension 4, not 3"),
    ], ids=["4d-spatial", "3d-curve"])
    def test_wrong_dimension_names_the_curve_exit2(self, tmp_path, monkeypatch, capsys,
                                                   command, message):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, "torus.json", TORUS_DOC)
        write_json(tmp_path, "circle.json", CIRCLE_DOC)
        assert main(command) == 2
        assert message in capsys.readouterr().err

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

    def test_spatial_shorter_than_curve_exit2(self, tmp_path, capsys):
        fast = write_json(tmp_path, "fast.json", FAST_TORUS_DOC)
        short = write_json(tmp_path, "short.json", {**HELIX_DOC, "domain": [0.0, 5.0]})
        code = main(["frame", "--curve", fast, "--spatial", short,
                     "--out", str(tmp_path / "x.csv"), "--samples", "11"])
        assert code == 2
        assert "beyond the end of the spatial curve" in capsys.readouterr().err

    def test_samples_beyond_bound_exit2(self, tmp_path, torus_spec, capsys):
        # Rejected before any grid array is allocated.
        out = tmp_path / "frame.csv"
        code = main(["frame", "--curve", torus_spec, "--out", str(out),
                     "--samples", "100000000000"])
        assert code == 2
        assert f"between 3 and {MAX_SAMPLES}" in capsys.readouterr().err
        assert not out.exists()


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

    def test_check_inline_constants_failure(self, tmp_path, torus_spec):
        inline = json.dumps({"a": 2.0, "b": 1.0, "c": 0.0, "d": 0.72,
                             "epsilon": 1, "delta": 1})
        code = main(["bertrand", "check", "--curve", torus_spec, "--constants", inline])
        assert code == 1

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

    def test_fit_wobble_exit4(self, tmp_path, capsys):
        spec = write_json(tmp_path, "wobble.json", WOBBLE_DOC)
        code = main(["bertrand", "fit", "--curve", spec,
                     "--out", str(tmp_path / "c.json"), "--samples", "7"])
        assert code == 4
        assert "non-constant d" in capsys.readouterr().err

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

    def test_constants_with_zero_a_exit2(self, tmp_path, torus_spec):
        inline = json.dumps({"a": 0.0, "b": 1.0, "c": 0.0, "d": 0.72,
                             "epsilon": 1, "delta": 1})
        code = main(["bertrand", "check", "--curve", torus_spec, "--constants", inline])
        assert code == 2


    @pytest.mark.parametrize("document", [
        '{"a":1,"b":1,"c":0,"d":0.72,"epsilon":1e400}',
        '{"a":1,"b":1,"c":0,"d":0.72,"epsilon":1.7}',
        '{"a":1,"b":1,"c":0,"d":0.72,"delta":"1"}',
        '{"a":1,"b":1,"c":0,"d":0.72,"epsilon":true}',
        '{"a":"0.5852","b":1,"c":0,"d":0.72}',
        '{"a":1,"b":true,"c":0,"d":0.72}',
    ], ids=["huge-epsilon", "fractional-epsilon", "string-delta", "boolean-epsilon",
            "string-a", "boolean-b"])
    def test_constants_not_numbers_or_signs_exit2(self, torus_spec, capsys, document):
        code = main(["bertrand", "check", "--curve", torus_spec, "--constants", document])
        assert code == 2
        assert "invalid constants document" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", [
    ["frame", "--out", "frame.csv"],
    ["bertrand", "fit", "--out", "c.json"],
    ["bertrand", "mate", "--constants", "c.json", "--out", "mate.csv"],
    ["verify", "--constants", "c.json", "--report", "report.json"],
], ids=["frame", "fit", "mate", "verify"])
def test_default_grid_on_finite_difference_curve(tmp_path, monkeypatch, command):
    # On a curve that is not unit speed the default grid spans its whole
    # arc length, [0, total]; no command rejects it as input.
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "fast.json", FAST_TORUS_DOC)
    write_json(tmp_path, "c.json", {"a": 1.0 / TORUS_K, "b": 1.0, "c": 0.0,
                                    "d": TORUS_R / TORUS_M, "epsilon": 1, "delta": 1})
    assert main(command + ["--curve", "fast.json", "--samples", "11"]) != 2


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


def test_usage_error_exit2(capsys):
    assert main(["frame"]) == 2  # missing required flags
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
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
def test_non_finite_grid_bound_exit2(tmp_path, torus_spec, capsys, bound):
    out = tmp_path / "frame.csv"
    assert main(["frame", "--curve", torus_spec, "--out", str(out), bound]) == 2
    assert "need finite s0 < s1" in capsys.readouterr().err
    assert not out.exists()


# Runs each command line of the JSON list in argv[1] through one fresh
# interpreter's ``main``, then reports the exit codes, the stdout of each
# command and whether SciPy was imported.
FRESH_CLI = """
import contextlib, io, json, sys
from quatcurves.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        results.append([main(argv), out.getvalue()])
print(json.dumps({"results": results, "scipy": "scipy" in sys.modules}))
"""


def run_fresh_cli(cwd, commands):
    src = Path(quatcurves.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", FRESH_CLI, json.dumps(commands)],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


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
    # Nor does the arc-length grid of a curve that is not unit speed.
    fast = run_fresh_cli(tmp_path, [["frame", "--curve", "fast.json", "--samples", "11",
                                     "--out", "f.csv"]])
    assert fast["results"][0][0] == 0
    assert not fast["scipy"]
