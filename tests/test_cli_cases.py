"""The command-line cases, one list for two runs: tier-1 runs each case through
``cli.main`` in-process, and ``python tests/test_cli_cases.py`` runs it through the
installed ``quatcurves`` console script, each case in a fresh temporary directory
(exit 1 if any fails).  A case writes its spec documents (file name -> JSON value),
then runs its steps.  A step gives its exit code, its command line (split by shlex),
a substring of its stderr and, where needed, a (key, value) of its JSON output.  A
step's output (``--out`` or ``--report``) exists after it exactly when it exits 0
or 1, and no step prints a traceback.  A new CLI case is one entry in ``CASES``.
"""

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import pytest

from quatcurves.cli import main
from test_cli import (CIRCLE_DOC, CUSP_DOC, FAST_TORUS_DOC, HELIX_DOC, LINE_DOC,
                      TORUS_CONSTANTS, TORUS_DOC, WOBBLE_DOC, scaled_amplitudes, torus_doc)

Step = namedtuple("Step", "code command err field", defaults=("", ()))
Case = namedtuple("Case", "name reason specs steps")


def torus(A, p, B, q, end=2.0 * math.pi):
    return {**torus_doc(A, p, B, q), "domain": [0.0, end]}


def many_harmonics(m):
    """The torus at m times unit speed plus 64 harmonics of 1e-17 in every coordinate."""
    cos, sin = ([[0.0] + [1e-17] * 64 for _ in range(4)] for _ in "cs")
    cos[0][m] = sin[1][m] = 0.6
    cos[2][2 * m] = sin[3][2 * m] = 0.4
    return {"family": "fourier", "params": {"coeffs": {"cos": cos, "sin": sin}},
            "domain": [0.0, 2.0 * math.pi / m]}


FRAME = "frame --curve {0}.json --out {0}.csv --samples {1}"
FIT = "bertrand fit --curve {0}.json --out {0}_c.json --samples {1}"
VERIFY = "verify --curve {0}.json --constants {0}_c.json --report {0}_r.json --samples {1}"


def passes(name, *templates, samples=21, spatial=""):
    """Exit-0 steps: each template on the spec ``name``.json, followed by ``spatial``."""
    return [Step(0, template.format(name, samples) + spatial) for template in templates]


EQUAL, SPATIAL = math.sqrt(0.5), {"family": "helix3", "params": {"a": 1.0, "h": -0.5}}
CIRCLE = {"family": "circle3", "params": {"R": 2.0, "mode": "angle"}}
PLANAR = {"family": "fourier", "params": {"coeffs": {
    "cos": [[0.0], [0.0, 1.0], [0.0], [0.0]], "sin": [[0.0], [0.0], [0.0, 1.0], [0.0]]}}}
# (u, sin u, sin 2u, sin 3u): the grid starts at its inflection u = 0.
INFLECTION = {"family": "fourier", "params": {"coeffs": {
    "cos": [[0.0]] * 4, "sin": [[0.0], [0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]],
    "linear": [1.0, 0.0, 0.0, 0.0]}}}
MOVED = {"family": "fourier", "domain": [0.0, 2.0 * math.pi], "params": {"coeffs": {
    "cos": [[1e8, 0.6], [0.0], [0.0, 0.0, 0.4], [0.0]],
    "sin": [[0.0], [0.0, 0.6], [0.0], [0.0, 0.0, 0.4]]}}}

# CI's memory guard at MAX_SAMPLES writes these specs and runs these fits first.
MEMORY_GUARD = Case(
    "memory-guard", "the memory guard's set-up fits", {
        "torus.json": TORUS_DOC, "helix.json": HELIX_DOC, "fast.json": FAST_TORUS_DOC,
        "many.json": many_harmonics(1), "many_fast.json": many_harmonics(2)},
    [Step(0, "bertrand fit --curve torus.json --out constants.json --samples 21"),
     Step(0, "bertrand fit --curve torus.json --spatial helix.json --out pair.json --samples 21"),
     *(Step(0, f"bertrand fit --curve {c}.json --out {c}_constants.json --samples 21")
       for c in ("fast", "many", "many_fast"))])

CASES = [
    Case("torus", "the canonical torus has its frames, fit, check, mate and verified mate",
         {"torus.json": TORUS_DOC}, passes("torus", FRAME, FIT, VERIFY) + [
             Step(0, "bertrand check --curve torus.json --constants torus_c.json"),
             Step(0, "bertrand mate --curve torus.json --constants torus_c.json --out m.csv")]),
    Case("wrong-constants", "constants that are not the torus's fail check and verify",
         {"torus.json": TORUS_DOC, "c.json": {**TORUS_CONSTANTS, "a": TORUS_CONSTANTS["a"] + .05}},
         [Step(1, """bertrand check --curve torus.json
                     --constants '{"a": 2.0, "b": 1.0, "c": 0.0, "d": 0.72}'"""),
          Step(1, "verify --curve torus.json --constants c.json --report r.json --samples 21")]),
    Case("fast-torus", "the 2x-speed torus takes the arc-length path: table build and Newton",
         {"fast.json": FAST_TORUS_DOC}, passes("fast", FRAME, FIT)),
    Case("small-torus", "the torus scaled by 1/200 has exact frames at any size",
         {"small.json": torus(0.003, 200.0, 0.002, 400.0, 0.031415926535897934)},
         passes("small", FRAME, FIT)),
    Case("scaled-1e10", "the Bertrand floors and tolerances are in their quantities' units",
         {"s.json": torus(6e9, 1e-10, 4e9, 2e-10, 62831853071.79586)},
         passes("s", FRAME, FIT, VERIFY)),
    Case("scaled-1e20", "the fit takes b near 1/kappa, over its length floor, and verifies",
         {"s.json": torus(6e19, 1e-20, 4e19, 2e-20, 6.283185307179586e20)},
         passes("s", FIT, VERIFY)),
    Case("scaled-1e40", "the mate's cross product of series is taken on series scaled to 1",
         {"s.json": torus(6e39, 1e-40, 4e39, 2e-40, 6.283185307179586e40)},
         passes("s", FIT, VERIFY, samples=1001)),
    Case("small-fast-torus", "the speed floor is a ratio of derivative rows: no size is a cusp",
         {"s.json": torus_doc(6e-11, 1, 4e-11, 2, m=2)}, passes("s", FRAME, FIT, VERIFY)),
    Case("left-torus", "the mirror torus (q = -2) has r*(K - k) < 0, so its fit writes b = -1",
         {"left.json": torus(0.6, 1.0, 0.4, -2.0)},
         [Step(0, FIT.format("left", 21), field=("b", -1.0)), *passes("left", VERIFY)]),
    Case("moved-torus", "verify reads the offset a*N1 + b*N3 itself, whatever the position",
         {"moved.json": MOVED}, passes("moved", FIT, VERIFY)),
    Case("spatial-frames", "a helix with a falling rise and a circle in angle mode have frames",
         {"helix.json": SPATIAL, "circle.json": CIRCLE},
         passes("helix", FRAME) + passes("circle", FRAME)),
    Case("associated-pair", "the torus has pair frames with its associated helix, not the circle",
         {"torus.json": TORUS_DOC, "assoc.json": HELIX_DOC, "circle.json": CIRCLE},
         passes("torus", FRAME, FIT, VERIFY, spatial=" --spatial assoc.json") + [
             Step(3, "frame --curve torus.json --spatial circle.json --out x.csv",
                  "not associated")]),
    Case("planar-pair", "the e1-e2 circle has zero torsion, but with the circle it is the "
         "paper's planar pair, whose mate and fit (c = 1) verify",
         {"planar.json": PLANAR, "circle.json": CIRCLE},
         [Step(3, "frame --curve planar.json --out x.csv", "zero torsion"),
          Step(0, """verify --curve planar.json --spatial circle.json --report p.json
                     --constants '{"a": 1.5, "b": 1.0, "c": 1.0, "d": 2.0}' --samples 21""")]
         + passes("planar", FRAME, FIT, VERIFY, spatial=" --spatial circle.json")),
    Case("degeneracies", "a line, an inflection, a cusp at 1e20 and the equal-frequency "
         "torus at 1 and 1e12", {"line.json": LINE_DOC, "inflection.json": INFLECTION,
                                 "cusp.json": scaled_amplitudes(CUSP_DOC, 1e20),
          "equal.json": torus(EQUAL, 1.0, EQUAL, 1.0),
          "equal12.json": torus(EQUAL * 1e12, 1e-12, EQUAL * 1e12, 1e-12, 6283185307179.586)},
         [Step(3, "frame --curve line.json --out line.csv", "zero curvature"),
          Step(3, FRAME.format("inflection", 21), "zero curvature"),
          Step(3, "frame --curve cusp.json --out cusp.csv", "irregular curve"),
          Step(3, "frame --curve equal.json --out equal.csv", "zero torsion"),
          Step(3, "frame --curve equal12.json --out equal12.csv", "zero torsion")]),
    Case("wobble", "7 samples hold two distinct triples, which any constants fit; on 11 "
         "no constant d fits", {"w.json": WOBBLE_DOC},
         [Step(4, FIT.format("w", 7), "fewer than three distinct"),
          Step(4, FIT.format("w", 11), "torsion_relation")]),
    Case("input-errors", "a missing file, an overflowing scale, a curve of the wrong dimension, "
         "a short spatial curve, a = 0, too many samples and usage errors",
         {"huge.json": torus(1e-80, 1e80, 0.0, 1.0, 1.0), "torus.json": TORUS_DOC,
          "helix.json": SPATIAL, "circle.json": CIRCLE_DOC, "c.json": TORUS_CONSTANTS,
          "fast.json": FAST_TORUS_DOC, "short.json": {**HELIX_DOC, "domain": [0.0, 5.0]}},
         [Step(2, "frame --curve missing.json --out x.csv", "cannot load curve spec"),
          Step(2, "frame --curve huge.json --out x.csv", "cannot load curve spec"),
          Step(2, "frame --curve helix.json --spatial helix.json --out x.csv", "dimension 4"),
          Step(2, "frame --curve torus.json --spatial torus.json --out x.csv",
               "the spatial curve must have dimension 3, not 4"),
          *(Step(2, f"{command} --curve circle.json", "the R^4 curve must have dimension 4, not 3")
            for command in ("verify --constants c.json --report x.json",
                            "bertrand mate --constants c.json --out x.csv",
                            "frame --spatial torus.json --out x.csv")),
          Step(2, "frame --curve fast.json --spatial short.json --out x.csv --samples 11",
               "beyond the end of the spatial curve"),
          Step(2, """bertrand check --curve torus.json
                     --constants '{"a": 0.0, "b": 1.0, "c": 0.0, "d": 0.72}'""", "nonzero"),
          Step(2, "frame --curve torus.json --out x.csv --samples 100000000000",
               "between 3 and 100000"),
          Step(2, "frame", "required"), Step(2, "no-such-command", "invalid choice")]),
    MEMORY_GUARD,
]


def write_specs(case):
    for name, doc in case.specs.items():
        Path(name).write_text(json.dumps(doc))


def run_case(case, invoke):
    """Write the case's specs to the working directory, then run each step through
    ``invoke(argv) -> (exit code, stderr)`` and check what it left."""
    write_specs(case)
    for step in case.steps:
        argv = shlex.split(step.command)
        code, err = invoke(argv)
        where = f"{case.name}: quatcurves {shlex.join(argv)}"
        assert code == step.code, f"{where}: exit {code}, not {step.code}\n{err}"
        assert step.err in err and "Traceback" not in err, f"{where}: stderr {err!r}"
        flags = dict(zip(argv, argv[1:]))
        out = flags.get("--out", flags.get("--report"))
        if out:
            assert Path(out).exists() == (code in (0, 1)), f"{where}: {out} exists is wrong"
        if step.field:
            key, value = step.field
            assert json.loads(Path(out).read_text())[key] == value, f"{where}: {key}"


def call_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_case(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_case(case, call_main)


def test_cases_cover_every_command_and_exit_code():
    argvs = [shlex.split(step.command) for case in CASES for step in case.steps]
    commands = {" ".join(argv[:1 + (argv[0] == "bertrand")]) for argv in argvs}
    assert {"frame", "bertrand fit", "bertrand check", "bertrand mate", "verify"} <= commands
    assert {step.code for case in CASES for step in case.steps} == {0, 1, 2, 3, 4}


def call_script(argv):
    proc = subprocess.run(["quatcurves", *argv], capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stderr


if __name__ == "__main__":
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                run_case(case, call_script)
                print(f"ok   {case.name}: {case.reason}")
            except AssertionError as exc:
                print(f"FAIL {exc}")
                failed += 1
    sys.exit(1 if failed else 0)
