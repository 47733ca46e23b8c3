"""The command-line cases, one list for two runs: tier-1 runs each case through
``cli.main`` in-process, and ``python tests/test_cli_cases.py`` runs it through the
installed ``quatcurves`` console script, each case in a fresh temporary directory
(exit 1 if any step fails).  A case writes its spec documents (file name -> JSON
value, or a str written as it is), then runs its steps.  A step gives its exit code,
its command line (split by shlex), a substring of its stderr and, where needed, a
(key, value) of its JSON output.  A step's output (``--out`` or ``--report``) exists
after it exactly when it exits 0 or 1, the stderr of an exit 2, 3 or 4 holds its
prefix, and no step prints a traceback.  Every step runs, and each failing one is
named.  A step's label names the exit-code-only test of tests/test_cli.py that
reads it (``check_steps``).  A new CLI case is one entry in ``CASES``.
"""

import contextlib
import functools
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
from test_cli import (BAD_CONSTANTS, CIRCLE_DOC, CUSP_DOC, FAST_TORUS_DOC, GRID_ENDS, HELIX_DOC,
                      LINE_DOC, MISTYPED, PAIR_CONSTANTS, TORUS_CONSTANTS, TORUS_DOC,
                      UNASSOCIATED, WOBBLE_DOC, scaled_amplitudes, torus_doc)

Step = namedtuple("Step", "code command err field label", defaults=("", (), ""))
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
DEEP_CONSTANTS = '{"a": ' + "[" * 5000
PAIR_COMMANDS = {"frame": "frame --out out", "fit": "bertrand fit --out out",
                 "check": "bertrand check --constants pair.json --report out",
                 "mate": "bertrand mate --constants pair.json --out out",
                 "verify": "verify --constants pair.json --report out"}
CUSP_COMMANDS = {"frame": "frame --out out", "fit": "bertrand fit --out out",
                 "verify": "verify --constants c.json --report out"}
# The canonical torus scaled by mu, on its domain [0, 2 pi mu].
SCALED = {mu: torus(0.6 * mu, 1.0 / mu, 0.4 * mu, 2.0 / mu, 2.0 * math.pi * mu)
          for mu in (1e-12, 1e12)}


def past_end(mu, past):
    """frame on the torus scaled by mu with its grid ending ``past`` of its end
    beyond its domain: round-off (up to 1e-12 of the end) is accepted, more is input error."""
    end = SCALED[mu]["domain"][1] * (1.0 + past)
    command = f"frame --curve s{mu:g}.json --out x{past:g}.csv --samples 21 --s1 {end!r}"
    slack = past <= 1e-12
    return Step(0 if slack else 2, command, "" if slack else "need finite s0 < s1 inside",
                label=f"{mu}-{past}")


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
    Case("fast-torus", "the 2x-speed torus takes the arc-length path (table build and Newton), "
         "and every command takes its default grid, its whole arc length",
         {"fast.json": FAST_TORUS_DOC, "c.json": TORUS_CONSTANTS}, passes("fast", FRAME, FIT) + [
             Step(0, f"{command} --curve fast.json --samples 11", label=label)
             for label, command in (("frame", "frame --out d.csv"),
                                    ("fit", "bertrand fit --out d.json"),
                                    ("mate", "bertrand mate --constants c.json --out m.csv"),
                                    ("verify", "verify --constants c.json --report r.json"))]),
    Case("small-torus", "the torus scaled by 1/200 has exact frames at any size",
         {"small.json": torus(0.003, 200.0, 0.002, 400.0, 0.031415926535897934)},
         passes("small", FRAME, FIT)),
    Case("scaled-1e10", "the Bertrand floors and tolerances are in their quantities' units",
         {"s.json": torus(6e9, 1e-10, 4e9, 2e-10, 62831853071.79586)},
         passes("s", FRAME, FIT, VERIFY)),
    Case("scaled-1e12", "the torus at 1e-12 and 1e12 has its mate, and its grid may end past "
         "its domain by round-off only", {f"s{mu:g}.json": doc for mu, doc in SCALED.items()},
         [step._replace(label=str(mu)) for mu in SCALED
          for step in passes(f"s{mu:g}", FRAME, FIT, VERIFY)]
         + [past_end(mu, past) for mu, past in GRID_ENDS]),
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
    # Only the pair frame's check writes "not associated with the R^4 curve".
    Case("unassociated", "a helix and a circle not associated with the torus have no pair "
         "frame with it, whatever the command", {"torus.json": TORUS_DOC, "pair.json":
         PAIR_CONSTANTS, **{f"{name}.json": doc for name, doc in UNASSOCIATED.items()}},
         [Step(3, f"{command} --curve torus.json --spatial {name}.json --samples 21",
               "not associated with the R^4 curve", label=f"{label}-{name}")
          for name in UNASSOCIATED for label, command in PAIR_COMMANDS.items()]),
    Case("planar-pair", "the e1-e2 circle has zero torsion, but with the circle it is the "
         "paper's planar pair, whose mate and fit (c = 1) verify",
         {"planar.json": PLANAR, "circle.json": CIRCLE},
         [Step(3, "frame --curve planar.json --out x.csv", "zero torsion"),
          Step(0, """verify --curve planar.json --spatial circle.json --report p.json
                     --constants '{"a": 1.5, "b": 1.0, "c": 1.0, "d": 2.0}' --samples 21""")]
         + passes("planar", FRAME, FIT, VERIFY, spatial=" --spatial circle.json")),
    Case("degeneracies", "a line, an inflection and the equal-frequency torus at 1 and 1e12",
         {"line.json": LINE_DOC, "inflection.json": INFLECTION,
          "equal.json": torus(EQUAL, 1.0, EQUAL, 1.0),
          "equal12.json": torus(EQUAL * 1e12, 1e-12, EQUAL * 1e12, 1e-12, 6283185307179.586)},
         [Step(3, "frame --curve line.json --out line.csv", "zero curvature", label="line"),
          Step(3, FRAME.format("inflection", 21), "zero curvature", label="inflection"),
          Step(3, "frame --curve equal.json --out equal.csv", "zero torsion"),
          Step(3, "frame --curve equal12.json --out equal12.csv", "zero torsion")]),
    Case("cusp", "the speed at the cusp is round-off of the curve's size, read against the "
         "grid's largest speed: irregular at any size", {"c.json": TORUS_CONSTANTS, **{
             f"cusp{mu:g}.json": scaled_amplitudes(CUSP_DOC, mu) for mu in (1e-20, 1.0, 1e20)}},
         [Step(3, f"{command} --curve cusp{mu:g}.json --samples 21",
               "degeneracy: irregular curve", label=f"{label}-{mu}")
          for mu in (1e-20, 1.0, 1e20) for label, command in CUSP_COMMANDS.items()]),
    Case("wobble", "7 samples hold two distinct triples, which any constants fit; on 11 "
         "no constant d fits", {"w.json": WOBBLE_DOC},
         [Step(4, FIT.format("w", 7), "fewer than three distinct"),
          Step(4, FIT.format("w", 11), "torsion_relation")]),
    Case("input-errors", "a missing file, malformed JSON (also nested deeper than the parser "
         "recurses), an overflowing scale, a curve of the wrong dimension, a short spatial "
         "curve, a = 0, non-finite grid bounds, too many samples and usage errors",
         {"huge.json": torus(1e-80, 1e80, 0.0, 1.0, 1.0), "torus.json": TORUS_DOC,
          "helix.json": SPATIAL, "circle.json": CIRCLE_DOC, "c.json": TORUS_CONSTANTS,
          "fast.json": FAST_TORUS_DOC, "short.json": {**HELIX_DOC, "domain": [0.0, 5.0]},
          "bad.json": "{not json at all", "deep.json": "[" * 200_000},
         [Step(2, "frame --curve missing.json --out x.csv", "cannot load curve spec",
               label="missing-file"),
          *(Step(2, f"frame {inputs} --out x.csv", "cannot load curve spec", label="malformed-json")
            for inputs in ("--curve bad.json", "--curve deep.json",
                           "--curve torus.json --spatial deep.json")),
          Step(2, "frame --curve huge.json --out x.csv",
               "derivative scale 1e-80 * 1e+80**n out of range"),
          Step(2, "frame --curve helix.json --spatial helix.json --out x.csv", "dimension 4"),
          Step(2, "frame --curve torus.json --spatial torus.json --out x.csv",
               "the spatial curve must have dimension 3, not 4", label="4d-spatial"),
          *(Step(2, f"{command} --curve circle.json", "the R^4 curve must have dimension 4, not 3",
                 label=label)
            for label, command in (("3d-curve", "verify --constants c.json --report x.json"),
                                   ("3d-mate", "bertrand mate --constants c.json --out x.csv"),
                                   ("3d-frame", "frame --spatial torus.json --out x.csv"))),
          Step(2, "frame --curve fast.json --spatial short.json --out x.csv --samples 11",
               "beyond the end of the spatial curve", label="spatial-shorter"),
          Step(2, """bertrand check --curve torus.json
                     --constants '{"a": 0.0, "b": 1.0, "c": 0.0, "d": 0.72}'""", "nonzero",
               label="zero-a"),
          *(Step(2, f"frame --curve torus.json --out x.csv {bound}", "need finite s0 < s1",
                 label=bound) for bound in ("--s1=inf", "--s0=-inf", "--s1=nan")),
          Step(2, "frame --curve torus.json --out x.csv --samples 100000000000",
               "between 3 and 100000", label="samples-beyond-bound"),
          Step(2, "frame", "required", label="usage"),
          Step(2, "no-such-command", "invalid choice", label="usage")]),
    Case("mistyped-specs", "JSON that is not a curve spec, by its types or its values, "
         "cannot be loaded", {f"{name}.json": doc for name, doc in MISTYPED.items()},
         [Step(2, f"frame --curve {name}.json --out x.csv", "cannot load curve spec", label=name)
          for name in MISTYPED]),
    Case("bad-constants", "constants that are not numbers or signs, or that nest deeper than "
         "JSON parses, inline or in a file, cannot be loaded",
         {"torus.json": TORUS_DOC, "deep.json": DEEP_CONSTANTS},
         [*(Step(2, f"bertrand check --curve torus.json --constants '{doc}'",
                 "invalid constants document", label=name) for name, doc in BAD_CONSTANTS.items()),
          *(Step(2, f"bertrand check --curve torus.json --constants {doc}",
                 "cannot load constants: JSON nested too deeply", label=where)
            for where, doc in (("inline", shlex.quote(DEEP_CONSTANTS)), ("file", "deep.json")))]),
    MEMORY_GUARD,
]
BY_NAME = {case.name: case for case in CASES}

# The stderr of an exit 2, 3 or 4 holds the prefix cli.main writes (argparse's
# usage errors also hold "error: ").
PREFIXES = {2: "error: ", 3: "degeneracy: ", 4: "fit failure: "}


def write_specs(case):
    for name, doc in case.specs.items():
        Path(name).write_text(doc if isinstance(doc, str) else json.dumps(doc))


def check_step(case, step, invoke):
    """Run the step through ``invoke(argv) -> (exit code, stderr)`` in the working
    directory and check what it left (its output file is removed first, so an
    earlier step's file of that name is not read as its own)."""
    argv = shlex.split(step.command)
    flags = dict(zip(argv, argv[1:]))
    out = flags.get("--out", flags.get("--report"))
    if out:
        Path(out).unlink(missing_ok=True)
    code, err = invoke(argv)
    where = f"{case.name}: quatcurves {shlex.join(argv)}"
    assert code == step.code, f"{where}: exit {code}, not {step.code}\n{err}"
    assert step.err in err and PREFIXES.get(code, "") in err and "Traceback" not in err, \
        f"{where}: stderr {err!r}"
    if out:
        assert Path(out).exists() == (code in (0, 1)), f"{where}: {out} exists is wrong"
    if step.field:
        key, value = step.field
        assert json.loads(Path(out).read_text())[key] == value, f"{where}: {key}"


def run_steps(case, invoke):
    """Write the case's specs to the working directory, then run every step: the
    failure of each, or None."""
    write_specs(case)
    failures = []
    for step in case.steps:
        try:
            check_step(case, step, invoke)
            failures.append(None)
        except AssertionError as exc:
            failures.append(str(exc))
    return failures


def run_case(case, invoke):
    failed = [failure for failure in run_steps(case, invoke) if failure]
    assert not failed, "\n".join(failed)


def call_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@functools.lru_cache(maxsize=None)
def tier1_failures(name):
    """Each step's failure, or None, of the case ``name`` run once a session through
    ``cli.main`` in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return run_steps(BY_NAME[name], call_main)
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_case(case):
    failed = [failure for failure in tier1_failures(case.name) if failure]
    assert not failed, "\n".join(failed)


def check_steps(name, label):
    """Tier-1's check of the steps labelled ``label`` of the case ``name``."""
    steps, failures = BY_NAME[name].steps, tier1_failures(name)
    picked = [failure for step, failure in zip(steps, failures) if step.label == label]
    assert picked, f"{name} has no step labelled {label!r}"
    failed = [failure for failure in picked if failure]
    assert not failed, "\n".join(failed)


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
            failures = [failure for failure in run_steps(case, call_script) if failure]
            print(f"{'FAIL' if failures else 'ok  '} {case.name}: {case.reason}")
            for failure in failures:
                print(f"     {failure}")
            failed += bool(failures)
    sys.exit(1 if failed else 0)
