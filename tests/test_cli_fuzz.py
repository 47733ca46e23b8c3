"""The exit-code contract under fuzzing: ``cli.main`` returns 0-4 and raises nothing.

Each example starts from a valid input (a unit-speed flat torus, a helix
or a Fourier curve, with constants near the ones fitted to it) and
changes one thing: a field's type, sign or size, a missing key, or a
flag from a fixed menu.  Purely random documents almost never get past
the spec loader, so they would exercise little beyond exit 2.
Run with ``--hypothesis-show-statistics`` to see the exit codes reached.
"""

import copy
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from quatcurves.bertrand import fit_constants
from quatcurves.cli import main
from quatcurves.curves import CurveSpec
from quatcurves.errors import DegeneracyError, FitError
from quatcurves.frames import curvature_profile

COMMANDS = {
    "frame": ["frame", "--out", "out.csv"],
    "fit": ["bertrand", "fit", "--out", "out.json"],
    "check": ["bertrand", "check", "--constants", "constants.json", "--report", "out.json"],
    "mate": ["bertrand", "mate", "--constants", "constants.json", "--out", "out.csv"],
    "verify": ["verify", "--constants", "constants.json", "--report", "out.json"],
}

FLAGS = [
    ["--samples", "2"], ["--samples", "100001"], ["--samples", "-5"], ["--samples", "x"],
    ["--s0", "-1"], ["--s1", "1e9"], ["--s0", "3", "--s1", "1"], ["--s0", "nan"],
    ["--s1", "inf"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "0"], ["--tol", "1e300"],
    ["--spatial", "helix.json"], ["--spatial", "curve.json"], ["--spatial", "missing.json"],
    ["--constants", "{}"], ["--constants", "[1, 2]"], ["--constants", "{not json"],
    ["--report"], ["--bogus"],
]

TORUS = {"family": "torus_curve", "params": {"A": 0.6, "p": 1.0, "B": 0.4, "q": 2.0},
         "domain": [0.0, 2.0 * math.pi]}
TORUS_AS_FOURIER = {
    "family": "fourier",
    "params": {"coeffs": {"cos": [[0.0, 0.6], [0.0], [0.0, 0.0, 0.4], [0.0]],
                          "sin": [[0.0], [0.0, 0.6], [0.0], [0.0, 0.0, 0.4]]}},
    "domain": [0.0, 2.0 * math.pi],
}

MUTANTS = {
    "type": ["3", True, None, [1.0], {"x": 1.0}],
    "size": [0, 1e300, -1e300, 1e-300, 10**400, math.nan, math.inf],
}


@st.composite
def torus(draw):
    p, q = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ap = draw(st.floats(0.1, 0.95))
    return {"family": "torus_curve",
            "params": {"A": ap / p, "p": float(p), "B": math.sqrt(1.0 - ap * ap) / q,
                       "q": float(q)},
            "domain": [0.0, 2.0 * math.pi]}


@st.composite
def helix(draw):
    return {"family": "helix3",
            "params": {"a": draw(st.floats(0.2, 3.0)), "h": draw(st.floats(-2.0, 2.0))}}


@st.composite
def fourier(draw):
    # Four coordinates: every command but frame needs a curve in R^4.
    coeff = st.floats(-1.0, 1.0)
    rows = st.lists(st.lists(coeff, min_size=1, max_size=4), min_size=4, max_size=4)
    coeffs = {"cos": draw(rows), "sin": draw(rows)}
    if draw(st.booleans()):
        coeffs["linear"] = draw(st.lists(coeff, min_size=4, max_size=4))
    return {"family": "fourier", "params": {"coeffs": coeffs},
            "domain": [0.0, draw(st.floats(1.0, 2.0 * math.pi))]}


def leaves(doc, path=()):
    """Paths of every value below the top of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    out = []
    for key, value in items:
        out.append(path + (key,))
        if isinstance(value, (dict, list)) and value:
            out.extend(leaves(value, path + (key,)))
    return out


def mutate(doc, path, kind, pick):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "missing":
        del parent[key]
    elif kind == "sign":
        if isinstance(parent[key], (int, float)) and not isinstance(parent[key], bool):
            parent[key] = -parent[key]
    else:
        choices = MUTANTS[kind]
        parent[key] = choices[pick % len(choices)]


def fitted_constants(doc):
    """Constants fitted to the curve, nudged; fixed ones when no fit exists."""
    try:
        curve = CurveSpec.from_dict(doc).build()
        lo, hi = curve.domain
        consts = fit_constants(curvature_profile(curve, np.linspace(lo, hi, 21))).to_json_dict()
    except (ValueError, DegeneracyError, FitError):
        return {"a": 1.0, "b": 1.0, "c": 0.0, "d": 0.5, "epsilon": 1, "delta": 1}
    consts["a"] *= 1.0 + 1e-9
    return consts


@settings(derandomize=True, deadline=None, max_examples=250, database=None)
@given(
    curve=st.one_of(torus(), helix(), fourier()),
    command=st.sampled_from(sorted(COMMANDS)),
    target=st.sampled_from(["curve", "constants", "flag"]),
    kind=st.sampled_from(["type", "sign", "size", "missing"]),
    which=st.integers(0, 10**6),
    pick=st.integers(0, 10**6),
    samples=st.sampled_from(["5", "11", "21"]),
)
# An overflow (constant a = 1e300) and inf * sin(0) (an infinite Fourier coefficient).
@example(curve=TORUS, command="verify", target="constants", kind="size", which=0, pick=1,
         samples="11")
@example(curve=TORUS_AS_FOURIER, command="frame", target="curve", kind="size", which=17,
         pick=6, samples="11")
def test_cli_exit_codes_hold_under_mutation(curve, command, target, kind, which, pick,
                                            samples):
    curve = copy.deepcopy(curve)
    constants = fitted_constants(curve)
    argv = COMMANDS[command] + ["--curve", "curve.json", "--samples", samples]
    if target == "flag":
        argv = argv + FLAGS[which % len(FLAGS)]
    else:
        doc = curve if target == "curve" else constants
        paths = leaves(doc)
        mutate(doc, paths[which % len(paths)], kind, pick)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in (("curve.json", curve), ("constants.json", constants),
                          ("helix.json", {"family": "helix3", "params": {"a": 1.0, "h": 0.5}})):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
        finally:
            os.chdir(cwd)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3, 4)
