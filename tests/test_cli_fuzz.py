"""The exit-code contract under fuzzing: ``cli.main`` returns 0-4 and raises nothing.

Each example starts from a valid input (a unit-speed flat torus, a helix
or a Fourier curve, with constants near the ones fitted to it; or the
canonical torus with its associated helix, with the constants fitted to
the pair) and changes one thing: a field's type, sign or size, a missing
key, a flag from a fixed menu, or the scale of the whole input (from
1e-300 to 1e300; a Fourier spec's amplitudes on its fixed domain, whose frame
and fit exit as the unscaled spec's from 1e-150 to 1e150).  Purely random
documents almost never get past the spec loader, so they would exercise
little beyond exit 2.
Run with ``--hypothesis-show-statistics`` to see the exit codes reached.
"""

import copy
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from quatcurves.bertrand import fit_constants
from quatcurves.cli import main
from quatcurves.curves import CurveSpec
from quatcurves.errors import DegeneracyError, FitError
from quatcurves.frames import curvature_profile

from test_cli import HELIX_DOC, scaled_amplitudes

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
SCALES = [1e-300, 1e-80, 1e-3, 1e3, 1e80, 1e300]
# Amplitude scales of a Fourier spec on its fixed domain at which a frame's and
# a fit's exit codes must not change: squared rows stay in the float range.
AMPLITUDE_SCALES = [1e-150, 1e-100, 1e-40, 1e-12, 1e-10, 1e12, 1e40, 1e100, 1e150]

# A spatial curve associated with none of the R^4 curves here.
UNRELATED_HELIX = {"family": "helix3", "params": {"a": 1.0, "h": 0.5}}


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


def scale_curve(doc, lam):
    """Scale the curve of ``doc`` by ``lam`` in space and, where its family allows,
    in its parameter, so a unit-speed torus stays unit speed."""
    params = doc["params"]
    if doc["family"] == "torus_curve":
        for name in ("A", "B"):
            params[name] *= lam
        for name in ("p", "q"):
            params[name] /= lam
        doc["domain"] = [lam * u for u in doc["domain"]]
    elif doc["family"] == "helix3":
        params["a"] *= lam
        params["h"] *= lam
    else:
        params["coeffs"] = scaled_amplitudes(doc, lam)["params"]["coeffs"]


def scale(lam, constants, *docs):
    """Scale the curves of ``docs`` by ``lam``, and the constants' a and b, which are
    lengths, alike."""
    for doc in docs:
        scale_curve(doc, lam)
    constants["a"] *= lam
    constants["b"] *= lam


def run(argv, curve, constants, spatial=UNRELATED_HELIX):
    """``main(argv)`` in a fresh directory holding the curve, the constants and the
    spatial curve ``helix.json``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in (("curve.json", curve), ("constants.json", constants),
                          ("helix.json", spatial)):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                return main(argv)
        finally:
            os.chdir(cwd)


def fitted_constants(doc, spatial=None):
    """Constants fitted to the curve (with its spatial curve), nudged; fixed ones when
    no fit exists."""
    try:
        curve = CurveSpec.from_dict(doc).build()
        curve3 = None if spatial is None else CurveSpec.from_dict(spatial).build()
        lo, hi = curve.domain
        profile = curvature_profile(curve, np.linspace(lo, hi, 21), curve3)
        consts = fit_constants(profile).to_json_dict()
    except (ValueError, DegeneracyError, FitError):
        return {"a": 1.0, "b": 1.0, "c": 0.0, "d": 0.5, "epsilon": 1, "delta": 1}
    consts["a"] *= 1.0 + 1e-9
    return consts


@settings(derandomize=True, deadline=None, max_examples=250, database=None)
@given(
    curve=st.one_of(torus(), helix(), fourier()),
    command=st.sampled_from(sorted(COMMANDS)),
    target=st.sampled_from(["curve", "constants", "flag"]),
    kind=st.sampled_from(["type", "sign", "size", "missing", "scale"]),
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
    if kind == "scale":
        scale(SCALES[pick % len(SCALES)], constants, curve)
    elif target == "flag":
        argv = argv + FLAGS[which % len(FLAGS)]
    else:
        doc = curve if target == "curve" else constants
        paths = leaves(doc)
        mutate(doc, paths[which % len(paths)], kind, pick)
    code = run(argv, curve, constants)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3, 4)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    target=st.sampled_from(["curve", "spatial", "constants", "flag"]),
    kind=st.sampled_from(["type", "sign", "size", "missing", "scale"]),
    which=st.integers(0, 10**6),
    pick=st.integers(0, 10**6),
    samples=st.sampled_from(["5", "11", "21"]),
)
def test_pair_exit_codes_hold_under_mutation(command, target, kind, which, pick, samples):
    # The torus with its associated helix gets past the pair frame's
    # association check, so the Bertrand layer is fuzzed on a pair too.
    curve, spatial = copy.deepcopy(TORUS), copy.deepcopy(HELIX_DOC)
    constants = fitted_constants(curve, spatial)
    argv = COMMANDS[command] + ["--curve", "curve.json", "--spatial", "helix.json",
                                "--samples", samples]
    if kind == "scale":
        scale(SCALES[pick % len(SCALES)], constants, curve, spatial)
    elif target == "flag":
        argv = argv + FLAGS[which % len(FLAGS)]
    else:
        doc = {"curve": curve, "spatial": spatial, "constants": constants}[target]
        paths = leaves(doc)
        mutate(doc, paths[which % len(paths)], kind, pick)
    code = run(argv, curve, constants, spatial)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3, 4)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(curve=fourier(), command=st.sampled_from(["frame", "fit"]),
       lam=st.sampled_from(AMPLITUDE_SCALES))
def test_fourier_amplitude_scale_keeps_exit_codes(curve, command, lam):
    # The "scale" kind on a Fourier spec scales its amplitudes on its fixed
    # domain; every floor of the frames and the fit, the speed's among them,
    # is a ratio, so the scaled curve exits as the curve does.
    constants = fitted_constants(curve)
    argv = COMMANDS[command] + ["--curve", "curve.json", "--samples", "11"]
    code = run(argv, curve, constants)
    event(f"exit {code}")
    curve = copy.deepcopy(curve)
    scale(lam, constants, curve)
    assert run(argv, curve, constants) == code


@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_exit_codes_hold_at_extreme_scales(command, lam):
    # Every family at every scale, alone and (the R^4 curves) with a helix
    # associated with none of them, which is a degeneracy (exit 3) where the
    # input loads.
    argv = COMMANDS[command] + ["--curve", "curve.json", "--samples", "11"]
    for curve in (TORUS, TORUS_AS_FOURIER, {"family": "helix3", "params": {"a": 3.0, "h": 4.0}}):
        curve = copy.deepcopy(curve)
        constants = fitted_constants(curve)
        scale(lam, constants, curve)
        for extra in ([], ["--spatial", "helix.json"]):
            code = run(argv + extra, curve, constants)
            assert code in (0, 1, 2, 3, 4), (curve, extra)
    # The torus with its associated helix, scaled alike.
    curve, spatial = copy.deepcopy(TORUS), copy.deepcopy(HELIX_DOC)
    constants = fitted_constants(curve, spatial)
    scale(lam, constants, curve, spatial)
    code = run(argv + ["--spatial", "helix.json"], curve, constants, spatial)
    assert code in (0, 1, 2, 3, 4)


@pytest.mark.parametrize("spatial", [None, HELIX_DOC], ids=["alone", "pair"])
@pytest.mark.parametrize("curve", [TORUS, TORUS_AS_FOURIER], ids=["torus", "fourier"])
@pytest.mark.parametrize("command", ["fit", "verify"])
def test_torus_scaled_by_1e20_fits_and_verifies(command, curve, spatial):
    # Past 1.7e12 the fit's b = 1 is under its length floor, 1e-12 / kappa;
    # a b near 1 / kappa is over it.  verify takes the constants fitted there.
    curve, spatial = copy.deepcopy(curve), copy.deepcopy(spatial)
    for doc in (curve, spatial) if spatial else (curve,):
        scale_curve(doc, 1e20)
    constants = fitted_constants(curve, spatial)
    argv = COMMANDS[command] + ["--curve", "curve.json", "--samples", "11"]
    if spatial:
        code = run(argv + ["--spatial", "helix.json"], curve, constants, spatial)
    else:
        code = run(argv, curve, constants)
    assert code == 0
