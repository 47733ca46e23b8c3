"""Command-line front end.

Subcommands: ``frame``, ``bertrand fit``, ``bertrand check``,
``bertrand mate``, ``verify``.  Exit codes: 0 success, 1 verification
failure, 2 input error, 3 geometric degeneracy, 4 fit failure.  All
numeric output is fully deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from ._fmt import canonical_json, fnum, ftable
from .bertrand import (
    BertrandConstants,
    check_conditions,
    construct_mate,
    fit_constants,
    verify_mate,
)
from .curves import CurveSpec, ParametricCurve, is_unit_speed
from .errors import DegeneracyError, FitError
from .frames import (
    FRAME3_CSV_HEADER,
    FRAME4_CSV_HEADER,
    UNIT_SPEED_TOL,
    curvature_profile,
    frames3,
    frames4,
    orthonormality_residual,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_DEGENERACY = 3
EXIT_FIT = 4

# Largest --samples.  At this size verify, the heaviest command, peaks near
# 300 MB (about 3 kB per grid point), so no size it admits fails to
# allocate on an ordinary machine.
MAX_SAMPLES = 100_000


class _InputError(Exception):
    pass


def _tolerance(text: str) -> float:
    """``--tol`` values: finite numbers >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"need a finite tolerance >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatcurves",
        description="Quaternionic frames and (1,3)-Bertrand mate verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, constants=False, tol=True, out=False, report=False):
        p.add_argument("--curve", required=True, help="path to a curve spec JSON document")
        p.add_argument("--spatial", help="path to an associated spatial curve spec")
        if constants:
            p.add_argument(
                "--constants",
                required=True,
                help="constants JSON document: a path, or an inline JSON object",
            )
        p.add_argument("--s0", type=float,
                       help="grid start in arc length (defaults to the curve's start)")
        p.add_argument("--s1", type=float, help="grid end in arc length")
        p.add_argument("--samples", type=int, default=101,
                       help=f"grid size (3 to {MAX_SAMPLES})")
        if tol:
            p.add_argument("--tol", type=_tolerance, default=1e-8, help="pass/fail tolerance")
        if out:
            p.add_argument("--out", required=True, help="output file path")
        if report:
            p.add_argument("--report", required=True, help="report JSON output path")

    p_frame = sub.add_parser("frame", help="emit a frame CSV over a grid")
    add_common(p_frame, out=True)

    p_bertrand = sub.add_parser("bertrand", help="Bertrand constant operations")
    bsub = p_bertrand.add_subparsers(dest="bertrand_command", required=True)

    p_fit = bsub.add_parser("fit", help="fit constants from the curvature profile")
    add_common(p_fit, out=True)

    p_check = bsub.add_parser("check", help="check conditions for given constants")
    add_common(p_check, constants=True)
    p_check.add_argument("--report", help="optional report JSON output path")

    p_mate = bsub.add_parser("mate", help="emit the mate curve as CSV")
    add_common(p_mate, constants=True, tol=False, out=True)

    p_verify = sub.add_parser("verify", help="verify the mate against the intrinsic oracle")
    add_common(p_verify, constants=True, report=True)

    return parser


# One parser per process: building it costs more than parsing a command line.
_parser = functools.cache(build_parser)


# -- input loading ---------------------------------------------------------------

def _load_curve(path: str) -> ParametricCurve:
    try:
        spec = CurveSpec.from_file(path)
        return spec.build()
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot load curve spec {path!r}: {exc}") from exc


def _load_constants(text: str) -> BertrandConstants:
    try:
        if text.strip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        return BertrandConstants.from_json_dict(data)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot load constants: {exc}") from exc


def _grid(curve: ParametricCurve, s0: Optional[float], s1: Optional[float],
          samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform arc-length grid ``s`` and the curve's parameters ``u`` on it.

    A unit-speed curve's parameter is its arc length, so there ``u = s`` on
    the domain.  Any other curve's arc length runs from 0 at the start of
    its domain, and its table maps each ``s`` to ``u``.
    """
    if not 3 <= samples <= MAX_SAMPLES:
        raise _InputError(f"--samples must be between 3 and {MAX_SAMPLES}")
    unit_speed, _ = is_unit_speed(curve, UNIT_SPEED_TOL)
    start, end = curve.domain if unit_speed else (0.0, curve.arc_lengths.total)
    lo = start if s0 is None else s0
    hi = end if s1 is None else s1
    slack = 1e-12 * max(1.0, abs(start), abs(end))
    if not (math.isfinite(lo) and math.isfinite(hi) and start - slack <= lo < hi <= end + slack):
        raise _InputError(f"need finite s0 < s1 inside [{start!r}, {end!r}]")
    s = np.linspace(lo, hi, samples)
    return s, (s if unit_speed else curve.arc_lengths.parameters_at(s))


def _load_inputs(args):
    """The curve, the optional spatial curve, the arc-length grid and the curve's
    parameters on it."""
    curve = _load_curve(args.curve)
    spatial = _load_curve(args.spatial) if args.spatial else None
    return (curve, spatial, *_grid(curve, args.s0, args.s1, args.samples))


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# -- subcommands -----------------------------------------------------------------

def _csv(header: str, table: np.ndarray) -> str:
    return header + "\n" + ftable(table)


def cmd_frame(args) -> int:
    curve, spatial, s, u = _load_inputs(args)
    if curve.dim == 3:
        header, frames = FRAME3_CSV_HEADER, frames3(curve, u)
    else:
        header, frames = FRAME4_CSV_HEADER, frames4(curve, u, curve3=spatial)
    residual = orthonormality_residual(frames.vectors())
    _write(args.out, _csv(header, frames.table(s)))
    print(f"max orthonormality residual: {fnum(residual)}")
    return EXIT_OK if residual <= args.tol else EXIT_VERIFICATION


def _profile_for(args):
    curve, spatial, _, u = _load_inputs(args)
    return curvature_profile(curve, u, curve3=spatial)


def _print_conditions(report):
    for name, res in report.conditions.items():
        status = "PASS" if res.passed else "FAIL"
        extra = f" min_abs {fnum(res.min_abs)}" if res.min_abs is not None else ""
        print(
            f"{name}: max residual {fnum(res.max_residual)} "
            f"(tol {fnum(res.tolerance)}){extra} {status}"
        )


def _check(profile, consts, args):
    report = check_conditions(profile, consts, tol=args.tol)
    _print_conditions(report)
    return report


def cmd_bertrand_fit(args) -> int:
    profile = _profile_for(args)
    consts = fit_constants(profile)
    _write(args.out, canonical_json(consts.to_json_dict()))
    report = _check(profile, consts, args)
    return EXIT_OK if report.verdict else EXIT_VERIFICATION


def cmd_bertrand_check(args) -> int:
    consts = _load_constants(args.constants)
    report = _check(_profile_for(args), consts, args)
    if args.report:
        _write(args.report, canonical_json(report.to_json_dict()))
    return EXIT_OK if report.verdict else EXIT_VERIFICATION


def cmd_bertrand_mate(args) -> int:
    consts = _load_constants(args.constants)
    curve, spatial, s, u = _load_inputs(args)
    mate = construct_mate(curve, consts, curve3=spatial)
    _write(args.out, _csv("s,x0,x1,x2,x3", np.column_stack([s, mate.points(u)])))
    print(f"mate written: {len(s)} rows")
    return EXIT_OK


def cmd_verify(args) -> int:
    consts = _load_constants(args.constants)
    curve, spatial, _, u = _load_inputs(args)
    report = verify_mate(curve, consts, u, alpha3=spatial, tol=args.tol)
    _write(args.report, canonical_json(report.to_json_dict()))
    _print_conditions(report)
    for label in ("distance_deviation", "speed_deviation", "curvature_deviation",
                  "span_residual"):
        value = getattr(report, label)
        print(f"{label}: {'n/a' if value is None else fnum(value)}")
    for err in report.stage_errors:
        print(f"stage error: {err}", file=sys.stderr)
    print(f"verdict: {'PASS' if report.verdict else 'FAIL'}")
    return EXIT_OK if report.verdict else EXIT_VERIFICATION


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        # Overflow or NaN from finite inputs means a number is out of range: exit 2.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.command == "frame":
                return cmd_frame(args)
            if args.command == "bertrand":
                if args.bertrand_command == "fit":
                    return cmd_bertrand_fit(args)
                if args.bertrand_command == "check":
                    return cmd_bertrand_check(args)
                return cmd_bertrand_mate(args)
            return cmd_verify(args)
    except FloatingPointError as exc:
        print(f"error: number out of range: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
