"""Seeded workloads for the quatcurves CLI and the analytic references
their outputs are checked against.

A workload hands out *rounds*: lists of jobs drawn from a seeded
``random.Random``, with the inputs' cost-driving properties stratified
across rounds.  A job is a set of input files plus the CLI commands a
user would type on them, each with a check of its exit code and output.
A run always ends on a round boundary, so every run holds the same mix of
job kinds and grid sizes whatever the machine's speed.

Flat-torus references (checked against ``tests/conftest.py`` at set-up):
for ``(A cos pu, A sin pu, B cos qu, B sin qu)`` with ``A²p² + B²q² = 1``,
K = sqrt(A²p⁴ + B²q⁴), |torsion| = ABpq|q² - p²|/K, |bitorsion| = pq/K,
and the fitted constants satisfy a·K = 1 and |d| = AB|q² - p²|.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi
TORUS_PAIRS = ((1, 2), (2, 3), (1, 3), (2, 5))

# Agreement required of a fitted constant and of a frame-CSV curvature
# column.  The fit bound is the fitter's own d-constancy tolerance; the
# frame bound is the acceptance suite's frame-ODE / oracle tolerance, so
# finite-difference frames of reparameterized inputs pass it too.
FIT_TOL = 1e-6
FRAME_TOL = 1e-4
# Constant-distance bound of the mate, as in the acceptance suite.
MATE_TOL = 1e-10

# Columns of K, torsion and bitorsion in the R^4 frame CSV.
FRAME_CURVATURE_COLUMNS = slice(17, 20)


@dataclass(frozen=True)
class Torus:
    A: float
    p: int
    B: float
    q: int

    @property
    def K(self) -> float:
        return math.sqrt(self.A**2 * self.p**4 + self.B**2 * self.q**4)

    @property
    def torsion(self) -> float:
        return self.A * self.B * self.p * self.q * abs(self.q**2 - self.p**2) / self.K

    @property
    def bitorsion(self) -> float:
        return self.p * self.q / self.K

    @property
    def d(self) -> float:
        return self.A * self.B * abs(self.q**2 - self.p**2)

    def spec(self) -> dict:
        return {"family": "torus_curve",
                "params": {"A": self.A, "p": self.p, "B": self.B, "q": self.q},
                "domain": [0.0, TWO_PI]}

    def scaled_spec(self, m: int) -> dict:
        """The same trace at m times unit speed, as a ``fourier`` curve."""
        size = m * max(self.p, self.q) + 1
        cos = [[0.0] * size for _ in range(4)]
        sin = [[0.0] * size for _ in range(4)]
        cos[0][m * self.p] = sin[1][m * self.p] = self.A
        cos[2][m * self.q] = sin[3][m * self.q] = self.B
        return {"family": "fourier", "params": {"coeffs": {"cos": cos, "sin": sin}},
                "domain": [0.0, TWO_PI / m]}

    def points(self, s: np.ndarray) -> np.ndarray:
        return np.column_stack([self.A * np.cos(self.p * s), self.A * np.sin(self.p * s),
                                self.B * np.cos(self.q * s), self.B * np.sin(self.q * s)])


# -- fixtures shared with the test suite -------------------------------------------

def _assignments(path: Path, names: set, namespace: dict) -> dict:
    """Execute only the top-level definitions of ``names`` from a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keep = [node for node in tree.body
            if (isinstance(node, ast.Assign) and node.targets[0].id in names)
            or (isinstance(node, ast.FunctionDef) and node.name in names)]
    exec(compile(ast.Module(body=keep, type_ignores=[]), str(path), "exec"), namespace)
    return namespace


@dataclass(frozen=True)
class Fixtures:
    canonical: Torus
    helix_spec: dict
    pair_constants: dict
    wobble_doc: dict


def load_fixtures(root: Path) -> Fixtures:
    """Canonical torus, its associated helix and the wobble input from ``tests/``.

    Raises ``ValueError`` when the closed forms above disagree with the
    ``TORUS_K``/``TORUS_R``/``TORUS_M`` values pinned in ``tests/conftest.py``.
    """
    ns = _assignments(
        root / "tests" / "conftest.py",
        {"TORUS", "TORUS_K", "TORUS_R", "TORUS_M", "associated_helix"},
        # associated_helix() returns fourier_curve(**coeffs); capture the coeffs.
        {"math": math, "fourier_curve": lambda **coeffs: coeffs},
    )
    t = ns["TORUS"]
    canonical = Torus(t["A"], int(t["p"]), t["B"], int(t["q"]))
    for mine, pinned in ((canonical.K, "TORUS_K"), (canonical.torsion, "TORUS_R"),
                         (canonical.bitorsion, "TORUS_M")):
        if abs(mine - ns[pinned]) > 1e-15 * ns[pinned]:
            raise ValueError(f"closed form disagrees with tests/conftest.py {pinned}")
    coeffs = ns["associated_helix"]()
    helix = {"family": "fourier", "params": {"coeffs": {
        "cos": coeffs["cos_coeffs"], "sin": coeffs["sin_coeffs"], "linear": coeffs["linear"]}}}
    # Pair-built frames orient N3 opposite to intrinsic ones, hence the signs.
    pair_constants = {"a": 1.0 / ns["TORUS_K"], "b": 1.0, "c": 0.0,
                      "d": ns["TORUS_R"] / ns["TORUS_M"], "epsilon": -1, "delta": -1}
    wobble = _assignments(root / "tests" / "test_cli.py", {"WOBBLE_DOC"}, {})["WOBBLE_DOC"]
    return Fixtures(canonical, helix, pair_constants, wobble)


# -- jobs ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Accuracy figures gathered by the checks over a run."""

    oracle_dev: Optional[float] = None
    frame_err: Optional[float] = None

    def oracle(self, value: float):
        self.oracle_dev = value if self.oracle_dev is None else max(self.oracle_dev, value)

    def frame(self, value: float):
        self.frame_err = value if self.frame_err is None else max(self.frame_err, value)


@dataclass(frozen=True)
class Outcome:
    rc: int
    out: str
    err: str


# A check reads the command's outcome and output files in the job directory
# and returns a failure message, or None when the output is correct.
Check = Callable[[Outcome, Path, Tally], Optional[str]]


@dataclass
class Command:
    argv: list
    samples: int
    outputs: tuple
    check: Check
    # The baseline defect: `bertrand fit` on a speed-scaled torus fails.
    known_defect: bool = False


@dataclass
class Job:
    inputs: dict
    commands: list = field(default_factory=list)


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _expect_rc(outcome: Outcome, rc: int) -> Optional[str]:
    if outcome.rc == rc:
        return None
    return f"exit {outcome.rc}, expected {rc}: {outcome.err.strip()[-200:]}"


def check_fit(torus: Torus, out: str) -> Check:
    def check(o, wd, tally):
        bad = _expect_rc(o, 0)
        if bad:
            return bad
        c = json.loads((wd / out).read_text())
        if abs(c["a"] * torus.K - 1.0) > FIT_TOL or abs(abs(c["d"]) - torus.d) > FIT_TOL:
            return f"fit constants a={c['a']!r} d={c['d']!r}, expected a*K=1, |d|={torus.d!r}"
        return None
    return check


def check_frame(out: str, samples: int, torus: Optional[Torus]) -> Check:
    """Exit 0 and one row per sample; with a torus, curvatures to FRAME_TOL."""
    def check(o, wd, tally):
        bad = _expect_rc(o, 0)
        if bad:
            return bad
        rows = _csv(wd / out)
        if rows.shape != (samples, 20):
            return f"frame CSV shape {rows.shape}, expected ({samples}, 20)"
        if torus is None:
            return None
        ref = np.array([torus.K, torus.torsion, torus.bitorsion])
        err = float(np.max(np.abs(np.abs(rows[:, FRAME_CURVATURE_COLUMNS]) - ref)))
        tally.frame(err)
        if err > FRAME_TOL:
            return f"frame curvature error {err:.3g} exceeds {FRAME_TOL:g}"
        return None
    return check


def check_mate(torus: Torus, constants: str, out: str, samples: int) -> Check:
    def check(o, wd, tally):
        bad = _expect_rc(o, 0)
        if bad:
            return bad
        c = json.loads((wd / constants).read_text())
        rows = _csv(wd / out)
        if rows.shape != (samples, 5):
            return f"mate CSV shape {rows.shape}, expected ({samples}, 5)"
        dist = np.linalg.norm(rows[:, 1:] - torus.points(rows[:, 0]), axis=1)
        err = float(np.max(np.abs(dist - math.hypot(c["a"], c["b"]))))
        if err > MATE_TOL:
            return f"mate distance deviation {err:.3g} exceeds {MATE_TOL:g}"
        return None
    return check


def check_verify(report: str) -> Check:
    def check(o, wd, tally):
        bad = _expect_rc(o, 0)
        if bad:
            return bad
        rep = json.loads((wd / report).read_text())
        if rep["verdict"] is not True or not o.out.rstrip().endswith("verdict: PASS"):
            return "verify verdict is not PASS"
        tally.oracle(rep["curvature_deviation"])
        return None
    return check


def check_exit(rc: int) -> Check:
    return lambda o, wd, tally: _expect_rc(o, rc)


def _grid(samples: int, extra=()) -> list:
    return ["--samples", str(samples), *extra]


def fit_cmd(curve: str, out: str, samples: int, check: Check, known_defect=False):
    return Command(["bertrand", "fit", "--curve", curve, "--out", out, *_grid(samples)],
                   samples, (out,), check, known_defect)


def frame_cmd(curve: str, out: str, samples: int, check: Check, extra=()):
    return Command(["frame", "--curve", curve, "--out", out, *_grid(samples, extra)],
                   samples, (out,), check)


# -- workloads ------------------------------------------------------------------------

def shuffled_cycle(rng, items):
    """Endless draws using every item once per block, in seeded order."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


def stratified(rng, lo: float, hi: float, strata: int):
    """Endless uniform draws on [lo, hi), one in each of ``strata`` equal bins per block."""
    for k in shuffled_cycle(rng, range(strata)):
        yield lo + (hi - lo) * (k + rng.random()) / strata


def tori(rng):
    """Seeded flat tori: every (p, q) pair and every quarter of A*p in [0.2, 0.9)
    once per block of four, so short runs still span the family."""
    for (p, q), ap in zip(shuffled_cycle(rng, TORUS_PAIRS), stratified(rng, 0.2, 0.9, 4)):
        yield Torus(ap / p, p, math.sqrt(1.0 - ap * ap) / q, q)


def verify_torus_rounds(rng, fx: Fixtures):
    """One torus per round, fit then verified at both grid sizes n = 21, 41.

    Why: this is the hot path.  The finite-difference oracle on the
    arc-length mate, the mate's ArcLengthTable and FD derivatives of a
    curve with no analytic derivatives take most of its time; oracle and
    array-kernel changes must show their gain here.
    """
    for torus in tori(rng):
        job = Job({"torus.json": torus.spec()})
        for n in (21, 41):
            consts, report = f"c{n}.json", f"r{n}.json"
            job.commands.append(fit_cmd("torus.json", consts, n, check_fit(torus, consts)))
            job.commands.append(Command(
                ["verify", "--curve", "torus.json", "--constants", consts, "--report", report,
                 *_grid(n)], n, (report,), check_verify(report)))
        yield [job]


def frames_analytic_rounds(rng, fx: Fixtures):
    """Five jobs per round, with grid sizes N one in each fifth of [501, 2001),
    so a run's median job falls inside the middle fifth.

    Why: analytic derivatives, with no arc length and no oracle.  The work
    is in the quaternion product, the spatial and pair frames, the analytic
    intrinsic frame, the mate point and CSV formatting.  CSV-writing
    commands (frame, mate) run beside compute-only ones (fit, check), so a
    gain for one that costs the other shows.  An oracle change should show
    no change here.
    """
    sizes, shapes = stratified(rng, 501, 2001, 5), tori(rng)
    while True:
        jobs = []
        for _ in range(5):
            n, torus = int(next(sizes)), next(shapes)
            s0, s1 = rng.uniform(0.0, 0.5), rng.uniform(TWO_PI - 0.5, TWO_PI)
            pair_grid = ("--spatial", "helix.json", "--s0", repr(s0), "--s1", repr(s1))
            job = Job({"torus.json": torus.spec(), "canonical.json": fx.canonical.spec(),
                       "helix.json": fx.helix_spec, "pair_constants.json": fx.pair_constants})
            job.commands += [
                frame_cmd("torus.json", "frame.csv", n, check_frame("frame.csv", n, torus)),
                fit_cmd("torus.json", "c.json", n, check_fit(torus, "c.json")),
                Command(["bertrand", "mate", "--curve", "torus.json", "--constants", "c.json",
                         "--out", "mate.csv", *_grid(n)],
                        n, ("mate.csv",), check_mate(torus, "c.json", "mate.csv", n)),
                frame_cmd("canonical.json", "pair_frame.csv", n,
                          check_frame("pair_frame.csv", n, fx.canonical), pair_grid),
                Command(["bertrand", "check", "--curve", "canonical.json", "--constants",
                         "pair_constants.json", "--report", "pair_check.json",
                         *_grid(n, pair_grid)],
                        n, ("pair_check.json",), check_exit(0)),
            ]
            jobs.append(job)
        yield jobs


def reparam_fourier_rounds(rng, fx: Fixtures):
    """Per round, in seeded order: four seeded tori, one per (p, q) pair, two
    traced at 2x and two at 3x unit speed, and the wobbled torus; each is
    framed and fit at n = 11, 21, 41.  Every round holds every pair because
    the cost of a ``fourier`` point grows with its highest harmonic.

    Why: non-unit-speed input runs the arc-length reparameterization
    (table build, Newton inversion), FD derivatives and the bitorsion
    field, without the oracle.

    Baseline defect, kept visible: ``bertrand fit`` on a speed-scaled torus
    fails (exit 4 "non-constant d", exit 1, or constants off the c = 0
    branch) because the FD bitorsion carries an error of a few 1e-6.  Those
    commands are marked ``known_defect`` and their jobs count as failed.
    """
    shapes = tori(rng)
    while True:
        speeds = [2, 2, 3, 3]
        rng.shuffle(speeds)
        inputs = [(next(shapes), m) for m in speeds] + [(None, None)]
        rng.shuffle(inputs)
        jobs = []
        for torus, m in inputs:
            if torus is None:
                doc = json.loads(json.dumps(fx.wobble_doc))
                doc["params"]["coeffs"]["cos"][0][3] = rng.uniform(0.01, 0.05)
            else:
                doc = torus.scaled_spec(m)
            job = Job({"curve.json": doc})
            for n in (11, 21, 41):
                frame, consts = f"frame{n}.csv", f"c{n}.json"
                job.commands.append(frame_cmd("curve.json", frame, n,
                                              check_frame(frame, n, torus)))
                if torus is None:
                    job.commands.append(fit_cmd("curve.json", consts, n, check_exit(4)))
                else:
                    job.commands.append(fit_cmd("curve.json", consts, n,
                                                check_fit(torus, consts), known_defect=True))
            jobs.append(job)
        yield jobs


@dataclass(frozen=True)
class Workload:
    rounds: Callable  # (rng, fixtures) -> endless iterator of job lists
    accuracy: str  # the Tally figure the workload's ref_digits reads


WORKLOADS = {
    "verify-torus": Workload(verify_torus_rounds, "oracle_dev"),
    "frames-analytic": Workload(frames_analytic_rounds, "frame_err"),
    "reparam-fourier": Workload(reparam_fourier_rounds, "frame_err"),
}
