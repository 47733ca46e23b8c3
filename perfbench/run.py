"""Seeded, closed-loop benchmark of the quatcurves command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
that checkout's ``src/``.  One client in one process, with no threads of
its own, calls ``quatcurves.cli.main(argv)`` on spec files generated from
the seed and waits for each command before sending the next.  The process
has no queue and no lock, so there is no waiting time to record.

Every job loads its curves from files, as a user's CLI call would, so no
curve object or cached property carries over between jobs.  A job's
commands are timed together; the checks against the analytic references
run after the timer stops.  A run ends at the first round boundary after
``--seconds``, so every run holds the same mix of jobs.

``--trace 0`` prints the end-to-end metrics.  Job times in them are
given in *kref*, thousands of iterations of a reference loop timed
throughout the same run (see ``Speedometer``), so that the host's changes
of speed between runs cancel; the wall-clock figures are printed too.  ``--trace 1`` runs every job
twice, untraced and then traced, requires both runs to write the same
bytes, and prints the per-layer metrics per traced job.  The tracing
overhead is the traced minus the untraced median job time.

The last line of stdout is the result object.  The line before it gives
the workload's figures under the names in NOTES.md, the digest of the
first round's outputs, and any unexpected failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from workloads import WORKLOADS, Outcome, Tally, load_fixtures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
# The reference loop runs REF_ITERATIONS (about 5 ms) every REF_INTERVAL_S.
REF_INTERVAL_S = 0.25
REF_ITERATIONS = 1500


def import_cli():
    """Import quatcurves from this checkout's ``src/``, and only from there."""
    if not (SRC / "quatcurves" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no quatcurves sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quatcurves.cli

    if Path(quatcurves.cli.__file__).resolve().parent != SRC / "quatcurves":
        raise SystemExit("benchmark: quatcurves was imported from outside this checkout")
    return quatcurves.cli


def setup_seconds(spec: Path) -> float:
    """Median wall time of a fresh interpreter importing the CLI and loading a spec."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import quatcurves.cli; "
            "from quatcurves.curves import CurveSpec; CurveSpec.from_file(sys.argv[2]).build()")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), str(spec)],
                       check=True, timeout=120, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speedometer:
    """Times a fixed Python/NumPy loop throughout a run, to measure the machine's speed.

    The host this benchmark was written on changed speed by up to 60% within
    twenty minutes (the same seed ran 1.5x slower half an hour later), far
    more than within one run.  Job times divided by the reference loop's
    time per iteration, measured in the same run, cancel that drift.  The
    loop mixes scalar math and small-array NumPy calls as the program does.
    A timer signal runs it every REF_INTERVAL_S, inside jobs too, so long
    jobs are covered; its time is taken out of the job times.
    """

    VECTOR = np.array([0.1, 0.2, 0.3, 0.4])

    def __init__(self):
        self.seconds = 0.0
        self.iterations = 0

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        for i in range(REF_ITERATIONS):
            math.cos(1e-3 * i) + float(np.linalg.norm(self.VECTOR * (1.0 + 1e-9 * i)))
        self.seconds += time.perf_counter() - t0
        self.iterations += REF_ITERATIONS

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def kref_s(self) -> float:
        """Seconds per thousand reference iterations."""
        return 1000.0 * self.seconds / self.iterations


def command_key(cmd) -> str:
    name = " ".join(cmd.argv[:2]) if cmd.argv[0] == "bertrand" else cmd.argv[0]
    return f"{name} n={cmd.samples}"


@dataclass
class JobResult:
    seconds: float
    samples: int
    failures: list  # (command, message) for every command whose check failed
    outputs: list  # exit codes and output file bytes, in command order


class Runner:
    """Runs one job's commands through ``main``, traced when given a tracer."""

    def __init__(self, main, tracer=None, speed=None):
        self.main = main
        self.tracer = tracer
        self.speed = speed or Speedometer()

    def _commands(self, job):
        outcomes = []
        for cmd in job.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    rc = self.main(cmd.argv)
                else:
                    self.tracer.command = command_key(cmd)
                    rc = self.tracer.call("cli.main", self.tracer.command, self.main, cmd.argv)
            outcomes.append(Outcome(rc, out.getvalue(), err.getvalue()))
        return outcomes

    def run(self, job, workdir: Path, tally) -> JobResult:
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        for name, doc in job.inputs.items():
            (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
        gc.collect()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with self.tracer.installed() if self.tracer else contextlib.nullcontext():
                t0, ref0 = time.perf_counter(), self.speed.seconds
                outcomes = self._commands(job)
                seconds = time.perf_counter() - t0 - (self.speed.seconds - ref0)
        finally:
            os.chdir(cwd)
        result = JobResult(seconds, sum(c.samples for c in job.commands), [], [])
        for cmd, outcome in zip(job.commands, outcomes):
            problem = cmd.check(outcome, workdir, tally)
            if problem:
                result.failures.append((cmd, problem))
            result.outputs.append(str(outcome.rc).encode())
            result.outputs += [(workdir / name).read_bytes() for name in cmd.outputs
                               if (workdir / name).exists()]
        return result


@dataclass
class RunStats:
    jobs: list = field(default_factory=list)  # untraced seconds per job
    traced: list = field(default_factory=list)  # traced seconds per job
    samples: int = 0
    known: int = 0  # jobs whose only failures are the known defect
    unexpected: list = field(default_factory=list)  # messages of any other failure
    unexpected_jobs: int = 0
    nondeterministic: int = 0  # jobs whose traced run wrote other bytes
    rounds: int = 0
    wall: float = 0.0
    digest: str = ""
    tally: Tally = field(default_factory=Tally)
    kref_s: Optional[float] = None  # seconds per kref, in untraced runs

    @property
    def failed(self) -> int:
        return self.known + self.unexpected_jobs

    def add(self, tag: str, result: JobResult):
        self.jobs.append(result.seconds)
        self.samples += result.samples
        unexpected = [f"{tag} {command_key(c)}: {p}" for c, p in result.failures
                      if not c.known_defect]
        self.unexpected += unexpected
        self.unexpected_jobs += bool(unexpected)
        self.known += bool(result.failures) and not unexpected


def measure(workload, fixtures, seed: int, seconds: float, work: Path, runner,
            traced=None) -> RunStats:
    """Closed loop over seeded rounds until ``seconds`` have passed."""
    stats = RunStats()
    digest = hashlib.sha256()
    start = time.perf_counter()
    for jobs in workload.rounds(random.Random(seed), fixtures):
        for i, job in enumerate(jobs):
            tag = f"r{stats.rounds}j{i}"
            result = runner.run(job, work / tag, stats.tally)
            stats.add(tag, result)
            if stats.rounds == 0:
                for blob in result.outputs:
                    digest.update(len(blob).to_bytes(8, "little") + blob)
            if traced is not None:
                traced.tracer.job = tag
                again = traced.run(job, work / tag, Tally())
                stats.traced.append(again.seconds)
                stats.nondeterministic += again.outputs != result.outputs
        stats.rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    stats.wall = time.perf_counter() - start - runner.speed.seconds
    stats.digest = digest.hexdigest()
    return stats


# Per-layer metric name -> (layer, role or None for every role, field).
PER_LAYER = {
    "frames.frame4_intrinsic.self_s.oracle": ("frames.frame4_intrinsic", "oracle", "self_s"),
    "frames.frame4_intrinsic.calls.oracle": ("frames.frame4_intrinsic", "oracle", "calls"),
    "frames.frame4_intrinsic.self_s.base": ("frames.frame4_intrinsic", "base", "self_s"),
    "curves.point.calls.base": ("curves.point", "base", "calls"),
    "curves.point.calls.mate": ("curves.point", "mate", "calls"),
    "curves.point.calls.arclength": ("curves.point", "arclength", "calls"),
    "curves.point.self_s": ("curves.point", None, "self_s"),
    "curves.arclength_build.self_s": ("curves.arclength_build", None, "self_s"),
    "curves.invert.calls": ("curves.invert", None, "calls"),
    "curves.derivative.calls.analytic": ("curves.derivative", "analytic", "calls"),
    "curves.derivative.calls.fd": ("curves.derivative", "fd", "calls"),
    "curves.derivative.self_s.fd": ("curves.derivative", "fd", "self_s"),
    "quaternion.mul.calls": ("quaternion.mul", None, "calls"),
    "quaternion.mul.self_s": ("quaternion.mul", None, "self_s"),
    "quaternion.from_vec4.calls": ("quaternion.from_vec4", None, "calls"),
    "frames.frame4_from_pair.self_s": ("frames.frame4_from_pair", None, "self_s"),
    "frames.frame3_at.self_s": ("frames.frame3_at", None, "self_s"),
    "frames.curvature_profile.self_s": ("frames.curvature_profile", None, "self_s"),
    "bertrand.verify_mate.self_s": ("bertrand.verify_mate", None, "self_s"),
    "bertrand.fit_constants.self_s": ("bertrand.fit_constants", None, "self_s"),
    "bertrand.check_conditions.self_s": ("bertrand.check_conditions", None, "self_s"),
    "fmt.fnum.calls": ("_fmt.fnum", None, "calls"),
    "cli.write.self_s": ("cli.write", None, "self_s"),
}


def _total(table, layer, role=None):
    return sum(v for (lay, r), v in table.items() if lay == layer and role in (None, r))


def per_layer_metrics(tracer, stats: RunStats):
    jobs = len(stats.traced)
    metrics = {}
    for name, (layer, role, field) in PER_LAYER.items():
        table = tracer.calls if field == "calls" else tracer.self_s
        metrics[name] = {"value": _total(table, layer, role) / jobs,
                         "unit": "count/job" if field == "calls" else "s/job"}
    inverts = _total(tracer.calls, "curves.invert")
    metrics["curves.length_at_per_invert"] = {
        "value": tracer.length_at_in_invert / inverts if inverts else 0.0, "unit": "ratio"}
    metrics["curves.invert.unconverged"] = {"value": tracer.unconverged / jobs,
                                            "unit": "count/job"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(stats.traced) - statistics.median(stats.jobs),
        "unit": "s/job"}
    return metrics


def anchors(tracer) -> dict:
    """Traced per-call figures to set beside the ROADMAP's estimates."""
    def incl_per_call(layer, role=None):
        n = _total(tracer.calls, layer, role)
        return _total(tracer.incl_s, layer, role) / n if n else None

    points_per_command = {
        command: tracer.by_command[(command, "curves.point")] / n
        for (layer, command), n in sorted(tracer.calls.items()) if layer == "cli.main"
    }
    mate_point = incl_per_call("curves.point", "mate")
    return {"mate_point_incl_us": None if mate_point is None else mate_point * 1e6,
            "arclength_build_incl_s": incl_per_call("curves.arclength_build"),
            "point_calls_per_command": points_per_command}


def digits(error: float) -> float:
    """Correct decimal digits of a value whose error is ``error``, at most 16."""
    return -math.log10(max(error, 1e-16))


def end_to_end_metrics(workload, stats: RunStats, setup_s: float) -> dict:
    error = getattr(stats.tally, workload.accuracy)
    kref_s = stats.kref_s
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "job_kref.p50": {"value": statistics.median(stats.jobs) / kref_s, "unit": "kref"},
        "grid_points_per_kref": {"value": stats.samples * kref_s / stats.wall,
                                 "unit": "1/kref"},
        # A run whose checks all failed before reading an error scores 0 digits.
        "ref_digits": {"value": 0.0 if error is None else digits(error), "unit": "digits"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def named_report(stats: RunStats) -> dict:
    """The run's figures under the names NOTES.md uses."""
    jobs, tally = stats.jobs, stats.tally
    report = {"job_s.p50": {"value": statistics.median(jobs), "unit": "s"},
              "grid_points_per_s": {"value": stats.samples / stats.wall, "unit": "1/s"},
              "fail_ratio": {"value": stats.failed / len(jobs), "unit": "ratio"}}
    if stats.kref_s is not None:
        report["kref_s"] = {"value": stats.kref_s, "unit": "s"}
    if len(jobs) >= 100:
        report["job_s.p90"] = {"value": statistics.quantiles(jobs, n=10)[-1], "unit": "s"}
    if tally.oracle_dev is not None:
        report["oracle_digits"] = {"value": digits(tally.oracle_dev), "unit": "digits"}
    if tally.frame_err is not None:
        report["frame_digits"] = {"value": digits(tally.frame_err), "unit": "digits"}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the quatcurves CLI")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    cli = import_cli()
    fixtures = load_fixtures(ROOT)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            stats = measure(workload, fixtures, args.seed, args.seconds, work,
                            Runner(cli.main), traced=Runner(cli.main, tracer))
            tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics = per_layer_metrics(tracer, stats)
            extra = {"anchors": anchors(tracer)}
        else:
            first = next(workload.rounds(random.Random(args.seed), fixtures))[0]
            name, doc = next(iter(first.inputs.items()))
            (work / name).write_text(json.dumps(doc), encoding="utf-8")
            setup_s = setup_seconds(work / name)
            speed = Speedometer()
            with speed.running():
                stats = measure(workload, fixtures, args.seed, args.seconds, work,
                                Runner(cli.main, speed=speed))
            stats.kref_s = speed.kref_s
            metrics = end_to_end_metrics(workload, stats, setup_s)
            extra = {}
    finally:
        shutil.rmtree(work)

    report = named_report(stats)
    if not args.trace:
        report = {**metrics, **report}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": stats.rounds, "job_s": [round(t, 4) for t in stats.jobs],
        "outputs_sha256": stats.digest,
        "known_defect_jobs": stats.known,
        "unexpected_failures": stats.unexpected[:20],
        "nondeterministic_jobs": stats.nondeterministic,
        "report": report, **extra,
    }))
    correct = not stats.unexpected and not stats.nondeterministic
    print(json.dumps({"correct": correct, "attempted": len(stats.jobs),
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
