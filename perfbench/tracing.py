"""Per-layer tracing of the quatcurves modules from outside ``src/``.

The tracer replaces each traced function *where it is looked up* (a module
global such as ``frames.mul``, or a class attribute such as
``ParametricCurve.point``) with a wrapper that times the call and charges
it to a layer.  Self time is a call's duration minus the time of the
traced calls nested in it.  Nothing under ``src/`` is edited, and the
originals are put back when the ``installed()`` block ends.

Per-point layers (``point``, ``derivative``, ``mul`` ...) make about 10^5
calls per verify, so they are kept as per-layer aggregates (calls, self
time, inclusive time).  Coarse layers (commands, the ``bertrand`` stages,
``curvature_profile``, the arc-length table build, CSV/JSON writes) are
also kept as individual spans with their parent span, in memory, and are
written out once the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from quatcurves import _fmt, bertrand, cli, curves, frames, quaternion
from quatcurves.curves import ArcLengthTable, ParametricCurve
from quatcurves.quaternion import Quaternion

_perf = time.perf_counter

# Layers kept as individual spans; every other layer is aggregated only.
SPAN_LAYERS = {
    "cli.main",
    "cli.write",
    "bertrand.verify_mate",
    "bertrand.fit_constants",
    "bertrand.check_conditions",
    "frames.curvature_profile",
    "curves.arclength_build",
}


def curve_role(curve) -> str:
    """Role of a curve from its name suffix, as the library composes names."""
    name = curve.name or ""
    if name.endswith("[arclength]"):
        return "arclength"
    if name.endswith("[mate]"):
        return "mate"
    return "base"


def _role_point(curve, *_a, **_k):
    return curve_role(curve)


def _role_derivative(curve, *_a, **_k):
    return "analytic" if curve.has_analytic_derivatives else "fd"


def _role_frame4(curve, *_a, **_k):
    return "oracle" if (curve.name or "").endswith("[mate][arclength]") else "base"


def _no_role(*_a, **_k):
    return ""


class Tracer:
    """Span stack, per-layer aggregates and the recorded coarse spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.spans = []
        self.unconverged = 0
        self.length_at_in_invert = 0
        # Last (u, length) computed by each active ArcLengthTable.invert call.
        self._inverts = []
        # Calls per (command, layer); ``command`` is set by the caller.
        self.by_command = defaultdict(int)
        self.command = None
        self.job = None
        self._suspended = False
        # Each frame: [child seconds, layer, id of the nearest recorded span].
        self._stack = [[0.0, None, None]]

    # -- span bookkeeping ------------------------------------------------------

    def call(self, layer, role, fn, *args, **kwargs):
        if self._suspended:
            return fn(*args, **kwargs)
        parent = self._stack[-1]
        record = layer in SPAN_LAYERS
        span_id = len(self.spans) if record else parent[2]
        if record:
            self.spans.append(None)
        frame = [0.0, layer, span_id]
        self._stack.append(frame)
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _perf()
            dt = t1 - t0
            self._stack.pop()
            self._stack[-1][0] += dt
            key = (layer, role)
            self.calls[key] += 1
            self.by_command[(self.command, layer)] += 1
            self.self_s[key] += dt - frame[0]
            self.incl_s[key] += dt
            if record:
                self.spans[span_id] = (span_id, parent[2], self.job, layer, role, t0, t1)

    @contextlib.contextmanager
    def uncounted(self):
        """Run work that no layer is charged for, excluded from parent self time."""
        t0 = _perf()
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False
            self._stack[-1][0] += _perf() - t0

    # -- patching ----------------------------------------------------------------

    def _wrap(self, layer, role_fn, fn):
        def traced(*args, **kwargs):
            return self.call(layer, role_fn(*args, **kwargs), fn, *args, **kwargs)

        return traced

    def _wrap_newton(self, invert, length_at):
        """Wrap ``invert`` and ``length_at``, counting inversions that missed.

        An inversion converged when |length_at(u) - target| is within
        ``invert``'s own tolerance at the returned ``u``.  When Newton's last
        ``length_at`` call was made at that ``u`` its value is reused;
        otherwise the residual is recomputed with no layer charged.
        """
        def traced_length_at(table, u):
            value = self.call("curves.length_at", "", length_at, table, u)
            if not self._suspended and self._stack[-1][1] == "curves.invert":
                self.length_at_in_invert += 1
                self._inverts[-1] = (u, value)
            return value

        def traced_invert(table, target):
            if self._suspended:
                return invert(table, target)
            self._inverts.append(None)
            try:
                u = self.call("curves.invert", "", invert, table, target)
            finally:
                last = self._inverts.pop()
            goal = min(max(target, 0.0), table.total)
            if last is not None and last[0] == u:
                value = last[1]
            else:
                with self.uncounted():
                    value = length_at(table, u)
            if abs(value - goal) > 1e-13 * max(1.0, table.total):
                self.unconverged += 1
            return u

        return traced_invert, traced_length_at

    def _patches(self):
        """(owner, attribute, replacement) for every traced lookup site."""
        mul = quaternion.mul
        frame4_intrinsic = frames.frame4_intrinsic
        curvature_profile = frames.curvature_profile
        check_conditions = bertrand.check_conditions
        fnum = _fmt.fnum
        length_at = ArcLengthTable.length_at
        w = self._wrap
        w_mul = w("quaternion.mul", _no_role, mul)
        w_f4i = w("frames.frame4_intrinsic", _role_frame4, frame4_intrinsic)
        w_prof = w("frames.curvature_profile", _no_role, curvature_profile)
        w_check = w("bertrand.check_conditions", _no_role, check_conditions)
        w_fnum = w("_fmt.fnum", _no_role, fnum)
        w_from_vec4 = w("quaternion.from_vec4", _no_role, Quaternion.from_vec4.__func__)
        w_build = w("curves.arclength_build", _no_role, ArcLengthTable.build.__func__)
        w_invert, w_length_at = self._wrap_newton(ArcLengthTable.invert, length_at)
        return [
            (quaternion, "mul", w_mul),
            (frames, "mul", w_mul),
            (Quaternion, "from_vec4", classmethod(w_from_vec4)),
            (ParametricCurve, "point", w("curves.point", _role_point, ParametricCurve.point)),
            (curves, "derivative", w("curves.derivative", _role_derivative, curves.derivative)),
            (ArcLengthTable, "build", classmethod(w_build)),
            (ArcLengthTable, "invert", w_invert),
            (ArcLengthTable, "length_at", w_length_at),
            (frames, "frame3_at", w("frames.frame3_at", _no_role, frames.frame3_at)),
            (frames, "frame4_intrinsic", w_f4i),
            (bertrand, "frame4_intrinsic", w_f4i),
            (frames, "frame4_from_pair",
             w("frames.frame4_from_pair", _no_role, frames.frame4_from_pair)),
            (frames, "curvature_profile", w_prof),
            (bertrand, "curvature_profile", w_prof),
            (cli, "curvature_profile", w_prof),
            (cli, "verify_mate", w("bertrand.verify_mate", _no_role, cli.verify_mate)),
            (cli, "fit_constants", w("bertrand.fit_constants", _no_role, cli.fit_constants)),
            (cli, "check_conditions", w_check),
            (bertrand, "check_conditions", w_check),
            (_fmt, "fnum", w_fnum),
            (cli, "fnum", w_fnum),
            (cli, "_write", w("cli.write", _no_role, cli._write)),
        ]

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, new in patches:
                setattr(owner, name, new)
            yield self
        finally:
            for owner, name, old in reversed(saved):
                setattr(owner, name, old)

    # -- output ---------------------------------------------------------------------

    def write(self, path):
        """Write the recorded spans and the per-layer aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, layer, role, t0, t1 in self.spans:
                fh.write(json.dumps({"span": sid, "parent": parent, "job": job, "layer": layer,
                                     "role": role, "start": t0, "end": t1}) + "\n")
            for (layer, role), n in sorted(self.calls.items()):
                fh.write(json.dumps({"layer": layer, "role": role, "calls": n,
                                     "self_s": self.self_s[(layer, role)],
                                     "incl_s": self.incl_s[(layer, role)]}) + "\n")
