"""Deterministic numeric formatting for CSV and JSON outputs.

All floats are rendered with 17 significant digits in lowercase
scientific notation so that identical inputs produce byte-identical
files and diff-based downstream checks stay meaningful.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["fnum", "ftable", "canonical_json"]


def fnum(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return format(x, ".16e")


def ftable(table) -> str:
    """CSV lines of a 2-D table, each value rendered as :func:`fnum` renders it.

    The whole table is formatted in one call; ``"%.16e"`` on a Python float
    gives the same digits as ``format(x, ".16e")``.  A non-finite value
    raises :func:`fnum`'s error for the first one in row-major order.
    """
    table = np.asarray(table, dtype=float)
    finite = np.isfinite(table)
    if not finite.all():
        fnum(table[~finite][0])  # raises
    rows, cols = table.shape
    line = ",".join(["%.16e"] * cols) + "\n"
    return (line * rows) % tuple(table.ravel().tolist())


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(key))}: {_render(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_render(val, indent + 1)}" for val in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fnum(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    return _render(obj, 0) + "\n"
