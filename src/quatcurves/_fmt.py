"""Deterministic numeric formatting for CSV and JSON outputs.

All floats are rendered with 17 significant digits in lowercase
scientific notation so that identical inputs produce byte-identical
files and diff-based downstream checks stay meaningful.
"""

from __future__ import annotations

import functools
import json
import math
from types import SimpleNamespace
from typing import Iterator

import numpy as np

__all__ = ["fnum", "ftable", "ftable_blocks", "canonical_json"]


def fnum(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return format(x, ".16e")


# -- ftable's kernel ---------------------------------------------------------------
#
# A finite x != 0 with decimal exponent e = floor(log10 |x|) is rendered by
# format(x, ".16e") as the digits of M = round_half_even(|x| * 10**(16 - e)),
# an integer in [1e16, 1e17]; M = 1e17 is written as 1e16 with exponent e + 1.
# The kernel finds e exactly, computes M from two exact 26-bit partial
# products and one rounded remainder, and hands every cell within 2**-18 of
# a tie, or whose M it cannot decide exactly otherwise, to fnum.

BLOCK = 8192  # cells per block, rounded down to whole rows: bounds the temporaries
E_MIN, E_MAX = -99, 99  # exponents written with two digits
# Tables are indexed by j = e + _J, for e in [E_MIN - 1, E_MAX + 1].
_J = 1 - E_MIN
# |y - (ph + pl)| < 1.2e-6 for every cell the kernel renders (see _scaled);
# a fraction that far from a tie rounds the same way as the exact product.
TIE_MARGIN = 2.0**-18
_CUT = np.int64(-1 << 27)  # clears a double's low 27 bits, keeping 26 significant bits
_ABS = np.int64(0x7FFF_FFFF_FFFF_FFFF)
_ONE_BITS = np.float64(1.0).view(np.int64)
_WORD = np.dtype("<u4")  # four output bytes, first byte lowest on every platform
SLOT = 6  # words per cell


def _pow10_dd(k: int) -> tuple[float, float]:
    """``hi + lo`` with ``hi`` = 10**k rounded and ``lo`` its remainder rounded,
    both computed from exact integers; ``lo`` has the sign of the remainder."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    hi = 1 / 10**-k
    p, q = hi.as_integer_ratio()
    return hi, (q - p * 10**-k) / (q * 10**-k)


def _cut(x):
    """The normal doubles ``x`` cut toward zero to their top 26 significant bits."""
    return (x.view(np.int64) & _CUT).view(np.float64)


def _words(texts) -> np.ndarray:
    """Each text of four characters as one ``_WORD``."""
    return np.frombuffer("".join(texts).encode("ascii"), _WORD).copy()


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's lookup tables, built on the first call to :func:`ftable_blocks`.

    By j: ``ceil``, the smallest double >= 10**e; ``hi``, 10**(16 - e) cut to
    26 significant bits, and ``lo``, the rest of 10**(16 - e) rounded;
    ``exponent``, the word [sign, tens, ones, NUL] of e.  ``head``: by
    n < 100, plus 100 if negative, ["-" or NUL, n // 10, ".", n % 10].
    ``quad``: by n < 10**4, its four digits.  ``tail``: by n < 1000, its
    three digits and "e".
    """
    exponents = range(E_MIN - 1, E_MAX + 2)
    full, low = np.array([_pow10_dd(16 - e) for e in exponents]).T
    hi = _cut(full)
    near, rest = np.array([_pow10_dd(e) for e in exponents]).T
    pairs = _words(f"{n:02d}\0\0" for n in range(100))
    quad = (pairs[:, None] | pairs << 16).ravel()
    return SimpleNamespace(
        ceil=np.where(rest > 0, np.nextafter(near, np.inf), near),
        hi=hi, lo=(full - hi) + low,
        exponent=_words(f"{e:+03d}"[-3:] + "\0" for e in exponents),
        head=_words(f"{sign}{n // 10}.{n % 10}" for sign in "\0-" for n in range(100)),
        quad=quad,
        tail=quad[:1000] >> 8 | ord("e") << 24,
    )


def _scaled(a, j, t):
    """``ph + pl`` approximating ``y = a * 10**(16 - e)``, ``a`` in [1e-99, 1e100).

    ``ah`` is ``a`` cut as ``hi`` is, so ``ph = ah * hi`` (26 by 26 bits) and
    ``(a - ah) * hi`` (27 by 26) are exact.  Each cut loses under 2**-25 of
    its value and y lies in [1e16, 1e17), so ``ph`` > 2**53 is an integer and
    ``|pl| < 2**33``.  The error of ``ph + pl`` is at most 2**-22 from rounding
    ``a * lo``, 2**-21 from rounding the sum, 2**-78 * y from rounding ``lo``
    and 2**-105 * y from the remainder it rounds: below 1.2e-6, under a third
    of ``TIE_MARGIN``.  Every intermediate is 0 or of magnitude between 1e-130
    and 1e125, so nothing under- or overflows.
    """
    hi, ah = t.hi[j], _cut(a)
    return ah * hi, (a - ah) * hi + a * t.lo[j]


def _render_block(x, sep, t) -> bytes:
    """The CSV bytes of the cells ``x``, each followed by its byte of ``sep``.

    The kernel writes each cell as ``SLOT`` words: sign, lead digit, ".", 16
    digits, "e", the exponent's sign and two digits, and the separator.  A
    "+" sign is written as NUL and dropped at the end.  A cell goes to
    :func:`fnum` instead when its exponent needs three digits, it is
    subnormal or not finite, or ``pl`` rounds within ``TIE_MARGIN`` of a
    half, where the exact product may be a tie.
    """
    bits = x.view(np.int64)
    mag = bits & _ABS  # the bits of |x|; ordered as |x| is
    zero = mag == 0
    low, high = t.ceil[[E_MIN + _J, E_MAX + 1 + _J]].view(np.int64)
    fast = (mag >= low) & (mag < high)  # 10**E_MIN <= |x| < 10**(E_MAX + 1)
    # Zeros and cells off the fast path are computed as 1.0, so no operation
    # below raises; a zero then has the exponent 0 it is written with.
    a = np.where(fast, mag, _ONE_BITS).view(np.float64)
    fast |= zero

    # log10's error is far below 2**-30, so the estimate is j or j + 1.
    j = (np.log10(a) + (_J + 2.0**-30)).astype(np.intp)
    j -= a < t.ceil[j]
    ph, pl = _scaled(a, j, t)
    r = np.rint(pl)
    fast &= np.abs(pl - r) < 0.5 - TIE_MARGIN  # pl - r is exact
    m = ph.astype(np.int64) + r.astype(np.int64)
    # No double below 1e100 rounds up to it, so the exponent stays in two digits.
    carry = m == 10**17
    m[carry] = 10**16
    j += carry
    m[zero] = 0

    out = np.empty((x.size, SLOT), _WORD)
    rest = m // 1000
    out[:, 4] = t.tail[m - rest * 1000]
    for col in (3, 2, 1):
        four, rest = rest, rest // 10**4
        out[:, col] = t.quad[four - rest * 10**4]
    out[:, 0] = t.head[rest + (bits < 0) * 100]
    out[:, 5] = t.exponent[j] | sep[:x.size]
    text, width = out.tobytes(), 4 * SLOT
    pieces, done = [], 0
    for i in np.flatnonzero(~fast):
        # fnum's text in place of the cell's slot, then the slot's separator.
        start, end = width * i, width * (i + 1)
        pieces += [text[done:start], fnum(x[i]).encode("ascii"), text[end - 1:end]]
        done = end
    return b"".join(pieces + [text[done:]]).replace(b"\0", b"")


def ftable_blocks(table) -> Iterator[bytes]:
    """The CSV bytes of a 2-D table, one block of ``max(1, BLOCK // cols)`` rows
    at a time, each value rendered as :func:`fnum` renders it.

    A NumPy kernel writes the bytes of ``format(x, ".16e")``; see
    ``_render_block`` for which cells it leaves to :func:`fnum` and
    ``_scaled`` for why the digits of the others are exact.  The whole
    table is checked on the call, before any block is rendered: a
    non-finite value raises :func:`fnum`'s error for the first one in
    row-major order.
    """
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    finite = np.isfinite(table)
    if not finite.all():
        fnum(table.flat[np.flatnonzero(~finite)[0]])  # raises
    t = _tables()
    step = max(1, BLOCK // cols)
    sep = np.tile(np.array([ord(",")] * (cols - 1) + [ord("\n")], _WORD) << 24, step)
    return (_render_block(table[r:r + step].ravel(), sep, t) for r in range(0, rows, step))


def ftable(table) -> str:
    """CSV lines of a 2-D table: the blocks of :func:`ftable_blocks` as one ``str``."""
    return b"".join(ftable_blocks(table)).decode("ascii")


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
