"""Sweep tables written from their columns: ``model._NUM`` (%.12g) on float
arrays, exactly, and the CSV of a SweepTable.

It is a module of its own so that ``import trichain`` and the numpy-free CLI,
which write lists of rows, do not compile it where no bytecode is cached.
``sweep_rows_to_csv`` imports it when it is given a SweepTable, which only
numpy can have made.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import _NUM
from .spectrum import _SWEEP_CSV_HEADER, SweepTable, sweep_rows_to_csv

#: Bytes of a ``_num_frames`` frame, four 8-byte words: a head of a slot for a
#: comma, the sign and the prefix "0." ... "0.000" or "0"; twelve digits, each
#: after a slot for the point.
_FRAME = 32

#: How near a tie m + 1/2 a scaled value y may lie and still give its own digits.
#: y is its exact value rounded once, so within 2^-14 of it (y < 2^40), and on
#: the same side of the tie, which is a float, or on the tie itself; a tie is
#: the case that needs _NUM, and the margin keeps four times the error clear.
_NEAR_TIE = 2.0**-12


@functools.cache
def _frame_words() -> tuple:
    """The tables ``_num_frames`` builds its words from, each of uint64 words
    whose bytes are in memory order (so only & and | touch them):
    10^k exact for k in 0..15; the count of digits up to the last nonzero one
    of each of 0..9999; their four digits as NUL, d, NUL, d, ...; the masks
    that keep the first n of twelve digits; the point in the slot before
    digit n; the head of each prefix index and sign."""

    def words(rows):
        return np.array(rows, np.uint8).view(np.uint64)

    v = np.arange(10_000)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1)
    shown = np.where(v == 0, 0, 4 - sum((v % 10**k == 0).astype(np.intp) for k in (1, 2, 3)))
    slots = np.zeros((10_000, 8), np.uint8)
    slots[:, 1::2] = digits + ord("0")
    keep = [[0xFF * (k % 2 and k // 2 < n) for k in range(24)] for n in range(13)]
    dot = [[ord(".") * (k == 2 * n and n > 0) for k in range(24)] for n in range(12)]
    heads = [b"", b"0.", b"0.0", b"0.00", b"0.000", b"0"]
    head = [list(b"\0" + sign + prefix.ljust(6, b"\0")) for prefix in heads for sign in (b"\0", b"-")]
    return (np.array([float(10**k) for k in range(16)]), shown, slots.view(np.uint64)[:, 0], words(keep),
            words(dot), words(head)[:, 0])


def _num_frames(x) -> np.ndarray:
    """``_NUM % v`` for every v of the float array ``x``, in order, as the rows
    of a uint8 matrix, each _FRAME bytes padded with NUL bytes anywhere:
    deleting them (``bytes.translate``) gives the text.  Byte 0 is NUL, a
    slot for a comma, and byte 1 holds the sign.

    A finite v in %g's fixed notation, 10^-4 <= |v| < 10^12 once rounded to
    twelve digits, is scaled once by an exact 10^k, k <= 15, to y in
    [10^11, 10^12): a single correctly rounded product, so y is within 2^-14
    of the exact scaled value.  Its twelve digits are y rounded to an
    integer, which is the exact value correctly rounded unless y lies within
    _NEAR_TIE of a tie (after D. M. Gay, "Correctly Rounded Binary-Decimal
    and Decimal-Binary Conversions", 1990).  Zero is written directly.  Every
    other value, the exponent form, a near tie, NaN and +-inf among them, is
    formatted by ``_NUM`` itself.
    """
    pow10, shown4, digits4, keep, dot, head = _frame_words()
    x = np.asarray(x, dtype=float).ravel()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the decimal exponent within the fixed notation's, or one off next to a power of ten
        e = np.fmin(np.fmax(np.floor(np.log10(a)), -4.0), 11.0).astype(np.intp)
        y = a * np.take(pow10, 11 - e)
        off = (y >= 1e12).astype(np.intp) - (y < 1e11)
        if off.any():
            e = np.clip(e + off, -4, 11)
            y = a * np.take(pow10, 11 - e)
        exact = (y >= 1e11) & (y < 1e12) & (abs(y - np.floor(y) - 0.5) > _NEAR_TIE)
    d = np.rint(np.where(exact, y, 1e11)).astype(np.int64)
    top = d == 10**12  # rounded up to the next power of ten
    d[top] = 10**11
    e += top
    exact &= e < 12  # else the exponent form
    g0 = d // 10**8
    g2 = d - g0 * 10**8
    g1 = g2 // 10**4
    g2 -= g1 * 10**4
    zero = x == 0.0
    point = np.clip(e, 0, 11)  # the digit the point follows, where one does
    shown = np.where(g2 != 0, 8 + np.take(shown4, g2), np.where(g1 != 0, 4 + np.take(shown4, g1), np.take(shown4, g0)))
    shown = np.where(zero, 0, np.maximum(shown, point + 1))  # every digit before the point, none after the last
    small = e < 0  # 0.000ddd: the point is in the prefix
    sign = np.signbit(x) & ~np.isnan(x)

    frames = np.empty((len(x), _FRAME // 8), np.uint64)
    frames[:, 0] = np.take(head, 2 * np.where(zero, 5, np.where(small, -e, 0)) + sign)
    frames[:, 1:] = np.take(digits4, np.stack([g0, g1, g2], axis=1)) & np.take(keep, shown, axis=0)
    frames[:, 1:] |= np.take(dot, np.where((shown > point + 1) & ~small, point + 1, 0), axis=0)
    frames = frames.view(np.uint8)
    rest = np.flatnonzero(~exact & ~zero)
    if rest.size:
        text = [_NUM % v for v in abs(x[rest]).tolist()]
        frames[rest, 2:] = np.array(text, dtype=f"S{_FRAME - 2}").view(np.uint8).reshape(-1, _FRAME - 2)
    return frames


#: Rows ``table_csv`` formats at once, so that its byte frames stay small.
_CSV_CHUNK = 2048


def table_csv(table: SweepTable) -> str:
    """``sweep_rows_to_csv`` of a table, from its columns.  Where w1..w3 are
    bitwise 0.0 - w6..w4, as the kernel makes them, only param, w6..w4 and
    delta are formatted.  A line is param's frame, the frames of w6..w4 under
    their mirrors' signs, those of w4..w6, delta's, each but param's with a
    comma in its head, and a word for the flag and the newline; the NUL bytes
    are then deleted.  Any other table is written row by row."""
    param, *freqs, delta_err, degenerate = table._columns
    if not all(np.array_equal(freqs[k].view(np.int64), (0.0 - freqs[5 - k]).view(np.int64)) for k in range(3)):
        return sweep_rows_to_csv(list(table))
    own = [param, *freqs[:2:-1], np.where(degenerate, 0.0, delta_err)]
    w = _FRAME // 8
    sign, minus, comma, true, false = (np.frombuffer(b.ljust(8, b"\0"), np.uint64)[0]
                                       for b in (b"\0\xff", b"\0-", b",", b",true\n", b",false\n"))
    out = [_SWEEP_CSV_HEADER.encode() + b"\n"]
    for start in range(0, len(param), _CSV_CHUNK):
        values = np.stack([c[start:start + _CSV_CHUNK] for c in own], axis=1)
        frames = _num_frames(values).view(np.uint64).reshape(len(values), len(own), w)
        frames[:, 1:, 0] |= comma
        lines = np.empty((len(values), 8 * w + 1), np.uint64)
        cells = lines[:, :-1].reshape(len(values), 8, w)
        cells[:, :4], cells[:, 4:7], cells[:, 7] = frames[:, :4], frames[:, 3:0:-1], frames[:, 4]
        cells[:, 1:4, 0] = cells[:, 1:4, 0] & ~sign | (values[:, 1:4] > 0.0) * minus
        flags = degenerate[start:start + _CSV_CHUNK]
        cells[flags, 7] = np.array([comma] + [0] * (w - 1), np.uint64)
        lines[:, -1] = np.where(flags, true, false)
        out.append(lines.tobytes().translate(None, b"\0"))
    return b"".join(out).decode("ascii")
