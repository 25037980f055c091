"""Artifacts: every value as ``%.17g``, CSVs formatted a block at a time.

``text_value`` spells a value of a ``key=value`` text artifact.
``%.17g`` gives the 17 significant digits that read back bit for bit.
Python formats them one float at a time, near 1 us each: 0.8 s for the
1.15 M values of the ``figure1`` state history on a 2-core Xeon.
``csv_writer`` writes a file's header and yields a writer that appends
rows a batch at a time, so a long run streams its states out while it
integrates; ``write_csv`` writes whole columns through it.
``format_block`` computes the same bytes for a whole block in integer and
double-double arithmetic, after Ryu printf (Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019), with a Dekker product against a
hi + lo table of 10^p in place of its 128-bit multiply:

1. the decimal exponent k is floor(log10 |x|), moved by one where the
   product shows that the guess was off;
2. the significand D = round(|x| 10^(16 - k)), 10^16 <= D < 10^17, is the
   product's integer part plus its rounded remainder; a carry to 10^17 is
   10^16 at exponent k + 1.  D's base-100 digit pairs give its 17 digits,
   and its trailing zeros give the number that is printed;
3. the layout, fixed or exponent form as ``%g`` picks it from k, is laid
   out for all values of one k at once with slice copies; then each value
   is cut to its length.

The product is within 1e-13 of the exact value, in units of the last
digit.  What it cannot
settle goes to ``'%.17g'`` itself, one value at a time: magnitudes outside
[1e-280, 1e280] (subnormals among them), remainders within 1e-9 of a half
(exact ties among them) and exponents still off after the correction.
nan, inf and zero have fixed layouts.
"""
from __future__ import annotations

from contextlib import contextmanager
from functools import cache

import numpy as np

#: Values formatted per batch.  A state stream formats one batch between
#: integration steps, and glibc gives a large batch's temporaries back to
#: the OS at each free (it trims the top of its heap) and faults them in
#: again.  The ``figure1`` states in calls of 64 rows (9001 x 128 values)
#: took 73k minor page faults and 0.37 s at 8192 values per batch, about
#: 2 MB per batch; at 4096 they took 141 faults and 0.26 s (2-core Xeon).
_BATCH_VALUES = 4096

_E16, _E17 = 10 ** 16, 10 ** 17
_TINY, _HUGE = 1e-280, 1e280  # the magnitudes the product handles
_P_MIN, _P_MAX = -265, 297  # 10^p for p = 16 - k, k = floor(log10 |x|) +- 1
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter

# layout codes: k + _K_OFFSET for a value of decimal exponent k, then zero,
# nan, inf and the values formatted by '%.17g' itself
_K_OFFSET = 400
_ZERO, _NAN, _INF, _EXACT = 1000, 1001, 1002, 1003

_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]  # digit j is the (j + 1)-th
_ROW = np.dtype((np.void, 25))  # a value's bytes: sign, 23 of body, separator
# the bytes of a row that are kept, per (negative, body length, exponent
# length 0, 4 or 5); a row's exponent sits in bytes 19..23
_KEEP = np.zeros((2, 24, 3, 25), bool)
_KEEP[1, :, :, 0] = True
_KEEP[:, :, :, 1:24] = np.arange(23) < np.arange(24)[:, None, None]
_KEEP[:, :, 1, 19:23] = _KEEP[:, :, 2, 19:24] = _KEEP[:, :, :, 24] = True
_KEEP = _KEEP.reshape(-1, 25).view(_ROW).ravel()


@cache
def _pow10_table():
    """Rows (hi, hi's Veltkamp halves, lo) of 10^p for p in [_P_MIN, _P_MAX]:
    hi is 10^p rounded to a double and lo the rounded rest, both from
    exact integers.  Built on first use, read-only."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den  # int / int rounds correctly
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    s = hi * _SPLIT
    hh = s - (s - hi)
    table = np.stack([hi, hh, hi - hh, lo], axis=1)
    table.setflags(write=False)
    return table


def _scaled(a, k):
    """a 10^(16 - k) as its floor (int64) and the remainder in [0, 1)."""
    hi, hh, hl, lo = _pow10_table().take(16 - k - _P_MIN, axis=0).T
    s = a * _SPLIT
    ah = s - (s - a)
    al = a - ah
    prod = a * hi
    rest = ((ah * hh - prod) + ah * hl + al * hh) + al * hl + a * lo
    whole = np.floor(rest)
    return prod.astype(np.int64) + whole.astype(np.int64), rest - whole


def _decimal(x):
    """Layout code and significand D of each value of a flat float64 array:
    k + _K_OFFSET with |x| = D 10^(k - 16) to 17 digits, or one of the fixed
    codes with D = 10^16."""
    a = np.abs(x)
    regular = (a >= _TINY) & (a <= _HUGE)
    a[~regular] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    low, frac = _scaled(a, k)
    off = (low < _E16) | (low >= _E17)
    if off.any():
        j = np.flatnonzero(off)
        k[j] += np.where(low[j] < _E16, -1, 1)
        low[j], frac[j] = _scaled(a[j], k[j])
    sig = low + (frac > 0.5)
    carry = sig == _E17
    sig[carry] = _E16
    k += carry
    code = (k + _K_OFFSET).astype(np.int16)
    exact = ~regular | (low < _E16) | (low >= _E17) | (np.abs(frac - 0.5) < 1e-9)
    if exact.any():
        sig[exact] = _E16
        code[exact] = _EXACT
        code[x == 0] = _ZERO
        code[np.isinf(x)] = _INF
        code[np.isnan(x)] = _NAN
    return code, sig


def _digits(sig):
    """The 17 digits of each significand as ASCII, one column per value, and
    the number of them up to the last nonzero one."""
    n = sig.size
    top = sig // 10 ** 8
    lead = top // 10 ** 8
    quads = np.empty((4, n), np.uint16)  # digits 1-4, 5-8, 9-12, 13-16
    for i, eight in enumerate((top - lead * 10 ** 8, sig - top * 10 ** 8)):
        high = eight // 10 ** 4
        quads[2 * i] = high
        quads[2 * i + 1] = eight - high * 10 ** 4
    digits = np.empty((17, n), np.uint8)
    digits[0] = lead + 48
    pairs = quads // 100
    quads -= pairs * 100
    for j, pair in ((1, pairs), (3, quads)):
        tens = pair // 10
        digits[j::4] = tens + 48
        digits[j + 1::4] = pair - tens * 10 + 48
    return digits, ((digits != 48) * _PLACES).max(axis=0).astype(np.intp)


def _layout(x, order, codes, digits, length):
    """The bytes of the values x[order] of layout codes ``codes``, one column
    of 25 per value (byte 0 the sign, 1..23 the body, 24 left for the
    separator), and the row of _KEEP that each would take with a + sign."""
    n = x.size
    buf = np.empty((25, n), np.uint8)
    buf[0] = 45
    shape = np.empty(n, np.intp)
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    for start, end in zip(starts, np.r_[starts[1:], n]):
        c = int(codes[start])
        e = c - _K_OFFSET
        out, dig, size = buf[:, start:end], digits[:, start:end], length[start:end]
        if c == _EXACT:
            for i in range(start, end):
                text = b"%.17g" % abs(x[order[i]])
                buf[1:1 + len(text), i] = np.frombuffer(text, np.uint8)
                shape[i] = 3 * len(text)
        elif c >= _ZERO:
            text = {_ZERO: b"0", _NAN: b"nan", _INF: b"inf"}[c]
            out[1:1 + len(text)] = np.frombuffer(text, np.uint8)[:, None]
            shape[start:end] = 3 * len(text)
        elif -4 <= e < 0:
            out[1:2 - e] = 48
            out[2] = 46
            out[2 - e:19 - e] = dig
            shape[start:end] = 3 * (size + 1 - e)
        elif 0 <= e <= 16:
            out[1:e + 2] = dig[:e + 1]
            out[e + 2] = 46
            out[e + 3:19] = dig[e + 1:]
            shape[start:end] = 3 * np.where(size > e + 1, size + 1, e + 1)
        else:
            tail = b"e%+03d" % e
            out[1] = dig[0]
            out[2] = 46
            out[3:19] = dig[1:]
            out[19:19 + len(tail)] = np.frombuffer(tail, np.uint8)[:, None]
            shape[start:end] = 3 * (size + (size > 1)) + len(tail) - 3
    return buf, shape


def format_block(block) -> bytes:
    """The bytes of ``"".join(row % tuple(r) for r in block.tolist())`` with
    ``row = ",".join(["%.17g"] * cols) + "\\n"``, for a float64 block of
    shape (rows, cols)."""
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    code, sig = _decimal(x)
    order = np.argsort(code, kind="stable")
    buf, shape = _layout(x, order, code[order], *_digits(sig[order]))
    out = np.empty(n, _ROW)
    out[order] = np.ascontiguousarray(buf.T).view(_ROW).ravel()
    out = out.view(np.uint8).reshape(n, 25)
    out[:, 24] = np.tile(np.r_[np.full(cols - 1, 44, np.uint8), 10], rows)
    keep = np.empty(n, np.intp)
    keep[order] = shape
    keep += (np.signbit(x) & ~np.isnan(x)) * 72
    return out[_KEEP.take(keep).view(bool).reshape(n, 25)].tobytes()


@contextmanager
def csv_writer(path, header):
    """Open ``path``, write the header line and yield ``write(*columns)``,
    which appends equal-length columns (1-D, or 2-D for several) as rows.

    Every value is written as ``%.17g``, which reads back bit for bit: each
    line holds the bytes of ``",".join(["%.17g"] * len(header)) % row``.
    ``format_block`` makes them from batches of whole rows, about
    ``_BATCH_VALUES`` values each, whatever the number of columns; the
    bytes do not depend on how the rows are split between calls.
    """
    step = max(1, _BATCH_VALUES // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())

        def write(*columns):
            for start in range(0, len(columns[0]), step):
                fh.write(format_block(np.column_stack(
                    [c[start:start + step] for c in columns])))
        yield write


def text_value(value) -> str:
    """A value as text artifacts spell it: a float as ``'%.17g'``, a bool as
    true or false, None as none and a list as its entries joined by commas."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, list):
        return ",".join(map(text_value, value))
    return "none" if value is None else str(value)


def kv_text(pairs, sep="=") -> str:
    """One ``key=value`` line per (key, value) pair, in order."""
    return "".join("%s%s%s\n" % (key, sep, text_value(value)) for key, value in pairs)


def write_csv(path, header, columns):
    """Write equal-length columns under a header, as ``csv_writer`` does."""
    with csv_writer(path, header) as write:
        write(*columns)
