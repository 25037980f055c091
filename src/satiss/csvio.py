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
   10^16 at exponent k + 1.  D's 17 digits are read from a table of
   4-digit ASCII words, which spells the zeros after D's last nonzero
   digit as NUL;
3. each value's printed bytes are written into a NUL-filled row of 25
   (sign, body, separator), in fixed or exponent form as ``%g`` picks it
   from k, with slice copies for all values of one k at once; the rows go
   back to block order in one scatter, and the NUL bytes are dropped.

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

_ROW = np.dtype((np.void, 25))  # a value's bytes: sign, 23 of body, separator


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


@cache
def _word_table():
    """The 4-digit ASCII words as rows of 4 bytes: row i spells
    ``b"%04d" % i`` and row 10000 + i the same word with its trailing zeros
    NUL.  Built on first use, read-only."""
    places = np.array([10 ** 4, 10 ** 3, 100, 10], np.int16)
    tails = np.arange(10 ** 4, dtype=np.int16)[:, None] % places  # from digit j on
    digits = tails // (places // 10) + 48
    table = np.concatenate([digits, digits * (tails != 0)]).astype(np.uint8)
    table.setflags(write=False)
    return table


def _digits(sig):
    """The 17 digits of each significand as ASCII, one row per value, with
    the zeros after its last nonzero digit NUL."""
    lead = sig // _E16
    rest = sig - lead * _E16
    top = rest // 10 ** 8
    low = rest - top * 10 ** 8
    q1 = top // 10 ** 4
    q2 = top - q1 * 10 ** 4
    q3 = low // 10 ** 4
    q4 = low - q3 * 10 ** 4
    # words "000d" and digits 2-5, ..., 14-17; a word with only zeros after
    # it is spelled with its trailing zeros NUL
    words = np.stack([lead, q1 + 10 ** 4 * ((q2 == 0) & (low == 0)),
                      q2 + 10 ** 4 * (low == 0), q3 + 10 ** 4 * (q4 == 0),
                      q4 + 10 ** 4], axis=1)
    return _word_table().take(words, axis=0).reshape(-1, 20)[:, 3:]


def format_block(block) -> bytes:
    """The bytes of ``"".join(row % tuple(r) for r in block.tolist())`` with
    ``row = ",".join(["%.17g"] * cols) + "\\n"``, for a float64 block of
    shape (rows, cols)."""
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    code, sig = _decimal(x)
    order = np.argsort(code, kind="stable")
    code = code[order]
    digits = _digits(sig[order])
    buf = np.zeros((n, 25), np.uint8)  # the bytes of x[order]; NUL is not printed
    starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    for start, end in zip(starts, np.r_[starts[1:], n]):
        c = int(code[start])
        e = c - _K_OFFSET
        part, dig = buf[start:end], digits[start:end]
        if c == _EXACT:
            for i in range(start, end):
                text = b"%.17g" % abs(x[order[i]])
                buf[i, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
        elif c >= _ZERO:
            text = {_ZERO: b"0", _NAN: b"nan", _INF: b"inf"}[c]
            part[:, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
        elif -4 <= e < 0:
            part[:, 1:2 - e] = 48
            part[:, 2] = 46
            part[:, 2 - e:19 - e] = dig
        elif 0 <= e <= 16:
            # the integer part keeps its zeros; a point only before a digit
            part[:, 1:e + 2] = np.maximum(dig[:, :e + 1], 48)
            if e < 16:
                part[:, e + 2] = (dig[:, e + 1] != 0) * 46
                part[:, e + 3:19] = dig[:, e + 1:]
        else:
            tail = b"e%+03d" % e
            part[:, 1] = dig[:, 0]
            part[:, 2] = (dig[:, 1] != 0) * 46
            part[:, 3:19] = dig[:, 1:]
            part[:, 19:19 + len(tail)] = np.frombuffer(tail, np.uint8)
    out = np.empty(n, _ROW)
    out[order] = buf.view(_ROW).ravel()
    out = out.view(np.uint8).reshape(n, 25)
    out[:, 0] = (np.signbit(x) & ~np.isnan(x)) * 45
    out[:, 24] = np.tile(np.r_[np.full(cols - 1, 44, np.uint8), 10], rows)
    return out.tobytes().translate(None, b"\0")


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
