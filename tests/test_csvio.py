"""The block writer's bytes are the bytes of '%.17g', row by row."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from satiss import csvio
from satiss.csvio import format_block, text_value, write_csv


def reference_csv(header, columns):
    """A CSV as formatted one value at a time."""
    block = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    return (",".join(header) + "\n"
            + "".join(row % tuple(r) for r in block.tolist())).encode()


def expected_rows(texts, cols):
    seps = itertools.cycle([","] * (cols - 1) + ["\n"])
    return "".join(itertools.chain.from_iterable(zip(texts, seps))).encode()


def rounds_up(value):
    """Whether %.17g shows |value| as the power of ten just above it."""
    if not math.isfinite(value) or value == 0:
        return False
    shown = Fraction("%.17g" % abs(value))
    digits = str(shown.numerator * shown.denominator)
    return (1 in (shown.numerator, shown.denominator) and digits.rstrip("0") == "1"
            and Fraction(abs(value)) < shown)


def special_values(rng):
    """Values at the edges of every step of the block writer."""
    tens = np.array([float("1e%d" % p) for p in range(-300, 301)])
    below, above = np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)
    # ties: m 2^-k whose exact decimal has 18 significant digits, the last a 5
    ties = [2.0 ** -25, 3 * 2.0 ** -25]
    for k in range(2, 25):
        low, high = -(-10 ** 17 // 5 ** k), min(10 ** 18 // 5 ** k, 2 ** 53)
        for m in rng.integers(low, high, 50).tolist():
            m |= 1
            if 10 ** 17 <= m * 5 ** k < 10 ** 18 and m < 2 ** 53:
                ties.append(m * 2.0 ** -k)
    switch = np.concatenate([s * (1 + np.arange(-64, 65) * 2.0 ** -52)
                             for s in (1e-5, 1e-4, 1e16, 1e17)])
    bits = np.concatenate([
        # NaN payloads and signed infinities; subnormals
        (np.uint64(0x7FF) << np.uint64(52)) | rng.integers(0, 2 ** 52, 1000, np.uint64),
        np.array([0x7FF << 52], np.uint64),
        rng.integers(0, 2 ** 52, 1000, np.uint64)]).view(np.float64)
    values = np.concatenate([
        tens, below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf),
        np.ldexp(1.0, np.arange(-1074, 1024)), np.array(ties), switch, bits,
        [0.0, 2.0 ** -1022, np.nextafter(2.0 ** -1022, 0), 1e-280, 1e280,
         np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf), 5e-324,
         1.7976931348623157e308, 0.1, 0.5, 1.0, 1e-4 * 0.5, 123.0]])
    return np.concatenate([values, -values])


def random_values(rng, count):
    quarter = count // 4
    return np.concatenate([
        rng.integers(0, 2 ** 64, quarter, np.uint64, endpoint=False).view(np.float64),
        rng.standard_normal(quarter) * 10.0 ** rng.uniform(-300, 300, quarter),
        rng.integers(-2 ** 63, 2 ** 63 - 1, quarter).astype(float)
        * 10.0 ** rng.integers(-25, 5, quarter),
        rng.integers(-10 ** 6, 10 ** 6, quarter) / 2.0 ** rng.integers(0, 30, quarter)])


def test_block_bytes_equal_percent_17g_rows():
    # a million values: random bit patterns, normals over 10^+-300, int64
    # values scaled, short binary fractions and the special families; each
    # column count sees a quarter of the random values and all the special
    # ones
    rng = np.random.default_rng(20190603)
    special = special_values(rng)
    assert np.isnan(special).any() and np.isinf(special).any()
    assert (np.abs(special[np.isfinite(special)]) < 2.0 ** -1022).sum() > 1000
    assert sum(map(rounds_up, special.tolist())) >= 10  # carries to 10^17
    randoms = rng.permutation(random_values(rng, 10 ** 6))
    total = 0
    for cols, part in zip((1, 3, 9, 128), np.array_split(randoms, 4)):
        values = np.concatenate([special, part])
        values = values[:values.size // cols * cols]
        total += values.size
        got = b"".join(format_block(chunk) for chunk in np.array_split(
            values.reshape(-1, cols), max(1, values.size // 8192)))
        assert got == expected_rows(["%.17g" % v for v in values.tolist()], cols)
    assert total >= 10 ** 6


def test_format_block_reads_back_bit_for_bit():
    values = np.random.default_rng(7).standard_normal((50, 4)) * 1e-3
    text = format_block(values).decode()
    back = np.array([[float(v) for v in line.split(",")]
                     for line in text.splitlines()])
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


def test_unresolved_exponent_goes_to_percent_17g(monkeypatch):
    # a product that stays below 10^16 after the correction pass leaves the
    # exponent unresolved; such values are formatted by '%.17g' itself
    monkeypatch.setattr(csvio, "_scaled", lambda a, k: (
        np.full(a.shape, csvio._E16 - 1), np.zeros(a.shape)))
    values = np.array([[1.5, -2.25e-7, 3e100], [0.0, math.nan, -math.inf]])
    assert format_block(values) == expected_rows(
        ["%.17g" % v for v in values.ravel().tolist()], 3)


@pytest.mark.parametrize("shape", ["zero_rows", "one_column", "three_columns",
                                   "nan_column", "partial_batch"])
def test_write_csv_edge_shapes(tmp_path, shape):
    rng = np.random.default_rng(3)
    step = csvio._BATCH_VALUES // 9
    if shape == "zero_rows":
        header, columns = ["t", "a", "b"], [np.empty(0), np.empty((0, 2))]
    elif shape == "one_column":
        header, columns = ["t"], [rng.standard_normal(1000)]
    elif shape == "three_columns":
        t = np.arange(2001) * 1e-3
        header, columns = ["t", "a", "b"], [t, np.cos(t), np.exp(-t)]
    elif shape == "nan_column":
        t = np.arange(1500) * 1e-3
        header = ["t", "V", "V1", "V2"]
        columns = [t, t ** 2, np.full(t.size, math.nan), np.full(t.size, math.nan)]
    else:
        rows = 2 * step + 7
        header = ["t"] + ["z%d" % j for j in range(8)]
        columns = [np.arange(rows) * 1e-3, rng.standard_normal((rows, 8))]
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == reference_csv(header, columns)
    if shape == "zero_rows":
        assert path.read_bytes() == b"t,a,b\n"


def test_pow10_table_is_built_once_from_exact_integers():
    table = csvio._pow10_table()
    assert table is csvio._pow10_table() and not table.flags.writeable
    for row, p in zip(table, range(csvio._P_MIN, csvio._P_MAX + 1)):
        hi, hh, hl, lo = row.tolist()
        assert hh + hl == hi
        exact = Fraction(10) ** p
        assert hi == float(exact) and lo == float(exact - Fraction(hi))


def test_word_table_is_built_once_from_the_words_it_spells():
    csvio._word_table.cache_clear()
    assert csvio._word_table.cache_info().currsize == 0
    table = csvio._word_table()
    assert table is csvio._word_table() and not table.flags.writeable
    assert csvio._word_table.cache_info().misses == 1
    assert table.shape == (2 * 10 ** 4, 4) and table.dtype == np.uint8
    for i in range(10 ** 4):
        word = b"%04d" % i
        assert table[i].tobytes() == word
        kept = bytes(c if word[j:].strip(b"0") else 0 for j, c in enumerate(word))
        assert table[10 ** 4 + i].tobytes() == kept


@pytest.mark.parametrize("value, text", [
    *((x, "%.17g" % x) for x in (-0.0, math.nan, -math.inf, 5e-324, 0.1, 1.0)),
    (True, "true"), (False, "false"), (None, "none"), ([], ""),
])
def test_text_value(value, text):
    # the spellings of text artifacts that no golden reaches
    assert text_value(value) == text
