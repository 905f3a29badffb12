import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhsmooth import serialize
from fhsmooth.copulas import CopulaSpec, copula_values
from fhsmooth.serialize import csv_text, format_float, write_output

EDGE_VALUES = [
    math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1e300, -1e-300, 0.1, 1.0 / 3.0, 1.2345678901234568e17, -2.5,
]


def test_csv_text_writes_each_value_as_format_float():
    rows = np.array(EDGE_VALUES).reshape(-1, 2)
    want = "a,b\n" + "".join(f"{format_float(x)},{format_float(y)}\n" for x, y in rows)
    assert csv_text("a,b", rows) == want
    for k in (1, 7):
        col = np.array(EDGE_VALUES).reshape(-1, k)
        lines = [",".join(format_float(x) for x in row) for row in col]
        assert csv_text("h", col) == "\n".join(["h", *lines]) + "\n"


def test_format_float_literals():
    want = [
        "nan", "nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324",
        "1.0000000000000001e+300", "0.10000000000000001", "0.33333333333333331", "-2.5",
    ]
    xs = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, 1.0 / 3.0, -2.5]
    assert [format_float(x) for x in xs] == want


def test_format_float_round_trips():
    bits = np.random.default_rng(8).integers(0, 2**64, 5000, dtype=np.uint64)
    xs = bits.view(np.float64)
    for x in xs[~np.isnan(xs)]:
        assert float(format_float(x)) == x


def test_csv_text_with_no_rows_is_the_header():
    assert csv_text("u,v", np.empty((0, 2))) == "u,v\n"


# bit patterns a column must keep apart: -0.0 beside 0.0, NaNs with other
# payloads, a signalling NaN, +-inf and subnormals
SPECIAL_BITS = [
    0x8000000000000000, 0x0000000000000000, 0x7FF8000000000000, 0x7FF8000000000001,
    0xFFF8000000000000, 0x7FF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
    0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001,
]
bit_patterns = st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1)


def as_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def per_cell_csv(header, rows):
    return "".join([header, "\n", *(",".join(map(format_float, row)) + "\n" for row in rows)])


@st.composite
def csv_rows(draw):
    """n x k rows; each column mixes a few repeated patterns with fresh ones."""
    n, k = draw(st.integers(0, 24)), draw(st.integers(1, 3))
    columns = []
    for _ in range(k):
        pool = draw(st.lists(bit_patterns, min_size=1, max_size=3))
        columns.append(draw(st.lists(st.sampled_from(pool) | bit_patterns, min_size=n, max_size=n)))
    return as_floats(columns).reshape(k, n).T


@given(csv_rows())
def test_csv_text_matches_per_cell_format_float(rows):
    assert csv_text("h", rows) == per_cell_csv("h", rows)


@pytest.mark.parametrize("column", [
    as_floats([0x8000000000000000, 0] * 8),  # -0.0 beside 0.0, both repeated
    as_floats([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001] * 4),
    as_floats([0x7FF0000000000000, 0xFFF0000000000000, 1, 0x000FFFFFFFFFFFFF] * 3),
    np.full(9, 0.1),  # all equal
    np.arange(9) / 7.0,  # all distinct
    np.empty(0),
], ids=["signed-zeros", "nan-payloads", "inf-subnormal", "all-equal", "all-distinct", "empty"])
def test_csv_text_edge_columns(column):
    rows = np.column_stack([column, column[::-1], np.zeros_like(column)])
    assert csv_text("a,b,c", rows) == per_cell_csv("a,b,c", rows)


PIECE = serialize._PIECE_ROWS
SPECIALS = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5])


@pytest.mark.parametrize("n", [PIECE - 1, PIECE, PIECE + 1, 2 * PIECE + 3])
def test_csv_text_pieces_join_at_every_boundary(n):
    # repeating columns, formatted once per value, beside one formatted directly
    shared = SPECIALS[np.arange(n) % SPECIALS.size]
    direct = np.arange(n) / 7.0
    direct[::97] = SPECIALS[np.arange(direct[::97].size) % SPECIALS.size]
    rows = np.column_stack([shared, direct, shared[::-1]])
    assert [serialize._column_table(col) is None for col in rows.T] == [False, True, False]
    assert csv_text("a,b,c", rows) == per_cell_csv("a,b,c", rows)


def test_write_output_slices_give_stdout_and_file_the_same_bytes(capsys, tmp_path):
    size = 2 * serialize._WRITE_CHARS + 3
    text = "\n".join(map(str, range(size // 6)))[: size - 1] + "x"  # no final newline
    assert len(text) == size
    write_output(text)
    out = capsys.readouterr().out
    write_output(text, tmp_path / "out.csv")
    assert out == text + "\n"
    assert (tmp_path / "out.csv").read_bytes() == out.encode()


def _fail_after_one_slice(fh, text):
    fh.write(text[: serialize._WRITE_CHARS])
    raise OSError("No space left on device")


@pytest.mark.parametrize("target, fail", [("out.csv", "write"), ("taken", "rename")])
def test_write_output_failure_leaves_no_temp_file_and_the_target_untouched(monkeypatch, tmp_path, target, fail):
    # a write that fails after its first slice, and a rename onto a directory:
    # the temp file is removed and the error reaches the caller
    path = tmp_path / target
    if fail == "write":
        path.write_text("old\n")
        monkeypatch.setattr(serialize, "_write_slices", _fail_after_one_slice)
    else:
        path.mkdir()
    with pytest.raises(OSError):
        write_output("0.5\n" * serialize._WRITE_CHARS, path)
    assert not list(tmp_path.glob(".fhsmooth-*"))
    if fail == "write":
        assert path.read_text() == "old\n"
    else:
        assert path.is_dir() and not list(path.iterdir())


def traced_peak(call):
    """(result, tracemalloc peak in bytes) of call()."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_text_of_a_lattice_peaks_below_three_times_its_text():
    # the rows of `grid --copula m --grid-n 256`, whose four columns all repeat;
    # whole-body cells, their tuple and a header-prefixed copy peaked at 4.1x
    n = 256
    mids = (np.arange(n) + 0.5) / n
    u, v = np.repeat(mids, n), np.tile(mids, n)
    rows = np.column_stack([u, v, copula_values(CopulaSpec("fh_upper"), u, v), np.zeros(n * n)])
    csv_text("u,v,value,density", rows[:n])  # warm up outside the trace
    text, peak = traced_peak(lambda: csv_text("u,v,value,density", rows))
    assert peak < 3.0 * len(text)


def test_write_output_to_a_file_peaks_below_three_quarters_of_its_text(tmp_path):
    # encoding the text in one write held a second whole copy: a peak of 1.0x
    text = "0.33333333333333331,-0\n" * (2**22 // 23 + 1)
    assert len(text) >= 2**22
    write_output("warm-up", tmp_path / "warm.csv")
    _, peak = traced_peak(lambda: write_output(text, tmp_path / "out.csv"))
    assert peak <= 0.75 * len(text)
