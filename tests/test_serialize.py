import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhsmooth import serialize
from fhsmooth.cli import main
from fhsmooth.copulas import CopulaSpec, copula_values
from fhsmooth.serialize import csv_text, format_float, json_text, output_file, write_output

EDGE_VALUES = [
    math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1e300, -1e-300, 0.1, 1.0 / 3.0, 1.2345678901234568e17, -2.5,
]


def test_csv_text_writes_each_value_as_format_float():
    rows = np.array(EDGE_VALUES).reshape(-1, 2)
    want = "a,b\n" + "".join(f"{format_float(x)},{format_float(y)}\n" for x, y in rows)
    assert "".join(csv_text("a,b", rows.T)) == want
    for k in (1, 7):
        col = np.array(EDGE_VALUES).reshape(-1, k)
        lines = [",".join(format_float(x) for x in row) for row in col]
        assert "".join(csv_text("h", col.T)) == "\n".join(["h", *lines]) + "\n"


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


def test_json_text_rejects_a_type_it_cannot_spell():
    with pytest.raises(TypeError, match="cannot serialize list"):
        json_text([1])


def test_csv_text_with_no_rows_is_the_header():
    assert "".join(csv_text("u,v", [np.empty(0)] * 2)) == "u,v\n"


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
    return "".join([header, "\n", *(",".join(map(format_float, row)) + "\n" for row in rows.tolist())])


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
    assert "".join(csv_text("h", rows.T)) == per_cell_csv("h", rows)


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
    assert "".join(csv_text("a,b,c", rows.T)) == per_cell_csv("a,b,c", rows)


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
    assert "".join(csv_text("a,b,c", rows.T)) == per_cell_csv("a,b,c", rows)


WIDE = [0.0, math.nan, -2.2250738585072014e-308]  # fields of 1, 3 and 24 characters
SMALL_PIECE = 5  # rows per piece while the property runs, so n crosses several boundaries


@st.composite
def indexed_columns(draw):
    """(values, index) pairs beside direct columns, over a few SMALL_PIECE-row pieces.

    A direct column is distinct integers up to a cut and values of up to 24
    characters after it, so its fields can widen from one piece to the next.
    """
    n, k = draw(st.integers(0, 4 * SMALL_PIECE)), draw(st.integers(1, 3))
    columns = []
    for _ in range(k):
        if draw(st.booleans()):
            pool = draw(st.lists(st.sampled_from(WIDE) | bit_patterns.map(as_floats), min_size=1, max_size=4))
            index = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
            columns.append((np.array(pool, dtype=float), np.array(index, dtype=np.intp)))
        else:
            rows = np.arange(n)
            columns.append(np.where(rows < draw(st.integers(0, n)), rows, -(rows + 1) * 1e-300))
    return columns


@settings(max_examples=50)
@given(indexed_columns())
def test_csv_text_of_indexed_columns_matches_their_expanded_floats(columns):
    expanded = [c[0][c[1]] if isinstance(c, tuple) else c for c in columns]
    want = per_cell_csv("h", np.column_stack(expanded))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_PIECE_ROWS", SMALL_PIECE)
        assert "".join(csv_text("h", columns)) == want
        assert "".join(csv_text("h", expanded)) == want


def test_output_file_gives_stdout_and_file_the_same_bytes(capsys, tmp_path):
    texts = ["a,b\n", "0.5,-0\n" * 3, "{\n}"]  # the last without its final newline
    for out_path in (None, tmp_path / "out.csv"):
        with output_file(out_path) as fh:
            for text in texts:
                write_output(text, fh)
    out = capsys.readouterr().out
    assert out == "".join(texts) + "\n"
    assert (tmp_path / "out.csv").read_bytes() == out.encode()


@pytest.mark.parametrize("target, fail", [("out.csv", "write"), ("taken", "rename")])
def test_write_output_failure_leaves_no_temp_file_and_the_target_untouched(tmp_path, target, fail):
    # a write that fails after the first piece, and a rename onto a directory:
    # the temp file is removed and the error reaches the caller
    path = tmp_path / target
    if fail == "write":
        path.write_text("old\n")
    else:
        path.mkdir()
    with pytest.raises(OSError):
        with output_file(path) as fh:
            write_output("0.5\n" * 2**16, fh)  # more than the file's buffer: bytes reach the temp file
            if fail == "write":
                raise OSError("No space left on device")
    assert not list(tmp_path.glob(".fhsmooth-*"))
    if fail == "write":
        assert path.read_text() == "old\n"
    else:
        assert path.is_dir() and not list(path.iterdir())


def test_grid_out_peaks_below_twice_its_file(tmp_path):
    # written piece by piece as it is built, a 256^2 gauss-1 grid peaks at 1.7x its
    # file; a body joined before it is written peaks at 2.6x to 3.1x
    argv = ["grid", "--copula", "mbar", "--radius", '{"kind":"gaussian_band","d":1.0}', "--out"]
    assert main([*argv, str(tmp_path / "warm.csv"), "--grid-n", "8"]) == 0  # imports outside the trace
    tracemalloc.start()
    try:
        assert main([*argv, str(tmp_path / "out.csv"), "--grid-n", "256"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * (tmp_path / "out.csv").stat().st_size


def traced_peak(call):
    """(result, tracemalloc peak in bytes) of call()."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_text_of_a_lattice_peaks_below_three_times_its_text():
    # the rows of `grid --copula m --grid-n 256`, whose four columns all repeat, joined
    # here by the caller: the pieces and their join peak at 2.0x; whole-body cells,
    # their tuple and a header-prefixed copy peaked at 4.1x
    n = 256
    mids = (np.arange(n) + 0.5) / n
    u, v = np.repeat(mids, n), np.tile(mids, n)
    columns = [u, v, copula_values(CopulaSpec("fh_upper"), u, v), np.zeros(n * n)]
    "".join(csv_text("u,v,value,density", [c[:n] for c in columns]))  # warm up outside the trace
    text, peak = traced_peak(lambda: "".join(csv_text("u,v,value,density", columns)))
    assert peak < 3.0 * len(text)


def test_write_output_to_a_file_peaks_below_three_quarters_of_its_text(tmp_path):
    # 2^17 sampled pairs (5 MiB of text) written piece by piece as csv_text builds
    # them peak at 0.14x; a text held whole before it is written peaks at 1.0x or more
    rng = np.random.default_rng(0)
    columns = [rng.random(2**17), rng.random(2**17)]

    def write(path):
        with output_file(path) as fh:
            for text in csv_text("u,v", columns):
                write_output(text, fh)

    write(tmp_path / "warm.csv")
    _, peak = traced_peak(lambda: write(tmp_path / "out.csv"))
    size = (tmp_path / "out.csv").stat().st_size
    assert size >= 2**22
    assert peak <= 0.75 * size
