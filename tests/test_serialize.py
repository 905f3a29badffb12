import math

import numpy as np

from fhsmooth.serialize import csv_text, format_float

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
