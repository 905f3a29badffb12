"""Text output helpers: 17-significant-digit numbers, JSON, CSV pieces, atomic writes."""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
import tempfile

import numpy as np


def format_float(x) -> str:
    """17 significant digits: enough to reproduce any double; nan, inf, -inf, -0 as spelled."""
    return "%.17g" % float(x)


def json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (stdlib json can't format)."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return f'"{format_float(obj)}"'  # sentinel, never a bare non-JSON token
        return format_float(obj)
    if isinstance(obj, dict):
        inner = ",\n".join(
            f'{pad}  "{k}": {json_text(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_PROBE_ROWS = 4096  # a column's strided subsample, sorted to see whether it repeats at all
_PIECE_ROWS = 4096  # rows per piece; only one piece's fields and text are ever whole


def _column_table(col):
    """(each distinct value's field, index back) for a repeating column, else None.

    A ``(values, index)`` column is taken as given.  A float column is
    probed first: when no value repeats in a strided subsample (sampled
    pairs), it is formatted directly, without sorting it whole.  Otherwise
    np.unique of its bit patterns (== would merge -0.0 into 0.0, spelled
    "-0" and "0") gives the pair, unless over half its rows are distinct.
    """
    if isinstance(col, tuple):
        values, index = col
    else:
        bits = col.view(np.int64)
        probe = np.sort(bits[:: max(1, bits.size // _PROBE_ROWS)])
        if np.all(probe[1:] != probe[:-1]):
            return None
        distinct, index = np.unique(bits, return_inverse=True)
        if 2 * distinct.size > bits.size:
            return None
        values = distinct.view(np.float64)
    return _fields(values), index


def _fields(values):
    """Each value's "%.17g" text as one NUL-padded field of a fixed-width bytes array."""
    text = ("%.17g\n" * values.size) % tuple(values.tolist())
    return np.array(text.encode().split(b"\n")[:-1], dtype=bytes)


def csv_text(header: str, columns):
    """Columnar float output under a fixed header line, as an iterator of texts.

    Each of ``columns`` is a float array or a ``(values, index)`` pair that
    reads ``values[index]``, as ``grid`` hands over its lattice axes; each
    value reads as ``format_float`` spells it.  Repeating columns become
    fixed-width bytes fields, one per distinct value (see _column_table),
    before the iterator is returned.  It yields the header line, then
    one piece of _PIECE_ROWS rows at a time, built as it is asked for: a
    piece lays its fields side by side, with "," or a newline after each,
    and drops the NUL padding; when no column repeats (sampled pairs), it
    is one "%" over a line template.  The whole text is never held.
    """
    columns = [c if isinstance(c, tuple) else np.asarray(c, dtype=float) for c in columns]
    tables = [_column_table(col) for col in columns]
    return itertools.chain([header + "\n"], _body_pieces(columns, tables))


def _body_pieces(columns, tables):
    """The CSV lines of the columns, one string per _PIECE_ROWS rows."""
    n = len(columns[0] if tables[0] is None else tables[0][1])
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, n, _PIECE_ROWS):
        rows = slice(start, start + _PIECE_ROWS)
        if all(t is None for t in tables):  # for unrepeated pairs the template beats fields
            cells = np.column_stack([col[rows] for col in columns])
            yield (line * len(cells)) % tuple(cells.ravel().tolist())
            continue
        fields = [_fields(c[rows]) if t is None else t[0][t[1][rows]] for c, t in zip(columns, tables)]
        buf = np.full((len(fields[0]), sum(f.itemsize + 1 for f in fields)), ord(","), dtype=np.uint8)
        end = 0
        for f in fields:
            buf[:, end : end + f.itemsize] = f.view(np.uint8).reshape(-1, f.itemsize)
            end += f.itemsize + 1
        buf[:, -1] = ord("\n")
        flat = buf.ravel()
        yield flat[flat != 0].tobytes().decode("ascii")  # text never holds a NUL


@contextlib.contextmanager
def output_file(out_path):
    """stdout, or a temp file that replaces out_path only if the block ends without raising."""
    if out_path is None:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fhsmooth-")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_output(text: str, fh):
    """Write the text to fh, ending in a newline."""
    fh.write(text if text.endswith("\n") else text + "\n")
