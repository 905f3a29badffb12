"""Text output helpers: 17-significant-digit numbers, JSON, CSV, atomic writes."""

from __future__ import annotations

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
_PIECE_ROWS = 4096  # rows per "%" operation; only one piece's cells are ever whole
_WRITE_CHARS = 2**20  # characters per write; the encoder copies one slice at a time


def _column_table(col):
    """(each distinct value's text, index back) for a repeating column, else None.

    A strided subsample decides first: when no value repeats in it (sampled
    pairs), the column is formatted directly, without sorting it whole.
    """
    bits = col.view(np.int64)
    probe = np.sort(bits[:: max(1, bits.size // _PROBE_ROWS)])
    if np.all(probe[1:] != probe[:-1]):
        return None
    distinct, back = np.unique(bits, return_inverse=True)
    if 2 * distinct.size > bits.size:
        return None
    text = ("%.17g\n" * distinct.size) % tuple(distinct.view(np.float64).tolist())
    return np.array(text.split("\n")[:-1], dtype=object), back


def csv_text(header: str, rows) -> str:
    """Columnar float output under a fixed header line; rows is a 2-D array.

    Each value reads as ``format_float`` spells it.  A lattice repeats most
    of its values, so a column with at most half as many distinct values as
    rows is formatted once per distinct value and gathered back; any other
    column goes to the line template as "%.17g" directly.  Values are told
    apart by their bit pattern, not by ==, which would merge -0.0 into 0.0
    (spelled "-0" and "0").  The body is built in pieces of _PIECE_ROWS
    rows, each one "%" over that piece's cells, and the pieces are joined
    once under the header: besides them and the text, no table of cells,
    tuple or copy of the whole body is ever built.
    """
    rows = np.asarray(rows, dtype=float)
    # the column tables die with _body_pieces, before the join holds the pieces and the text
    return "".join([header + "\n", *_body_pieces(rows)])


def _body_pieces(rows):
    """The CSV lines of a 2-D float array, one string per _PIECE_ROWS rows."""
    n, _ = rows.shape
    tables = [_column_table(col) for col in rows.T]
    line = ",".join("%.17g" if t is None else "%s" for t in tables) + "\n"
    pieces = []
    for start in range(0, n, _PIECE_ROWS):
        cells = rows[start : start + _PIECE_ROWS]
        if any(t is not None for t in tables):
            block = np.empty(cells.shape, dtype=object)
            for j, t in enumerate(tables):
                if t is None:
                    block[:, j] = cells[:, j]
                else:
                    texts, back = t
                    block[:, j] = texts[back[start : start + len(cells)]]
            cells = block
        pieces.append((line * len(cells)) % tuple(cells.ravel().tolist()))
    return pieces


def write_output(text: str, out_path=None):
    """Print to stdout, or write atomically (temp file + rename) to a path.

    Both get the same bytes: the text, ending in one newline.  The text goes
    out in slices of _WRITE_CHARS characters, so encoding it never holds a
    second whole copy.
    """
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        _write_slices(sys.stdout, text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fhsmooth-")
    try:
        with os.fdopen(fd, "w") as fh:
            _write_slices(fh, text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_slices(fh, text: str):
    for start in range(0, len(text), _WRITE_CHARS):
        fh.write(text[start : start + _WRITE_CHARS])
