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


def csv_text(header: str, rows) -> str:
    """Columnar float output under a fixed header line; rows is a 2-D array.

    Each value reads as ``format_float`` spells it.  A lattice repeats most
    of its values, so a column with at most half as many distinct values as
    rows is formatted once per distinct value and gathered back; any other
    column goes to the line template as "%.17g" directly.  Values are told
    apart by their bit pattern, not by ==, which would merge -0.0 into 0.0
    (spelled "-0" and "0").  When no column repeats (sampled pairs), the
    rows go to the template as they are, with no table of cells.
    """
    rows = np.asarray(rows, dtype=float)
    n, k = rows.shape
    # per column: (distinct bit patterns, index back), or None to format directly
    found = (np.unique(col.view(np.int64), return_inverse=True) for col in rows.T)
    shared = [f if 2 * f[0].size <= n else None for f in found]
    line = ",".join("%.17g" if s is None else "%s" for s in shared) + "\n"
    cells = rows
    if any(s is not None for s in shared):
        cells = np.empty((n, k), dtype=object)
        for j, s in enumerate(shared):
            if s is None:
                cells[:, j] = rows[:, j]
                continue
            bits, back = s
            text = ("%.17g\n" * bits.size) % tuple(bits.view(np.float64).tolist())
            cells[:, j] = np.array(text.split("\n")[:-1], dtype=object)[back]
    return header + "\n" + (line * n) % tuple(cells.ravel().tolist())


def write_output(text: str, out_path=None):
    """Print to stdout, or write atomically (temp file + rename) to a path.

    Both get the same bytes: the text, ending in one newline.
    """
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fhsmooth-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
