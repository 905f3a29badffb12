"""Print sha256 digests of the CLI's output for the benchmark's seven models.

A refactor or a speed change that claims to keep every output bit can be
checked by running this on both sides and comparing the totals.  It runs
``fhsmooth.cli.main`` in-process from this checkout's src/, for each model
of ``perfbench/workloads.model_catalogue``, passed as its ``model_to_json``:

* ``grid --grid-n 256``, ``check --grid-n 512``, ``validate --grid-n 256``;
* ``grid --grid-n 300`` for ``gauss-1`` and ``product-lower``: a lattice
  whose 4096-row CSV pieces end mid-row;
* ``sample --n 2000`` at a fixed seed;
* ``eval`` and ``density`` at fixed points, and ``band`` at fixed w for the
  ``mbar`` models, a band clipped to the diamond and its two corners among them;

and ``grid``, ``check`` and ``eval`` for the sharp bounds ``w`` and ``m``.
Each line is one (model, command): a digest over the exit code, stdout and
stderr of its calls.  The last line digests those lines.  It needs nothing
beyond fhsmooth's own dependencies; it takes a few seconds and is not part
of the suite.

    python tools/output_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fhsmooth import cli  # noqa: E402
from fhsmooth.radius import model_to_json  # noqa: E402
from workloads import model_catalogue  # noqa: E402

_NAMES = {family: name for name, family in cli._COPULAS.items()}
MODELS = {
    key: (_NAMES[spec.family], json.dumps(model_to_json(spec.model)))
    for key, spec in model_catalogue().items()
}
POINTS = [("0.5", "0.5"), ("0.3", "0.35"), ("0.7", "0.62"), ("0.1", "0.9"), ("0", "0.4")]
BAND_WS = ["0", "0.3", "-0.5", "0.6", "0.7071067811865476", "-0.7071067811865476"]  # also clipped, and both corners
SEED = "2024"
MID_ROW = {"gauss-1", "product-lower"}  # also exported at 300, where CSV pieces end mid-row


def _calls(name, copula, radius):
    """(command, argv) for every call made on one copula."""
    model = ["--copula", copula] + (["--radius", radius] if radius else [])
    calls = [("grid", ["grid", *model, "--grid-n", "256"]), ("check", ["check", *model, "--grid-n", "512"])]
    if name in MID_ROW:
        calls.append(("grid-300", ["grid", *model, "--grid-n", "300"]))
    calls += [("eval", ["eval", *model, "--u", u, "--v", v]) for u, v in POINTS]
    if radius:
        calls.append(("validate", ["validate", *model, "--grid-n", "256"]))
        calls.append(("sample", ["sample", *model, "--n", "2000", "--seed", SEED]))
        calls += [("density", ["density", *model, "--u", u, "--v", v]) for u, v in POINTS]
    if copula == "mbar":
        calls += [("band", ["band", *model, "--w", w]) for w in BAND_WS]
    return calls


def _run(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


def main() -> int:
    copulas = {"w": ("w", None), "m": ("m", None), **MODELS}
    lines = []
    for name, (copula, radius) in copulas.items():
        digests = {}
        for command, argv in _calls(name, copula, radius):
            digests.setdefault(command, hashlib.sha256()).update(_run(argv))
        lines += [f"{d.hexdigest()}  {name} {command}" for command, d in digests.items()]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines + [f"{total}  total"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
