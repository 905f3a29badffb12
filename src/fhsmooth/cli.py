"""Command-line interface: evaluation, grids, validation, checking, sampling.

Copula names: w, m (the sharp lower/upper bounds) and wbar, mbar (their
disc-averaged versions; these require --radius with a model JSON, inline
or as a file path).  Only wbar and mbar have a density, so density,
validate and sample take those two, and band takes mbar alone; the parser
rejects any other --copula.  Exit codes: 0 success or pass, 1
validation/check fail, 2 usage, input or file error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict

import numpy as np

from .checker import check_copula
# smoothed_value is unused here, but perfbench's tracer wraps cli.smoothed_value
from .copulas import CopulaSpec, copula_density, copula_values, smoothed_value  # noqa: F401
from .geometry import SquarePoint
from .radius import RadiusEvalError, model_from_json, support_band
from .sampler import InvalidModelError, sample_batch, to_gaussian
from .serialize import csv_text, format_float, json_text, write_output
from .validator import validate_model

_COPULAS = {
    "w": "fh_lower",
    "m": "fh_upper",
    "wbar": "smoothed_lower",
    "mbar": "smoothed_upper",
}
_SMOOTHED = ["mbar", "wbar"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="fhsmooth",
        description="Evaluate, validate, check, and sample disc-averaged "
        "Frechet-Hoeffding copulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(name, summary, copulas=sorted(_COPULAS)):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--copula", required=True, choices=copulas)
        p.add_argument("--radius", help="radius model JSON (inline or file path)")
        p.add_argument("--out", help="output file (atomic write); default stdout")
        return p

    p_eval = add_common("eval", "copula value at one point")
    p_eval.add_argument("--u", type=float, required=True)
    p_eval.add_argument("--v", type=float, required=True)

    p_dens = add_common("density", "copula density at one point", _SMOOTHED)
    p_dens.add_argument("--u", type=float, required=True)
    p_dens.add_argument("--v", type=float, required=True)

    p_grid = add_common("grid", "CSV u,v,value,density on a lattice")
    p_grid.add_argument("--grid-n", type=int, default=64)

    p_val = add_common("validate", "validation report JSON (exit 1 on fail)", _SMOOTHED)
    p_val.add_argument("--grid-n", type=int, default=64)

    p_chk = add_common("check", "copula-axiom report JSON (exit 1 on fail)")
    p_chk.add_argument("--grid-n", type=int, default=128)

    p_smp = add_common("sample", "CSV of sampled pairs", _SMOOTHED)
    p_smp.add_argument("--n", type=int, required=True)
    p_smp.add_argument("--seed", type=int, default=0)
    p_smp.add_argument(
        "--gaussian",
        action="store_true",
        help="emit x,y = normal quantiles of u,v instead of u,v",
    )

    p_band = add_common("band", "support band JSON at one w", ["mbar"])
    p_band.add_argument("--w", type=float, default=0.0)

    return parser


def _load_model(parser, args):
    text = args.radius
    if args.copula in _SMOOTHED:
        if not text:
            parser.error(f"--copula {args.copula} requires --radius")
        if not text.lstrip().startswith("{"):
            with open(text) as fh:
                text = fh.read()
        return model_from_json(text)
    if text:
        parser.error(f"--copula {args.copula} does not take --radius")
    return None


def _dispatch(parser, args) -> int:
    model = _load_model(parser, args)
    spec = CopulaSpec(_COPULAS[args.copula], model)

    if args.command in ("eval", "density"):
        point = SquarePoint(args.u, args.v)
        evaluate = copula_values if args.command == "eval" else copula_density
        write_output(format_float(float(evaluate(spec, point.u, point.v))), args.out)
        return 0

    if args.command == "grid":
        n = args.grid_n
        if n < 1:  # worded and reported as validate's and check's own bounds
            raise ValueError(f"grid_n must be >= 1, got {n!r}")
        mids = (np.arange(n) + 0.5) / n
        rows = np.empty((n * n, 4))  # filled in place, one column at a time
        u, v, values, dens = rows.T
        u[:], v[:] = np.repeat(mids, n), np.tile(mids, n)  # row-major lattice, u slowest
        values[:] = copula_values(spec, u, v)
        dens[:] = copula_density(spec, u, v) if spec.smoothed else 0.0  # singular: a.e. density
        write_output(csv_text("u,v,value,density", rows), args.out)
        return 0

    if args.command in ("validate", "check"):
        if args.command == "validate":
            report = validate_model(model, spec.orientation, args.grid_n)
        else:
            report = check_copula(spec, args.grid_n)
        write_output(json_text(report.to_json_dict()), args.out)
        return 0 if report.verdict else 1

    if args.command == "sample":
        batch = sample_batch(spec, args.n, args.seed)
        if args.gaussian:
            write_output(csv_text("x,y", to_gaussian(batch)), args.out)
        else:
            write_output(csv_text("u,v", batch.pairs), args.out)
        return 0

    # band: the parser admits no other command
    write_output(json_text(asdict(support_band(model, args.w))), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(parser, args)
    except SystemExit as exc:  # argparse --help (0) and usage errors (2)
        return int(exc.code or 0)
    except InvalidModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RadiusEvalError, ValueError, OSError) as exc:  # ValueError: DomainError, ModelSpecError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
