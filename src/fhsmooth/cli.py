"""Command-line interface: evaluation, grids, validation, checking, sampling.

Copula names: w, m (the sharp lower/upper bounds) and wbar, mbar (their
disc-averaged versions; these require --radius with a model JSON, inline
or as a file path).  Exit codes: 0 success or pass, 1 validation/check
fail, 2 usage, input or file error.
"""

from __future__ import annotations

import argparse
import functools
import os
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="fhsmooth",
        description="Evaluate, validate, check, and sample disc-averaged "
        "Frechet-Hoeffding copulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--copula", required=True, choices=sorted(_COPULAS))
        p.add_argument("--radius", help="radius model JSON (inline or file path)")
        p.add_argument("--out", help="output file (atomic write); default stdout")

    p_eval = sub.add_parser("eval", help="copula value at one point")
    add_common(p_eval)
    p_eval.add_argument("--u", type=float, required=True)
    p_eval.add_argument("--v", type=float, required=True)

    p_dens = sub.add_parser("density", help="copula density at one point")
    add_common(p_dens)
    p_dens.add_argument("--u", type=float, required=True)
    p_dens.add_argument("--v", type=float, required=True)

    p_grid = sub.add_parser("grid", help="CSV u,v,value,density on a lattice")
    add_common(p_grid)
    p_grid.add_argument("--grid-n", type=int, default=64)

    p_val = sub.add_parser("validate", help="validation report JSON (exit 1 on fail)")
    add_common(p_val)
    p_val.add_argument("--grid-n", type=int, default=64)

    p_chk = sub.add_parser("check", help="copula-axiom report JSON (exit 1 on fail)")
    add_common(p_chk)
    p_chk.add_argument("--grid-n", type=int, default=128)

    p_smp = sub.add_parser("sample", help="CSV of sampled pairs")
    add_common(p_smp)
    p_smp.add_argument("--n", type=int, required=True)
    p_smp.add_argument("--seed", type=int, default=0)
    p_smp.add_argument(
        "--gaussian",
        action="store_true",
        help="emit x,y = normal quantiles of u,v instead of u,v",
    )

    p_band = sub.add_parser("band", help="support band JSON at one w (mbar only)")
    add_common(p_band)
    p_band.add_argument("--w", type=float, default=0.0)

    return parser


def _load_model(parser, args):
    family = _COPULAS[args.copula]
    text = args.radius
    if family.startswith("smoothed"):
        if not text:
            parser.error(f"--copula {args.copula} requires --radius")
        if not text.lstrip().startswith("{"):
            if not os.path.exists(text):
                parser.error(f"radius file not found: {text}")
            with open(text) as fh:
                text = fh.read()
        return model_from_json(text)
    if text:
        parser.error(f"--copula {args.copula} does not take --radius")
    return None


def _dispatch(parser, args) -> int:
    family = _COPULAS[args.copula]
    model = _load_model(parser, args)
    spec = CopulaSpec(family, model)

    if args.command == "eval":
        point = SquarePoint(args.u, args.v)
        value = float(copula_values(spec, point.u, point.v))
        write_output(format_float(value), args.out)
        return 0

    if args.command == "density":
        if not spec.smoothed:
            parser.error("density is defined for wbar/mbar only (w and m are singular)")
        point = SquarePoint(args.u, args.v)
        value = float(copula_density(spec, point.u, point.v))
        write_output(format_float(value), args.out)
        return 0

    if args.command == "grid":
        n = args.grid_n
        if n < 1:
            parser.error("--grid-n must be >= 1")
        mids = (np.arange(n) + 0.5) / n
        uu, vv = np.meshgrid(mids, mids, indexing="ij")
        u, v = uu.ravel(), vv.ravel()
        values = copula_values(spec, u, v)
        if spec.smoothed:
            dens = copula_density(spec, u, v)
        else:
            dens = np.zeros_like(values)  # singular: a.e. density
        rows = np.column_stack([u, v, values, dens])
        write_output(csv_text("u,v,value,density", rows), args.out)
        return 0

    if args.command == "validate":
        if not spec.smoothed:
            parser.error("validate applies to wbar/mbar only")
        report = validate_model(model, spec.orientation, args.grid_n)
        write_output(json_text(report.to_json_dict()), args.out)
        return 0 if report.verdict else 1

    if args.command == "check":
        report = check_copula(spec, args.grid_n)
        write_output(json_text(report.to_json_dict()), args.out)
        return 0 if report.verdict else 1

    if args.command == "sample":
        if not spec.smoothed:
            parser.error("sample applies to wbar/mbar only")
        batch = sample_batch(spec, args.n, args.seed)
        if args.gaussian:
            write_output(csv_text("x,y", to_gaussian(batch)), args.out)
        else:
            write_output(csv_text("u,v", batch.pairs), args.out)
        return 0

    if args.command == "band":
        if family != "smoothed_upper":
            parser.error("band applies to mbar only")
        write_output(json_text(asdict(support_band(model, args.w))), args.out)
        return 0

    parser.error(f"unknown command {args.command!r}")


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
