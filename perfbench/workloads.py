"""Workload definitions: models, sizes, per-round operations and their checks.

A workload is a model set plus the five things a user of fhsmooth does with
a model: draw samples (`sample_batch`, then `to_gaussian` for the gaussian
band), validate it (`validate_model`), check the copula axioms
(`check_copula`), export a lattice (`fhsmooth grid --out`) and evaluate
single points (`fhsmooth eval`).  The CLI runs in-process through
`fhsmooth.cli.main`.  Every workload runs all five, so every end-to-end
metric has a value on every workload; the sizes set which one dominates.

One round is a fixed list of operations.  Each operation is timed on its
own; its output is checked after the round, outside the timed region.
Inputs depend only on the workload seed: sampling seeds change from round
to round, eval points and grid subsets are drawn once per run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fhsmooth  # noqa: E402
from fhsmooth import checker, cli, sampler, validator  # noqa: E402
from fhsmooth.copulas import CopulaSpec  # noqa: E402
from fhsmooth.radius import (  # noqa: E402
    GaussianBandRadius,
    constant_radius,
    gaussian_band_radius,
    model_to_json,
    product_radius,
)

import checks  # noqa: E402

if Path(fhsmooth.__file__).resolve().parent != SRC / "fhsmooth":
    raise ImportError(f"fhsmooth imported from {fhsmooth.__file__}, not from {SRC}")

GRID_SUBSET = 16  # random grid rows checked against the oracle per grid operation
FD_ROWS = 3  # rows inside the band whose density is also checked by finite differences
PREFIX_PAIRS = 64


def model_catalogue():
    """The models of the acceptance suite's VALIDATING_SPECS plus a rejected one."""
    return {
        "gauss-0.5": CopulaSpec("smoothed_upper", gaussian_band_radius(0.5)),
        "gauss-1": CopulaSpec("smoothed_upper", gaussian_band_radius(1.0)),
        "gauss-2": CopulaSpec("smoothed_upper", gaussian_band_radius(2.0)),
        "product-upper-0": CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.0)),
        "product-upper-0.2": CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.2)),
        "product-lower": CopulaSpec("smoothed_lower", product_radius([1.0], q=[0.25, 0, -0.5])),
        "constant-0.2": CopulaSpec("smoothed_upper", constant_radius(0.2)),
    }


REJECTED = frozenset({"constant-0.2"})
GAUSS = ("gauss-0.5", "gauss-1", "gauss-2")
PRODUCT = ("product-upper-0.2", "product-lower")
ADMISSIBLE = GAUSS + ("product-upper-0",) + PRODUCT
ALL = ADMISSIBLE + ("constant-0.2",)


@dataclass(frozen=True)
class Plan:
    """Which models each operation runs on, and at what size."""

    sample: tuple
    pairs: int
    validate: tuple
    validate_grid: int
    check: tuple
    check_grid: int
    grid: tuple
    grid_n: int
    eval: tuple
    eval_calls: int  # per model


PLANS = {
    # Sampling from the gaussian band: nearly all the time is the radius
    # solve re-run at each of the sampler's 60 bisection steps.
    "sample-gaussian": Plan(
        sample=GAUSS, pairs=2000,
        validate=GAUSS, validate_grid=128,
        check=("gauss-1",), check_grid=128,
        grid=("gauss-1",), grid_n=64,
        eval=("gauss-1",), eval_calls=20,
    ),
    # Same sampler on polynomial radii and both band axes: kernel, jets and
    # the bisection itself; no gaussian solve anywhere.
    "sample-product": Plan(
        sample=PRODUCT, pairs=20000,
        validate=PRODUCT, validate_grid=128,
        check=PRODUCT, check_grid=128,
        grid=("product-lower",), grid_n=64,
        eval=PRODUCT, eval_calls=10,
    ),
    # The model designer's loop: whole-lattice reads, CSV export, CLI calls.
    # The cheap operations run twice per round, so the few rounds that fit
    # around the check pass still time each of them for about a second.
    "design-check": Plan(
        sample=("gauss-1", "product-lower") * 2, pairs=1500,
        validate=ALL, validate_grid=256,
        check=ALL, check_grid=512,
        grid=("gauss-1", "product-lower") * 2, grid_n=256,
        eval=("gauss-1", "product-lower"), eval_calls=100,
    ),
}

@dataclass(frozen=True)
class Op:
    """One timed call into fhsmooth and the check of its output."""

    kind: str
    work: int  # pairs (sample), lattice points (check, grid), 1 otherwise
    run: Callable[[], object]
    verify: Callable[[object], None]


def _cli_args(spec):
    copula = "mbar" if spec.family == "smoothed_upper" else "wbar"
    return ["--copula", copula, "--radius", json.dumps(model_to_json(spec.model))]


def _call_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Session:
    """A workload's models and generated inputs, with the caches its checks use."""

    def __init__(self, name: str, seed: int, tmpdir, plan: Plan = None):
        self.seed = int(seed)
        self.plan = plan or PLANS[name]
        self.tmpdir = Path(tmpdir)
        self.specs = model_catalogue()
        self.cli_args = {key: _cli_args(spec) for key, spec in self.specs.items()}
        rng = self._rng("inputs")
        p = self.plan
        self.eval_points = {
            key: rng.uniform(0.01, 0.99, size=(p.eval_calls, 2)) for key in p.eval
        }
        self._oracle = {}

    def _rng(self, *tags):
        entropy = [self.seed % (1 << 64), zlib.crc32(repr(tags).encode())]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def sample_seed(self, round_index: int, slot: int) -> int:
        return int(self._rng("sample", round_index, slot).integers(0, 1 << 63))

    def _cached(self, tag, compute):
        if tag not in self._oracle:
            self._oracle[tag] = compute()
        return self._oracle[tag]

    # -- operations -----------------------------------------------------

    def sample_op(self, key, n, seed):
        spec = self.specs[key]
        gaussian = isinstance(spec.model, GaussianBandRadius)

        def run():
            batch = sampler.sample_batch(spec, n, seed)
            return batch.pairs, (sampler.to_gaussian(batch) if gaussian else None)

        def verify(out):
            pairs, xy = out
            volumes = self._cached(("rect", key), lambda: checks.rectangle_volumes(spec))
            checks.check_sample(spec, pairs, volumes, xy)
            m = min(PREFIX_PAIRS, n)
            checks.check_prefix(pairs, sampler.sample_batch(spec, m, seed).pairs)

        return Op("sample", n, run, verify)

    def validate_op(self, key, grid_n):
        spec = self.specs[key]
        orientation = validator.orientation_for_family(spec.family)

        def run():
            return validator.validate_model(spec.model, orientation, grid_n)

        return Op("validate", 1, run, lambda rep: checks.check_validation(rep, key not in REJECTED))

    def check_op(self, key, grid_n):
        spec = self.specs[key]

        def run():
            return checker.check_copula(spec, grid_n)

        return Op("check", grid_n * grid_n, run, lambda rep: checks.check_report(rep, spec, key not in REJECTED))

    def grid_op(self, key, n, slot=0):
        spec = self.specs[key]
        path = self.tmpdir / f"grid-{slot}-{key}.csv"
        argv = ["grid", *self.cli_args[key], "--grid-n", str(n), "--out", str(path)]

        def run():
            return cli.main(argv)

        def verify(code):
            if code != 0:
                raise checks.Mismatch(f"grid exited {code}")
            text = path.read_text()
            path.unlink()
            rows = checks.parse_grid(text, n)
            subset, values, fd_rows = self._cached(("grid", key, n), lambda: self._grid_refs(key, n))
            checks.check_grid(spec, rows, n, subset, values, fd_rows)

        return Op("grid", n * n, run, verify)

    def _grid_refs(self, key, n):
        """Seeded rows checked against the oracle, and FD densities on a few of them.

        The FD rows are drawn among rows well inside the band, so every grid
        operation has its density checked.
        """
        spec = self.specs[key]
        rng = self._rng("grid", key, n)
        mids = (np.arange(n) + 0.5) / n
        uu, vv = np.meshgrid(mids, mids, indexing="ij")  # the CLI's row order
        u, v = uu.ravel(), vv.ravel()
        smooth = rng.choice(np.flatnonzero(checks.fd_candidates(spec, u, v)), size=FD_ROWS, replace=False)
        subset = np.union1d(rng.choice(n * n, size=min(GRID_SUBSET, n * n), replace=False), smooth)
        values = np.array([checks.oracle_value(spec, u[i], v[i]) for i in subset])
        fd_rows = {int(i): checks.fd_density(spec, u[i], v[i]) for i in smooth}
        return subset, values, fd_rows

    def eval_op(self, key, u, v):
        spec = self.specs[key]
        argv = ["eval", *self.cli_args[key], "--u", repr(float(u)), "--v", repr(float(v))]

        def verify(result):
            want = self._cached(("eval", key, u, v), lambda: checks.oracle_value(spec, u, v))
            checks.check_eval(result, want)

        return Op("eval", 1, lambda: _call_cli(argv), verify)

    def round_ops(self, round_index: int):
        """The operations of one round, each kind spread evenly over it.

        The host's speed can change by a factor of two within a second, so
        a kind timed in one block would see only one stretch of it; spread
        out, every kind sees the same mix of stretches.
        """
        p = self.plan
        by_kind = [
            [self.sample_op(k, p.pairs, self.sample_seed(round_index, i)) for i, k in enumerate(p.sample)],
            [self.validate_op(k, p.validate_grid) for k in p.validate],
            [self.check_op(k, p.check_grid) for k in p.check],
            [self.grid_op(k, p.grid_n, i) for i, k in enumerate(p.grid)],
            [self.eval_op(k, u, v) for k in p.eval for u, v in self.eval_points[k]],
        ]
        spread = [((i + 0.5) / len(ops), j, i) for j, ops in enumerate(by_kind) for i in range(len(ops))]
        return [by_kind[j][i] for _, j, i in sorted(spread)]

    def warm_up(self):
        """One small untimed call of each kind: first calls into scipy, argparse, the file system."""
        p = self.plan
        self.sample_op(p.sample[0], 16, 0).run()
        self.validate_op(p.validate[0], 16).run()
        self.check_op(p.check[0], 32).run()
        self.grid_op(p.grid[0], 8, "warm-up").run()
        self.eval_op(p.eval[0], 0.5, 0.5).run()
