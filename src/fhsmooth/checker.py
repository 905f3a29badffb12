"""Copula-axiom verification on finite grids.

Checks the defining properties directly: the 2-increasing rectangle
inequality on every lattice cell, density nonnegativity and normalization
(smoothed families only; the sharp bounds are singular and skip the
density clauses), and the ordering W <= C <= M.  On the lattice's edges
W = M up to one rounding, so the ordering also gates grounded boundary
values with uniform marginals, whose largest error is reported, not gated.

The lattices are walked in blocks of whole rows, at most 2**15 points each
(``copulas.row_blocks``), each reduced to running results: the boundary rows
and columns, the least cell volume (each block's last row carried across the
seam), the ordering flags and the least density.  The report is the one a
single pass over the whole lattice gives: same bits, bounded memory.

Nonnegativity is scanned at the lattice cell midpoints.  Normalization
integrates the density itself with a band-adapted Gauss-Legendre rule
rather than on the lattice: boundary containment forces r -> 0 at the two
corners of the singular axis, so the density is unbounded there (c ~ 1/r)
and a midpoint rule carries an O(1/n) bias (~2.4e-3 at n = 128 for the
gaussian band).  The rule takes Gauss-Legendre nodes in the singular
coordinate s and, across the band between its edges t-(s) and t+(s),
substitutes t = mid + half*sin(theta) with Gauss-Legendre nodes in theta,
which absorbs the sqrt(1 - rho^2) behaviour of g'' at the band edges.  The
edges come from ``radius.band_edges``, the solver behind ``support_band``
too; they are clipped to the diamond, so a band that spills over the
boundary (e.g. the constant model) is integrated over the square only.
The rule's Gauss-Legendre nodes and weights are built once, at import.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .copulas import CopulaSpec, copula_density, copula_values, row_blocks
from .geometry import DIAMOND_RADIUS, Orientation, wz_to_uv
from .radius import band_edges

_VOLUME_TOL = -1e-10
_DENSITY_TOL = -1e-10
_INTEGRAL_TOL = 1e-3
_FRECHET_SLACK = 1e-12
_MASS_NODES = 128  # per axis; the accuracy depends on the band, not the lattice
_MASS_X, _MASS_WTS = np.polynomial.legendre.leggauss(_MASS_NODES)


@dataclass(frozen=True)
class CopulaCheckReport:
    boundary_max_err: float
    min_rectangle_volume: float
    min_density: Optional[float]
    density_integral: Optional[float]
    frechet_ok: bool
    grid_n: int
    verdict: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _density_mass(spec: CopulaSpec) -> float:
    """Integral of copula_density over the unit square (smoothed families)."""
    x, wts = _MASS_X, _MASS_WTS
    s = DIAMOND_RADIUS * x
    t_lo, t_hi = band_edges(spec.model, spec.orientation, s)
    mid = 0.5 * (t_lo + t_hi)
    half = 0.5 * (t_hi - t_lo)
    theta = 0.5 * np.pi * x
    t = mid[:, None] + half[:, None] * np.sin(theta)
    w, z = spec.orientation.swap(t, np.broadcast_to(s[:, None], t.shape))
    dens = copula_density(spec, *wz_to_uv(w, z))
    slice_mass = half * (dens @ (0.5 * np.pi * wts * np.cos(theta)))
    # the (u, v) -> (w, z) change of variables is an isometry: unit Jacobian
    return float(DIAMOND_RADIUS * (wts @ slice_mass))


def check_copula(spec: CopulaSpec, grid_n: int) -> CopulaCheckReport:
    """Evaluate all axioms on a grid_n x grid_n lattice spanning the closed square."""
    if grid_n < 32:
        raise ValueError(f"grid_n must be >= 32, got {grid_n!r}")
    xs = np.linspace(0.0, 1.0, grid_n)
    first_row = last_row = None
    edge_cols, volume_mins = [], []  # per row block: its C(u, 0) and C(u, 1); its least cell volume
    frechet_ok = True
    for rows in row_blocks(grid_n, grid_n):
        u = xs[rows, None]
        c = copula_values(spec, u, xs)
        frechet_ok &= bool(
            np.all(c >= Orientation.LOWER_W.fh_values(u, xs) - _FRECHET_SLACK)
            and np.all(c <= Orientation.UPPER_M.fh_values(u, xs) + _FRECHET_SLACK)
        )
        edge_cols.append(c[:, [0, -1]])
        if first_row is None:
            first_row = c[0]
        else:
            c = np.concatenate([last_row[None, :], c])  # the cells across the seam
        if len(c) > 1:
            volume_mins.append(np.min(c[1:, 1:] - c[1:, :-1] - c[:-1, 1:] + c[:-1, :-1]))
        last_row = c[-1]
    edges = np.concatenate(edge_cols)

    boundary_max_err = float(
        max(
            np.max(np.abs(first_row)),          # C(0, v) = 0
            np.max(np.abs(edges[:, 0])),        # C(u, 0) = 0
            np.max(np.abs(last_row - xs)),      # C(1, v) = v
            np.max(np.abs(edges[:, 1] - xs)),   # C(u, 1) = u
        )
    )
    min_volume = float(np.min(volume_mins))

    min_density = None
    density_integral = None
    if spec.smoothed:
        mids = 0.5 * (xs[:-1] + xs[1:])
        blocks = row_blocks(grid_n - 1, grid_n - 1)
        min_density = float(np.min([np.min(copula_density(spec, mids[rows, None], mids)) for rows in blocks]))
        density_integral = _density_mass(spec)

    verdict = min_volume >= _VOLUME_TOL and frechet_ok and (
        not spec.smoothed or (min_density >= _DENSITY_TOL and abs(density_integral - 1.0) <= _INTEGRAL_TOL)
    )

    return CopulaCheckReport(
        boundary_max_err=boundary_max_err,
        min_rectangle_volume=min_volume,
        min_density=min_density,
        density_integral=density_integral,
        frechet_ok=frechet_ok,
        grid_n=int(grid_n),
        verdict=bool(verdict),
    )
