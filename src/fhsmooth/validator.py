"""Certify whether a radius model makes the smoothed bound a copula.

Three gates, evaluated on grids:

* positivity of r on the interior lattice;
* the quadratic criterion: dividing by g'' > 0, the density at a point
  with rho = t/r in (-1, 1) has the sign of p(rho) = a*rho^2 + b*rho + c,

      a = r_t^2 - r_n^2 - D,  b = -2*r_t,  c = 1 + D,
      D = r*(r_tt - r_nn)/3,

  where t is the band coordinate and n the transverse one, as
  ``Orientation.band_jet`` (geometry) maps them from the model's (w, z) jet.
  The gate asks p >= 0 on all of [-1, 1] at each lattice point.  Only where
  the jet is constant across the band (the gaussian band in UPPER_M) is that
  equivalent to density >= 0 there; elsewhere (product models) it is
  sufficient, not necessary, and its verdict can change with grid_n;
* boundary containment: |t| >= r on the boundary of the diamond, which is
  what makes the averaged bound coincide with the sharp bound there and
  keeps the marginals uniform.

The classical sufficient conditions (r_n^2 <= (1/2 - |r_t|)^2 + 3/4 and
r_nn <= r_tt) are evaluated and reported but do not gate: they were
derived with a single rho*r_t cross term where the chain rule produces
two, and the finite-difference oracle sides with the chain rule.

The interior lattice is walked in blocks of whole rows, at most 2**15 points
each (``copulas.row_blocks``).  Each gate keeps a running result, and the
worst margin is the first row-major minimum (or the first NaN), as one pass
over the whole lattice finds it: same bits, bounded memory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .copulas import row_blocks
from .geometry import DIAMOND_RADIUS, DiamondPoint, Orientation, uv_to_wz
from .geometry import orientation_for_family  # noqa: F401  (re-exported)

_QUAD_TOL = -1e-12  # floating noise floor for O(1) quantities
_CONTAINMENT_TOL = -1e-9
_BOUNDARY_INSET = 1e-9  # radius models are only guaranteed on the open diamond


class ContainmentResult(NamedTuple):
    passed: bool
    worst_margin: float
    worst_point: DiamondPoint


@dataclass(frozen=True)
class ValidationReport:
    positivity_pass: bool
    quadratic_pass: bool
    paper_sufficient_pass: bool
    containment_pass: bool
    worst_point: DiamondPoint
    worst_margin: float
    grid_n: int

    @property
    def verdict(self) -> bool:
        """paper_sufficient_pass is informational; it does not gate."""
        return self.positivity_pass and self.quadratic_pass and self.containment_pass

    def to_json_dict(self) -> dict:
        return {**asdict(self), "verdict": self.verdict}


def _quad_coeffs(r, r_t, r_n, r_tt, r_nn):
    d_term = r * (r_tt - r_nn) / 3.0
    a = r_t * r_t - r_n * r_n - d_term
    b = -2.0 * r_t
    c = 1.0 + d_term
    return a, b, c


def _quad_min(a, b, c):
    """Exact minimum of a*rho^2 + b*rho + c over [-1, 1] (vectorized)."""
    m = a + c - np.abs(b)  # min of the two endpoint values
    has_vertex = (a > 0) & (np.abs(b) <= 2.0 * a)
    safe_a = np.where(has_vertex, a, 1.0)
    vertex = c - b * b / (4.0 * safe_a)
    return np.where(has_vertex, np.minimum(m, vertex), m)


def _paper_conditions(r_t, r_n, r_tt, r_nn):
    cond1 = r_n * r_n <= (0.5 - np.abs(r_t)) ** 2 + 0.75
    cond2 = r_nn <= r_tt
    return cond1 & cond2


def containment_check(model, o: Orientation, n: int) -> ContainmentResult:
    """Require |band coordinate| >= r along the diamond boundary.

    Samples n points per edge just inside the boundary (inset 1e-9); the
    margin at each is |t| - r, and the check passes when every margin is
    >= -1e-9.  This is exactly the condition making the kernel collapse to
    |rho| on the boundary, so averaging preserves the boundary values.
    """
    if n < 16:
        raise ValueError(f"n must be >= 16, got {n!r}")
    s = DIAMOND_RADIUS - _BOUNDARY_INSET
    t = np.linspace(0.0, 1.0, n)
    leg_w = s * t
    leg_z = s * (1.0 - t)
    w = np.concatenate([leg_w, leg_w, -leg_w, -leg_w])
    z = np.concatenate([leg_z, -leg_z, leg_z, -leg_z])
    margins = np.abs(o.swap(w, z)[0]) - model.radius(w, z)
    idx = int(np.argmin(margins))
    worst = float(margins[idx])
    return ContainmentResult(
        passed=bool(worst >= _CONTAINMENT_TOL),
        worst_margin=worst,
        worst_point=DiamondPoint(float(w[idx]), float(z[idx])),
    )


def validate_model(model, o: Orientation, grid_n: int) -> ValidationReport:
    """Run all gates on a grid_n x grid_n interior lattice plus the boundary sweep."""
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n!r}")
    mids = (np.arange(grid_n) + 0.5) / grid_n
    positivity_pass = paper_sufficient_pass = True
    block_worst = []  # per row block: (margin, w, z) at its first minimum
    for rows in row_blocks(grid_n, grid_n):
        w, z = (x.ravel() for x in uv_to_wz(mids[rows, None], mids))
        r, r_t, r_n, r_tt, r_nn = o.band_jet(model, w, z)
        positivity_pass &= bool(np.all(np.isfinite(r)) and np.all(r > 0))
        margins = _quad_min(*_quad_coeffs(r, r_t, r_n, r_tt, r_nn))
        qi = int(np.argmin(margins))
        block_worst.append((float(margins[qi]), w[qi], z[qi]))
        paper_sufficient_pass &= bool(np.all(_paper_conditions(r_t, r_n, r_tt, r_nn)))

    # argmin over the block minima finds the lattice's first row-major minimum,
    # or its first NaN, as one argmin over the whole lattice does
    quad_worst, qw, qz = block_worst[int(np.argmin([m for m, _, _ in block_worst]))]
    quadratic_pass = bool(quad_worst >= _QUAD_TOL)

    containment = containment_check(model, o, 4 * grid_n)

    if quad_worst <= containment.worst_margin:
        worst_point = DiamondPoint(float(qw), float(qz))
        worst_margin = quad_worst
    else:
        worst_point = containment.worst_point
        worst_margin = containment.worst_margin

    return ValidationReport(
        positivity_pass=positivity_pass,
        quadratic_pass=quadratic_pass,
        paper_sufficient_pass=paper_sufficient_pass,
        containment_pass=containment.passed,
        worst_point=worst_point,
        worst_margin=float(worst_margin),
        grid_n=int(grid_n),
    )
