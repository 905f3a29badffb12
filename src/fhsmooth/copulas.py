"""The Frechet-Hoeffding bounds and their disc-averaged regularizations.

In diamond coordinates the lower bound is W = (w + |w|)/sqrt(2) and the
upper bound is M = (w - |z|)/sqrt(2) + 1/2.  Averaging either over discs
of radius r(w, z) replaces the absolute value by its disc mean: with the
band average

    B(w, z) = r * g(t / r),   t = w (lower) or z (upper),

the smoothed copulas are

    Wbar = (w + B)/sqrt(2),       Mbar = 1/2 + (w - B)/sqrt(2).

Writing rho = t/r, the band average differentiates through the kernel as

    B_t  = h*r_t + g',            B_n  = h*r_n,
    B_tt = g''*(1 - rho*r_t)^2/r + h*r_tt,
    B_nn = g''*(rho*r_n)^2/r     + h*r_nn,

where n is the coordinate transverse to the band.  All four collapse to
the sharp bound's values where |rho| >= 1, so each formula below is a
single branch-free expression.  The density follows from the derivative
transform d^2/du dv = (d^2/dw^2 - d^2/dz^2)/2.

The spec's ``Orientation`` (geometry) is the band frame: its ``band_jet``
gives the model's jet in (t, n) order, so each formula is written once for
both bounds.  Where r is not a positive number, values fall back to the
sharp bound on the diamond's boundary (its continuous extension there), as
they do where r there is a rounding residue of at most 1e-12, and raise
RadiusEvalError inside.  Partials and density share one jet prelude, which
raises wherever it happens, and also at the two corners of the singular
axis, where an admissible r is 0 whatever a model's rounding gives.

Calls over 2**15 points run in 2**15-point blocks: same bits, bounded memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import SQRT2, Orientation, SquarePoint, diamond_margin, orientation_for_family, uv_to_wz
from .kernel import kernel_arrays
from .radius import RadiusEvalError

FH_FAMILIES = ("fh_lower", "fh_upper")
SMOOTHED_FAMILIES = ("smoothed_lower", "smoothed_upper")
FAMILIES = FH_FAMILIES + SMOOTHED_FAMILIES

_BOUNDARY_TOL = 1e-12
_BLOCK = 2**15  # points per pass; its temporaries then fit a core's L2 cache


@dataclass(frozen=True)
class CopulaSpec:
    """Which copula is being evaluated; smoothed families carry a radius model."""

    family: str
    model: Optional[object] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family in SMOOTHED_FAMILIES and self.model is None:
            raise ValueError(f"family {self.family!r} requires a radius model")
        if self.family in FH_FAMILIES and self.model is not None:
            raise ValueError(f"family {self.family!r} does not take a radius model")

    @property
    def smoothed(self) -> bool:
        return self.family in SMOOTHED_FAMILIES

    @property
    def orientation(self) -> Orientation:
        return orientation_for_family(self.family)


def _raise_undefined(stuck, u, v):
    idx = tuple(np.argwhere(stuck)[0])
    raise RadiusEvalError(f"radius undefined at u={float(u[idx])!r}, v={float(v[idx])!r}")


def _jet_prelude(spec: CopulaSpec, u, v):
    """rho = t/r and the model's band jet (r, r_t, r_n, r_tt, r_nn) on arrays of (u, v).

    Raises RadiusEvalError where r is not a positive number, and at the
    corners of the singular axis (t = 0 on the diamond's boundary), where an
    admissible r is 0 and a rounding residue (p(1/sqrt(2)) ~ 1e-16) is no radius.
    """
    _require_smoothed(spec)
    w, z = uv_to_wz(u, v)
    jet = spec.orientation.band_jet(spec.model, w, z)
    r, t = jet[0], spec.orientation.swap(w, z)[0]
    good = np.isfinite(r) & (r > 0)
    if not np.all(t):
        good &= (t != 0) | (diamond_margin(w, z) > _BOUNDARY_TOL)
    if not good.all():
        _raise_undefined(~good, u, v)
    return t / r, jet


def _blocked(fn):
    """Run ``fn`` on flat blocks of _BLOCK points in row-major order (exact: pointwise)."""
    @functools.wraps(fn)
    def blocked(spec, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        if u.size <= _BLOCK:
            return fn(spec, u, v)
        shape, u, v = u.shape, u.ravel(), v.ravel()
        parts = [fn(spec, u[i : i + _BLOCK], v[i : i + _BLOCK]) for i in range(0, u.size, _BLOCK)]
        join = lambda blocks: np.concatenate(blocks).reshape(shape)
        return tuple(map(join, zip(*parts))) if isinstance(parts[0], tuple) else join(parts)

    return blocked


@_blocked
def copula_values(spec: CopulaSpec, u, v):
    """Copula values on arrays of (u, v); total on the closed square.

    Where the radius model is undefined exactly on the diamond boundary
    (e.g. the gaussian band at the two corners on the singular axis) the
    value is the continuous extension, which there equals the sharp bound.
    """
    o = spec.orientation
    if not spec.smoothed:
        return o.fh_values(u, v)
    w, z = uv_to_wz(u, v)
    r = spec.model.radius(w, z)
    good = np.isfinite(r) & (r > _BOUNDARY_TOL)
    if not good.all():
        # on the boundary a radius of at most _BOUNDARY_TOL is a rounding residue
        # of an admissible 0; keyed on r, so an inadmissible corner r still counts
        inside = diamond_margin(w, z) > _BOUNDARY_TOL
        good |= inside & np.isfinite(r) & (r > 0)
        stuck = ~good & inside
        if stuck.any():
            _raise_undefined(stuck, u, v)
        r = np.where(good, r, 1.0)
    band = r * kernel_arrays(o.swap(w, z)[0] / r, order=0)
    if o is Orientation.LOWER_W:
        val = (w + band) / SQRT2
    else:
        val = 0.5 + (w - band) / SQRT2
    if not good.all():
        val = np.where(good, val, o.fh_values(u, v))
    return val


@_blocked
def copula_partials(spec: CopulaSpec, u, v):
    """First partials (dC/du, dC/dv) of a smoothed copula on arrays."""
    rho, (_, r_t, r_n, _, _) = _jet_prelude(spec, u, v)
    g1, h = kernel_arrays(rho, order=1)
    b_t, b_n = h * r_t + g1, h * r_n
    if spec.orientation is Orientation.LOWER_W:
        c_w, c_z = (1.0 + b_t) / SQRT2, b_n / SQRT2
    else:
        c_w, c_z = (1.0 - b_n) / SQRT2, -b_t / SQRT2
    return (c_w - c_z) / SQRT2, (c_w + c_z) / SQRT2


@_blocked
def copula_density(spec: CopulaSpec, u, v):
    """Density of a smoothed copula on arrays; identically 0 where |rho| >= 1."""
    rho, (r, r_t, r_n, r_tt, r_nn) = _jet_prelude(spec, u, v)
    g2, h = kernel_arrays(rho, order=2)
    b_tt = g2 * (1.0 - rho * r_t) ** 2 / r + h * r_tt
    b_nn = g2 * (rho * r_n) ** 2 / r + h * r_nn
    return (b_tt - b_nn) / (2.0 * SQRT2)


def smoothed_value(spec: CopulaSpec, p: SquarePoint) -> float:
    _require_smoothed(spec)
    return float(copula_values(spec, p.u, p.v))


def _require_smoothed(spec: CopulaSpec):
    if not spec.smoothed:
        raise ValueError(
            f"operation requires a smoothed family, got {spec.family!r} "
            "(the sharp bounds are singular)"
        )
