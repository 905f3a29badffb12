"""Coordinate changes between the unit square and the rotated diamond domain.

The unit square [0,1]^2 maps onto the diamond |w| + |z| <= 1/sqrt(2) via
w = (v + u - 1)/sqrt(2), z = (v - u)/sqrt(2).  The transform is an isometry
(rotation by 45 degrees plus a shift), so Euclidean distances are preserved
and the mixed derivative becomes (d^2/dw^2 - d^2/dz^2)/2 in the new frame.

Each sharp bound kinks along one axis of the diamond: W = max(u+v-1, 0)
along w = 0 and M = min(u, v) along z = 0.  ``Orientation`` is the band
frame built on that axis: t is the coordinate across the kink (w for W,
z for M), which disc averaging spreads into a band, and n the transverse
coordinate along it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

#: l1-radius of the diamond: max of |w| + |z| over the square's image.
DIAMOND_RADIUS = math.sqrt(0.5)

#: Slack accepted on unit-interval coordinates before rejecting them.
COORD_SLACK = 1e-12


class DomainError(ValueError):
    """A point lies outside the domain required by the operation."""


@dataclass(frozen=True)
class SquarePoint:
    """A point (u, v) in the closed unit square.

    Values within 1e-12 outside [0, 1] are clamped (upstream samplers
    legitimately produce 1 + eps); anything further out is rejected.
    """

    u: float
    v: float

    def __post_init__(self):
        for name in ("u", "v"):
            val = float(getattr(self, name))
            if not math.isfinite(val) or val < -COORD_SLACK or val > 1.0 + COORD_SLACK:
                raise DomainError(f"{name}={val!r} outside [0,1] beyond {COORD_SLACK}")
            object.__setattr__(self, name, min(max(val, 0.0), 1.0))


@dataclass(frozen=True)
class DiamondPoint:
    """A point in rotated (w, z) coordinates.

    Not validated at construction: oracle integration centers may lie
    anywhere in the plane.
    """

    w: float
    z: float


class Orientation(enum.Enum):
    """The band frame: which bound is smoothed, and so which axis carries the band.

    ``band_jet`` is the one place a radius model's jet is put in (t, n) order.
    """

    UPPER_M = "upper_M"
    LOWER_W = "lower_W"

    def swap(self, a, b):
        """Map a (w, z) pair to (t, n), or (t, n) back to (w, z): its own inverse."""
        return (b, a) if self is Orientation.UPPER_M else (a, b)

    def band_jet(self, model, w, z):
        """The model's jet at (w, z) in band order: (r, r_t, r_n, r_tt, r_nn)."""
        r, r_w, r_z, r_ww, r_zz = model.jet(w, z)
        return (r, *self.swap(r_w, r_z), *self.swap(r_ww, r_zz))

    def fh_values(self, u, v):
        """The sharp bound itself: min(u, v) for M, max(u + v - 1, 0) for W."""
        if self is Orientation.UPPER_M:
            return np.minimum(u, v)
        return np.maximum(u + v - 1.0, 0.0)


def orientation_for_family(family: str) -> Orientation:
    if family in ("smoothed_upper", "fh_upper"):
        return Orientation.UPPER_M
    if family in ("smoothed_lower", "fh_lower"):
        return Orientation.LOWER_W
    raise ValueError(f"no orientation for family {family!r}")


def uv_to_wz(u, v):
    """Array-friendly square -> diamond transform."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (v + u - 1.0) / SQRT2, (v - u) / SQRT2


def wz_to_uv(w, z):
    """Array-friendly diamond -> square transform (inverse of uv_to_wz)."""
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    return (w - z) / SQRT2 + 0.5, (w + z) / SQRT2 + 0.5


def diamond_margin(w, z):
    """Signed distance 1/sqrt(2) - |w| - |z| (positive strictly inside)."""
    return DIAMOND_RADIUS - np.abs(w) - np.abs(z)
