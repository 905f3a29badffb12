"""Radius-field models r(w, z) with exact first and second partials.

Three model kinds are supported:

* ``constant`` -- r(w, z) = r0.
* ``product``  -- r(w, z) = p(w) * q(z) with polynomial factors supplied as
  low-to-high coefficient lists, so all partials are exact.  The affine-skew
  case q(z) = 1 + sqrt(2)*eps*z has a convenience constructor.
* ``gaussian_band`` -- r(w) implicitly defined so the normal-quantile
  transform of the band edges keeps a constant gap d:

      Phi^{-1}((w+r)/sqrt(2) + 1/2) - Phi^{-1}((w-r)/sqrt(2) + 1/2) = d.

  The band is parametrized by its lower edge quantile x, with y = x + d:

      w = (Phi(x) + Phi(y) - 1)/sqrt(2),   r = (Phi(y) - Phi(x))/sqrt(2).

  r is even in w, so x is solved at a = |w| in upper-tail form
  Q(x) + Q(y) = c with Q(x) = Phi(-x) and c = 1 - sqrt(2)*a; then
  r = (Q(x) - Q(y))/sqrt(2), which avoids cancelling Phi(y) - Phi(x)
  near 1 at the corners where r -> 0.  The solve is Newton on log(Q(x) + Q(y)),
  safeguarded by the bracket max(Q^{-1}(c), -d/2) <= x <= Q^{-1}(c/2).
  Differentiating the parametrization gives the jet with no further
  quantile calls:

      r'  = sign(w) * (phi(y) - phi(x)) / (phi(y) + phi(x)),
      r'' = -d * (1 - r'^2) / (sqrt(2) * (phi(x) + phi(y))).

  Both quantile arguments must stay inside (0, 1), which forces
  r < 1/sqrt(2) - |w|; in particular |r'| < 1 and r'' <= 0 everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import ndtr, ndtri

from .geometry import DIAMOND_RADIUS, SQRT2, DiamondPoint, diamond_margin
from .kernel import std_normal_pdf

_AXIS_INSET = 1e-9  # positivity is required on the open diamond only
_SWEEP_POINTS = 1001
_EDGE_ITERS = 60  # cap; over the diamond, 4 steps suffice for every d in [0.01, 40]
_EDGE_TOL = 1e-9  # a Newton step this small leaves an error far below one ulp


class ModelSpecError(ValueError):
    """A radius model's parameters are malformed or violate positivity."""


class RadiusEvalError(RuntimeError):
    """Radius evaluation failed at a specific point."""


class UnboundedBandError(ValueError):
    """The skew is too large for this profile: the band upper edge diverges."""


@dataclass(frozen=True)
class RadiusJet:
    """Radius value and partials (r, r_w, r_z, r_ww, r_zz) at one point."""

    r: float
    r_w: float
    r_z: float
    r_ww: float
    r_zz: float


@dataclass(frozen=True)
class SupportBand:
    """Transverse band [lower, upper] at position w, and the skew ratio kappa."""

    w: float
    lower: float
    upper: float
    kappa: float  # upper/|lower|; +inf sentinel when lower >= 0


def _sweep_positive(coeffs, label: str):
    lim = DIAMOND_RADIUS - _AXIS_INSET
    xs = np.linspace(-lim, lim, _SWEEP_POINTS)
    vals = npoly.polyval(xs, coeffs)
    if np.min(vals) <= 0.0:
        idx = int(np.argmin(vals))
        raise ModelSpecError(
            f"{label} must be strictly positive across the diamond; "
            f"found {vals[idx]!r} at {xs[idx]!r}"
        )


@dataclass(frozen=True)
class ConstantRadius:
    """r(w, z) = r0 with vanishing partials."""

    r0: float
    kind = "constant"
    depends_on_z = False

    def __post_init__(self):
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise ModelSpecError(f"r0 must be positive, got {self.r0!r}")

    def radius(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        return np.full_like(w, self.r0)

    def jet(self, w, z):
        r = self.radius(w, z)
        zero = np.zeros_like(r)
        return r, zero, zero, zero, zero


@dataclass(frozen=True)
class ProductRadius:
    """r(w, z) = p(w) * q(z) for polynomials p, q (coefficients low-to-high)."""

    p_coeffs: tuple
    q_coeffs: tuple
    epsilon: Optional[float] = None
    kind = "product"

    def __post_init__(self):
        for name in ("p_coeffs", "q_coeffs"):
            raw = getattr(self, name)
            coeffs = tuple(float(c) for c in raw)
            if not coeffs or not all(math.isfinite(c) for c in coeffs):
                raise ModelSpecError(f"{name} must be a nonempty list of finite reals")
            object.__setattr__(self, name, coeffs)
        _sweep_positive(self.p_coeffs, "p(w)")
        _sweep_positive(self.q_coeffs, "q(z)")

    @property
    def depends_on_z(self) -> bool:
        return any(c != 0.0 for c in self.q_coeffs[1:])

    def radius(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        return npoly.polyval(w, self.p_coeffs) * npoly.polyval(z, self.q_coeffs)

    def jet(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        p = npoly.polyval(w, self.p_coeffs)
        q = npoly.polyval(z, self.q_coeffs)
        p1 = npoly.polyval(w, npoly.polyder(self.p_coeffs))
        q1 = npoly.polyval(z, npoly.polyder(self.q_coeffs))
        p2 = npoly.polyval(w, npoly.polyder(self.p_coeffs, 2))
        q2 = npoly.polyval(z, npoly.polyder(self.q_coeffs, 2))
        return p * q, p1 * q, p * q1, p2 * q, p * q2


@dataclass(frozen=True)
class GaussianBandRadius:
    """r(w) keeping a constant normal-quantile gap d across the band."""

    d: float
    kind = "gaussian_band"
    depends_on_z = False

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0):
            raise ModelSpecError(f"d must be positive, got {self.d!r}")

    def _solve(self, w, strict: bool):
        """Band edges (x, y) and radius r at each point of a 1-D array of w.

        Newton on log(Q(x) + Q(x+d)) - log(c), started at
        Q^{-1}(c/2) - d/2 and kept inside the bracket
        [max(Q^{-1}(c), -d/2), Q^{-1}(c/2)]: a step that leaves it is
        replaced by bisection.  For wide gaps (d >= 5) log(Q(x) + Q(x+d)) is
        not concave, and unguarded Newton overshoots to where Q underflows.
        A point stops moving after its first step below _EDGE_TOL, so its
        result depends on its own w only.
        r is defined iff 1/sqrt(2) - |w| - 1e-15 > 0; the inset keeps c
        away from 0 at the corners.  Elsewhere r is NaN, or strict callers
        get RadiusEvalError.
        """
        ok = DIAMOND_RADIUS - np.abs(w) - 1e-15 > 0
        if strict and not ok.all():
            bad = w[~ok][0]
            raise RadiusEvalError(
                f"gaussian_band radius undefined at w={bad!r}: no bracket "
                "(point at or outside the diamond)"
            )
        d = self.d
        c = 1.0 - SQRT2 * np.where(ok, np.abs(w), 0.0)
        hi = -ndtri(0.5 * c)
        lo = np.maximum(-ndtri(c), -0.5 * d)
        x = np.maximum(hi - 0.5 * d, lo)
        moving = np.ones(x.shape, dtype=bool)
        for _ in range(_EDGE_ITERS):
            y = x + d
            g = ndtr(-x) + ndtr(-y)
            f = np.log(g / c)  # decreasing in x, positive left of the root
            left = f > 0
            lo = np.where(left, x, lo)
            hi = np.where(left, hi, x)
            cand = x + f * g / (std_normal_pdf(x) + std_normal_pdf(y))
            # inclusive bounds: an exact root gives cand == x == hi, which
            # must be kept, not replaced by a stale bracket midpoint
            cand = np.where((cand >= lo) & (cand <= hi), cand, 0.5 * (lo + hi))
            still = np.abs(cand - x) > _EDGE_TOL
            x = np.where(moving, cand, x)
            moving &= still
            if not moving.any():
                break
        y = x + d
        r = np.where(ok, (ndtr(-x) - ndtr(-y)) / SQRT2, np.nan)
        return x, y, r

    def radius(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        return np.reshape(self._solve(w.ravel(), strict=False)[2], w.shape)

    def jet(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        x, y, r = self._solve(w.ravel(), strict=True)
        px = std_normal_pdf(x)
        py = std_normal_pdf(y)
        r_w = np.sign(w.ravel()) * (py - px) / (py + px)
        r_ww = -self.d * (1.0 - r_w * r_w) / (SQRT2 * (px + py))
        r, r_w, r_ww = (np.reshape(a, w.shape) for a in (r, r_w, r_ww))
        zero = np.zeros_like(r)
        return r, r_w, zero, r_ww, zero


def constant_radius(r0: float) -> ConstantRadius:
    return ConstantRadius(float(r0))


def product_radius(p, epsilon: float = None, q=None) -> ProductRadius:
    """Product model from p coefficients plus either a skew eps or q coefficients."""
    if (epsilon is None) == (q is None):
        raise ModelSpecError("provide exactly one of epsilon or q")
    if epsilon is not None:
        q_coeffs = (1.0, SQRT2 * float(epsilon))
        return ProductRadius(tuple(p), q_coeffs, epsilon=float(epsilon))
    return ProductRadius(tuple(p), tuple(q), epsilon=None)


def gaussian_band_radius(d: float) -> GaussianBandRadius:
    return GaussianBandRadius(float(d))


def radius_jet(model, p: DiamondPoint) -> RadiusJet:
    """Evaluate a model's radius and partials at one strictly interior point."""
    if not diamond_margin(p.w, p.z) > 0:
        raise RadiusEvalError(
            f"radius_jet requires a strictly interior point; got (w={p.w!r}, z={p.z!r})"
        )
    r, r_w, r_z, r_ww, r_zz = model.jet(p.w, p.z)
    return RadiusJet(float(r), float(r_w), float(r_z), float(r_ww), float(r_zz))


def support_band(model, w: float) -> SupportBand:
    """Transverse support band at position w along the singular axis.

    For the affine-skew product model the fixed point of |z| = p(w)*q(z)
    is solved in closed form; constant and gaussian_band radii do not
    depend on z, so the band is simply +-r(w).
    """
    w = float(w)
    if model.kind == "constant":
        return SupportBand(w, -model.r0, model.r0, 1.0)
    if model.kind == "gaussian_band":
        r = float(model._solve(np.array([w]), strict=True)[2][0])
        return SupportBand(w, -r, r, 1.0)
    if model.kind == "product":
        if len(model.q_coeffs) > 2:
            raise ModelSpecError("support_band requires an affine q(z)")
        q0 = model.q_coeffs[0]
        q1 = model.q_coeffs[1] if len(model.q_coeffs) == 2 else 0.0
        p_val = float(npoly.polyval(w, model.p_coeffs))
        den_up = 1.0 - p_val * q1
        den_lo = 1.0 + p_val * q1
        if den_up <= 0.0 or den_lo <= 0.0:
            raise UnboundedBandError(
                f"band unbounded at w={w!r}: skew too large for this profile "
                f"(1 -+ p*q1 = {den_up!r}, {den_lo!r})"
            )
        upper = p_val * q0 / den_up
        lower = -p_val * q0 / den_lo
        kappa = upper / abs(lower) if lower < 0 else math.inf
        return SupportBand(w, lower, upper, kappa)
    raise ModelSpecError(f"unsupported model kind {model.kind!r}")


def model_from_json(source) -> object:
    """Build a radius model from a JSON object or its text form.

    Accepted shapes::

        {"kind": "constant", "r0": 0.2}
        {"kind": "product", "p": [0.25, 0, -0.2], "epsilon": 0.3}
        {"kind": "product", "p": [...], "q": [...]}
        {"kind": "gaussian_band", "d": 1.0}

    Polynomial coefficients are low-to-high degree.
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ModelSpecError(f"invalid radius JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ModelSpecError("radius JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return constant_radius(obj["r0"])
        if kind == "product":
            if "epsilon" in obj:
                return product_radius(obj["p"], epsilon=obj["epsilon"])
            return product_radius(obj["p"], q=obj["q"])
        if kind == "gaussian_band":
            return gaussian_band_radius(obj["d"])
    except KeyError as exc:
        raise ModelSpecError(f"radius JSON missing key {exc} for kind {kind!r}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ModelSpecError):
            raise
        raise ModelSpecError(f"bad radius parameters: {exc}") from exc
    raise ModelSpecError(f"unknown radius kind {kind!r}")


def model_to_json(model) -> dict:
    """Inverse of model_from_json (dict form)."""
    if model.kind == "constant":
        return {"kind": "constant", "r0": model.r0}
    if model.kind == "gaussian_band":
        return {"kind": "gaussian_band", "d": model.d}
    if model.kind == "product":
        if model.epsilon is not None:
            return {"kind": "product", "p": list(model.p_coeffs), "epsilon": model.epsilon}
        return {"kind": "product", "p": list(model.p_coeffs), "q": list(model.q_coeffs)}
    raise ModelSpecError(f"unsupported model kind {model.kind!r}")
