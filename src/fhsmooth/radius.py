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

  The solve runs once per distinct w in a call, which is exact: each point
  stops on its own, so its result depends on its own w only.  An n x n lattice
  has 2n - 1 distinct w on midpoints, more on linspace nodes (1531 at n = 512).
  The distinct w come from one sort: a flag where a sorted value differs from
  its predecessor, whose running sum numbers the slots.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import ndtr, ndtri

from .geometry import DIAMOND_RADIUS, SQRT2, DomainError, Orientation
from .kernel import std_normal_pdf

_AXIS_INSET = 1e-9  # positivity is required on the open diamond only
_SWEEP_POINTS = 1001
_EDGE_ITERS = 60  # cap; over the diamond, 4 steps suffice for every d in [0.01, 40]
_EDGE_TOL = 1e-9  # a Newton step this small leaves an error far below one ulp
_BAND_TOL = 1e-14
_BAND_ITERS = 60  # bisection alone shrinks the bracket below _BAND_TOL in 46


class ModelSpecError(ValueError):
    """A radius model's parameters are malformed or violate positivity."""


class RadiusEvalError(RuntimeError):
    """Radius evaluation failed at a specific point."""


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

    @functools.cached_property
    def _derivs(self):
        """(p', q', p'', q'') coefficients, built at the first jet, not at construction:
        a model parsed for one value never needs them.  Not part of the model's identity."""
        return tuple(npoly.polyder(c, m) for m in (1, 2) for c in (self.p_coeffs, self.q_coeffs))

    def radius(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        return npoly.polyval(w, self.p_coeffs) * npoly.polyval(z, self.q_coeffs)

    def jet(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        p = npoly.polyval(w, self.p_coeffs)
        q = npoly.polyval(z, self.q_coeffs)
        dp1, dq1, dp2, dq2 = self._derivs
        p1 = npoly.polyval(w, dp1)
        q1 = npoly.polyval(z, dq1)
        p2 = npoly.polyval(w, dp2)
        q2 = npoly.polyval(z, dq2)
        return p * q, p1 * q, p * q1, p2 * q, p * q2


@dataclass(frozen=True)
class GaussianBandRadius:
    """r(w) keeping a constant normal-quantile gap d across the band."""

    d: float
    kind = "gaussian_band"

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0):
            raise ModelSpecError(f"d must be positive, got {self.d!r}")

    def _solve(self, w):
        """Band edges (x, y) and radius r at each point of a 1-D array of w.

        Newton on log(Q(x) + Q(x+d)) - log(c), started at
        Q^{-1}(c/2) - d/2 and kept inside the bracket
        [max(Q^{-1}(c), -d/2), Q^{-1}(c/2)]: a step that leaves it is
        replaced by bisection.  For wide gaps (d >= 5) log(Q(x) + Q(x+d)) is
        not concave, and unguarded Newton overshoots to where Q underflows.
        A point stops moving after its first step below _EDGE_TOL, so its
        result depends on its own w only.
        r is defined iff 1/sqrt(2) - |w| - 1e-15 > 0; the inset keeps c
        away from 0 at the corners.  Elsewhere x, y and r are NaN.
        """
        ok = DIAMOND_RADIUS - np.abs(w) - 1e-15 > 0
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
        x = np.where(ok, x, np.nan)
        y = x + d
        return x, y, (ndtr(-x) - ndtr(-y)) / SQRT2

    def _solve_distinct(self, w):
        """(distinct w, index scattering them back, x, y, r solved on them).

        -0.0 and 0.0 share a slot: both give the same results (np.sign is 0).
        Each NaN takes a slot of its own, and gives NaN.
        """
        flat = w.ravel()
        order = np.argsort(flat)
        ws = flat[order]
        first = np.ones(ws.size, dtype=bool)
        np.not_equal(ws[1:], ws[:-1], out=first[1:])
        back = np.empty_like(order)
        back[order] = np.cumsum(first) - 1
        wu = ws[first]
        return wu, back, *self._solve(wu)

    def radius(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        _, back, _, _, r = self._solve_distinct(w)
        return np.reshape(r[back], w.shape)

    def jet(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        wu, back, x, y, r = self._solve_distinct(w)
        px = std_normal_pdf(x)
        py = std_normal_pdf(y)
        r_w = np.sign(wu) * (py - px) / (py + px)
        r_ww = -self.d * (1.0 - r_w * r_w) / (SQRT2 * (px + py))
        r, r_w, r_ww = (np.reshape(a[back], w.shape) for a in (r, r_w, r_ww))
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


def band_edges(model, o: Orientation, s):
    """Band edges (t-, t+) on each slice s of a 1-D array, clipped to the diamond.

    Each edge is the root of tau - r(s, +-tau) on [0, 1/sqrt(2) - |s|] in the
    frame o, found by Newton's method safeguarded with bisection.  Where r
    does not depend on the band coordinate the first Newton step lands on r
    exactly, and where r is affine in it, on the closed-form edge; where no
    root lies inside the diamond the bracket closes on the boundary.  A point
    keeps its tau once it has converged, so its edges depend on its own s
    only: a batch gives bit for bit the edges of one-point calls.
    """
    sign = np.repeat([1.0, -1.0], s.size)
    ss = np.tile(s, 2)
    lo = np.zeros_like(ss)
    hi = DIAMOND_RADIUS - np.abs(ss)
    tau = lo.copy()
    for _ in range(_BAND_ITERS):
        r, r_t, _, _, _ = o.band_jet(model, *o.swap(sign * tau, ss))
        f = tau - r
        done = (np.abs(f) <= _BAND_TOL) | (hi - lo <= _BAND_TOL)
        if np.all(done):
            break
        below = f < 0
        lo = np.where(below, tau, lo)
        hi = np.where(below, hi, tau)
        cand = tau - f / (1.0 - sign * r_t)
        inside = (cand > lo) & (cand < hi)
        tau = np.where(done, tau, np.where(inside, cand, 0.5 * (lo + hi)))
    return -tau[s.size:], tau[: s.size]


def support_band(model, w: float) -> SupportBand:
    """Transverse support band of the upper family at position w on the singular axis.

    The edges come from ``band_edges``, so a band that spills over the
    diamond is clipped to it, and at the corners w = +-1/sqrt(2) the band
    has zero width.  w must lie on the diamond.
    """
    w = float(w)
    if not abs(w) <= DIAMOND_RADIUS:
        raise DomainError(f"w={w!r} outside the diamond, |w| <= 1/sqrt(2)")
    lower, upper = (float(e[0]) for e in band_edges(model, Orientation.UPPER_M, np.array([w])))
    kappa = upper / abs(lower) if lower < 0 else math.inf
    return SupportBand(w, lower, upper, kappa)


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
            return product_radius(obj["p"], epsilon=obj.get("epsilon"), q=obj.get("q"))
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
