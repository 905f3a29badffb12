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
  The distinct w and each point's slot come from one np.unique call.

  Phi and Phi^{-1} are scipy.special's ``ndtr`` and ``ndtri``, imported in
  the solve itself rather than at import: the constant and product models
  need numpy alone, and a process that never solves a gaussian band does
  not load scipy.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import DIAMOND_RADIUS, SQRT2, DomainError, Orientation
from .kernel import std_normal_pdf

_AXIS_INSET = 1e-9  # positivity is required on the open diamond only
_SWEEP_POINTS = 1001
# where a product model's p and q must be positive; read-only, shared by every model
_SWEEP_XS = np.linspace(-(DIAMOND_RADIUS - _AXIS_INSET), DIAMOND_RADIUS - _AXIS_INSET, _SWEEP_POINTS)
_SWEEP_XS.flags.writeable = False
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


def _require_sweep(vals, label: str, positive: bool = True):
    """ModelSpecError unless vals, taken at _SWEEP_XS, are finite, and strictly positive if ``positive``."""
    idx, want = vals.argmin(), "strictly positive"  # methods: np.argmin's dispatch costs more than the search
    if vals[idx] > 0.0 or not positive:
        idx, want = vals.argmax(), "finite"  # a NaN counts as the largest
        if vals[idx] < math.inf:
            return
    raise ModelSpecError(
        f"{label} must be {want} across the diamond; "
        f"found {float(vals[idx])!r} at {float(_SWEEP_XS[idx])!r}"
    )


def _max_over_z(q):
    """At each sweep w, the largest of q(z) over the sweep z the diamond holds there (|z| <= L - |w|)."""
    fold = np.maximum.accumulate(np.maximum(q[_SWEEP_POINTS // 2 :], q[_SWEEP_POINTS // 2 :: -1]))
    return np.concatenate((fold, fold[-2::-1]))


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
        return np.full_like(w, self.r0)[()]  # [()]: a 0-d result as np.float64, as polyval gives

    def jet(self, w, z):
        r = self.radius(w, z)
        zero = np.zeros_like(r)[()]
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
        with np.errstate(over="ignore"):  # an overflow is a ModelSpecError below, not a warning
            p, q = (npoly.polyval(_SWEEP_XS, c) for c in (self.p_coeffs, self.q_coeffs))
            _require_sweep(p, "p(w)")
            _require_sweep(q, "q(z)")
            # p and q are positive and finite here, so r's bound overflows to +inf and never to NaN
            _require_sweep(p * _max_over_z(q), "max over z of r(w, z)")

    @functools.cached_property
    def _derivs(self):
        """(p', q', p'', q'') coefficients, built at the first jet, not at construction:
        a model parsed for one value never needs them.  Not part of the model's identity.
        ModelSpecError if one of the jet's products p'q, pq', p''q, pq'' overflows on the diamond."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a ModelSpecError below
            derivs = tuple(npoly.polyder(c, m) for m in (1, 2) for c in (self.p_coeffs, self.q_coeffs))
            factors = (self.p_coeffs, self.q_coeffs) + derivs
            p, q, dp1, dq1, dp2, dq2 = (np.abs(npoly.polyval(_SWEEP_XS, c)) for c in factors)
            for f, g, label in ((dp1, q, "p'q"), (p, dq1, "pq'"), (dp2, q, "p''q"), (p, dq2, "pq''")):
                _require_sweep(f * _max_over_z(g), f"max over z of |{label}|", positive=False)
        return derivs

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
        from scipy.special import ndtr, ndtri  # deferred: see the module docstring
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
        """(distinct w, index of each point's slot in w's shape, x, y, r solved on them).

        -0.0 and 0.0 share a slot: both give the same results (np.sign is 0).
        Each NaN takes a slot of its own (equal_nan=False), and gives NaN.
        """
        wu, back = np.unique(w.ravel(), return_inverse=True, equal_nan=False)
        return wu, back.reshape(w.shape), *self._solve(wu)  # numpy 1.x gives an n-d input's back flat

    def radius(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        _, back, _, _, r = self._solve_distinct(w)
        return r[back]

    def jet(self, w, z):
        w, z = np.broadcast_arrays(np.asarray(w, float), np.asarray(z, float))
        wu, back, x, y, r = self._solve_distinct(w)
        px = std_normal_pdf(x)
        py = std_normal_pdf(y)
        r_w = np.sign(wu) * (py - px) / (py + px)
        r_ww = -self.d * (1.0 - r_w * r_w) / (SQRT2 * (px + py))
        r, r_w, r_ww = r[back], r_w[back], r_ww[back]
        zero = np.zeros_like(r)[()]
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


#: kind -> (factory, its JSON keys besides "kind"): the factory's keyword names, the first required
_KINDS = {
    "constant": (constant_radius, ("r0",)),
    "product": (product_radius, ("p", "epsilon", "q")),
    "gaussian_band": (gaussian_band_radius, ("d",)),
}


def _is_number(x) -> bool:
    """A JSON number float() takes: not a boolean, and an int only within the float range."""
    if isinstance(x, int) and not isinstance(x, bool):
        return abs(x) <= sys.float_info.max
    return isinstance(x, float)


def model_from_json(source) -> object:
    """Build a radius model from a JSON object or its text form, in one call to its kind's factory.

    Accepted shapes (each key but "kind" is a keyword of the factory, ``_KINDS``)::

        {"kind": "constant", "r0": 0.2}
        {"kind": "product", "p": [0.25, 0, -0.2], "epsilon": 0.3}
        {"kind": "product", "p": [...], "q": [...]}
        {"kind": "gaussian_band", "d": 1.0}

    Polynomial coefficients are low-to-high degree.  A string, boolean, null
    or out-of-range integer where a number (or, for p and q, a list of
    numbers) is due raises ModelSpecError, as do a missing r0, p or d and a
    key outside the kind's own set (a misspelled "epsilon" would otherwise
    be dropped without a word).
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except ValueError as exc:  # JSONDecodeError, or an int over Python's digit limit
            raise ModelSpecError(f"invalid radius JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ModelSpecError("radius JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ModelSpecError(f"unknown radius kind {kind!r}")
    factory, keys = _KINDS[kind]
    unknown = [key for key in obj if key != "kind" and key not in keys]
    if unknown:
        raise ModelSpecError(f"radius JSON kind {kind!r} takes only {list(keys)}; got {unknown}")
    if keys[0] not in obj:
        raise ModelSpecError(f"radius JSON missing key {keys[0]!r} for kind {kind!r}")
    for key, x in obj.items():
        many = key in ("p", "q")
        ok = isinstance(x, (list, tuple)) and all(map(_is_number, x)) if many else _is_number(x)
        if key != "kind" and not ok:
            want = "a list of numbers" if many else "a number"
            try:
                got = repr(x)
            except ValueError:  # an int over Python's digit limit: a dict can hold one, JSON text cannot
                got = "an integer too long to print"
            raise ModelSpecError(f"radius JSON {key!r} must be {want}, got {got}")
    return factory(**{key: obj[key] for key in keys if key in obj})


def model_to_json(model) -> dict:
    """Inverse of model_from_json (dict form); a product model keeps the epsilon or q it was built from."""
    if model.kind != "product":
        return {"kind": model.kind, **asdict(model)}  # its one field is its JSON key
    skew = {"q": list(model.q_coeffs)} if model.epsilon is None else {"epsilon": model.epsilon}
    return {"kind": "product", "p": list(model.p_coeffs), **skew}
