"""The disc-averaging kernel and standard-normal special functions.

``g(rho)`` is the mean of |rho + t| over the unit disc's cross sections:

    g(rho) = 2*(rho*arcsin(rho) + sqrt(1-rho^2)*(2+rho^2)/3)/pi   for |rho| < 1
    g(rho) = |rho|                                                otherwise

It is C^2 on the real line, convex, and equals |rho| outside (-1, 1); its
third derivative is unbounded at rho = +-1, which caps the smoothness of
everything built on it.  The companions are

    g'(rho)  = 2*(arcsin(rho) + rho*sqrt(1-rho^2))/pi
    g''(rho) = 4*sqrt(1-rho^2)/pi
    h(rho)   = 4*(1-rho^2)^(3/2)/(3*pi) = g - rho*g' = (1-rho^2)*g''/3

with all four identically |rho|, sign(rho), 0, 0 outside the open band.

``kernel_arrays`` computes only what one copula output reads: order 0
gives g (values), order 1 gives (g', h) (partials) and order 2 gives
(g'', h) (density).  g'' and h are functions of sqrt(1 - rho^2) alone, so
the density needs no arcsin.

``std_normal_quantile`` imports scipy.special's ``ndtri`` when it is first
called, not at import: only the normal-marginal transform needs it, and
a process that never calls it does not load scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import DomainError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def kernel_arrays(rho, *, order):
    """The kernel outputs that one copula output reads, on an array of rho.

    ``order`` 0 gives g, 1 gives (g', h) and 2 gives (g'', h).  Any rho is
    accepted; a NaN gives NaN in every output.
    """
    rho = np.asarray(rho, dtype=float)
    # at |rs| = 1 the formulas give g' = sign(rho), g'' = 0 and h = 0 exactly
    # (2*arcsin(+-1)/pi is +-1.0); only g must switch to |rho| outside the band
    rs = np.clip(rho, -1.0, 1.0)
    # sqrt(1 - rho^2) evaluated as sqrt((1-rho)(1+rho)) to avoid cancellation
    # near the seam: g, g', g'' and h are within 2^-51 absolute at |rho| ~ 1.
    s = np.sqrt((1.0 - rs) * (1.0 + rs))
    if order == 2:
        return 4.0 * s / np.pi, 4.0 * s * s * s / (3.0 * np.pi)
    asin = np.arcsin(rs)
    if order == 1:
        return 2.0 * (asin + rs * s) / np.pi, 4.0 * s * s * s / (3.0 * np.pi)
    if order == 0:
        a = np.abs(rho)
        return np.where(a < 1.0, 2.0 * (rs * asin + s * (2.0 + rs * rs) / 3.0) / np.pi, a)
    raise ValueError(f"order must be 0, 1 or 2, got {order!r}")


def std_normal_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi)."""
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def std_normal_quantile(p):
    """Standard normal quantile on the open interval (0, 1).

    Raises
    ------
    DomainError
        If any input lies at or outside {0, 1}; callers must clamp.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile requires probabilities strictly inside (0, 1)")
    from scipy.special import ndtri  # deferred: see the module docstring
    return ndtri(arr)
