"""Conditional-inverse sampling of the smoothed copulas.

For each pair, u and a level t are drawn from a counter-based generator
(splitmix64 keyed by seed and pair index, so output is reproducible and
independent of evaluation order), then v solves dC/du(u, v) = t.  dC/du is
a continuous nondecreasing function of v with range [0, 1] for validating
models, so [0, 1] brackets the root.  The solve is Chandrupatla's bracketed
method (Adv. Eng. Software 28(3), 1997): inverse quadratic interpolation
where it is safe, bisection elsewhere.  An unbracketed Newton step would be
unsafe, because the conditional density vanishes outside the band; the
bracket keeps bisection's guarantee at about a sixth of its evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import CopulaSpec, copula_partials
from .kernel import std_normal_quantile
from .validator import orientation_for_family, validate_model

_MAX_STEPS = 60  # cap on evaluations of f per pair
_EPS = np.finfo(float).eps
_VALIDATE_GRID = 64
_QUANTILE_CLAMP = 1e-15

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_KEY_TWEAK = np.uint64(0xD1B54A32D192ED03)


class InvalidModelError(ValueError):
    """The radius model does not validate; sampling from it would be meaningless."""


@dataclass(frozen=True)
class SampleBatch:
    """Ordered (u, v) pairs plus the generator state that produced them."""

    pairs: np.ndarray  # shape (n, 2)
    seed: int
    spec: CopulaSpec


def _splitmix64(x):
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


def counter_uniforms(seed: int, counters) -> np.ndarray:
    """Uniforms in (0, 1) at the given counters, keyed by seed."""
    counters = np.asarray(counters, dtype=np.uint64)
    seed64 = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)  # wrap negative/huge seeds
    with np.errstate(over="ignore"):
        key = _splitmix64(seed64 ^ _KEY_TWEAK)
        bits = _splitmix64(key + (counters + np.uint64(1)) * _GOLDEN)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _chandrupatla_step(t, a, b, c, fa, fb, fc, lim):
    """Where to evaluate next, as a fraction of the way from a to b.

    Inverse quadratic interpolation through the three points where it is
    monotone on them and all three lie inside the band (where dC/du is 0
    or 1 the points say nothing about the slope); bisection elsewhere.  The
    fraction is kept in [lim, 1 - lim], at least tol/2 from either end.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        for f in (fa, fb, fc):
            iqi &= np.abs(f + t - 0.5) < 0.5 - 4.0 * _EPS
        quad = fa / (fb - fa) * fc / (fb - fc)
        quad += (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        return np.clip(np.where(iqi, quad, 0.5), lim, 1.0 - lim)


def conditional_inverse(spec: CopulaSpec, u, t):
    """Solve dC/du(u, v) = t for v by Chandrupatla's method (vectorized).

    f(v) = dC/du(u, v) - t has the known end values f(0) = -t and
    f(1) = 1 - t, so neither end of the bracket [0, 1] is evaluated.  Each
    step evaluates f only at the pairs still running; a pair is retired
    once |f| reaches the rounding level of dC/du or its bracket is a few
    ulp wide, so its result depends on its own (u, t) only.
    """
    scalar = np.ndim(u) == 0 and np.ndim(t) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u, t = np.broadcast_arrays(u, t)
    shape = u.shape
    u, t = u.ravel(), t.ravel()
    v = np.empty(u.size)
    run = np.arange(u.size)
    # dC/du carries about one ulp of 1 of rounding, so |f| <= eps is a root;
    # not where t itself is that close to 0 or 1, or a point outside the
    # band, where dC/du is exactly 0 or 1, would pass
    ftol = np.where(np.abs(t - 0.5) < 0.5 - 2.0 * _EPS, _EPS, 0.0)
    a, fa = np.zeros(u.size), -t
    b, fb = np.ones(u.size), 1.0 - t
    c, fc = b, fb
    frac = np.full(u.size, 0.5)
    for step in range(_MAX_STEPS):
        x = a + frac * (b - a)
        fx = copula_partials(spec, u, x)[0] - t
        # [a, b] keeps f < 0 at one end and f >= 0 at the other, with a the
        # newest point; c is the point it replaced
        same = (fx < 0) == (fa < 0)
        c, fc = np.where(same, a, b), np.where(same, fa, fb)
        b, fb = np.where(same, b, a), np.where(same, fb, fa)
        a, fa = x, fx
        nearer = np.abs(fa) < np.abs(fb)
        best = np.where(nearer, a, b)
        width = np.abs(b - a)
        # f sees v only through u + v and v - u, rounded to an ulp of
        # max(u, v); a narrower bracket carries no more information
        tol = 4.0 * _EPS * np.maximum(best, u)
        done = (np.abs(np.where(nearer, fa, fb)) <= ftol) | (width <= tol)
        if step == _MAX_STEPS - 1:
            done[:] = True
        v[run[done]] = best[done]
        if done.all():
            break
        keep = ~done
        run, u, t, ftol, a, b, c, fa, fb, fc, width, tol = (
            arr[keep] for arr in (run, u, t, ftol, a, b, c, fa, fb, fc, width, tol)
        )
        frac = _chandrupatla_step(t, a, b, c, fa, fb, fc, 0.5 * tol / width)
    v = v.reshape(shape)
    return float(v[0]) if scalar else v


def sample_batch(spec: CopulaSpec, n: int, seed: int) -> SampleBatch:
    """Draw n reproducible pairs from a validated smoothed copula."""
    if not spec.smoothed:
        raise InvalidModelError(f"sampling requires a smoothed family, got {spec.family!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    report = validate_model(
        spec.model, orientation_for_family(spec.family), _VALIDATE_GRID
    )
    if not report.verdict:
        raise InvalidModelError(
            "model failed validation "
            f"(positivity={report.positivity_pass}, quadratic={report.quadratic_pass}, "
            f"containment={report.containment_pass}); refusing to sample"
        )
    idx = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        u = counter_uniforms(seed, idx * np.uint64(2))
        t = counter_uniforms(seed, idx * np.uint64(2) + np.uint64(1))
    v = conditional_inverse(spec, u, t)
    return SampleBatch(pairs=np.column_stack([u, v]), seed=int(seed), spec=spec)


def to_gaussian(batch: SampleBatch) -> np.ndarray:
    """Map (U, V) to (X, Y) = (quantile(U), quantile(V)); marginals standard normal."""
    clipped = np.clip(batch.pairs, _QUANTILE_CLAMP, 1.0 - _QUANTILE_CLAMP)
    return std_normal_quantile(clipped)
