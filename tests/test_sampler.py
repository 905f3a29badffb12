import math

import numpy as np
import pytest

import fhsmooth.sampler as sampler
from fhsmooth.copulas import CopulaSpec, copula_density, copula_partials
from fhsmooth.geometry import uv_to_wz
from fhsmooth.radius import constant_radius, gaussian_band_radius
from fhsmooth.sampler import (
    InvalidModelError,
    conditional_inverse,
    counter_uniforms,
    sample_batch,
    to_gaussian,
)
from fhsmooth.serialize import csv_text
from test_acceptance import VALIDATING_SPECS

GAUSS = CopulaSpec("smoothed_upper", gaussian_band_radius(1.0))


def ks_uniform(sample):
    s = np.sort(sample)
    n = len(s)
    grid = np.arange(n, dtype=float)
    return max(np.max((grid + 1) / n - s), np.max(s - grid / n))


def test_counter_uniforms_are_keyed_and_open():
    idx = np.arange(1000, dtype=np.uint64)
    a = counter_uniforms(1, idx)
    b = counter_uniforms(2, idx)
    assert np.all((a > 0) & (a < 1))
    assert not np.array_equal(a, b)
    # counter-based: values depend only on (seed, counter), not on batch shape
    assert np.array_equal(a[100:200], counter_uniforms(1, idx[100:200]))


def test_conditional_draw_symmetry():
    v = conditional_inverse(GAUSS, 0.5, 0.5)
    assert v == pytest.approx(0.5, abs=1e-10)


def test_conditional_inverse_residuals():
    rng = np.random.default_rng(17)
    u = rng.uniform(0.02, 0.98, 500)
    t = rng.uniform(0.001, 0.999, 500)
    v = conditional_inverse(GAUSS, u, t)
    res = np.abs(copula_partials(GAUSS, u, v)[0] - t)
    assert np.max(res) <= 1e-9


def test_sample_batch_deterministic():
    a = sample_batch(GAUSS, 5000, seed=42)
    b = sample_batch(GAUSS, 5000, seed=42)
    assert np.array_equal(a.pairs, b.pairs)
    c = sample_batch(GAUSS, 5000, seed=43)
    assert not np.array_equal(a.pairs, c.pairs)
    # prefix property of the counter-based generator
    d = sample_batch(GAUSS, 1000, seed=42)
    assert np.array_equal(d.pairs, a.pairs[:1000])


def test_sample_batch_support():
    batch = sample_batch(GAUSS, 20_000, seed=3)
    u, v = batch.pairs[:, 0], batch.pairs[:, 1]
    w, z = uv_to_wz(u, v)
    r = GAUSS.model.radius(w, z)
    assert np.max(np.abs(z) - r) <= 1e-9
    xy = to_gaussian(batch)
    assert np.max(np.abs(xy[:, 1] - xy[:, 0])) <= 1.0 + 1e-6
    assert abs(float(np.mean(xy[:, 0]))) <= 0.02  # standard normal marginal


def test_sample_batch_marginals():
    batch = sample_batch(GAUSS, 20_000, seed=4)
    crit = 1.5 * 1.36 / math.sqrt(20_000)
    assert ks_uniform(batch.pairs[:, 0]) <= crit
    assert ks_uniform(batch.pairs[:, 1]) <= crit


def test_rejects_non_validating_model():
    bad = CopulaSpec("smoothed_upper", constant_radius(0.2))
    with pytest.raises(InvalidModelError):
        sample_batch(bad, 10, seed=0)
    with pytest.raises(InvalidModelError):
        sample_batch(CopulaSpec("fh_upper"), 10, seed=0)
    with pytest.raises(ValueError):
        sample_batch(GAUSS, 0, seed=0)


def test_to_gaussian_values():
    batch = sample_batch(GAUSS, 2, seed=0)
    object.__setattr__(batch, "pairs", np.array([[0.5, 0.6914624612740131], [0.5, 0.5]]))
    xy = to_gaussian(batch)
    assert xy[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert xy[0, 1] == pytest.approx(0.5, abs=1e-6)
    assert xy[1, 0] == 0.0 and xy[1, 1] == 0.0


def test_csv_serialization_17_digits():
    batch = sample_batch(GAUSS, 3, seed=1)
    text = csv_text("u,v", batch.pairs)
    lines = text.strip().split("\n")
    assert lines[0] == "u,v"
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed, batch.pairs)


def _bisect(spec, u, t):
    """Reference inverse: 60 bisection steps on [0, 1]."""
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = copula_partials(spec, u, mid)[0] < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _record_partials(monkeypatch):
    """Wrap sampler.copula_partials; returns the list of u arrays it was called on."""
    calls = []

    def recorded(spec, u, v):
        calls.append(np.array(u))
        return copula_partials(spec, u, v)

    monkeypatch.setattr(sampler, "copula_partials", recorded)
    return calls


def _pairs(n, seed):
    idx = np.arange(n, dtype=np.uint64)
    u = counter_uniforms(seed, idx * np.uint64(2))
    t = counter_uniforms(seed, idx * np.uint64(2) + np.uint64(1))
    t[:100] = 1e-12
    t[100:200] = 1.0 - 1e-12
    t[200:250] = 1e-15
    t[250:300] = 1.0 - 1e-15
    return u, t


@pytest.mark.parametrize("spec", VALIDATING_SPECS, ids=lambda s: f"{s.family}-{s.model.kind}")
def test_conditional_inverse_matches_bisection(spec, monkeypatch):
    n = 20_000
    u, t = _pairs(n, seed=5)
    calls = _record_partials(monkeypatch)
    v = conditional_inverse(spec, u, t)
    assert sum(c.size for c in calls) / n <= 16.0
    assert len(calls) < sampler._MAX_STEPS  # no pair reached the cap
    monkeypatch.undo()
    assert np.max(np.abs(copula_partials(spec, u, v)[0] - t)) <= 1e-9
    # where the density at the root is tiny (t within 1e-12 of 0 or 1),
    # dC/du - t changes sign at rounding level over an interval of width
    # about eps/density, and both solvers may land anywhere inside it
    v_ref = _bisect(spec, u, t)
    density = np.maximum(copula_density(spec, u, v), copula_density(spec, u, v_ref))
    eps = np.finfo(float).eps
    assert np.all(np.abs(v - v_ref) <= 1e-13 + 4.0 * eps / density)
    well_posed = (t >= 1e-6) & (t <= 1.0 - 1e-6)
    assert np.max(np.abs(v - v_ref)[well_posed]) <= 1e-13


@pytest.mark.parametrize("spec", [GAUSS, VALIDATING_SPECS[-1]], ids=["gauss", "lower"])
def test_conditional_inverse_scalar_matches_batch(spec, monkeypatch):
    n = 5000
    u, t = _pairs(n, seed=8)
    calls = _record_partials(monkeypatch)
    v = conditional_inverse(spec, u, t)
    monkeypatch.undo()
    slowest = int(np.flatnonzero(u == calls[-1][0])[0])
    for k in (0, 1, 150, 2047, 4096, n - 1, slowest):
        assert conditional_inverse(spec, u[k], t[k]) == v[k]


@pytest.mark.parametrize("seed", [-1, 2**64 + 5])
def test_sample_batch_prefix_for_wrapped_seeds(seed):
    long = sample_batch(GAUSS, 3000, seed=seed)
    short = sample_batch(GAUSS, 1000, seed=seed)
    assert np.array_equal(short.pairs, long.pairs[:1000])
    assert np.all((long.pairs > 0) & (long.pairs < 1))
