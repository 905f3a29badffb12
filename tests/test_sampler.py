import math

import numpy as np
import pytest

import fhsmooth.sampler as sampler
from fhsmooth.copulas import CopulaSpec, copula_density, copula_partials
from fhsmooth.geometry import DomainError, uv_to_wz
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


def test_counter_uniforms_top_draw_is_below_one():
    # the draw with all 53 top bits set, (2^53 - 1) + 0.5, rounds to 2^53 (1.0);
    # its counter inverts the splitmix64 finalizer, and this seed makes the key 0
    def unshift(y, k):  # inverts y ^ (y >> k)
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x

    m64, inv = 2**64 - 1, lambda a: pow(a, -1, 2**64)
    x = unshift(unshift(m64, 31) * inv(0x94D049BB133111EB) & m64, 27)
    x = unshift(x * inv(0xBF58476D1CE4E5B9) & m64, 30)
    counter = (x * inv(0x9E3779B97F4A7C15) - 1) & m64
    u = counter_uniforms(0xD1B54A32D192ED03, [counter - 1, counter, counter + 1])
    assert u[1] == np.nextafter(1.0, 0.0) and np.all((u > 0.0) & (u < 1.0))


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


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_conditional_inverse_end_roots(t, monkeypatch):
    # f(0) = -t and f(1) = 1 - t: at t = 0 (f(0) = -0.0) and t = 1 the
    # bracket's own end is the root
    spec = VALIDATING_SPECS[4]
    calls = _record_partials(monkeypatch)
    assert conditional_inverse(spec, 0.5, t) == t
    assert len(calls) <= 1
    idx = np.arange(50, dtype=np.uint64)
    u, tt = counter_uniforms(9, idx * np.uint64(2)), counter_uniforms(9, idx * np.uint64(2) + np.uint64(1))
    tt[::2] = t
    v = conditional_inverse(spec, u, tt)
    assert np.all(v[::2] == t)
    assert np.array_equal(v[1::2], conditional_inverse(spec, u[1::2], tt[1::2]))


@pytest.mark.parametrize("u, t", [(-0.1, 0.5), (1.5, 0.5), (math.nan, 0.5), (0.5, -0.1), (0.5, 1.5), (0.5, math.nan)])
def test_conditional_inverse_rejects_points_outside_the_square(u, t):
    with pytest.raises(DomainError):
        conditional_inverse(VALIDATING_SPECS[4], [0.5, u], [0.5, t])


def test_conditional_inverse_empty():
    assert conditional_inverse(GAUSS, np.array([]), np.array([])).shape == (0,)


def test_conditional_inverse_step_cap_returns_each_pairs_best_bracket_end(monkeypatch):
    # with a cap of one step f is evaluated at v = 1/2 only; no pair is within
    # tolerance there, and each returns whichever of 1/2 and the end still
    # bracketing its root has the smaller |f|, not the initial v = 0
    u, t = np.array([0.9, 0.2, 0.5]), np.array([0.7, 0.3, 0.49])
    f_half = copula_partials(GAUSS, u, np.full(3, 0.5))[0] - t  # about -0.7, 0.66 and 0.01
    end, f_end = np.where(f_half < 0, 1.0, 0.0), np.where(f_half < 0, 1.0 - t, -t)
    best = np.where(np.abs(f_half) < np.abs(f_end), 0.5, end)
    assert best.tolist() == [1.0, 0.0, 0.5]
    monkeypatch.setattr(sampler, "_MAX_STEPS", 1)
    calls = _record_partials(monkeypatch)
    assert np.array_equal(conditional_inverse(GAUSS, u, t), best)
    assert len(calls) == 1


def _reference_inverse(spec, u, t, sizes):
    """conditional_inverse on flat (u, t) as it read when it compacted every
    step with twelve boolean masks; appends each copula_partials size to sizes."""
    eps, max_steps = np.finfo(float).eps, 60
    v = np.where(t == 1.0, 1.0, 0.0)
    run = np.flatnonzero((t > 0.0) & (t < 1.0))
    u, t = u[run], t[run]
    ftol = np.where(np.abs(t - 0.5) < 0.5 - 2.0 * eps, eps, 0.0)
    a, fa = np.zeros(u.size), -t
    b, fb = np.ones(u.size), 1.0 - t
    c, fc = b, fb
    frac = np.full(u.size, 0.5)
    for step in range(max_steps if run.size else 0):
        x = a + frac * (b - a)
        sizes.append(x.size)
        fx = copula_partials(spec, u, x)[0] - t
        same = (fx < 0) == (fa < 0)
        c, fc = np.where(same, a, b), np.where(same, fa, fb)
        b, fb = np.where(same, b, a), np.where(same, fb, fa)
        a, fa = x, fx
        nearer = np.abs(fa) < np.abs(fb)
        best = np.where(nearer, a, b)
        width = np.abs(b - a)
        tol = 4.0 * eps * np.maximum(best, u)
        done = (np.abs(np.where(nearer, fa, fb)) <= ftol) | (width <= tol)
        if step == max_steps - 1:
            done[:] = True
        v[run[done]] = best[done]
        if done.all():
            break
        keep = ~done
        run, u, t, ftol, a, b, c, fa, fb, fc, width, tol = (
            arr[keep] for arr in (run, u, t, ftol, a, b, c, fa, fb, fc, width, tol)
        )
        frac = sampler._chandrupatla_step(t, a, b, c, fa, fb, fc, 0.5 * tol / width)
    return v


@pytest.mark.parametrize("spec", [VALIDATING_SPECS[-1], GAUSS], ids=["product-lower", "gauss-1"])
def test_conditional_inverse_matches_the_masked_loop_bit_for_bit(spec, monkeypatch):
    # retiring pairs only on steps where some finish, gathered by one index,
    # and the loop's in-place arithmetic must leave every v and every call
    # size as the loop that compacted on every step gave them
    u, t = _pairs(20_000, seed=11)
    t[300:320] = 0.0
    t[320:340] = 1.0
    ref_sizes = []
    v_ref = _reference_inverse(spec, u, t, ref_sizes)
    calls = _record_partials(monkeypatch)
    v = conditional_inverse(spec, u, t)
    assert np.array_equal(v.view(np.int64), v_ref.view(np.int64))
    assert [c.size for c in calls] == ref_sizes
