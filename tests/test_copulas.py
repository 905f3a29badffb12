import math
import re
import tracemalloc

import numpy as np
import pytest

from band_helpers import band_average_second_partials, kernel_outputs, rectangle_volume
from fhsmooth.copulas import (
    CopulaSpec,
    copula_density,
    copula_partials,
    copula_values,
    smoothed_value,
)
from fhsmooth.geometry import SQRT2, Orientation, SquarePoint, uv_to_wz, wz_to_uv
from fhsmooth.radius import RadiusEvalError, constant_radius, gaussian_band_radius, product_radius

G0 = 4.0 / (3.0 * math.pi)

CONST = CopulaSpec("smoothed_upper", constant_radius(0.2))
CONST_LOWER = CopulaSpec("smoothed_lower", constant_radius(0.2))
GAUSS = CopulaSpec("smoothed_upper", gaussian_band_radius(1.0))

# models that actually produce copulas (radius vanishes at the singular
# axis corners, quadratic certificate holds)
VALID_UPPER = [
    CopulaSpec("smoothed_upper", gaussian_band_radius(0.5)),
    CopulaSpec("smoothed_upper", gaussian_band_radius(1.0)),
    CopulaSpec("smoothed_upper", gaussian_band_radius(2.0)),
    CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.0)),
    CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.2)),
]
VALID_LOWER = [
    CopulaSpec("smoothed_lower", product_radius([1.0], q=[0.25, 0, -0.5])),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        CopulaSpec("smoothed_upper")  # model required
    with pytest.raises(ValueError):
        CopulaSpec("fh_upper", constant_radius(0.2))  # model forbidden
    with pytest.raises(ValueError):
        CopulaSpec("upper")


def test_fh_values():
    lower, upper = Orientation.LOWER_W, Orientation.UPPER_M
    assert lower.fh_values(0.3, 0.5) == 0.0
    assert upper.fh_values(0.3, 0.5) == 0.3
    assert lower.fh_values(0.7, 0.8) == pytest.approx(0.5, abs=1e-15)
    assert copula_values(CopulaSpec("fh_lower"), 0.7, 0.8) == lower.fh_values(0.7, 0.8)
    assert copula_values(CopulaSpec("fh_upper"), 0.3, 0.5) == 0.3


def test_smoothed_values_constant_model():
    p = SquarePoint(0.5, 0.5)
    assert smoothed_value(CONST, p) == pytest.approx(0.5 - 0.2 * G0 / SQRT2, abs=1e-14)
    assert smoothed_value(CONST_LOWER, p) == pytest.approx(0.2 * G0 / SQRT2, abs=1e-14)
    # outside the band the smoothed value equals the sharp bound exactly
    assert smoothed_value(CONST, SquarePoint(0.2, 0.8)) == pytest.approx(0.2, abs=1e-15)


def test_smoothed_value_matches_defining_average():
    # frozen from the disc-average oracle (verified in test_oracle)
    assert smoothed_value(CONST, SquarePoint(0.5, 0.5)) == pytest.approx(
        0.4399789122561929, abs=1e-12
    )
    assert smoothed_value(CONST_LOWER, SquarePoint(0.5, 0.5)) == pytest.approx(
        0.0600210877438071, abs=1e-12
    )


def test_partials_constant_model():
    du, dv = copula_partials(CONST, 0.5, 0.5)
    assert du == pytest.approx(0.5, abs=1e-14)
    assert dv == pytest.approx(0.5, abs=1e-14)
    du, dv = copula_partials(CONST, 0.2, 0.8)
    assert du == pytest.approx(1.0, abs=1e-14)
    assert dv == pytest.approx(0.0, abs=1e-14)


def test_partials_match_finite_differences():
    s = 1e-6
    for (u, v) in [(0.55, 0.5), (0.45, 0.52), (0.3, 0.33), (0.62, 0.6)]:
        du, dv = copula_partials(GAUSS, u, v)
        c = lambda uu, vv: float(copula_values(GAUSS, uu, vv))
        fd_u = (c(u + s, v) - c(u - s, v)) / (2 * s)
        fd_v = (c(u, v + s) - c(u, v - s)) / (2 * s)
        assert du == pytest.approx(fd_u, abs=1e-7)
        assert dv == pytest.approx(fd_v, abs=1e-7)


def test_density_constant_model():
    assert copula_density(CONST, 0.5, 0.5) == pytest.approx(
        SQRT2 / (math.pi * 0.2), abs=1e-13
    )
    # on the band edge (z = r exactly) the density vanishes
    u = 0.3
    v = u + 0.2 * SQRT2
    assert copula_density(CONST, u, v) == 0.0
    assert copula_density(CONST, 0.2, 0.8) == 0.0


def test_density_matches_finite_differences():
    rng = np.random.default_rng(13)
    s = 1e-4
    checked = 0
    while checked < 40:
        u, v = rng.uniform(0.15, 0.85, 2)
        w, z = uv_to_wz(u, v)
        r = float(GAUSS.model.radius(w, z))
        if abs(float(z) / r) > 0.9:
            continue
        checked += 1
        c = lambda uu, vv: float(copula_values(GAUSS, uu, vv))
        fd = (c(u + s, v + s) - c(u + s, v - s) - c(u - s, v + s) + c(u - s, v - s)) / (
            4 * s * s
        )
        an = float(copula_density(GAUSS, u, v))
        assert abs(an - fd) <= 1e-6 * max(abs(fd), 1e-6)


@pytest.mark.parametrize("spec", VALID_UPPER + VALID_LOWER)
def test_frechet_ordering_validating_models(spec):
    xs = np.linspace(0, 1, 201)
    uu, vv = np.meshgrid(xs, xs, indexing="ij")
    c = copula_values(spec, uu, vv)
    lower = np.maximum(uu + vv - 1, 0)
    upper = np.minimum(uu, vv)
    assert np.min(c - lower) >= -1e-12
    assert np.min(upper - c) >= -1e-12


@pytest.mark.parametrize("spec", VALID_UPPER + VALID_LOWER)
def test_boundary_preservation_validating_models(spec):
    t = np.linspace(0, 1, 201)
    zero = np.zeros_like(t)
    one = np.ones_like(t)
    assert np.max(np.abs(copula_values(spec, t, zero))) <= 1e-9
    assert np.max(np.abs(copula_values(spec, zero, t))) <= 1e-9
    assert np.max(np.abs(copula_values(spec, t, one) - t)) <= 1e-9
    assert np.max(np.abs(copula_values(spec, one, t) - t)) <= 1e-9


def test_conditional_cdf_shape():
    # du in [0,1], nondecreasing in v; dv likewise in u (validating model)
    us = np.linspace(0.05, 0.95, 19)
    vs = np.linspace(1e-6, 1 - 1e-6, 400)
    for u in us:
        du = copula_partials(GAUSS, np.full_like(vs, u), vs)[0]
        assert np.all(du >= -1e-10) and np.all(du <= 1 + 1e-10)
        assert np.min(np.diff(du)) >= -1e-10
    for v in us:
        dv = copula_partials(GAUSS, vs, np.full_like(vs, v))[1]
        assert np.all(dv >= -1e-10) and np.all(dv <= 1 + 1e-10)
        assert np.min(np.diff(dv)) >= -1e-10


def test_density_nonnegative_on_validating_models():
    mids = (np.arange(201) + 0.5) / 201
    uu, vv = np.meshgrid(mids, mids, indexing="ij")
    for spec in VALID_UPPER + VALID_LOWER:
        dens = copula_density(spec, uu, vv)
        assert np.min(dens) >= -1e-10


def test_density_integral_converges_to_one():
    # The density of every validating model is unbounded at the two corners
    # on its singular axis (the band pinches, c ~ 1/r), so the midpoint rule
    # carries an O(1/n) crest bias there; total mass is exactly 1 by the
    # rectangle volume.  Checked: bias shrinks ~2x per refinement.
    assert rectangle_volume(GAUSS, 0, 1, 0, 1) == pytest.approx(1.0, abs=1e-9)
    errs = []
    for n in (251, 501, 1001):
        mids = 0.5 * (np.linspace(0, 1, n)[:-1] + np.linspace(0, 1, n)[1:])
        uu, vv = np.meshgrid(mids, mids, indexing="ij")
        integral = np.sum(copula_density(GAUSS, uu, vv)) / (n - 1) ** 2
        errs.append(abs(integral - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 5e-4
    assert errs[2] >= 1e-5  # genuine estimator bias, not noise


def test_not_c3_across_band_edge():
    # third-difference probe across |rho| = 1 grows past 1e2 at step 1e-4
    r0 = float(GAUSS.model.radius(0.0, 0.0))

    def mbar(z):
        u, v = wz_to_uv(0.0, z)
        return float(copula_values(GAUSS, u, v))

    s = 1e-4
    zc = r0 - s
    est = (mbar(zc + 2 * s) - 2 * mbar(zc + s) + 2 * mbar(zc - s) - mbar(zc - 2 * s)) / (
        2 * s**3
    )
    assert abs(est) > 100.0


def test_value_partials_density_continuous_across_band_edge():
    r0 = float(GAUSS.model.radius(0.0, 0.0))
    for eps in (1e-4, 1e-6):
        pts = []
        for z in (r0 - eps, r0 + eps):
            u, v = wz_to_uv(0.0, z)
            p = SquarePoint(float(u), float(v))
            du, dv = copula_partials(GAUSS, p.u, p.v)
            pts.append((smoothed_value(GAUSS, p), float(du), float(dv), float(copula_density(GAUSS, p.u, p.v))))
        inner, outer = pts
        assert abs(inner[0] - outer[0]) <= 5 * eps
        assert abs(inner[1] - outer[1]) <= 5 * eps
        assert abs(inner[2] - outer[2]) <= 5 * eps
        # density is Holder-1/2 at the edge, like the kernel's g''
        assert abs(inner[3] - outer[3]) <= 6 * math.sqrt(eps)


def test_band_average_kernel_consistency():
    # the value carries the band average B = r*g(z/r): Mbar = 1/2 + (w - B)/sqrt(2)
    m = product_radius([0.25, 0, -0.2], epsilon=0.3)
    w, z = 0.1, 0.05
    r = float(m.radius(w, z))
    value = float(copula_values(CopulaSpec("smoothed_upper", m), *wz_to_uv(w, z)))
    got = w - SQRT2 * (value - 0.5)
    assert got == pytest.approx(r * kernel_outputs(z / r)[0], abs=1e-15)


def test_band_average_second_partials_variants_differ():
    m = product_radius([0.25, 0, -0.2], epsilon=0.3)
    up = Orientation.UPPER_M
    chain = band_average_second_partials(m, 0.1, 0.08, up)[0]
    single = band_average_second_partials(m, 0.1, 0.08, up, single_cross=True)[0]
    assert abs(float(chain) - float(single)) > 1e-3


def test_density_rejects_fh_families():
    with pytest.raises(ValueError):
        copula_density(CopulaSpec("fh_upper"), 0.5, 0.5)
    with pytest.raises(ValueError):
        copula_partials(CopulaSpec("fh_lower"), 0.5, 0.5)


def test_undefined_radius_rule():
    # the gaussian radius is undefined at the corners (0, 0) and (1, 1):
    # the value falls back to the sharp bound there, partials and density
    # raise, with plain floats in the message
    u = np.array([0.0, 0.5, 1.0])
    assert np.array_equal(copula_values(GAUSS, u, u)[[0, 2]], [0.0, 1.0])
    for f in (copula_partials, copula_density):
        with pytest.raises(RadiusEvalError, match=r"at u=0\.0, v=0\.0$"):
            f(GAUSS, u, u)
    # a radius that is undefined inside the diamond raises for the value too
    class Holed:
        def radius(self, w, z):
            return np.where(np.abs(w) < 0.1, np.nan, 0.2)

    with pytest.raises(RadiusEvalError, match=r"at u=0\.5, v=0\.5$"):
        copula_values(CopulaSpec("smoothed_upper", Holed()), u, u)


@pytest.mark.parametrize(
    "spec, corners",
    [(VALID_UPPER[-1], [(0.0, 0.0), (1.0, 1.0)]), (VALID_LOWER[0], [(1.0, 0.0), (0.0, 1.0)])],
    ids=["upper", "lower"],
)
def test_product_corners_refuse_jets(spec, corners):
    # r vanishes at the corners of the singular axis, but the polynomial rounds
    # to ~1e-16 > 0 there: partials and density raise, as for the gaussian,
    # and the value is the sharp bound's, not r*g(0) of that residue
    for u, v in corners:
        assert 0.0 < spec.model.radius(*uv_to_wz(u, v)) < 1e-15
        for f in (copula_partials, copula_density):
            with pytest.raises(RadiusEvalError, match=re.escape(f"at u={u!r}, v={v!r}") + "$"):
                f(spec, u, v)
        assert copula_values(spec, u, v) == spec.orientation.fh_values(u, v)
        assert np.isfinite(copula_density(spec, u + (1e-9 if u == 0 else -1e-9), v))  # just inside


def test_nan_point_gives_nan():
    # NaN never becomes a number: it reaches the kernel only where r is
    # defined at it (the constant model); elsewhere the value falls back to
    # the sharp bound at NaN and the jets raise
    u, v = np.array([np.nan, 0.5]), np.array([0.5, np.nan])
    for spec in (CONST, CONST_LOWER):
        for out in (copula_values(spec, u, v), *copula_partials(spec, u, v), copula_density(spec, u, v)):
            assert np.all(np.isnan(out))
    assert np.all(np.isnan(copula_values(GAUSS, u, v)))
    for f in (copula_partials, copula_density):
        with pytest.raises(RadiusEvalError, match=r"at u=nan, v=0\.5$"):
            f(GAUSS, u, v)


def _midpoints(n):
    mids = (np.arange(n) + 0.5) / n
    return np.meshgrid(mids, mids, indexing="ij")


def _outputs(spec, u, v):
    return (copula_values(spec, u, v), *copula_partials(spec, u, v), copula_density(spec, u, v))


@pytest.mark.parametrize("spec", [GAUSS, VALID_LOWER[0]], ids=["upper", "lower"])
def test_blocked_calls_equal_row_by_row(spec):
    # 300^2 = 90 000 points run as two full 2^15-point blocks and a partial
    # one; each row (300 points) is far below one block, so it is one pass
    uu, vv = _midpoints(300)
    rows = [_outputs(spec, uu[i], vv[i]) for i in range(300)]
    for got, want in zip(_outputs(spec, uu, vv), zip(*rows)):
        assert got.shape == (300, 300)
        assert np.array_equal(got, np.stack(want))
    # a scalar u broadcast against 40 000 v
    v = (np.arange(40_000) + 0.5) / 40_000
    pieces = [_outputs(spec, 0.3, v[i : i + 400]) for i in range(0, v.size, 400)]
    for got, want in zip(_outputs(spec, 0.3, v), zip(*pieces)):
        assert got.shape == v.shape
        assert np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("first, second", [(70_001, 80_000), (32_767, 32_768)], ids=["one-block", "two-blocks"])
def test_blocked_call_raises_at_the_first_undefined_point(first, second):
    # the two flat points are the corners where the gaussian radius is
    # undefined, in one block or on both sides of the first block's end; the
    # first in row-major order is named, as by one pass over the rows
    uu, vv = _midpoints(300)
    uu.flat[first] = vv.flat[first] = 1.0
    uu.flat[second] = vv.flat[second] = 0.0
    with pytest.raises(RadiusEvalError, match=r"at u=1\.0, v=1\.0$") as blocked:
        copula_density(GAUSS, uu, vv)
    with pytest.raises(RadiusEvalError) as by_rows:
        for i in range(300):
            copula_density(GAUSS, uu[i], vv[i])
    assert str(blocked.value) == str(by_rows.value)


@pytest.mark.parametrize(
    "f, limit_mb",
    [(copula_values, 8.0), (copula_partials, 16.0), (copula_density, 8.0)],
    ids=["values", "partials", "density"],
)
def test_large_calls_have_a_bounded_working_set(f, limit_mb):
    # on a 512^2 lattice each output is 2 MB: the limits are four outputs'
    # worth (eight for the pair of partials), far below what one pass over
    # all points keeps alive
    uu, vv = _midpoints(512)
    f(GAUSS, uu, vv)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        f(GAUSS, uu, vv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6, peak
