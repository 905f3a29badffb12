import math

import numpy as np
import pytest

from fhsmooth.copulas import CopulaSpec, smoothed_value
from band_helpers import band_average, band_average_second_partials, kernel_outputs
from fhsmooth.geometry import SQRT2, DiamondPoint, Orientation, SquarePoint, wz_to_uv
from fhsmooth.oracle import OracleRequest, disc_average, fd_second_partials
from fhsmooth.radius import constant_radius, gaussian_band_radius, product_radius


def test_request_validation():
    with pytest.raises(ValueError):
        OracleRequest("abs_q", DiamondPoint(0, 0), 0.1)
    with pytest.raises(ValueError):
        OracleRequest("abs_w", DiamondPoint(0, 0), -0.1)
    with pytest.raises(ValueError):
        OracleRequest("abs_w", DiamondPoint(0, 0), 0.1, rel_tol=1e-13)


def test_disc_average_abs_z_centered():
    req = OracleRequest("abs_z", DiamondPoint(0.0, 0.0), 0.2, 1e-10)
    assert disc_average(req) == pytest.approx(0.2 * 4 / (3 * math.pi), abs=1e-10)


def test_disc_average_abs_w_outside_band():
    # |w| >= radius: the integrand is affine over the whole disc
    req = OracleRequest("abs_w", DiamondPoint(0.5, 0.0), 0.2, 1e-10)
    assert disc_average(req) == pytest.approx(0.5, abs=1e-10)


def test_disc_average_affine_integrand_is_center_value():
    req = OracleRequest("fh_lower", DiamondPoint(0.4, 0.1), 0.1, 1e-10)
    assert disc_average(req) == pytest.approx(0.8 / SQRT2, abs=1e-10)


def test_disc_average_matches_kernel_closed_form():
    # r*g(z/r) equals the average of |z'| for band coordinates across [0, 2]
    rng = np.random.default_rng(7)
    for _ in range(100):
        rho = rng.uniform(0, 2) * rng.choice([-1, 1])
        radius = rng.uniform(0.05, 0.45)
        z = rho * radius
        w = rng.uniform(-0.3, 0.3)
        got = disc_average(OracleRequest("abs_z", DiamondPoint(w, z), radius, 1e-10))
        want = radius * kernel_outputs(rho)[0]
        assert abs(got - want) <= 1e-8 * max(1.0, radius)


def test_disc_average_linearity_of_lower_bound():
    # (w' + |w'|)/sqrt(2) averages to (center_w + avg|w'|)/sqrt(2)
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.uniform(-0.4, 0.4)
        z = rng.uniform(-0.3, 0.3)
        radius = rng.uniform(0.05, 0.3)
        center = DiamondPoint(w, z)
        lhs = disc_average(OracleRequest("fh_lower", center, radius, 1e-11))
        rhs = (w + disc_average(OracleRequest("abs_w", center, radius, 1e-11))) / SQRT2
        assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize(
    "model",
    [
        constant_radius(0.2),
        product_radius([0.25, 0, -0.2], epsilon=0.3),
        gaussian_band_radius(1.0),
    ],
    ids=["constant", "product", "gaussian"],
)
def test_defining_integral_matches_smoothed_value(model):
    # the disc average of the sharp upper bound with the model's own radius
    # equals the closed-form smoothed value, copula or not
    spec = CopulaSpec("smoothed_upper", model)
    rng = np.random.default_rng(9)
    count = 0
    while count < 100:
        w = rng.uniform(-0.45, 0.45)
        z = rng.uniform(-0.35, 0.35)
        if abs(w) + abs(z) > 0.65:
            continue
        count += 1
        r = float(model.radius(w, z))
        got = disc_average(OracleRequest("fh_upper", DiamondPoint(w, z), r, 1e-10))
        u, v = wz_to_uv(w, z)
        want = smoothed_value(spec, SquarePoint(float(u), float(v)))
        assert abs(got - want) <= 1e-8


def test_fd_second_partials_adjudicate_band_curvature():
    # finite differences of the closed-form band average for the gaussian
    # model agree with the chain-rule second partials
    m = gaussian_band_radius(1.0)
    up = Orientation.UPPER_M
    p = DiamondPoint(0.05, 0.02)
    f = lambda w, z: float(band_average(m, w, z, up))
    fd_ww, fd_zz = fd_second_partials(f, p, 1e-4)
    b_tt, b_nn = band_average_second_partials(m, p.w, p.z, up)
    assert fd_zz == pytest.approx(float(b_tt), rel=1e-5)
    assert fd_ww == pytest.approx(float(b_nn), rel=1e-5)


def test_fd_second_partials_quadratic():
    f_ww, f_zz = fd_second_partials(lambda w, z: w * w, DiamondPoint(0.1, 0.1), 1e-4)
    assert f_ww == pytest.approx(2.0, abs=1e-6)
    assert f_zz == pytest.approx(0.0, abs=1e-6)
    f_ww, f_zz = fd_second_partials(lambda w, z: w * z, DiamondPoint(0.1, 0.1), 1e-4)
    assert f_ww == pytest.approx(0.0, abs=1e-6)
    assert f_zz == pytest.approx(0.0, abs=1e-6)


def test_fd_second_partials_step_bounds():
    with pytest.raises(ValueError):
        fd_second_partials(lambda w, z: w, DiamondPoint(0, 0), 1e-8)
    with pytest.raises(ValueError):
        fd_second_partials(lambda w, z: w, DiamondPoint(0, 0), 0.1)
