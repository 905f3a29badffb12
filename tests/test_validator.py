from types import SimpleNamespace

import numpy as np
import pytest

from band_helpers import band_average, band_average_second_partials
from fhsmooth.copulas import CopulaSpec, copula_density
from fhsmooth.geometry import DIAMOND_RADIUS, DiamondPoint, uv_to_wz
from fhsmooth.oracle import fd_second_partials
from fhsmooth.radius import constant_radius, gaussian_band_radius, product_radius
from fhsmooth.validator import (
    _QUAD_TOL,
    Orientation,
    _paper_conditions,
    _quad_coeffs,
    _quad_min,
    containment_check,
    validate_model,
)

L = DIAMOND_RADIUS
UP = Orientation.UPPER_M
LOW = Orientation.LOWER_W


def certify(jet, o):
    """validate_model's quadratic gate and paper conditions at one jet (r, r_w, r_z, r_ww, r_zz)."""
    band = o.band_jet(SimpleNamespace(jet=lambda w, z: jet), 0.0, 0.0)
    a, b, c = (float(x) for x in _quad_coeffs(*band))
    m = float(_quad_min(a, b, c))
    return SimpleNamespace(a=a, b=b, c=c, min_value_on_unit_interval=m, passed=m >= _QUAD_TOL,
                           paper_condition_pass=bool(_paper_conditions(*band[1:])))


def test_certificate_constant():
    cert = certify((0.2, 0, 0, 0, 0), UP)
    assert (cert.a, cert.b, cert.c) == (0.0, 0.0, 1.0)
    assert cert.min_value_on_unit_interval == 1.0
    assert cert.passed and cert.paper_condition_pass


def test_certificate_gaussian_center():
    jet = tuple(map(float, gaussian_band_radius(1.0).jet(0.0, 0.0)))
    cert = certify(jet, UP)
    r, _, _, r_ww, r_zz = jet
    d_term = r * (r_zz - r_ww) / 3.0
    assert d_term == pytest.approx(0.0906378, abs=1e-6)
    assert cert.a == pytest.approx(-d_term, abs=1e-12)
    assert cert.b == pytest.approx(0.0, abs=1e-12)
    assert cert.c == pytest.approx(1.0 + d_term, abs=1e-12)
    # a < 0: the minimum sits at the endpoints, p(+-1) = 1 exactly
    assert cert.min_value_on_unit_interval == pytest.approx(1.0, abs=1e-12)
    assert cert.passed


def test_certificate_synthetic_failure():
    cert = certify((0.3, 1.5, 0, 0, 0), UP)
    assert cert.min_value_on_unit_interval == pytest.approx(1 - 1.5**2, abs=1e-14)
    assert not cert.passed


def test_certificate_coefficients_orientation_swap():
    jet = (0.3, 0.1, 0.2, -0.5, 0.4)
    up = certify(jet, UP)
    d_up = 0.3 * (0.4 - (-0.5)) / 3
    assert up.a == pytest.approx(0.2**2 - 0.1**2 - d_up, abs=1e-15)
    assert up.b == pytest.approx(-0.4, abs=1e-15)
    assert up.c == pytest.approx(1 + d_up, abs=1e-15)
    low = certify(jet, LOW)
    d_low = 0.3 * (-0.5 - 0.4) / 3
    assert low.a == pytest.approx(0.1**2 - 0.2**2 - d_low, abs=1e-15)
    assert low.b == pytest.approx(-0.2, abs=1e-15)
    assert low.c == pytest.approx(1 + d_low, abs=1e-15)


def test_certificate_vertex_branch():
    # a > 0, |b| <= 2a: interior vertex is the minimum
    cert = certify((1.0, 0.0, 0.5, 0.0, -1.2), UP)
    assert cert.a > 0 and abs(cert.b) <= 2 * cert.a
    vertex = cert.c - cert.b**2 / (4 * cert.a)
    endpoints = min(cert.a + cert.b + cert.c, cert.a - cert.b + cert.c)
    assert cert.min_value_on_unit_interval == pytest.approx(
        min(vertex, endpoints), abs=1e-15
    )
    assert cert.min_value_on_unit_interval == pytest.approx(vertex, abs=1e-15)


def test_containment_constant_fails_near_corners():
    res = containment_check(constant_radius(0.2), UP, 256)
    assert not res.passed
    assert res.worst_margin == pytest.approx(-0.2, abs=1e-9)
    assert abs(abs(res.worst_point.w) - L) <= 1e-6
    assert abs(res.worst_point.z) <= 1e-6
    res_low = containment_check(constant_radius(0.2), LOW, 256)
    assert not res_low.passed
    assert abs(res_low.worst_point.w) <= 1e-6
    assert abs(abs(res_low.worst_point.z) - L) <= 1e-6


def test_containment_gaussian_passes():
    res = containment_check(gaussian_band_radius(1.0), UP, 256)
    assert res.passed
    assert res.worst_margin >= -1e-9


def test_containment_argument_check():
    with pytest.raises(ValueError):
        containment_check(constant_radius(0.2), UP, 8)


def test_validate_gaussian_passes():
    report = validate_model(gaussian_band_radius(1.0), UP, 64)
    assert report.verdict
    assert report.positivity_pass and report.quadratic_pass
    assert report.paper_sufficient_pass and report.containment_pass


def test_validate_constant_fails_containment_only():
    report = validate_model(constant_radius(0.2), UP, 64)
    assert report.quadratic_pass and report.paper_sufficient_pass
    assert report.positivity_pass
    assert not report.containment_pass
    assert not report.verdict
    assert report.worst_margin == pytest.approx(-0.2, abs=1e-9)


def test_validate_steep_product_fails_quadratic():
    report = validate_model(product_radius([0.6, 0, -1.2], epsilon=0.0), UP, 64)
    assert not report.quadratic_pass
    assert not report.verdict
    assert 0.5 <= abs(report.worst_point.w) <= 0.71
    assert report.worst_margin < -1.0


def test_validate_report_json_fields():
    report = validate_model(constant_radius(0.2), UP, 64)
    d = report.to_json_dict()
    assert set(d) == {
        "positivity_pass",
        "quadratic_pass",
        "paper_sufficient_pass",
        "containment_pass",
        "worst_point",
        "worst_margin",
        "grid_n",
        "verdict",
    }
    assert set(d["worst_point"]) == {"w", "z"}


@pytest.mark.parametrize("grid_n", [8, 64])
def test_validate_jet_sees_the_whole_lattice(grid_n):
    # every midpoint is at least 1/(grid_n*sqrt(2)) inside the diamond, so
    # the quadratic gate runs on all grid_n^2 points, in lattice order
    inner, seen = gaussian_band_radius(1.0), []

    class Recording:
        radius = inner.radius

        def jet(self, w, z):
            seen.append((w, z))
            return inner.jet(w, z)

    assert validate_model(Recording(), UP, grid_n).verdict
    mids = (np.arange(grid_n) + 0.5) / grid_n
    uu, vv = np.meshgrid(mids, mids, indexing="ij")
    want_w, want_z = uv_to_wz(uu.ravel(), vv.ravel())
    [(w, z)] = seen
    assert np.array_equal(w, want_w) and np.array_equal(z, want_z)


@pytest.mark.parametrize("d", [0.05, 0.5, 1.0, 5.0])
def test_gaussian_band_margin_is_one_minus_slope_squared(d):
    # in UPPER_M the gaussian band has r_t = r_tt = 0 and r_n = r'(w), so
    # b = 0 and a = -r_n^2 + r*r_nn/3 <= 0: the minimum over [-1, 1] is the
    # endpoint value a + c = 1 - r_n^2 > 0, and the lattice verdict is exact
    model = gaussian_band_radius(d)
    mids = (np.arange(256) + 0.5) / 256
    uu, vv = np.meshgrid(mids, mids, indexing="ij")
    r, r_t, r_n, r_tt, r_nn = UP.band_jet(model, *uv_to_wz(uu.ravel(), vv.ravel()))
    a, b, c = _quad_coeffs(r, r_t, r_n, r_tt, r_nn)
    assert np.all(b == 0.0) and np.all(a <= 0.0)
    margins = _quad_min(a, b, c)
    assert np.max(np.abs(margins - (1.0 - r_n * r_n))) <= 4e-15
    assert np.min(margins) > 0.0
    assert validate_model(model, UP, 256).verdict


def test_validate_grid_size_check():
    with pytest.raises(ValueError):
        validate_model(constant_radius(0.2), UP, 4)


def test_chain_rule_coefficient_adjudication():
    # For a z-dependent radius, the analytic second band derivative in the
    # chain-rule form matches finite differences of the closed-form band
    # average; the single-cross-term variant does not.  This pins b = -2*r_t.
    m = product_radius([0.25, 0, -0.2], epsilon=0.3)
    rng = np.random.default_rng(14)
    worst_chain = worst_single = 0.0
    count = 0
    while count < 30:
        w = rng.uniform(-0.45, 0.45)
        z = rng.uniform(-0.3, 0.3)
        r = float(m.radius(w, z))
        if abs(z / r) > 0.85 or L - abs(w) - abs(z) < 0.05:
            continue
        count += 1
        f = lambda ww, zz: float(band_average(m, ww, zz, UP))
        _, fd_zz = fd_second_partials(f, DiamondPoint(w, z), 1e-4)
        chain = float(band_average_second_partials(m, w, z, UP)[0])
        single = float(band_average_second_partials(m, w, z, UP, single_cross=True)[0])
        worst_chain = max(worst_chain, abs(chain - fd_zz) / abs(fd_zz))
        worst_single = max(worst_single, abs(single - fd_zz) / abs(fd_zz))
    assert worst_chain <= 1e-6
    assert worst_single > 1e-2


def test_sufficient_conditions_imply_certificate_when_symmetric():
    # with r_z = 0 the published conditions imply the exact quadratic pass
    rng = np.random.default_rng(15)
    for _ in range(500):
        r = rng.uniform(0.05, 0.5)
        r_w = rng.uniform(-1.2, 1.2)
        r_ww = rng.uniform(-3, 3)
        r_zz = rng.uniform(-3, 3)
        cert = certify((r, r_w, 0.0, r_ww, r_zz), UP)
        if cert.paper_condition_pass:
            assert cert.passed


def test_validated_models_have_nonnegative_density():
    mids = (np.arange(201) + 0.5) / 201
    uu, vv = np.meshgrid(mids, mids, indexing="ij")
    for model, family in [
        (gaussian_band_radius(1.0), "smoothed_upper"),
        (product_radius([0.25, 0, -0.5], epsilon=0.2), "smoothed_upper"),
    ]:
        orientation = UP if family == "smoothed_upper" else LOW
        assert validate_model(model, orientation, 32).verdict
        dens = copula_density(CopulaSpec(family, model), uu, vv)
        assert np.min(dens) >= -1e-10
