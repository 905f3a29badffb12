import math

import numpy as np
import pytest

from band_helpers import rectangle_volume
from fhsmooth.checker import _density_mass, check_copula
from fhsmooth.copulas import CopulaSpec, copula_density, copula_values
from fhsmooth.radius import constant_radius, gaussian_band_radius, product_radius

CORNER_DEFECT = (4 * 0.2 / (3 * math.pi)) / math.sqrt(2)


def test_fh_upper_is_a_copula():
    report = check_copula(CopulaSpec("fh_upper"), 128)
    assert report.boundary_max_err == 0.0
    assert report.min_rectangle_volume == 0.0
    assert report.frechet_ok
    assert report.min_density is None and report.density_integral is None
    assert report.verdict


def test_fh_lower_is_a_copula():
    report = check_copula(CopulaSpec("fh_lower"), 64)
    assert report.verdict


def test_gaussian_band_checks_except_integral_resolution():
    # Analytically a copula, so every clause passes at every resolution.  The
    # density is unbounded where the band pinches at the corners (c ~ 1/r),
    # which a lattice midpoint rule resolves only as O(1/n); the mass clause
    # uses a band-adapted rule whose accuracy does not depend on grid_n.
    spec = CopulaSpec("smoothed_upper", gaussian_band_radius(1.0))
    for grid_n in (128, 512):
        report = check_copula(spec, grid_n)
        assert report.boundary_max_err <= 1e-8
        assert report.min_rectangle_volume >= -1e-10
        assert report.min_density >= -1e-10
        assert report.frechet_ok
        assert abs(report.density_integral - 1.0) <= 1e-5
        assert report.verdict


def test_density_clause_integrates_the_density(monkeypatch):
    # The mass must come from copula_density itself, not from C-volumes
    # (those sum to 1 for any grounded C with uniform marginals).
    import fhsmooth.checker as checker

    monkeypatch.setattr(
        checker, "copula_density", lambda spec, u, v: 1.01 * copula_density(spec, u, v)
    )
    spec = CopulaSpec("smoothed_upper", gaussian_band_radius(1.0))
    report = check_copula(spec, 128)
    assert report.density_integral == pytest.approx(1.01, abs=1e-5)
    assert report.verdict is False


def test_constant_model_breaks_boundary():
    spec = CopulaSpec("smoothed_upper", constant_radius(0.2))
    report = check_copula(spec, 128)
    assert report.boundary_max_err == pytest.approx(CORNER_DEFECT, abs=1e-9)
    assert not report.verdict
    # corner value evaluated through the closed form
    assert float(copula_values(spec, 1.0, 1.0)) == pytest.approx(
        1.0 - CORNER_DEFECT, abs=1e-12
    )


def test_failures_persist_under_refinement():
    spec = CopulaSpec("smoothed_upper", constant_radius(0.2))
    r64 = check_copula(spec, 64)
    r128 = check_copula(spec, 128)
    assert not r64.verdict and not r128.verdict
    assert r64.boundary_max_err == pytest.approx(r128.boundary_max_err, abs=1e-12)


def test_rectangle_volume_examples():
    m = CopulaSpec("fh_upper")
    assert rectangle_volume(m, 0.2, 0.4, 0.6, 0.8) == 0.0
    assert rectangle_volume(m, 0.2, 0.4, 0.2, 0.4) == pytest.approx(0.2, abs=1e-15)
    spec = CopulaSpec("smoothed_upper", gaussian_band_radius(1.0))
    assert rectangle_volume(spec, 0, 1, 0, 1) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_mass_rule_error_below_1e6(d):
    # the band-adapted rule's error (the exact mass is 1); measured 6.5e-7,
    # 1.8e-7 and 1.2e-9 at 128 nodes per axis
    spec = CopulaSpec("smoothed_upper", gaussian_band_radius(d))
    assert abs(_density_mass(spec) - 1.0) <= 1e-6


def test_fh_mass_sits_on_the_singular_axis():
    for family, on_diag in (("fh_upper", True), ("fh_lower", False)):
        spec = CopulaSpec(family)
        n = 101
        xs = np.linspace(0, 1, n)
        uu, vv = np.meshgrid(xs, xs, indexing="ij")
        c = copula_values(spec, uu, vv)
        vol = c[1:, 1:] - c[1:, :-1] - c[:-1, 1:] + c[:-1, :-1]
        assert np.min(vol) >= -1e-12  # exact zeros up to one rounding step
        i, j = np.meshgrid(np.arange(n - 1), np.arange(n - 1), indexing="ij")
        touching = np.abs(i - j) <= 1 if on_diag else np.abs(i + j - (n - 2)) <= 1
        assert np.sum(vol[~touching]) <= 1e-12
        assert np.sum(vol) == pytest.approx(1.0, abs=1e-12)


def test_grid_size_check():
    with pytest.raises(ValueError):
        check_copula(CopulaSpec("fh_upper"), 16)


def test_report_json_fields():
    report = check_copula(CopulaSpec("fh_upper"), 64)
    d = report.to_json_dict()
    assert set(d) == {
        "boundary_max_err",
        "min_rectangle_volume",
        "min_density",
        "density_integral",
        "frechet_ok",
        "grid_n",
        "verdict",
    }
    assert d["min_density"] is None


def test_validating_product_model_checks():
    for spec in (
        CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.2)),
        CopulaSpec("smoothed_lower", product_radius([1.0], q=[0.25, 0, -0.5])),
    ):
        report = check_copula(spec, 128)
        assert report.boundary_max_err <= 1e-8
        assert report.min_rectangle_volume >= -1e-10
        assert report.min_density >= -1e-10
        assert report.frechet_ok
        assert abs(report.density_integral - 1.0) <= 1e-5
        assert report.verdict


def test_one_slightly_negative_midpoint_density_fails_the_check(monkeypatch):
    # -1e-8 at one lattice midpoint is below the density gate; the mass rule,
    # whose nodes are not lattice midpoints, must not see it
    import fhsmooth.checker as checker

    spec = CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.2))
    clean = check_copula(spec, 64)
    assert clean.verdict and clean.min_density == 0.0  # outside the band
    xs = np.linspace(0.0, 1.0, 64)
    mids = 0.5 * (xs[:-1] + xs[1:])  # the checker's lattice midpoints
    mu, mv = mids[20], mids[40]

    def dipped(spec, u, v):
        return np.where((u == mu) & (v == mv), -1e-8, copula_density(spec, u, v))

    monkeypatch.setattr(checker, "copula_density", dipped)
    report = check_copula(spec, 64)
    assert report.min_density == -1e-8
    assert report.density_integral == clean.density_integral
    assert report.verdict is False


def test_one_node_lowered_by_1e_8_fails_the_volume_clause(monkeypatch):
    # C lowered by 1e-8 at one node off the band gives the two cells with that
    # node as lower-left or upper-right corner a volume of about -1e-8, below
    # the -1e-10 gate; the boundary and Frechet clauses do not see it
    import fhsmooth.checker as checker

    spec = CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.2))
    xs = np.linspace(0.0, 1.0, 64)
    nu, nv = xs[10], xs[50]  # |u - v| / sqrt(2) = 0.45: C = min(u, v) there
    assert copula_values(spec, nu, nv) == nu

    def lowered(spec, u, v):
        return copula_values(spec, u, v) - 1e-8 * ((u == nu) & (v == nv))

    monkeypatch.setattr(checker, "copula_values", lowered)
    report = check_copula(spec, 64)
    assert report.min_rectangle_volume == pytest.approx(-1e-8, rel=1e-6)
    assert report.boundary_max_err <= 1e-8 and report.frechet_ok
    assert report.min_density >= -1e-10
    assert report.verdict is False


def test_one_node_raised_by_1e_8_above_m_fails_the_frechet_clause(monkeypatch):
    # C = M at an interior node off the band; 1e-8 above it is outside the
    # 1e-12 slack the ordering C <= M allows
    import fhsmooth.checker as checker

    spec = CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.2))
    xs = np.linspace(0.0, 1.0, 64)
    nu, nv = xs[10], xs[50]
    assert copula_values(spec, nu, nv) == min(nu, nv)

    def raised(spec, u, v):
        return copula_values(spec, u, v) + 1e-8 * ((u == nu) & (v == nv))

    monkeypatch.setattr(checker, "copula_values", raised)
    report = check_copula(spec, 64)
    assert report.frechet_ok is False
    assert report.boundary_max_err <= 1e-8
    assert report.verdict is False


@pytest.mark.parametrize("err", [2e-12, -2e-12, 1e-8, -1e-8])
@pytest.mark.parametrize("axis, at", [("u", 0.0), ("v", 0.0), ("u", 1.0), ("v", 1.0)])
def test_a_boundary_error_fails_the_frechet_clause(monkeypatch, axis, at, err):
    # on the lattice's edges W = M up to one rounding, so an error twice the
    # ordering's 1e-12 slack already fails it: no boundary error can reach the
    # verdict by another clause, and boundary_max_err is reported, not gated
    import fhsmooth.checker as checker

    spec = CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.2))
    assert check_copula(spec, 64).verdict

    def shifted(spec, u, v):
        return copula_values(spec, u, v) + err * ((u if axis == "u" else v) == at)

    monkeypatch.setattr(checker, "copula_values", shifted)
    report = check_copula(spec, 64)
    assert report.frechet_ok is False and report.verdict is False
    assert report.boundary_max_err == pytest.approx(abs(err), abs=1e-15)  # up to C's rounding
