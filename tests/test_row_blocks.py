"""The validator's and the checker's lattice passes run in row blocks.

Blocking re-slices pointwise work, so every report must equal the one a
single pass over the whole lattice gives.  The references below are that
single pass, frozen as the two functions read before they were blocked.
"""

import json
import tracemalloc

import numpy as np
import pytest

import fhsmooth.checker as checker
from fhsmooth.checker import (
    _DENSITY_TOL,
    _FRECHET_SLACK,
    _INTEGRAL_TOL,
    _VOLUME_TOL,
    CopulaCheckReport,
    _density_mass,
    check_copula,
)
from fhsmooth.copulas import CopulaSpec, copula_density, copula_values, row_blocks
from fhsmooth.geometry import DiamondPoint, Orientation, uv_to_wz, wz_to_uv
from fhsmooth.radius import constant_radius, gaussian_band_radius
from fhsmooth.validator import (
    _QUAD_TOL,
    ValidationReport,
    _paper_conditions,
    _quad_coeffs,
    _quad_min,
    containment_check,
    validate_model,
)
from test_acceptance import VALIDATING_SPECS

MODELS = VALIDATING_SPECS + [CopulaSpec("smoothed_upper", constant_radius(0.2))]
GAUSS = gaussian_band_radius(1.0)
UP = Orientation.UPPER_M


def full_lattice_validate(model, o, grid_n):
    mids = (np.arange(grid_n) + 0.5) / grid_n
    uu, vv = np.meshgrid(mids, mids, indexing="ij")
    w, z = uv_to_wz(uu.ravel(), vv.ravel())
    r, r_t, r_n, r_tt, r_nn = o.band_jet(model, w, z)
    margins = _quad_min(*_quad_coeffs(r, r_t, r_n, r_tt, r_nn))
    qi = int(np.argmin(margins))
    quad_worst = float(margins[qi])
    containment = containment_check(model, o, 4 * grid_n)
    if quad_worst <= containment.worst_margin:
        worst_point, worst_margin = DiamondPoint(float(w[qi]), float(z[qi])), quad_worst
    else:
        worst_point, worst_margin = containment.worst_point, containment.worst_margin
    return ValidationReport(
        positivity_pass=bool(np.all(np.isfinite(r)) and np.all(r > 0)),
        quadratic_pass=bool(quad_worst >= _QUAD_TOL),
        paper_sufficient_pass=bool(np.all(_paper_conditions(r_t, r_n, r_tt, r_nn))),
        containment_pass=containment.passed,
        worst_point=worst_point,
        worst_margin=float(worst_margin),
        grid_n=int(grid_n),
    )


def full_lattice_check(spec, grid_n):
    xs = np.linspace(0.0, 1.0, grid_n)
    uu, vv = np.meshgrid(xs, xs, indexing="ij")
    c = copula_values(spec, uu, vv)
    boundary_max_err = float(
        max(
            np.max(np.abs(c[0, :])),
            np.max(np.abs(c[:, 0])),
            np.max(np.abs(c[-1, :] - xs)),
            np.max(np.abs(c[:, -1] - xs)),
        )
    )
    min_volume = float(np.min(c[1:, 1:] - c[1:, :-1] - c[:-1, 1:] + c[:-1, :-1]))
    frechet_ok = bool(
        np.all(c >= Orientation.LOWER_W.fh_values(uu, vv) - _FRECHET_SLACK)
        and np.all(c <= Orientation.UPPER_M.fh_values(uu, vv) + _FRECHET_SLACK)
    )
    min_density = density_integral = None
    if spec.smoothed:
        mids = 0.5 * (xs[:-1] + xs[1:])
        mu, mv = np.meshgrid(mids, mids, indexing="ij")
        min_density = float(np.min(copula_density(spec, mu, mv)))
        density_integral = _density_mass(spec)
    verdict = min_volume >= _VOLUME_TOL and frechet_ok and (
        not spec.smoothed or (min_density >= _DENSITY_TOL and abs(density_integral - 1.0) <= _INTEGRAL_TOL)
    )
    return CopulaCheckReport(
        boundary_max_err, min_volume, min_density, density_integral, frechet_ok, int(grid_n), bool(verdict)
    )


def same(report, ref):
    """Field for field: float reprs are exact, and NaN matches NaN."""
    return json.dumps(report.to_json_dict()) == json.dumps(ref.to_json_dict())


def test_row_blocks_cover_whole_rows():
    assert row_blocks(513, 513) == [slice(i, i + 63) for i in range(0, 513, 63)]
    assert row_blocks(100, 100) == [slice(0, 32768 // 100)]
    assert row_blocks(3, 40_000) == [slice(0, 1), slice(1, 2), slice(2, 3)]


@pytest.mark.parametrize("grid_n", [100, 513])
def test_check_matches_the_full_lattice(grid_n):
    for spec in MODELS + [CopulaSpec("fh_lower"), CopulaSpec("fh_upper")]:
        assert same(check_copula(spec, grid_n), full_lattice_check(spec, grid_n)), spec


def test_volume_minimum_sees_the_cells_across_a_seam(monkeypatch):
    # lowering C by 1e-3 on rows >= 63 and columns >= 10 gives exactly one cell
    # a volume of -1e-3: the one between rows 62 and 63, across the first seam
    assert row_blocks(513, 513)[0].stop == 63
    xs = np.linspace(0.0, 1.0, 513)

    def stepped(spec, u, v):
        return copula_values(spec, u, v) - 1e-3 * ((u >= xs[63]) & (v >= xs[10]))

    monkeypatch.setattr(checker, "copula_values", stepped)
    assert check_copula(CopulaSpec("fh_upper"), 513).min_rectangle_volume < -0.9e-3


def test_validate_matches_the_full_lattice():
    assert len(row_blocks(300, 300)) == 3  # the last block is partial
    for spec in MODELS:
        o = spec.orientation
        assert same(validate_model(spec.model, o, 300), full_lattice_validate(spec.model, o, 300)), spec


class FirstBlockNaN:
    """The gaussian band, with r = NaN on the lattice rows u < 0.1 only."""

    radius = GAUSS.radius

    def jet(self, w, z):
        r, *rest = GAUSS.jet(w, z)
        return (np.where(wz_to_uv(w, z)[0] < 0.1, np.nan, r), *rest)


def test_nan_in_the_first_block_fails_the_gates():
    # a NaN margin is the lattice's minimum, as argmin over the whole lattice
    # finds it: a later block's finite minimum must not replace it
    assert 0.1 * 200 < row_blocks(200, 200)[0].stop < 200
    report = validate_model(FirstBlockNaN(), UP, 200)
    assert not report.positivity_pass and not report.quadratic_pass
    assert same(report, full_lattice_validate(FirstBlockNaN(), UP, 200))


MIDS = (np.arange(200) + 0.5) / 200
TIES = [uv_to_wz(MIDS[150], MIDS[30]), uv_to_wz(MIDS[170], MIDS[10])]  # rows in blocks 1 and 2


class TwoEqualMinima:
    """r = 0.2 with r_n = 2, so margin 1 - 2**2 = -3, at two lattice points only."""

    radius = constant_radius(0.2).radius

    def jet(self, w, z):
        hit = np.zeros(np.shape(w), bool)
        for tw, tz in TIES:
            hit |= (np.abs(w - tw) < 1e-12) & (np.abs(z - tz) < 1e-12)
        zero = np.zeros(np.shape(w))
        return zero + 0.2, np.where(hit, 2.0, 0.0), zero, zero, zero  # in UPPER_M, r_n = r_w


def test_equal_minima_report_the_first_row_major_point():
    first, _ = row_blocks(200, 200)
    assert 150 < first.stop <= 170
    report = validate_model(TwoEqualMinima(), UP, 200)
    assert report.worst_margin == -3.0
    assert report.worst_point == DiamondPoint(float(TIES[0][0]), float(TIES[0][1]))
    assert same(report, full_lattice_validate(TwoEqualMinima(), UP, 200))


def check(spec, grid_n):
    return check_copula(spec, grid_n)


def validate(spec, grid_n):
    return validate_model(spec.model, spec.orientation, grid_n)


@pytest.mark.parametrize("run, grid_n", [(check, 512), (validate, 1024)], ids=["check", "validate"])
def test_lattice_passes_peak_below_8_mb(run, grid_n):
    # a whole-lattice temporary is 2 MB at check 512 and 8 MB at validate 1024;
    # the passes kept 20 MB and 113-137 MB alive before they were blocked
    spec = VALIDATING_SPECS[1]
    run(spec, 64)  # warm up outside the trace
    tracemalloc.start()
    try:
        run(spec, grid_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
