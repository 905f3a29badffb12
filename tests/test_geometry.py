import math

import numpy as np
import pytest

from fhsmooth.geometry import (
    DIAMOND_RADIUS,
    DomainError,
    Orientation,
    SquarePoint,
    diamond_margin,
    orientation_for_family,
    uv_to_wz,
    wz_to_uv,
)

L = DIAMOND_RADIUS


def test_square_to_diamond_known_points():
    assert uv_to_wz(0.5, 0.5) == (0.0, 0.0)
    w, z = uv_to_wz(1.0, 1.0)
    assert w == pytest.approx(L, abs=1e-15)
    assert z == 0.0
    w, z = uv_to_wz(0.75, 0.25)
    assert w == pytest.approx(0.0, abs=1e-16)
    assert z == pytest.approx(-0.5 / math.sqrt(2), abs=1e-15)


def test_diamond_to_square_known_points():
    assert wz_to_uv(0.0, 0.0) == (0.5, 0.5)
    u, v = wz_to_uv(L, 0.0)
    assert u == pytest.approx(1.0, abs=1e-15)
    assert v == pytest.approx(1.0, abs=1e-15)


def test_round_trip_single_point():
    u, v = wz_to_uv(*uv_to_wz(0.3, 0.9))
    assert u == pytest.approx(0.3, abs=1e-15)
    assert v == pytest.approx(0.9, abs=1e-15)


def test_round_trip_bulk():
    rng = np.random.default_rng(0)
    u = rng.random(1_000_000)
    v = rng.random(1_000_000)
    w, z = uv_to_wz(u, v)
    u2, v2 = wz_to_uv(w, z)
    assert np.max(np.abs(u2 - u)) <= 1e-14
    assert np.max(np.abs(v2 - v)) <= 1e-14
    assert np.max(np.abs(w) + np.abs(z)) <= L + 1e-12


def test_transform_is_isometry():
    rng = np.random.default_rng(1)
    a = rng.random((10_000, 2))
    b = rng.random((10_000, 2))
    wa, za = uv_to_wz(a[:, 0], a[:, 1])
    wb, zb = uv_to_wz(b[:, 0], b[:, 1])
    d_sq = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
    d_di = np.hypot(wa - wb, za - zb)
    assert np.max(np.abs(d_sq - d_di)) <= 1e-14


def test_corner_images_exact():
    corners = {
        (1.0, 1.0): (L, 0.0),
        (0.0, 0.0): (-L, 0.0),
        (0.0, 1.0): (0.0, L),
        (1.0, 0.0): (0.0, -L),
    }
    for (u, v), (w, z) in corners.items():
        pw, pz = uv_to_wz(u, v)
        assert abs(pw - w) <= 1e-15 and abs(pz - z) <= 1e-15


def test_square_point_clamps_tiny_overshoot():
    p = SquarePoint(1.0 + 5e-13, -5e-13)
    assert p.u == 1.0 and p.v == 0.0
    with pytest.raises(DomainError):
        SquarePoint(1.0 + 1e-11, 0.5)
    with pytest.raises(DomainError):
        SquarePoint(float("nan"), 0.5)


def test_diamond_to_square_rejects_outside():
    # the image of a point outside the diamond is not a SquarePoint
    with pytest.raises(DomainError):
        SquarePoint(*wz_to_uv(0.6, 0.6))
    # tiny overshoot is accepted and clamped through SquarePoint
    p = SquarePoint(*wz_to_uv(L + 5e-13, 0.0))
    assert p.u == 1.0 and p.v == 1.0


def test_diamond_margin_center_and_outside():
    assert diamond_margin(0.0, 0.0) == pytest.approx(L, abs=1e-16)
    assert diamond_margin(0.6, 0.6) == pytest.approx(L - 1.2, abs=1e-15)
    assert diamond_margin(-0.6, 0.6) == diamond_margin(0.6, -0.6) == diamond_margin(0.6, 0.6)


def test_diamond_margin_near_corner():
    # 0.70710678 is the 8-digit rounding of 1/sqrt(2); its true margin is
    # 1.1865e-9, positive but below 2e-9
    margin = diamond_margin(0.70710678, 0.0)
    assert margin == pytest.approx(L - 0.70710678, rel=1e-12)
    assert 1e-9 < margin < 2e-9
    assert diamond_margin(L, 0.0) == 0.0


def test_orientation_frame():
    up, low = Orientation.UPPER_M, Orientation.LOWER_W
    # the band coordinate t is z for M and w for W; n is the other one
    assert up.swap("w", "z") == ("z", "w")
    assert low.swap("w", "z") == ("w", "z")
    for o in (up, low):
        assert o.swap(*o.swap(0.1, 0.2)) == (0.1, 0.2)
    assert orientation_for_family("smoothed_upper") is up
    assert orientation_for_family("fh_upper") is up
    assert orientation_for_family("smoothed_lower") is low
    assert orientation_for_family("fh_lower") is low
    with pytest.raises(ValueError):
        orientation_for_family("upper")
