import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr as std_normal_cdf  # the library's Phi (radius.py)

from fhsmooth.geometry import DomainError
from fhsmooth.kernel import (
    kernel_arrays,
    std_normal_pdf,
    std_normal_quantile,
)

# Frozen from the closed forms at 40-digit precision (and cross-checked
# against the disc-average oracle in test_oracle).
G_HALF = 0.5801633382330107
G1_HALF = 0.6089977810442294
G2_HALF = 1.1026577908435842
H_HALF = 0.2756644477108960


def kernel_at(rho):
    """(g, g', g'', h) at one band coordinate, as floats."""
    return tuple(float(x) for x in kernel_arrays(rho))


def test_kernel_at_zero():
    g, g1, g2, h = kernel_at(0.0)
    assert g == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-15)
    assert g1 == 0.0
    assert g2 == pytest.approx(4.0 / math.pi, abs=1e-15)
    assert h == pytest.approx(g, abs=1e-15)


def test_kernel_outside_band_is_exact():
    assert kernel_at(2.0) == (2.0, 1.0, 0.0, 0.0)
    assert kernel_at(-3.5) == (3.5, -1.0, 0.0, 0.0)


def test_kernel_at_half():
    g, g1, g2, h = kernel_at(0.5)
    assert g == pytest.approx(G_HALF, abs=1e-14)
    assert g1 == pytest.approx(G1_HALF, abs=1e-14)
    assert g2 == pytest.approx(G2_HALF, abs=1e-14)
    assert h == pytest.approx(H_HALF, abs=1e-14)


def test_kernel_identities():
    rng = np.random.default_rng(3)
    rho = rng.uniform(-1.5, 1.5, 10_000)
    g, g1, g2, h = kernel_arrays(rho)
    assert np.max(np.abs(h - (g - rho * g1))) <= 1e-14
    inside = np.abs(rho) < 1
    assert np.max(np.abs(h[inside] - (1 - rho[inside] ** 2) * g2[inside] / 3)) <= 1e-13
    # g >= |rho| with equality outside the band; g2 >= 0 everywhere
    assert np.all(g >= np.abs(rho) - 1e-15)
    assert np.all(g2 >= 0)
    assert np.all(g2[~inside] == 0)


def test_kernel_parity():
    rng = np.random.default_rng(4)
    rho = rng.uniform(-2, 2, 10_000)
    g_p, g1_p, g2_p, _ = kernel_arrays(rho)
    g_m, g1_m, g2_m, _ = kernel_arrays(-rho)
    assert np.max(np.abs(g_p - g_m)) <= 1e-15
    assert np.max(np.abs(g2_p - g2_m)) <= 1e-15
    assert np.max(np.abs(g1_p + g1_m)) <= 1e-15


def test_branches_agree_at_seam():
    for rho in (1.0, -1.0):
        g, g1, g2, _ = kernel_at(rho)
        assert g == pytest.approx(1.0, abs=1e-12)
        assert g1 == pytest.approx(math.copysign(1.0, rho), abs=1e-12)
        assert g2 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_seam_continuity(eps):
    g_a, g1_a, g2_a, _ = kernel_at(1.0 + eps)
    g_b, g1_b, g2_b, _ = kernel_at(1.0 - eps)
    assert abs(g_a - g_b) <= 5 * eps
    assert abs(g1_a - g1_b) <= 5 * eps
    # g'' is continuous but only Holder-1/2 at the seam: the jump scales
    # like (4/pi)*sqrt(2*eps), so a linear-in-eps bound cannot hold.
    assert abs(g2_a - g2_b) <= 3 * math.sqrt(eps)
    assert abs(g2_a - g2_b) >= math.sqrt(eps)  # genuinely sqrt-scaled


def test_seam_matches_mpmath():
    # rho = +-(1 - eps), eps log-spaced over [1e-16, 0.1], each double taken
    # exactly into 50-digit arithmetic: g, g', g'' and h stay within 2^-51
    # absolute (measured 2.2e-16, 2.2e-16, 5.6e-17 and 6.9e-18)
    eps = np.logspace(-16, -1, 400)
    rho = np.concatenate([1.0 - eps, eps - 1.0])
    got = kernel_arrays(rho)
    worst = [0.0] * 4
    with mpmath.workdps(50):
        for i, x in enumerate(rho):
            r = mpmath.mpf(float(x))
            s, asin, pi = mpmath.sqrt((1 - r) * (1 + r)), mpmath.asin(r), mpmath.pi
            want = (2 * (r * asin + s * (2 + r * r) / 3) / pi, 2 * (asin + r * s) / pi,
                    4 * s / pi, 4 * s**3 / (3 * pi))
            for k in range(4):
                worst[k] = max(worst[k], float(abs(mpmath.mpf(float(got[k][i])) - want[k])))
    assert max(worst) <= 2.0**-51, worst


def test_kernel_edge_values():
    # exact outputs at the band's edges, the float neighbours of 1 and the
    # float extremes; each row holds for rho and -rho, where g' changes sign
    # (signed zeros included) and g, g'' and h do not
    below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)  # 1 - 2^-53, 1 + 2^-52
    g0, g2_0, h0 = 0.42441318157838753, 4.0 / math.pi, 4.0 / (3.0 * math.pi)
    table = [
        (0.0, g0, 0.0, g2_0, h0),
        (5e-324, g0, 5e-324, g2_0, h0),
        (below, below, 1.0, g2_0 * 2.0**-26, h0 * 2.0**-78),  # sqrt(1 - rho^2) = 2^-26
        (1.0, 1.0, 1.0, 0.0, 0.0),
        (above, above, 1.0, 0.0, 0.0),
        (1e300, 1e300, 1.0, 0.0, 0.0),
        (math.inf, math.inf, 1.0, 0.0, 0.0),
    ]
    for rho, g, g1, g2, h in table:
        for sign in (1.0, -1.0):
            got = kernel_at(sign * rho)
            assert got == (g, sign * g1, g2, h), (sign * rho, got)
            assert math.copysign(1.0, got[1]) == sign
    assert all(math.isnan(x) for x in kernel_at(math.nan))


def test_third_derivative_blows_up_at_seam():
    # centered third-difference estimate at rho = 1 - 10^-k, step 10^-k
    prev = 0.0
    for k in (3, 4, 5):
        s = 10.0**-k
        x = 1.0 - s
        g = lambda rho: kernel_at(rho)[0]
        est = (g(x + 2 * s) - 2 * g(x + s) + 2 * g(x - s) - g(x - 2 * s)) / (2 * s**3)
        assert abs(est) > abs(prev)
        prev = est
        if k == 4:
            assert abs(est) > 10.0
    assert abs(prev) > 100.0


def test_finite_difference_matches_g1():
    rng = np.random.default_rng(5)
    rho = rng.uniform(-0.999, 0.999, 200)
    s = 1e-6
    fd = (kernel_arrays(rho + s)[0] - kernel_arrays(rho - s)[0]) / (2 * s)
    g1 = kernel_arrays(rho)[1]
    assert np.max(np.abs(fd - g1) / np.maximum(np.abs(g1), 1e-3)) <= 1e-6


def test_finite_difference_matches_g2():
    rng = np.random.default_rng(6)
    # second differences of g are roundoff-limited close to the seam, so
    # |rho| <= 0.9 here; the g1-difference route covers the rest
    rho = rng.uniform(-0.9, 0.9, 200)
    s = 1e-4
    fd2 = (
        kernel_arrays(rho + s)[0] - 2 * kernel_arrays(rho)[0] + kernel_arrays(rho - s)[0]
    ) / (s * s)
    g2 = kernel_arrays(rho)[2]
    assert np.max(np.abs(fd2 - g2) / np.abs(g2)) <= 1e-6
    rho = rng.uniform(-0.999, 0.999, 200)
    s = 5e-7
    fd = (kernel_arrays(rho + s)[1] - kernel_arrays(rho - s)[1]) / (2 * s)
    g2 = kernel_arrays(rho)[2]
    assert np.max(np.abs(fd - g2) / np.maximum(np.abs(g2), 1e-3)) <= 1e-6


def test_std_normal_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(0.5) == pytest.approx(0.6914624612740131, abs=1e-10)
    assert std_normal_cdf(-1.96) == pytest.approx(0.024997895148220435, abs=1e-10)
    # independent reference: the erf-based form from the standard library
    xs = np.linspace(-8, 8, 1001)
    ref = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2))) for x in xs])
    assert np.max(np.abs(std_normal_cdf(xs) - ref)) <= 1e-14
    assert np.all(np.diff(std_normal_cdf(xs)) >= 0)


def test_std_normal_quantile_values():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert std_normal_quantile(0.6914624612740131) == pytest.approx(0.5, abs=1e-7)


def test_std_normal_quantile_round_trip():
    ps = np.linspace(1e-12, 1 - 1e-12, 2001)
    assert np.max(np.abs(std_normal_cdf(std_normal_quantile(ps)) - ps)) <= 1e-8
    xs = np.linspace(-6, 6, 501)
    assert np.max(np.abs(std_normal_quantile(std_normal_cdf(xs)) - xs)) <= 1e-8


def test_std_normal_quantile_rejects_endpoints():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


def test_std_normal_pdf():
    assert std_normal_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-16)
    assert std_normal_pdf(0.5) == pytest.approx(0.3520653267642995, abs=1e-15)
