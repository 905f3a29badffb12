"""Output checks made apart from the closed forms.

Every check here is either computed independently of `fhsmooth.copulas`
(the quadrature oracle, a chord quadrature, finite differences of the
oracle) or is a property the method must have (uniform marginals, the
support band, bit-identical prefixes).  None compares against a stored
checksum of today's output, so a change that moves the last bits of a
result, such as a different root finder in the sampler, still passes.

Each check raises `Mismatch` with a short reason when an output is wrong.
"""

from __future__ import annotations

import math

import numpy as np

from fhsmooth.geometry import DIAMOND_RADIUS, SQRT2, DiamondPoint, diamond_margin, uv_to_wz
from fhsmooth.oracle import OracleRequest, disc_average, fd_second_partials

# Kolmogorov statistic bound sqrt(n)*D <= 3.5: its false-alarm rate under a
# correct sampler is 2*exp(-2*3.5^2) ~ 5e-11 per test.  Criterion 8's bound
# (1.5*1.36 ~ 2.04) alarms on ~5e-4 of correct batches, and a benchmark run
# tests hundreds of batches on fresh seeds.
KS_SCALE = 3.5
# Rectangle counts may differ from n*p by 6 binomial standard deviations
# (plus one count for discreteness): ~2e-9 false alarms per test.
RECT_SIGMAS = 6.0
# Rectangles in the band frame: v is mirrored to 1 - v for the lower
# family, so each one straddles the support band of every model.
BAND_RECTANGLES = ((0.2, 0.5, 0.25, 0.55), (0.4, 0.65, 0.35, 0.6), (0.6, 0.9, 0.55, 0.95))
GAP_SLACK = 1e-6
BAND_SLACK = 1e-9
VALUE_TOL = 1e-9
MASS_TOL = 1e-5
FD_STEP = 1e-3
FD_REL_TOL = 1e-12
# g(0) = 4/(3*pi): the disc average of |t| over a disc centred on the kink
KERNEL_AT_ZERO = 4.0 / (3.0 * math.pi)

_CHORD_NODES = np.polynomial.legendre.leggauss(32)
_CHORD_CHUNK = 8192


class Mismatch(Exception):
    """An output failed verification."""


def _require(ok, message):
    if not ok:
        raise Mismatch(message)


def _integrand(spec) -> str:
    return "fh_upper" if spec.family == "smoothed_upper" else "fh_lower"


def oracle_wz(spec, w, z, rel_tol=1e-10) -> float:
    """C at a diamond point: the oracle's disc average of the sharp bound."""
    r = float(spec.model.radius(w, z))
    return disc_average(OracleRequest(_integrand(spec), DiamondPoint(float(w), float(z)), r, rel_tol))


def oracle_value(spec, u, v, rel_tol=1e-10) -> float:
    w, z = uv_to_wz(u, v)
    return oracle_wz(spec, float(w), float(z), rel_tol)


def chord_values(spec, u, v):
    """C on arrays by a 1-D chord quadrature, independent of the kernel g.

    The sharp bound is linear in the transverse coordinate and |t| in the
    band coordinate t, so its disc average is the centre value with |t|
    replaced by the disc mean of |t'|.  With t' = t + r*sin(theta) that mean
    is (2/pi) * integral of |t + r*sin(theta)|*cos^2(theta) over
    [-pi/2, pi/2]; splitting at the kink leaves two analytic pieces, each
    integrated with 32-node Gauss-Legendre.
    """
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    out = np.empty(u.shape)
    flat_u, flat_v, flat_out = u.ravel(), v.ravel(), out.reshape(-1)
    x, wt = _CHORD_NODES
    upper = spec.family == "smoothed_upper"
    for start in range(0, flat_u.size, _CHORD_CHUNK):
        chunk = slice(start, start + _CHORD_CHUNK)
        w, z = uv_to_wz(flat_u[chunk], flat_v[chunk])
        r = spec.model.radius(w, z)
        t = z if upper else w
        cut = np.arcsin(np.clip(-t / r, -1.0, 1.0))
        edge = np.full_like(t, 0.5 * np.pi)
        mean_abs = np.zeros_like(t)
        for a, b in ((-edge, cut), (cut, edge)):
            half = 0.5 * (b - a)
            theta = (0.5 * (a + b))[:, None] + half[:, None] * x
            f = np.abs(t[:, None] + r[:, None] * np.sin(theta)) * np.cos(theta) ** 2
            mean_abs += half * (f @ wt)
        mean_abs *= 2.0 / np.pi
        flat_out[chunk] = 0.5 + (w - mean_abs) / SQRT2 if upper else (w + mean_abs) / SQRT2
    return out


def fd_density(spec, u, v, step=FD_STEP, rel_tol=FD_REL_TOL):
    """Density from central differences of the oracle, with an error bound.

    c = (C_ww - C_zz)/2.  The bound adds the Richardson estimate of the
    truncation error, |D(h) - D(2h)|, to the worst rounding of both
    difference quotients: each oracle value is off by at most rel_tol
    (|C| <= 1), which moves D(h) by at most 4*rel_tol/h^2.
    """
    w, z = (float(c) for c in uv_to_wz(u, v))

    def f(a, b):
        return oracle_wz(spec, a, b, rel_tol)

    def dens(h):
        c_ww, c_zz = fd_second_partials(f, DiamondPoint(w, z), h)
        return 0.5 * (c_ww - c_zz)

    d1, d2 = dens(step), dens(2.0 * step)
    tol = abs(d1 - d2) + 4.0 * rel_tol * (1.0 / step**2 + 1.0 / (2.0 * step) ** 2)
    return d1, tol


def ks_uniform(x) -> float:
    """Kolmogorov-Smirnov distance of a sample from the uniform law on [0, 1]."""
    s = np.sort(np.asarray(x, float))
    n = s.size
    i = np.arange(n, dtype=float)
    return float(max(np.max((i + 1.0) / n - s), np.max(s - i / n)))


def band_rectangles(spec):
    """The fixed rectangles (u1, u2, v1, v2) for this model's band."""
    if spec.family == "smoothed_upper":
        return BAND_RECTANGLES
    return tuple((u1, u2, 1.0 - v2, 1.0 - v1) for u1, u2, v1, v2 in BAND_RECTANGLES)


def rectangle_volumes(spec):
    """Oracle C-volume of each band rectangle."""
    out = []
    for u1, u2, v1, v2 in band_rectangles(spec):
        c = [oracle_value(spec, a, b) for a, b in ((u2, v2), (u2, v1), (u1, v2), (u1, v1))]
        out.append(c[0] - c[1] - c[2] + c[3])
    return tuple(out)


def check_sample(spec, pairs, volumes, gaussian_xy=None):
    """Sampled pairs: range, support band, uniform marginals, rectangle masses."""
    pairs = np.asarray(pairs)
    _require(pairs.ndim == 2 and pairs.shape[1] == 2, f"pairs have shape {pairs.shape}")
    n = pairs.shape[0]
    u, v = pairs[:, 0], pairs[:, 1]
    _require(np.all((u > 0) & (u < 1) & (v >= 0) & (v <= 1)), "pair outside the unit square")
    w, z = uv_to_wz(u, v)
    t = z if spec.family == "smoothed_upper" else w
    excess = np.abs(t) - spec.model.radius(w, z)
    _require(np.max(excess) <= BAND_SLACK, f"pair {np.max(excess):.3g} outside the support band")
    bound = KS_SCALE / math.sqrt(n)
    for name, marginal in (("u", u), ("v", v)):
        d = ks_uniform(marginal)
        _require(d <= bound, f"KS distance of {name} is {d:.4g} > {bound:.4g}")
    for (u1, u2, v1, v2), p in zip(band_rectangles(spec), volumes):
        k = int(np.count_nonzero((u > u1) & (u <= u2) & (v > v1) & (v <= v2)))
        slack = RECT_SIGMAS * math.sqrt(n * p * (1.0 - p)) + 1.0
        _require(abs(k - n * p) <= slack, f"rectangle {(u1, u2, v1, v2)} holds {k} pairs, expected {n * p:.1f}")
    if gaussian_xy is not None:
        d = spec.model.d
        gap = np.max(np.abs(gaussian_xy[:, 1] - gaussian_xy[:, 0]))
        _require(gap <= d + GAP_SLACK, f"gaussian gap {gap:.9g} exceeds d = {d}")


def check_prefix(pairs, prefix):
    _require(np.array_equal(pairs[: prefix.shape[0]], prefix), "a shorter batch is not a prefix")


def check_validation(report, admissible: bool):
    if admissible:
        _require(report.verdict, f"admissible model failed validation: {report.to_json_dict()}")
    else:
        _require(not report.containment_pass, "constant radius passed containment")


def check_report(report, spec, admissible: bool):
    if admissible:
        _require(report.verdict, f"admissible model failed the copula check: {report.to_json_dict()}")
        err = abs(report.density_integral - 1.0)
        _require(err <= MASS_TOL, f"density mass off by {err:.3g}")
    else:
        # a constant radius r0 leaves the corner value r0*g(0)/sqrt(2) above the sharp bound
        want = spec.model.r0 * KERNEL_AT_ZERO / SQRT2
        _require(not report.verdict, "constant radius passed the copula check")
        err = abs(report.boundary_max_err - want)
        _require(err <= VALUE_TOL, f"boundary error {report.boundary_max_err!r} != {want!r}")


def parse_grid(text, n):
    """Rows of a grid CSV as an (n*n, 4) array; every field must parse."""
    lines = text.split("\n")
    _require(lines[0] == "u,v,value,density", f"grid header {lines[0]!r}")
    _require(lines[-1] == "" and len(lines) == n * n + 2, f"grid has {len(lines) - 2} rows, expected {n * n}")
    try:
        rows = np.array([[float(f) for f in line.split(",")] for line in lines[1:-1]])
    except ValueError as exc:
        raise Mismatch(f"grid field does not parse: {exc}") from None
    _require(rows.shape == (n * n, 4), f"grid rows have shape {rows.shape}")
    return rows


def check_grid(spec, rows, n, subset, subset_values, fd_rows):
    """Lattice, every value by chord quadrature, a subset by the oracle, densities by FD.

    `subset_values` are oracle values at the rows `subset`; `fd_rows` maps
    a row index to its (finite-difference density, tolerance).
    """
    mids = (np.arange(n) + 0.5) / n
    uu, vv = np.meshgrid(mids, mids, indexing="ij")
    _require(np.array_equal(rows[:, 0], uu.ravel()) and np.array_equal(rows[:, 1], vv.ravel()), "grid lattice is wrong")
    _require(np.all(np.isfinite(rows[:, 2:])), "grid holds a non-finite value")
    err = np.abs(rows[:, 2] - chord_values(spec, rows[:, 0], rows[:, 1]))
    i = int(np.argmax(err))
    _require(err[i] <= VALUE_TOL, f"grid value at row {i} off the chord quadrature by {err[i]:.3g}")
    err = np.abs(rows[subset, 2] - subset_values)
    _require(np.max(err) <= VALUE_TOL, f"grid value off the oracle by {np.max(err):.3g}")
    for row, (want, tol) in fd_rows.items():
        got = rows[row, 3]
        _require(abs(got - want) <= tol, f"density at row {row} is {got!r}, oracle FD {want!r} +- {tol:.2g}")


def fd_candidates(spec, rows_u, rows_v):
    """Mask of rows well inside the band and the diamond, where C is smooth."""
    w, z = uv_to_wz(rows_u, rows_v)
    t = z if spec.family == "smoothed_upper" else w
    rho = t / spec.model.radius(w, z)
    return (np.abs(rho) <= 0.7) & (diamond_margin(w, z) >= 0.1 * DIAMOND_RADIUS)


def check_eval(result, want):
    code, out = result
    _require(code == 0, f"eval exited {code}")
    try:
        got = float(out)
    except ValueError:
        raise Mismatch(f"eval printed {out!r}") from None
    _require(abs(got - want) <= VALUE_TOL, f"eval printed {got!r}, oracle {want!r}")
