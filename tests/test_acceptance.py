"""Acceptance suite.

One test per criterion; each prints a `[acceptance] criterion N: PASS/FAIL`
line before asserting, so a full run (pytest -s) yields a per-criterion
scoreboard.  Two facts shape the bounds below:

* the band of every admissible radius field pinches at the two corners of
  its singular axis (boundary containment forces r -> 0 there), so the
  density is unbounded (c ~ 1/r); criterion 2's density-integral bracket
  holds because the checker integrates the density with a band-adapted
  rule, where a lattice midpoint rule would carry an O(1/n) bias of ~0.3/n;
* a radius that stays positive at those corners shifts the corner copula
  value by r*g(0)/sqrt(2), so criterion 3's quadratic family validates only
  for the profile that vanishes there, and the one that keeps radius 0.15
  is rejected with exactly that defect.
"""

import json
import math
import time

import numpy as np
import pytest

from fhsmooth.checker import check_copula
from fhsmooth.cli import main as cli_main
from band_helpers import band_average, band_average_second_partials, kernel_outputs
from fhsmooth.copulas import (
    CopulaSpec,
    copula_density,
    copula_partials,
    copula_values,
    smoothed_value,
)
from fhsmooth.geometry import DIAMOND_RADIUS, SQRT2, DiamondPoint, SquarePoint, wz_to_uv
from fhsmooth.oracle import OracleRequest, disc_average, fd_second_partials
from fhsmooth.radius import constant_radius, gaussian_band_radius, product_radius
from fhsmooth.sampler import counter_uniforms, sample_batch, to_gaussian
from fhsmooth.validator import Orientation, validate_model

L = DIAMOND_RADIUS

VALIDATING_SPECS = [
    CopulaSpec("smoothed_upper", gaussian_band_radius(0.5)),
    CopulaSpec("smoothed_upper", gaussian_band_radius(1.0)),
    CopulaSpec("smoothed_upper", gaussian_band_radius(2.0)),
    CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.0)),
    CopulaSpec("smoothed_upper", product_radius([0.25, 0, -0.5], epsilon=0.2)),
    CopulaSpec("smoothed_lower", product_radius([1.0], q=[0.25, 0, -0.5])),
]


def report(n, ok, detail=""):
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_closed_forms_vs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for integrand, coord in (("abs_z", "z"), ("abs_w", "w")):
        for _ in range(100):
            rho = rng.uniform(0.0, 2.0) * rng.choice([-1.0, 1.0])
            radius = rng.uniform(0.05, 0.45)
            offset = rho * radius
            other = rng.uniform(-0.3, 0.3)
            center = (
                DiamondPoint(other, offset)
                if coord == "z"
                else DiamondPoint(offset, other)
            )
            got = disc_average(OracleRequest(integrand, center, radius, 1e-10))
            want = radius * kernel_outputs(rho)[0]
            worst = max(worst, abs(got - want) / max(1.0, radius))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, ok, f"(worst err {worst:.2e}, {elapsed:.1f}s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_example_model_end_to_end():
    t0 = time.perf_counter()
    rows = []
    all_ok = True
    for d in (0.5, 1.0, 2.0):
        model = gaussian_band_radius(d)
        val = validate_model(model, Orientation.UPPER_M, 128)
        chk = check_copula(CopulaSpec("smoothed_upper", model), 128)
        clauses = {
            "validate": val.verdict,
            "boundary": chk.boundary_max_err <= 1e-8,
            "volume": chk.min_rectangle_volume >= -1e-10,
            "density": chk.min_density >= -1e-10,
            "integral": abs(chk.density_integral - 1.0) <= 1e-3,
        }
        all_ok = all_ok and all(clauses.values())
        rows.append((d, clauses, chk.density_integral))
    elapsed = time.perf_counter() - t0
    all_ok = all_ok and elapsed < 60.0
    detail = "; ".join(
        f"d={d}: integral={i:.6f}"
        + ("" if all(c.values()) else " failed=" + ",".join(k for k, v in c.items() if not v))
        for d, c, i in rows
    )
    report(2, all_ok, f"({detail}; {elapsed:.1f}s)")
    for d, clauses, integral in rows:
        assert clauses["validate"], f"d={d} failed validation"
        assert clauses["boundary"] and clauses["volume"] and clauses["density"], (
            f"d={d} failed a grid axiom clause"
        )
        assert clauses["integral"], (
            f"d={d}: density integral {integral!r} outside [0.999, 1.001] "
            "(true mass is exactly 1 by the rectangle volume)"
        )
    assert elapsed < 60.0


def test_criterion_3_quadratic_family_validates_and_checks():
    # p(w) = 0.25 - 0.5w^2 is the member of the family that vanishes at the
    # corners (w = +-1/sqrt(2), z = 0); the steep sibling below is 2.4x it.
    rows = []
    ok = True
    for eps in (0.0, 0.3):
        model = product_radius([0.25, 0, -0.5], epsilon=eps)
        val = validate_model(model, Orientation.UPPER_M, 128)
        chk = check_copula(CopulaSpec("smoothed_upper", model), 128)
        rows.append((eps, val, chk))
        ok = ok and val.verdict and chk.verdict
    # 0.25 - 0.2w^2 keeps radius 0.15 at those corners, which shifts the
    # corner value by 0.15*g(0)/sqrt(2): containment must reject it
    corner_defect = 0.15 * (4 / (3 * math.pi)) / math.sqrt(2)
    rejected = []
    for eps in (0.0, 0.3):
        model = product_radius([0.25, 0, -0.2], epsilon=eps)
        val = validate_model(model, Orientation.UPPER_M, 128)
        chk = check_copula(CopulaSpec("smoothed_upper", model), 128)
        rejected.append((eps, val, chk))
        ok = ok and (
            not val.containment_pass
            and val.quadratic_pass
            and abs(chk.boundary_max_err - corner_defect) <= 1e-9
        )
    detail = "; ".join(
        f"eps={e}: validate={v.verdict} check={c.verdict}" for e, v, c in rows
    ) + "; positive-corner profile: " + "; ".join(
        f"eps={e}: containment={v.containment_pass} boundary_err={c.boundary_max_err:.4f}"
        for e, v, c in rejected
    )
    report(3, ok, f"(quadratic family: {detail})")
    for eps, val, chk in rows:
        assert val.verdict, (
            f"eps={eps}: validation failed (worst margin {val.worst_margin:.4f} "
            f"at w={val.worst_point.w:.4f}, z={val.worst_point.z:.4f})"
        )
        assert chk.verdict
    for eps, val, chk in rejected:
        assert not val.containment_pass
        assert val.quadratic_pass
        assert chk.boundary_max_err == pytest.approx(corner_defect, abs=1e-9)


def test_criterion_3_steep_family_rejected_with_witness():
    model = product_radius([0.6, 0, -1.2], epsilon=0.0)
    val = validate_model(model, Orientation.UPPER_M, 128)
    ok = (not val.verdict) and 0.5 <= abs(val.worst_point.w) <= 0.71
    report(3, ok, f"(steep family rejected, witness |w|={abs(val.worst_point.w):.3f})")
    assert not val.verdict
    assert not val.quadratic_pass
    assert 0.5 <= abs(val.worst_point.w) <= 0.71


def test_criterion_4_boundary_gap_counterexample():
    model = constant_radius(0.2)
    val = validate_model(model, Orientation.UPPER_M, 128)
    chk = check_copula(CopulaSpec("smoothed_upper", model), 128)
    expected_defect = (4 * 0.2 / (3 * math.pi)) / math.sqrt(2)
    ok = (
        val.paper_sufficient_pass
        and val.quadratic_pass
        and not val.containment_pass
        and abs(chk.boundary_max_err - expected_defect) <= 1e-9
    )
    report(4, ok, f"(corner defect {chk.boundary_max_err:.9f})")
    assert val.paper_sufficient_pass and val.quadratic_pass
    assert not val.containment_pass
    assert chk.boundary_max_err == pytest.approx(expected_defect, abs=1e-9)


def test_criterion_5_derivative_adjudication():
    model = product_radius([0.25, 0, -0.2], epsilon=0.3)
    up = Orientation.UPPER_M
    spec = CopulaSpec("smoothed_upper", model)
    rng = np.random.default_rng(55)
    worst_chain = 0.0
    worst_single = 0.0
    worst_density = 0.0
    count = 0
    while count < 50:
        w = rng.uniform(-0.45, 0.45)
        z = rng.uniform(-0.3, 0.3)
        r = float(model.radius(w, z))
        if abs(z / r) > 0.9 or L - abs(w) - abs(z) < 0.05:
            continue
        count += 1
        f = lambda ww, zz: float(band_average(model, ww, zz, up))
        _, fd_zz = fd_second_partials(f, DiamondPoint(w, z), 1e-4)
        chain, b_nn = band_average_second_partials(model, w, z, up)
        single = float(band_average_second_partials(model, w, z, up, single_cross=True)[0])
        worst_chain = max(worst_chain, abs(float(chain) - fd_zz) / abs(fd_zz))
        worst_single = max(worst_single, abs(single - fd_zz) / abs(fd_zz))
        # the library's density is built on the chain-rule form
        want = float(chain - b_nn) / (2 * SQRT2)
        got = float(copula_density(spec, *wz_to_uv(w, z)))
        worst_density = max(worst_density, abs(got - want) / abs(want))
    ok = worst_chain <= 1e-5 and worst_single > 1e-2 and worst_density <= 1e-9
    report(
        5,
        ok,
        f"(chain-rule max rel dev {worst_chain:.2e}; "
        f"single-cross max rel dev {worst_single:.2e}; "
        f"library density vs chain rule {worst_density:.2e})",
    )
    assert worst_chain <= 1e-5
    assert worst_single > 1e-2
    assert worst_density <= 1e-9


def test_criterion_6_regularity_ceiling():
    seam_ok = True
    for eps in (1e-4, 1e-6):
        (g_a, g1_a, g2_a, _), (g_b, g1_b, g2_b, _) = kernel_outputs(1 + eps), kernel_outputs(1 - eps)
        seam_ok &= abs(g_a - g_b) <= 5 * eps
        seam_ok &= abs(g1_a - g1_b) <= 5 * eps
        # g'' is Holder-1/2 at the seam (forced by the g''' blow-up), so the
        # continuity bound scales as sqrt(eps)
        seam_ok &= abs(g2_a - g2_b) <= 3 * math.sqrt(eps)

    s = 1e-4
    x = 1 - s
    g = lambda rho: float(kernel_outputs(rho)[0])
    g3 = (g(x + 2 * s) - 2 * g(x + s) + 2 * g(x - s) - g(x - 2 * s)) / (2 * s**3)

    spec = CopulaSpec("smoothed_upper", gaussian_band_radius(1.0))
    r0 = float(spec.model.radius(0.0, 0.0))

    def mbar(z):
        u, v = wz_to_uv(0.0, z)
        return float(copula_values(spec, u, v))

    zc = r0 - s
    m3 = (mbar(zc + 2 * s) - 2 * mbar(zc + s) + 2 * mbar(zc - s) - mbar(zc - 2 * s)) / (
        2 * s**3
    )

    for eps in (1e-4, 1e-6):
        vals = []
        for z in (r0 - eps, r0 + eps):
            u, v = wz_to_uv(0.0, z)
            p = SquarePoint(float(u), float(v))
            du, dv = copula_partials(spec, p.u, p.v)
            vals.append((smoothed_value(spec, p), float(du), float(dv), float(copula_density(spec, p.u, p.v))))
        inner, outer = vals
        seam_ok &= abs(inner[0] - outer[0]) <= 5 * eps
        seam_ok &= abs(inner[1] - outer[1]) <= 5 * eps
        seam_ok &= abs(inner[2] - outer[2]) <= 5 * eps
        seam_ok &= abs(inner[3] - outer[3]) <= 6 * math.sqrt(eps)

    ok = seam_ok and abs(g3) > 100.0 and abs(m3) > 100.0
    report(6, ok, f"(third-derivative probes {g3:.1f}, {m3:.1f})")
    assert seam_ok
    assert abs(g3) > 100.0
    assert abs(m3) > 100.0


def test_criterion_7_frechet_ordering():
    xs = np.linspace(0, 1, 201)
    uu, vv = np.meshgrid(xs, xs, indexing="ij")
    lower = np.maximum(uu + vv - 1, 0)
    upper = np.minimum(uu, vv)
    worst = 0.0
    for spec in VALIDATING_SPECS:
        c = copula_values(spec, uu, vv)
        worst = max(worst, float(np.max(lower - c)), float(np.max(c - upper)))
    ok = worst <= 1e-12
    report(7, ok, f"(worst ordering violation {worst:.2e} over {len(VALIDATING_SPECS)} models)")
    assert worst <= 1e-12


def test_criterion_8_sampling():
    t0 = time.perf_counter()
    n = 100_000
    spec = CopulaSpec("smoothed_upper", gaussian_band_radius(1.0))
    batch = sample_batch(spec, n, seed=20260809)
    xy = to_gaussian(batch)
    max_gap = float(np.max(np.abs(xy[:, 1] - xy[:, 0])))

    def ks(sample):
        s = np.sort(sample)
        grid = np.arange(len(s), dtype=float)
        return max(np.max((grid + 1) / len(s) - s), np.max(s - grid / len(s)))

    crit = 1.5 * 1.36 / math.sqrt(n)
    ks_u = ks(batch.pairs[:, 0])
    ks_v = ks(batch.pairs[:, 1])

    # determinism: a rerun reproduces the batch (counter-based generator:
    # the prefix of a longer batch equals a shorter batch bit-for-bit)
    again = sample_batch(spec, 20_000, seed=20260809)
    deterministic = np.array_equal(again.pairs, batch.pairs[:20_000])

    elapsed = time.perf_counter() - t0
    ok = max_gap <= 1 + 1e-6 and ks_u <= crit and ks_v <= crit and deterministic and elapsed < 30
    report(
        8,
        ok,
        f"(max gap {max_gap:.6f}, KS {ks_u:.4f}/{ks_v:.4f} vs {crit:.4f}, {elapsed:.1f}s)",
    )
    assert max_gap <= 1 + 1e-6
    assert ks_u <= crit and ks_v <= crit
    assert deterministic
    assert elapsed < 30.0


def test_criterion_9_cli_golden(capsys):
    def run(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    eval_argv = (
        "eval", "--copula", "mbar",
        "--radius", '{"kind":"gaussian_band","d":1.0}',
        "--u", "0.5", "--v", "0.5",
    )
    code1, out1 = run(*eval_argv)
    code2, out2 = run(*eval_argv)
    lib = smoothed_value(
        CopulaSpec("smoothed_upper", gaussian_band_radius(1.0)), SquarePoint(0.5, 0.5)
    )
    eval_ok = code1 == 0 and out1 == out2 and abs(float(out1) - lib) <= math.ulp(lib)

    val_argv = (
        "validate", "--copula", "mbar",
        "--radius", '{"kind":"constant","r0":0.2}', "--grid-n", "64",
    )
    code1, v1 = run(*val_argv)
    code2, v2 = run(*val_argv)
    val_ok = code1 == 1 and code2 == 1 and v1 == v2
    val_ok = val_ok and json.loads(v1)["containment_pass"] is False

    code1, h1 = run("--help")
    code2, h2 = run("--help")
    help_ok = code1 == 0 and code2 == 0 and h1 == h2

    ok = eval_ok and val_ok and help_ok
    report(9, ok, f"(eval={eval_ok}, validate={val_ok}, help={help_ok})")
    assert eval_ok and val_ok and help_ok
