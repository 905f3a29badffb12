"""Hypothesis properties: the model JSON round trip, rectangle volumes, the
closed forms against the disc-average oracle, against finite differences of
themselves, and (the density) against finite differences of the oracle, and
the sampler's batch prefixes."""

import json

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from band_helpers import rectangle_volume
from fhsmooth.copulas import CopulaSpec, copula_density, copula_partials, copula_values
from fhsmooth.geometry import DIAMOND_RADIUS, DiamondPoint, diamond_margin, uv_to_wz, wz_to_uv
from fhsmooth.oracle import OracleRequest, disc_average, fd_second_partials
from fhsmooth.radius import (
    constant_radius,
    gaussian_band_radius,
    model_from_json,
    model_to_json,
    product_radius,
)
from fhsmooth.sampler import sample_batch
from fhsmooth.validator import validate_model

# a polynomial positive across the diamond: c0 >= 0.5 outweighs |c1*w + c2*w^2| <= 0.45
positive_poly = st.tuples(
    st.floats(0.5, 10.0), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)
).map(list)
skew = st.floats(-0.99, 0.99)

models = st.one_of(
    st.builds(constant_radius, st.floats(1e-3, 10.0)),
    st.builds(gaussian_band_radius, st.floats(1e-3, 40.0)),
    st.builds(lambda p, e: product_radius(p, epsilon=e), positive_poly, skew),
    st.builds(lambda p, q: product_radius(p, q=q), positive_poly, positive_poly),
)


@given(models)
def test_model_json_round_trip(model):
    text = json.dumps(model_to_json(model))
    assert model_from_json(text) == model
    assert model_to_json(model_from_json(text)) == model_to_json(model)


# radii a*(1/2 - x^2) vanish at the corners of the singular axis x = w (upper)
# or z (lower) and the other factor skews the band; validate_model keeps the
# admissible ones (a up to about 0.6)
profile = st.floats(0.05, 1.5).map(lambda a: [a / 2, 0.0, -a])
candidates = st.one_of(
    st.builds(lambda d: CopulaSpec("smoothed_upper", gaussian_band_radius(d)), st.floats(0.05, 5.0)),
    st.builds(lambda p, e: CopulaSpec("smoothed_upper", product_radius(p, epsilon=e)), profile, skew),
    st.builds(
        lambda q, e: CopulaSpec("smoothed_lower", product_radius([1.0, np.sqrt(2) * e], q=q)),
        profile,
        skew,
    ),
)
unit = st.floats(0.0, 1.0)
# sides from 1e-7 to 0.1 on a log scale: a small rectangle resolves a local defect
side = st.builds(lambda m, k: m * 10.0**-k, st.floats(1.0, 10.0), st.integers(2, 7))


@given(candidates, unit, unit, side, side)
def test_rectangle_volume_nonnegative(spec, u, v, du, dv):
    assume(validate_model(spec.model, spec.orientation, 64).verdict)
    u1, v1 = min(u, 1.0 - du), min(v, 1.0 - dv)
    assert rectangle_volume(spec, u1, u1 + du, v1, v1 + dv) >= -1e-12


inner = st.floats(0.02, 0.98)


@given(candidates, inner, inner)
def test_values_match_disc_average(spec, u, v):
    assume(validate_model(spec.model, spec.orientation, 64).verdict)
    w, z = (float(x) for x in uv_to_wz(u, v))
    sharp = spec.family.replace("smoothed", "fh")
    want = disc_average(OracleRequest(sharp, DiamondPoint(w, z), float(spec.model.radius(w, z)), 1e-10))
    assert abs(float(copula_values(spec, u, v)) - want) <= 1e-12


@given(candidates, inner, inner)
def test_partials_match_central_differences(spec, u, v):
    assume(validate_model(spec.model, spec.orientation, 64).verdict)
    step = 1e-6
    c = copula_values(spec, [u + step, u - step, u, u], [v, v, v + step, v - step])
    du, dv = copula_partials(spec, u, v)
    assert abs((c[0] - c[1]) / (2 * step) - du) <= 1e-7
    assert abs((c[2] - c[3]) / (2 * step) - dv) <= 1e-7


@given(candidates, unit, st.sampled_from([0.0, 1.0]), st.booleans())
def test_boundary_values_lie_on_both_sharp_bounds(spec, t, edge, on_u):
    # grounded, with uniform margins: on the square's edges W = M, so C must
    # meet both within the checker's 1e-12 ordering slack
    assume(validate_model(spec.model, spec.orientation, 64).verdict)
    u, v = (edge, t) if on_u else (t, edge)
    c = float(copula_values(spec, u, v))
    for bound in (CopulaSpec("fh_lower"), CopulaSpec("fh_upper")):
        assert abs(c - float(copula_values(bound, u, v))) <= 1e-12


FD_STEP = 1e-3
FD_ORACLE_TOL = 1e-12  # the oracle's rel_tol: each value it gives is off by at most this much


def _oracle_density(spec, w, z, h):
    """(C_ww - C_zz)/2 by central differences of the disc-average oracle, step h."""
    sharp = spec.family.replace("smoothed", "fh")

    def c(a, b):
        return disc_average(OracleRequest(sharp, DiamondPoint(a, b), float(spec.model.radius(a, b)), FD_ORACLE_TOL))

    c_ww, c_zz = fd_second_partials(c, DiamondPoint(w, z), h)
    return 0.5 * (c_ww - c_zz)


@given(candidates, st.floats(-0.85 * DIAMOND_RADIUS, 0.85 * DIAMOND_RADIUS), st.floats(-0.7, 0.7))
def test_density_matches_oracle_differences(spec, s, frac):
    # where C is smooth: |rho| <= 0.7 inside the band and 0.1/sqrt(2) inside the
    # diamond, as the benchmark's density check picks its rows.  The point is t =
    # frac*r(t = 0) across the band at s along it.  The tolerance is the two-step
    # bound: the Richardson estimate |D(h) - D(2h)| plus the oracle's rounding,
    # 4*rel_tol/h^2, through each difference quotient
    o = spec.orientation
    t = frac * float(spec.model.radius(*o.swap(0.0, s)))
    w, z = (float(x) for x in o.swap(t, s))
    assume(abs(t / float(spec.model.radius(w, z))) <= 0.7 and diamond_margin(w, z) >= 0.1 * DIAMOND_RADIUS)
    h = FD_STEP
    d1, d2 = _oracle_density(spec, w, z, h), _oracle_density(spec, w, z, 2.0 * h)
    tol = abs(d1 - d2) + 4.0 * FD_ORACLE_TOL * (1.0 / h**2 + 1.0 / (2.0 * h) ** 2)
    assert abs(float(copula_density(spec, *wz_to_uv(w, z))) - d1) <= tol


PREFIX_SPEC = CopulaSpec("smoothed_lower", product_radius([1.0], q=[0.25, 0, -0.5]))
prefix_sizes = st.integers(2, 300).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n)))


@given(prefix_sizes, st.integers(-(2**70), 2**70))
def test_sample_batch_prefixes(sizes, seed):
    # each pair is retired on its own stopping rule, so its v does not depend on
    # which other pairs share its batch: a shorter batch is a prefix of a longer one
    m, n = sizes
    assert np.array_equal(sample_batch(PREFIX_SPEC, m, seed).pairs, sample_batch(PREFIX_SPEC, n, seed).pairs[:m])
