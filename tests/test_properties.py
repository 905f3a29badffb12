"""Hypothesis properties: the model JSON round trip, rectangle volumes, and the
closed forms against the disc-average oracle and against finite differences."""

import json

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from band_helpers import rectangle_volume
from fhsmooth.copulas import CopulaSpec, copula_partials, copula_values
from fhsmooth.geometry import DiamondPoint, uv_to_wz
from fhsmooth.oracle import OracleRequest, disc_average
from fhsmooth.radius import (
    constant_radius,
    gaussian_band_radius,
    model_from_json,
    model_to_json,
    product_radius,
)
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
