import contextlib
import io
import json
import math
import re
import warnings
from collections import namedtuple

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from fhsmooth import cli
from fhsmooth.checker import _MASS_NODES
from fhsmooth.geometry import DIAMOND_RADIUS, SQRT2, Orientation, uv_to_wz
from fhsmooth.kernel import std_normal_quantile
from fhsmooth.radius import (
    ModelSpecError,
    ProductRadius,
    band_edges,
    constant_radius,
    gaussian_band_radius,
    model_from_json,
    model_to_json,
    product_radius,
)
from fhsmooth.validator import validate_model

L = DIAMOND_RADIUS


def erf_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def erf_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


Jet = namedtuple("Jet", "r r_w r_z r_ww r_zz")


def jet_at(model, w, z):
    return Jet(*map(float, model.jet(w, z)))


def test_constant_jet():
    jet = jet_at(constant_radius(0.2), 0.1, 0.05)
    assert (jet.r, jet.r_w, jet.r_z, jet.r_ww, jet.r_zz) == (0.2, 0, 0, 0, 0)


@pytest.mark.parametrize("slot", range(6), ids=["radius", "r", "r_w", "r_z", "r_ww", "r_zz"])
@pytest.mark.parametrize("model", [
    constant_radius(0.2), product_radius([0.25, 0, -0.2], epsilon=0.3), gaussian_band_radius(1.0),
], ids=lambda m: m.kind)
def test_a_scalar_point_gives_a_numpy_float_in_every_slot(model, slot):
    # one type for a 0-d input across the three kinds, as the public copula calls
    # return; an array input keeps its shape
    def out(w, z):
        return (model.radius(w, z), *model.jet(w, z))[slot]

    scalar = out(0.1, 0.05)
    assert type(scalar) is np.float64
    lattice = out(np.full((2, 3), 0.1), 0.05)
    assert type(lattice) is np.ndarray and lattice.shape == (2, 3) and np.all(lattice == scalar)


def test_product_jet_by_hand():
    m = product_radius([0.25, 0, -0.2], epsilon=0.3)
    jet = jet_at(m, 0.0, 0.0)
    assert jet.r == pytest.approx(0.25, abs=1e-15)
    assert jet.r_w == pytest.approx(0.0, abs=1e-15)
    assert jet.r_z == pytest.approx(0.25 * 0.3 * SQRT2, abs=1e-15)
    assert jet.r_ww == pytest.approx(-0.4, abs=1e-15)
    assert jet.r_zz == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("spec", [
    {"kind": "product", "p": [0.25, 0.0, -0.2], "epsilon": 0.3},
    {"kind": "product", "p": [1.0], "q": [0.25, 0.0, -0.5]},
    {"kind": "product", "p": [0.6, 0.1, -1.0, 0.05], "q": [1.0, -0.3, 0.2]},
])
def test_product_derivatives_built_once(spec):
    # the derivative coefficients are built at the first jet, not at
    # construction, are no part of the model's identity, and give the jet of
    # per-call polyder bit for bit
    m, twin = model_from_json(spec), model_from_json(spec)
    twin.jet(0.0, 0.0)
    assert "_derivs" not in vars(m) and "_derivs" in vars(twin)
    assert m == twin and hash(m) == hash(twin) == hash((m.p_coeffs, m.q_coeffs, m.epsilon))
    assert repr(m) == f"ProductRadius(p_coeffs={m.p_coeffs!r}, q_coeffs={m.q_coeffs!r}, epsilon={m.epsilon!r})"
    assert model_to_json(m) == spec
    rng = np.random.default_rng(11)
    w, z = rng.uniform(-L, L, (2, 500))
    p, q = npoly.polyval(w, m.p_coeffs), npoly.polyval(z, m.q_coeffs)
    p1, p2 = (npoly.polyval(w, npoly.polyder(m.p_coeffs, k)) for k in (1, 2))
    q1, q2 = (npoly.polyval(z, npoly.polyder(m.q_coeffs, k)) for k in (1, 2))
    want = [p * q, p1 * q, p * q1, p2 * q, p * q2]
    assert bits(m.jet(w, z)).tolist() == bits(want).tolist()


def test_gaussian_jet_at_center():
    m = gaussian_band_radius(1.0)
    jet = jet_at(m, 0.0, 0.0)
    # by symmetry the band edges map to -+1/2 on the normal scale
    r_exact = SQRT2 * (erf_cdf(0.5) - 0.5)
    assert jet.r == pytest.approx(r_exact, abs=1e-13)
    assert jet.r_w == pytest.approx(0.0, abs=1e-12)
    assert jet.r_z == 0.0 and jet.r_zz == 0.0
    edge_slope = 1.0 / (SQRT2 * erf_pdf(0.5))  # x' = y' at the symmetric point
    assert jet.r_ww == pytest.approx(-(edge_slope + edge_slope) / 4.0, abs=1e-10)


def test_gaussian_solve_residual():
    m = gaussian_band_radius(1.0)
    rng = np.random.default_rng(10)
    w = rng.uniform(-0.6, 0.6, 500)
    r = m.radius(w, np.zeros_like(w))
    gap = (
        std_normal_quantile(0.5 + (w + r) / SQRT2)
        - std_normal_quantile(0.5 + (w - r) / SQRT2)
    )
    assert np.max(np.abs(gap - 1.0)) <= 1e-12
    # independent residual via the stdlib erf
    for wi, ri in zip(w[:50], r[:50]):
        gap = (
            _erf_quantile(0.5 + (wi + ri) / SQRT2)
            - _erf_quantile(0.5 + (wi - ri) / SQRT2)
        )
        assert gap == pytest.approx(1.0, abs=1e-9)


def _erf_quantile(p, lo=-9.0, hi=9.0):
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if erf_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_gaussian_properties():
    m = gaussian_band_radius(1.0)
    rng = np.random.default_rng(11)
    w = rng.uniform(-0.7, 0.7, 2000)
    w = w[np.abs(w) < L - 1e-3]
    r, r_w, _, r_ww, _ = m.jet(w, np.zeros_like(w))
    assert np.all(np.abs(r_w) < 1.0)
    assert np.all(r_ww <= 0.0)
    assert np.all(r + np.abs(w) < L)
    # even symmetry
    r_neg = m.radius(-w, np.zeros_like(w))
    assert np.max(np.abs(r - r_neg)) <= 1e-12


@pytest.mark.parametrize(
    "model",
    [
        product_radius([0.25, 0, -0.2], epsilon=0.3),
        gaussian_band_radius(1.0),
        gaussian_band_radius(0.5),
    ],
    ids=["product", "gauss1", "gauss05"],
)
def test_partials_match_finite_differences(model):
    rng = np.random.default_rng(12)
    count = 0
    while count < 60:
        w = rng.uniform(-0.5, 0.5)
        z = rng.uniform(-0.3, 0.3)
        if L - abs(w) - abs(z) < 1e-3:
            continue
        count += 1
        s = 1e-5
        f = lambda ww, zz: float(model.radius(ww, zz))
        jet = jet_at(model, w, z)
        fd_w = (f(w + s, z) - f(w - s, z)) / (2 * s)
        fd_z = (f(w, z + s) - f(w, z - s)) / (2 * s)
        assert abs(fd_w - jet.r_w) <= 1e-6 * max(abs(jet.r_w), 1e-2)
        assert abs(fd_z - jet.r_z) <= 1e-6 * max(abs(jet.r_z), 1e-2)
        # second differences are cancellation-limited below step 1e-4, and
        # their roundoff floor (~1e-8 absolute) sets the comparison floor
        s2 = 1e-4
        fd_ww = (f(w + s2, z) - 2 * f(w, z) + f(w - s2, z)) / (s2 * s2)
        fd_zz = (f(w, z + s2) - 2 * f(w, z) + f(w, z - s2)) / (s2 * s2)
        assert abs(fd_ww - jet.r_ww) <= 1e-6 * max(abs(jet.r_ww), 1e-1)
        assert abs(fd_zz - jet.r_zz) <= 1e-6 * max(abs(jet.r_zz), 1e-1)


def test_radius_jet_requires_interior():
    # at and beyond the corner the gaussian jet is NaN, like the radius
    m = gaussian_band_radius(1.0)
    w = np.array([0.0, L, L + 0.01])
    r, r_w, r_z, r_ww, r_zz = m.jet(w, np.zeros_like(w))
    assert np.isfinite([r[0], r_w[0], r_ww[0]]).all()
    assert np.isnan([r[1:], r_w[1:], r_ww[1:]]).all()
    assert np.array_equal(r, m.radius(w, np.zeros_like(w)), equal_nan=True)


def test_gaussian_radius_nan_outside():
    m = gaussian_band_radius(1.0)
    r = m.radius(np.array([0.0, L, 0.9]), np.array([0.0, 0.0, 0.0]))
    assert np.isfinite(r[0])
    assert np.isnan(r[1]) and np.isnan(r[2])


def test_construction_validation():
    with pytest.raises(ModelSpecError):
        constant_radius(0.0)
    with pytest.raises(ModelSpecError):
        constant_radius(-1.0)
    with pytest.raises(ModelSpecError):
        product_radius([0.25, 0, -1.0], epsilon=0.0)  # p <= 0 inside the diamond
    with pytest.raises(ModelSpecError):
        product_radius([0.25], epsilon=1.2)  # q crosses zero inside
    with pytest.raises(ModelSpecError):
        product_radius([0.25], epsilon=0.1, q=[1.0])
    with pytest.raises(ModelSpecError):
        gaussian_band_radius(0.0)
    # touching zero exactly at the closed corners is allowed: positivity is
    # required on the open diamond only
    product_radius([0.6, 0, -1.2], epsilon=0.0)


def edges(model, w):
    """The band edges (lower, upper) of the upper family at one w, as floats."""
    return tuple(float(e[0]) for e in band_edges(model, Orientation.UPPER_M, np.array([w])))


def run_band(model, w):
    """(exit code, stdout, stderr) of the `band` command on model at w."""
    argv = ["band", "--copula", "mbar", "--radius", json.dumps(model_to_json(model)), f"--w={float(w)!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def band_json(model, w):
    """The `band` command's JSON on model at w, each value a float: "-0" keeps its sign, "inf" is inf."""
    code, out, err = run_band(model, w)
    assert (code, err) == (0, "")
    return {key: float(x) for key, x in json.loads(out, parse_int=float).items()}


def test_support_band_constant():
    m = constant_radius(0.2)
    assert edges(m, 0.3) == (-0.2, 0.2)
    assert band_json(m, 0.3)["kappa"] == 1.0


def test_support_band_product_skew():
    m = product_radius([0.25, 0, -0.2], epsilon=0.3)
    lower, upper = edges(m, 0.0)
    kappa = band_json(m, 0.0)["kappa"]
    s = 0.3 * SQRT2 * 0.25
    assert lower == pytest.approx(-0.25 / (1 + s), abs=1e-15)
    assert upper == pytest.approx(0.25 / (1 - s), abs=1e-15)
    assert kappa == pytest.approx((1 + s) / (1 - s), abs=1e-14)
    assert kappa == pytest.approx(upper / abs(lower), abs=1e-14)


def test_support_band_gaussian():
    m = gaussian_band_radius(1.0)
    lower, upper = edges(m, 0.0)
    r_exact = SQRT2 * (erf_cdf(0.5) - 0.5)
    assert upper == pytest.approx(r_exact, abs=1e-13)
    assert lower == pytest.approx(-r_exact, abs=1e-13)
    assert band_json(m, 0.0)["kappa"] == 1.0


@pytest.mark.parametrize(
    "model",
    [constant_radius(0.2), product_radius([0.25, 0, -0.2], epsilon=0.3), gaussian_band_radius(1.0)],
    ids=["constant", "product", "gaussian"],
)
def test_support_band_rejects_w_off_the_diamond(model):
    for w in (5.0, -0.8, L + 1e-9, math.nan, math.inf):
        # the DomainError's text, reported as an input error
        assert run_band(model, w) == (2, "", f"error: w={w!r} outside the diamond, |w| <= 1/sqrt(2)\n")
    assert band_json(model, -0.3)["w"] == -0.3


INTERIOR_W = np.linspace(-L, L, 403)[1:-1]  # 401 values strictly inside
CLI_W = range(0, INTERIOR_W.size, 20)  # 21 of them, both ends included, also through the CLI


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_support_band_gaussian_is_the_radius(d):
    m = gaussian_band_radius(d)
    r = m.radius(INTERIOR_W, 0.0)
    lower, upper = band_edges(m, Orientation.UPPER_M, INTERIOR_W)
    assert lower.tolist() == (-r).tolist() and upper.tolist() == r.tolist()
    for i in CLI_W:
        want = {"w": INTERIOR_W[i], "lower": -r[i], "upper": r[i], "kappa": 1.0}
        assert band_json(m, INTERIOR_W[i]) == want


@pytest.mark.parametrize("eps", [0.0, 0.2, -0.2])
def test_support_band_affine_product_closed_form(eps):
    # |z| = p(w)*(q0 + q1*z) has the roots p*q0/(1 -+ p*q1), matched bit for bit
    m = product_radius([0.25, 0, -0.5], epsilon=eps)
    assert validate_model(m, Orientation.UPPER_M, 64).verdict
    (q0, q1), p = m.q_coeffs, np.polynomial.polynomial.polyval(INTERIOR_W, m.p_coeffs)
    lo, up = -p * q0 / (1.0 + p * q1), p * q0 / (1.0 - p * q1)
    lower, upper = band_edges(m, Orientation.UPPER_M, INTERIOR_W)
    assert lower.tolist() == lo.tolist() and upper.tolist() == up.tolist()
    for i in CLI_W:
        want = {"w": INTERIOR_W[i], "lower": lo[i], "upper": up[i], "kappa": up[i] / -lo[i]}
        assert band_json(m, INTERIOR_W[i]) == want


@pytest.mark.parametrize(
    "model", [gaussian_band_radius(1.0), product_radius([0.25, 0, -0.5], epsilon=0.2)]
)
def test_support_band_zero_width_at_the_corners(model):
    for w in (L, -L):  # r is NaN (gaussian) or a ~1e-16 residue (product) there
        lower, upper = edges(model, w)
        assert (str(lower), upper) == ("-0.0", 0.0)
        band = band_json(model, w)
        assert (str(band["lower"]), band["upper"], band["kappa"]) == ("-0.0", 0.0, math.inf)


def test_support_band_clipped_to_the_diamond():
    lower, upper = edges(constant_radius(0.2), 0.6)  # spills over the boundary
    assert lower == -upper and 0.0 <= (L - 0.6) - upper <= 1e-14
    # p*q1 > 1: the upper edge has no root and closes on the boundary
    lower, upper = edges(product_radius([0.9], epsilon=0.9), 0.0)
    assert 0.0 <= L - upper <= 1e-14
    assert lower == pytest.approx(-0.9 / (1.0 + 0.9 * 0.9 * SQRT2), abs=1e-14)
    assert lower == -0.9 / (1.0 + 0.9 * (SQRT2 * 0.9))  # -p/(1 + p*q1) in float64
    # a non-affine q: |z| = 0.25 - 0.5*z^2 has the roots +-(sqrt(1.5) - 1)
    lower, upper = edges(product_radius([1.0], q=[0.25, 0, -0.5]), 0.1)
    assert upper == pytest.approx(math.sqrt(1.5) - 1.0, abs=1e-14) == -lower


def bits(a):
    """Bit patterns, sign of zero included; every NaN is mapped to one pattern,
    since numpy sets a NaN's sign bit by its position in the loop, not by value."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


MASS_SLICES = DIAMOND_RADIUS * np.polynomial.legendre.leggauss(_MASS_NODES)[0]


@pytest.mark.parametrize(
    "model",
    [
        constant_radius(0.2),
        product_radius([0.6, 0, -1.2], epsilon=0.0),
        product_radius([0.25, 0, -0.2], epsilon=0.3),
    ],
    ids=["constant", "steep", "skew"],
)
def test_band_edges_batch_equals_one_node_solves(model):
    # a converged node keeps its edge while the rest of the batch iterates
    edges = band_edges(model, Orientation.UPPER_M, MASS_SLICES)
    for i in range(MASS_SLICES.size):
        one = band_edges(model, Orientation.UPPER_M, MASS_SLICES[i : i + 1])
        assert bits([e[0] for e in one]).tolist() == bits([e[i] for e in edges]).tolist()


def test_band_edges_keeps_an_exact_root():
    lower, upper = band_edges(constant_radius(0.2), Orientation.UPPER_M, np.array([0.0, 0.6]))
    assert (lower[0], upper[0]) == (-0.2, 0.2)


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_gaussian_solve_once_per_distinct_w_is_exact(d):
    # a 64 x 64 lattice spanning the closed square (both corners of the
    # singular axis included) plus signed zeros, NaNs and the corners
    xs = np.linspace(0.0, 1.0, 64)
    w, z = uv_to_wz(*np.meshgrid(xs, xs, indexing="ij"))
    w = np.concatenate([w.ravel(), [-0.0, 0.0, math.nan, -math.nan, L, -L]]).reshape(2, -1)
    z = np.concatenate([z.ravel(), np.zeros(6)]).reshape(w.shape)
    m = gaussian_band_radius(d)
    batch = [m.radius(w, z), *m.jet(w, z)]
    for i, j in np.ndindex(w.shape):
        one = [m.radius(w[i, j], z[i, j]), *m.jet(w[i, j], z[i, j])]
        assert bits(one).tolist() == bits([a[i, j] for a in batch]).tolist(), (w[i, j], z[i, j])


def distinct_w_inputs():
    xs = np.linspace(0.0, 1.0, 512)  # check_copula's value lattice at 512
    lattice = uv_to_wz(*np.meshgrid(xs, xs, indexing="ij"))[0].ravel()[: 2**15]
    sampled = np.random.default_rng(5).uniform(-L, L, 2000)
    repeats = np.array([0.3, -0.0, 0.1, 0.3, math.nan, 0.0, -0.2, 0.1, -math.nan, 0.3, -0.0])
    return {"lattice": lattice, "sampled": sampled, "repeats": repeats}


@pytest.mark.parametrize("case", ["lattice", "sampled", "repeats"])
def test_gaussian_distinct_w_contract(case):
    w = distinct_w_inputs()[case]
    wu, back, x, y, r = gaussian_band_radius(1.0)._solve_distinct(w)
    finite = ~np.isnan(wu)
    # NaNs sort last, each in a slot of its own; the rest strictly increase
    assert np.all(np.diff(wu[finite]) > 0) and not np.any(np.isnan(wu[: finite.sum()]))
    assert np.array_equal(wu[back], w, equal_nan=True)  # -0.0 == 0.0
    assert np.array_equal(np.isnan(wu[back]), np.isnan(w))
    assert (~finite).sum() == np.isnan(w).sum()
    assert np.unique(w[~np.isnan(w)]).size == finite.sum()
    assert x.shape == y.shape == r.shape == wu.shape


def test_json_round_trip():
    models = [
        constant_radius(0.2),
        product_radius([0.25, 0, -0.2], epsilon=0.3),
        product_radius([1.0], q=[0.25, 0, -0.5]),
        gaussian_band_radius(1.0),
    ]
    for m in models:
        again = model_from_json(json.dumps(model_to_json(m)))
        assert again == m
    # the exact dicts, key order included: the text a model's JSON is written as
    assert [list(model_to_json(m).items()) for m in models] == [
        [("kind", "constant"), ("r0", 0.2)],
        [("kind", "product"), ("p", [0.25, 0.0, -0.2]), ("epsilon", 0.3)],
        [("kind", "product"), ("p", [1.0]), ("q", [0.25, 0.0, -0.5])],
        [("kind", "gaussian_band"), ("d", 1.0)],
    ]


def test_json_errors():
    with pytest.raises(ModelSpecError):
        model_from_json("not json")
    with pytest.raises(ModelSpecError):
        model_from_json({"kind": "spherical"})
    with pytest.raises(ModelSpecError):
        model_from_json({"kind": "constant"})
    with pytest.raises(ModelSpecError):
        model_from_json({"kind": "product", "p": [0.25]})
    with pytest.raises(ModelSpecError, match="exactly one of epsilon or q"):
        model_from_json({"kind": "product", "p": [0.25, 0, -0.2], "epsilon": 0.3, "q": [5, 1]})


@pytest.mark.parametrize("text", ["5", "null", '"kind"', '["kind"]', '{"d": 1.0}'])
def test_json_that_is_not_an_object_with_a_kind_is_rejected(text):
    # a string or a list holding "kind" passes an `in` test, and a number fails it with TypeError
    with pytest.raises(ModelSpecError, match="must be an object with a 'kind' key"):
        model_from_json(text)


BIG = "1" + "0" * 400  # a JSON integer beyond the float range: float() raises OverflowError


@pytest.mark.parametrize("text", [
    '{"kind":"constant","r0":null}',
    '{"kind":"product","p":5,"epsilon":0.1}',
    '{"kind":"gaussian_band","d":null}',
    '{"kind":"product","p":[0.25,0,-0.2],"epsilon":null,"q":[1,0.1]}',
    '{"kind":"product","p":[1,"x"],"epsilon":0.1}',
    pytest.param('{"kind":"constant","r0":%s}' % BIG, id="r0-400-digits"),
    pytest.param('{"kind":"product","p":[%s],"epsilon":0.1}' % BIG, id="p-400-digits"),
    pytest.param('{"kind":"constant","r0":1%s}' % ("0" * 5000), id="r0-5001-digits"),
    '{"kind":"constant"}',
    '{"kind":"gaussian_band"}',
    '{"kind":"product","q":[1]}',
])
def test_json_parameters_of_the_wrong_shape_are_a_model_spec_error(text):
    # null, a bare or mixed p, an integer float() overflows on, one over Python's
    # digit limit and a missing key are each the parser's own message, not the
    # TypeError, OverflowError or plain ValueError that building the model raises
    with pytest.raises(ModelSpecError, match=r"^(invalid )?radius JSON"):
        model_from_json(text)


@pytest.mark.parametrize("p, q", [
    ([], [1.0]), ([0.25, math.nan], [1.0]), ([0.25], []), ([0.25], [1.0, math.inf]),
])
def test_product_coefficients_must_be_a_nonempty_list_of_finite_reals(p, q):
    # np.min over a NaN sweep is NaN, which `<= 0` lets pass; an empty list has no polynomial
    with pytest.raises(ModelSpecError, match="must be a nonempty list of finite reals"):
        product_radius(p, q=q)


def test_product_epsilon_must_be_what_q_is_built_from():
    # model_to_json writes epsilon alone, so a q that contradicts it was read back as another model
    with pytest.raises(ModelSpecError, match=r"^q_coeffs must be \(1, sqrt\(2\)\*epsilon\) for epsilon=0.1$"):
        ProductRadius((0.25, 0, -0.5), (1.0, 0.5), epsilon=0.1)
    m = ProductRadius((0.25, 0, -0.5), (1.0, SQRT2 * 0.1), epsilon=0.1)
    assert m == product_radius([0.25, 0, -0.5], epsilon=0.1) == model_from_json(json.dumps(model_to_json(m)))


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_product_epsilon_must_be_finite(value):
    # json.loads takes these; the error names epsilon, not the q built from it
    with pytest.raises(ModelSpecError, match=r"^epsilon must be a finite real, got -?(nan|inf)$"):
        model_from_json('{"kind":"product","p":[0.25,0,-0.5],"epsilon":%s}' % value)


@pytest.mark.parametrize("text, key", [
    ('{"kind":"product","p":"3","epsilon":0.3}', "p"),  # a string is iterable: p = [3]
    ('{"kind":"product","p":[0.25,0,-0.2],"q":"1"}', "q"),
    ('{"kind":"product","p":[0.25,0,-0.2],"q":[1,true]}', "q"),
    ('{"kind":"product","p":[0.25,0,-0.2],"epsilon":"0.3"}', "epsilon"),
    ('{"kind":"constant","r0":true}', "r0"),
    ('{"kind":"gaussian_band","d":"1"}', "d"),
])
def test_json_rejects_strings_and_booleans_as_numbers(text, key):
    # each of these built a valid model before: float() takes "0.3" and True
    with pytest.raises(ModelSpecError, match=f"radius JSON '{key}' must be"):
        model_from_json(text)


@pytest.mark.parametrize("obj, stray", [
    ({"kind": "product", "p": [0.25, 0, -0.2], "q": [1, 0.1], "epsilonn": 0.3}, "epsilonn"),
    ({"kind": "product", "p": [0.25, 0, -0.2], "epsilon": 0.3, "d": 1.0}, "d"),
    ({"kind": "gaussian_band", "d": 1, "r0": 0.5}, "r0"),
    ({"kind": "gaussian_band", "d": 1, "D": "x"}, "D"),
    ({"kind": "constant", "r0": 0.2, "epsilon": 0.3}, "epsilon"),
])
def test_json_rejects_keys_outside_the_kinds_own_set(obj, stray):
    # each of these built a model before, the stray key dropped without a word
    with pytest.raises(ModelSpecError, match=f"kind '{obj['kind']}' takes only .*'{stray}'"):
        model_from_json(obj)


def test_json_takes_ints_and_floats():
    assert model_from_json('{"kind":"constant","r0":1}') == constant_radius(1.0)
    assert model_from_json('{"kind":"gaussian_band","d":2}') == gaussian_band_radius(2.0)
    assert model_from_json('{"kind":"product","p":[1,0.5],"q":[2]}') == product_radius([1.0, 0.5], q=[2.0])


def test_sweep_error_prints_plain_floats():
    with pytest.raises(ModelSpecError) as info:
        product_radius([0.0, 1.0], epsilon=0.1)  # p(w) = w is negative on half the diamond
    message = str(info.value)
    assert "np." not in message
    found, at = message.split("found ")[1].split(" at ")
    assert float(found) == float(at) < 0


def test_sweep_finds_a_narrow_negative_dip():
    # p(w) = (w - x0)^2 - delta^2 is negative on (x0 - delta, x0 + delta) only,
    # a dip 2e-3 wide and 1e-6 deep; the sweep's nodes must fall inside it
    x0, delta = 0.05, 1e-3
    with pytest.raises(ModelSpecError, match=r"^p\(w\) must be strictly positive") as info:
        product_radius([x0 * x0 - delta * delta, -2 * x0, 1.0], q=[1.0])
    found, at = (float(x) for x in str(info.value).split("found ")[1].split(" at "))
    assert -delta * delta <= found < 0 and abs(at - x0) < delta


@pytest.mark.parametrize("p, q, message, want", [
    ([1e308, 1e308, 1e308], [1.0, 0.0], "p(w) must be finite", math.inf),  # p overflows on the sweep itself
    ([1.0], [1e308, 1e308, 1e308], "q(z) must be finite", math.inf),
    ([1e300], [1e300], "max over z of r(w, z) must be finite", math.inf),  # p and q pass, their product does not
    ([1e300], [1.0] + [0.0] * 11 + [1e308], "max over z of r(w, z) must be finite", math.inf),  # q(z) large only where |z| is
    # a factor that is 0 where the other overflows: 0 * inf is NaN, and numpy warns of it
    ([0.0], [1e308, 1e308, 1e308], "p(w) must be strictly positive", 0.0),
    ([1e308, 1e308, 1e308], [0.0, 1.0], "p(w) must be finite", math.inf),
], ids=["p", "q", "p-times-q", "p-times-q-off-the-axis", "p-zero-q-inf", "p-inf-q-zero"])
def test_sweep_rejects_a_radius_that_overflows(p, q, message, want):
    # each was accepted before, or warned first, and then warned of the overflow and failed at the
    # first evaluation; the error names the factor, or r itself, and a point where it is found
    with pytest.raises(ModelSpecError, match=rf"^{re.escape(message)} across the diamond") as info:
        product_radius(p, q=q)
    found, at = str(info.value).split("found ")[1].split(" at ")
    assert float(found) == want and abs(float(at)) <= L


def test_sweep_accepts_a_radius_finite_on_the_diamond():
    # p and q each peak at 1e155 where |w| or |z| = 1/sqrt(2), so max p * max q = 1e310
    # overflows; but |w| + |z| <= 1/sqrt(2) on the diamond, where r peaks near 1e310/256
    big = [1.0, 0.0, 0.0, 0.0, 1e155 / L**4]
    m = product_radius(big, q=big)
    w = np.linspace(-L, L, 1001)
    for z in (L - np.abs(w), np.zeros_like(w)):
        assert np.all(np.isfinite(m.radius(w, z)))
    assert float(m.radius(L / 2, L / 2)) > 1e307 and float(m.radius(L, 0.0)) > 1e154


@pytest.mark.parametrize("p, q, label, want", [
    ([1, 0, 0, 0, 4e155], [1, 0, 0, 0, 4e155], "p'q", "inf"),  # r is at most about 3.9e307
    ([1e154], [1.0, 0.0, 1e154], "pq''", "inf"),  # only a second derivative's product overflows
    ([1.0], [1.0] + [0.0] * 19 + [1e308], "pq'", "nan"),  # q' has the coefficient 20e308 = inf
    # p' peaks at w = 0 and q at |z| = L: p'q is 2e308 at (0, L), and at most 7e306 where |z| = |w|
    ([1e10, 2e10, 0.0, -4e10 / 3], [1.0] + [0.0] * 19 + [1e298 / L**20], "p'q", "inf"),
], ids=["p-prime-q", "p-q-second", "q-prime-coefficient", "p-prime-q-off-the-diagonal"])
def test_a_jet_that_overflows_is_rejected_at_its_first_build(p, q, label, want):
    # r is finite on the diamond, so the model builds and its values need no jet; the
    # first jet bounds the products p'q, pq', p''q and pq'' over z at each w, as the
    # construction bounds r, and raises there, with no numpy warning, at each call
    model = product_radius(p, q=q)
    assert np.isfinite(model.radius(0.1, 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(ModelSpecError, match=rf"^max over z of \|{re.escape(label)}\| must be finite") as info:
                model.jet(0.1, 0.1)
    found, at = str(info.value).split("found ")[1].split(" at ")
    assert found == want and abs(float(at)) <= L


def test_a_jet_finite_on_the_diamond_is_kept():
    # p'' q peaks near 3.7e299: accepted, and the jet is the factors' derivative products
    big = [1.0, 0.0, 0.0, 0.0, 1e150 / L**4]
    model = product_radius(big, q=big)
    w = np.linspace(-L, L, 1001)
    z = L - np.abs(w)
    p, p1, p2 = (npoly.polyval(w, npoly.polyder(big, m)) for m in (0, 1, 2))
    q, q1, q2 = (npoly.polyval(z, npoly.polyder(big, m)) for m in (0, 1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = model.jet(w, z)
    for got, want in zip(jet, (p * q, p1 * q, p * q1, p2 * q, p * q2)):
        assert np.array_equal(got, want) and np.all(np.isfinite(got))


@pytest.mark.parametrize("obj, key", [
    ({"kind": "constant", "r0": 10**5000}, "r0"),
    ({"kind": "product", "p": [0.25, 10**5000], "epsilon": 0.1}, "p"),
], ids=["r0", "p"])
def test_json_dict_with_an_integer_over_the_digit_limit_names_the_key(obj, key):
    # JSON text cannot carry such an integer, a dict can; formatting its digits
    # raised a plain ValueError from inside the message itself
    with pytest.raises(ModelSpecError, match=f"^radius JSON '{key}' must be a") as info:
        model_from_json(obj)
    assert "0" * 50 not in str(info.value)


# High-precision pins for the gaussian band.  The double w is taken as
# given: a = |w| is exact in mpmath, and r is the 50-digit root of
# Q(x) + Q(x + d) = 1 - sqrt(2)*a, r = (Q(x) - Q(x + d))/sqrt(2), which
# _mp_gap_radius below ties to the defining gap equation.

_PIN_KS = np.linspace(-13.0, -0.2, 33)
_PIN_W = np.concatenate([L - 10.0**_PIN_KS, [0.0, 0.3]])


def _mp_radius(w, d):
    with mpmath.workdps(50):
        a = abs(mpmath.mpf(w))
        d = mpmath.mpf(d)
        c = 1 - mpmath.sqrt(2) * a
        q = lambda x: mpmath.ncdf(-x)
        x0 = -mpmath.sqrt(2) * mpmath.erfinv(c - 1) - d / 2
        x = mpmath.findroot(lambda x: mpmath.log(q(x) + q(x + d)) - mpmath.log(c), x0)
        return (q(x) - q(x + d)) / mpmath.sqrt(2)


def _mp_gap_radius(w, d):
    with mpmath.workdps(50):
        a = abs(mpmath.mpf(w))
        s2 = mpmath.sqrt(2)
        quantile = lambda p: s2 * mpmath.erfinv(2 * p - 1)
        gap = lambda r: quantile(0.5 + (a + r) / s2) - quantile(0.5 + (a - r) / s2) - d
        hi = 1 / s2 - a
        eps = mpmath.mpf("1e-30")
        return mpmath.findroot(gap, (hi * eps, hi * (1 - eps)), solver="anderson")


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_gaussian_radius_pinned_to_mpmath(d):
    m = gaussian_band_radius(d)
    for w in (0.3, L - 1e-3, L - 1e-9, L - 1e-13):
        assert abs(_mp_radius(w, d) - _mp_gap_radius(w, d)) <= mpmath.mpf("1e-40")
    ref = np.array([float(_mp_radius(w, d)) for w in _PIN_W])
    for sign in (1.0, -1.0):
        w = sign * _PIN_W
        r = m.radius(w, np.zeros_like(w))
        err = np.abs(r - ref)
        assert np.max(err) <= 5e-16
        interior = L - np.abs(w) >= 1e-5
        assert np.max(err[interior] / ref[interior]) <= 1e-10


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_gaussian_jet_pinned_to_mpmath(d):
    m = gaussian_band_radius(d)
    w = _PIN_W[L - np.abs(_PIN_W) >= 1e-5]
    w = np.concatenate([w, -w])
    _, r_w, _, r_ww, _ = m.jet(w, np.zeros_like(w))
    for i, wi in enumerate(w):
        d1 = mpmath.diff(lambda s: _mp_radius(s, d), mpmath.mpf(wi))
        d2 = mpmath.diff(lambda s: _mp_radius(s, d), mpmath.mpf(wi), 2)
        if wi == 0.0:
            assert r_w[i] == 0.0
        else:
            assert abs(r_w[i] - d1) <= 1e-10 * abs(d1)
        assert abs(r_ww[i] - d2) <= 1e-6 * abs(d2)
