import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fhsmooth
from fhsmooth.cli import build_parser, main
from fhsmooth.copulas import CopulaSpec, copula_density, copula_values, smoothed_value
from fhsmooth.geometry import SquarePoint
from fhsmooth.radius import gaussian_band_radius, model_from_json
from fhsmooth.serialize import format_float

GAUSS_JSON = '{"kind":"gaussian_band","d":1.0}'
CONST_JSON = '{"kind":"constant","r0":0.2}'
SKEW_JSON = '{"kind":"product","p":[0.25,0,-0.2],"epsilon":0.3}'
README = Path(__file__).resolve().parents[1] / "README.md"

# the copulas each command accepts: only wbar and mbar are absolutely
# continuous, and the support band is a fact of the upper family
ALL = ["m", "mbar", "w", "wbar"]
ACCEPTS = {"eval": ALL, "grid": ALL, "check": ALL, "density": ["mbar", "wbar"],
           "validate": ["mbar", "wbar"], "sample": ["mbar", "wbar"], "band": ["mbar"]}
# each command's other required options
EXTRA = {"eval": ("--u", "0.5", "--v", "0.5"), "density": ("--u", "0.5", "--v", "0.5"),
         "sample": ("--n", "5")}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_matches_library(capsys):
    code, out, _ = run(
        capsys, "eval", "--copula", "mbar", "--radius", GAUSS_JSON,
        "--u", "0.5", "--v", "0.5",
    )
    assert code == 0
    spec = CopulaSpec("smoothed_upper", gaussian_band_radius(1.0))
    want = smoothed_value(spec, SquarePoint(0.5, 0.5))
    assert abs(float(out) - want) <= math.ulp(want)


def test_eval_repeat_is_byte_identical(capsys):
    argv = ["eval", "--copula", "mbar", "--radius", GAUSS_JSON, "--u", "0.5", "--v", "0.5"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_eval_sharp_bounds(capsys):
    code, out, _ = run(capsys, "eval", "--copula", "m", "--u", "0.3", "--v", "0.5")
    assert code == 0 and float(out) == 0.3
    code, out, _ = run(capsys, "eval", "--copula", "w", "--u", "0.3", "--v", "0.5")
    assert code == 0 and float(out) == 0.0


def test_density_command(capsys):
    code, out, _ = run(
        capsys, "density", "--copula", "mbar", "--radius", CONST_JSON,
        "--u", "0.5", "--v", "0.5",
    )
    assert code == 0
    assert float(out) == pytest.approx(math.sqrt(2) / (math.pi * 0.2), abs=1e-13)


def test_validate_command_fail_path(capsys):
    code, out, _ = run(
        capsys, "validate", "--copula", "mbar", "--radius", CONST_JSON,
        "--grid-n", "64",
    )
    assert code == 1
    report = json.loads(out)
    assert report["containment_pass"] is False
    assert report["quadratic_pass"] is True
    assert report["verdict"] is False


def test_validate_command_pass_path(capsys):
    code, out, _ = run(
        capsys, "validate", "--copula", "mbar", "--radius", GAUSS_JSON,
        "--grid-n", "32",
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--copula", "m", "--grid-n", "64")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["min_density"] is None


def test_grid_command_round_trips(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "grid", "--copula", "mbar", "--radius", GAUSS_JSON,
        "--grid-n", "8", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "u,v,value,density"
    assert len(lines) == 8 * 8 + 1
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    spec = CopulaSpec("smoothed_upper", gaussian_band_radius(1.0))
    want_v = copula_values(spec, data[:, 0], data[:, 1])
    want_d = copula_density(spec, data[:, 0], data[:, 1])
    assert np.array_equal(data[:, 2], want_v)
    assert np.array_equal(data[:, 3], want_d)


def test_grid_makes_one_csv_text_and_one_write_output_call(capsys, monkeypatch):
    # the benchmark's tracer counts serialize.bytes from the one write_output call
    import fhsmooth.cli as cli

    calls = []
    for name in ("csv_text", "write_output"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    code, out, _ = run(capsys, "grid", "--copula", "mbar", "--radius", GAUSS_JSON, "--grid-n", "70")
    assert code == 0 and out.count("\n") == 70 * 70 + 1  # 4900 rows: two csv_text pieces
    assert calls == ["csv_text", "write_output"]


@pytest.mark.parametrize("copula, family, radius", [
    ("mbar", "smoothed_upper", GAUSS_JSON),
    ("wbar", "smoothed_lower", '{"kind":"product","p":[1.0],"q":[0.25,0,-0.5]}'),
])
def test_grid_stdout_is_the_per_cell_format(capsys, copula, family, radius):
    # at 64 every column has at most half as many distinct values as rows,
    # so each one takes csv_text's formatted-once path
    n = 64
    code, out, _ = run(capsys, "grid", "--copula", copula, "--radius", radius, "--grid-n", str(n))
    mids = (np.arange(n) + 0.5) / n
    u, v = (a.ravel() for a in np.meshgrid(mids, mids, indexing="ij"))
    spec = CopulaSpec(family, model_from_json(radius))
    columns = [u, v, copula_values(spec, u, v), copula_density(spec, u, v)]
    assert all(2 * np.unique(c.view(np.int64)).size <= c.size for c in columns)
    cells = [list(map(format_float, c)) for c in columns]
    assert code == 0
    assert out == "u,v,value,density\n" + "".join(",".join(row) + "\n" for row in zip(*cells))


def test_sample_command_deterministic(capsys):
    argv = [
        "sample", "--copula", "mbar", "--radius", GAUSS_JSON,
        "--n", "50", "--seed", "9",
    ]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert out1.startswith("u,v\n")
    assert len(out1.strip().split("\n")) == 51


def test_sample_gaussian_output(capsys):
    code, out, _ = run(
        capsys, "sample", "--copula", "mbar", "--radius", GAUSS_JSON,
        "--n", "10", "--seed", "2", "--gaussian",
    )
    assert code == 0
    assert out.startswith("x,y\n")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    gaps = [abs(float(y) - float(x)) for x, y in rows]
    assert max(gaps) <= 1.0 + 1e-6


def test_band_command(capsys):
    code, out, _ = run(
        capsys, "band", "--copula", "mbar",
        "--radius", SKEW_JSON,
        "--w", "0.0",
    )
    assert code == 0
    band = json.loads(out)
    s = 0.3 * math.sqrt(2) * 0.25
    assert band["lower"] == pytest.approx(-0.25 / (1 + s), abs=1e-14)
    assert band["upper"] == pytest.approx(0.25 / (1 - s), abs=1e-14)
    assert band["kappa"] == pytest.approx((1 + s) / (1 - s), abs=1e-13)


def test_radius_from_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(GAUSS_JSON)
    code, out, _ = run(
        capsys, "eval", "--copula", "mbar", "--radius", str(path),
        "--u", "0.5", "--v", "0.5",
    )
    assert code == 0
    code2, out2, _ = run(
        capsys, "eval", "--copula", "mbar", "--radius", GAUSS_JSON,
        "--u", "0.5", "--v", "0.5",
    )
    assert out == out2


def test_usage_errors(capsys):
    assert run(capsys, "eval", "--copula", "mbar", "--u", "0.5", "--v", "0.5")[0] == 2
    assert run(capsys, "eval", "--copula", "m", "--radius", CONST_JSON,
               "--u", "0.5", "--v", "0.5")[0] == 2
    assert run(capsys, "density", "--copula", "m", "--u", "0.5", "--v", "0.5")[0] == 2
    assert run(capsys, "band", "--copula", "wbar", "--radius", GAUSS_JSON)[0] == 2
    assert run(capsys, "nope")[0] == 2
    assert run(capsys, "eval", "--copula", "mbar", "--radius", '{"kind":"bogus"}',
               "--u", "0.5", "--v", "0.5")[0] == 2
    assert run(capsys, "eval", "--copula", "mbar", "--radius", SKEW_JSON[:-1] + ',"q":[5,1]}',
               "--u", "0.5", "--v", "0.5")[0] == 2
    for radius, w in [(CONST_JSON, "5"), (CONST_JSON, "nan"), (SKEW_JSON, "-0.8"),
                      (SKEW_JSON, "nan"), (GAUSS_JSON, "5"), (GAUSS_JSON, "nan")]:
        assert run(capsys, "band", "--copula", "mbar", "--radius", radius, "--w", w)[0] == 2
    upper = '{"kind":"product","p":[0.25,0,-0.5],"epsilon":0.2}'  # r = 0 at (0, 0) and (1, 1)
    for u in ("0", "1"):
        assert run(capsys, "density", "--copula", "mbar", "--radius", upper,
                   "--u", u, "--v", u)[0] == 2
    for argv in (("grid", "--copula", "m", "--grid-n", "0"), ("validate", "--copula", "m"),
                 ("sample", "--copula", "w", "--n", "5")):
        assert run(capsys, *argv)[:2] == (2, "")


@pytest.mark.parametrize("argv, least", [
    (("grid", "--copula", "m"), 1),
    (("validate", "--copula", "mbar", "--radius", CONST_JSON), 8),
    (("check", "--copula", "m"), 32),
])
def test_grid_n_below_its_bound_is_one_error_style(capsys, argv, least):
    # each command's --grid-n bound is reported the same way: one "error:" line, exit 2
    for n in (least - 1, -5):
        code, out, err = run(capsys, *argv, "--grid-n", str(n))
        assert (code, out, err) == (2, "", f"error: grid_n must be >= {least}, got {n}\n")


def test_model_json_with_a_key_of_another_kind_exits_two(capsys):
    radius = '{"kind":"product","p":[0.25,0,-0.2],"q":[1,0.1],"epsilonn":0.3}'
    code, out, err = run(capsys, "eval", "--copula", "mbar", "--radius", radius, "--u", "0.5", "--v", "0.5")
    assert (code, out) == (2, "") and "epsilonn" in err


BIG = "1" + "0" * 400  # a JSON integer beyond the float range: float() raises OverflowError


@pytest.mark.parametrize("text, message", [
    ('["kind"]', "radius JSON must be an object"),
    ('{"kind":"constant","r0":null}', "radius JSON 'r0' must be a number"),
    ('{"kind":"product","p":5,"epsilon":0.1}', "radius JSON 'p' must be a list of numbers"),
    ('{"kind":"gaussian_band","d":null}', "radius JSON 'd' must be a number"),
    ('{"kind":"product","p":[0.25,0,-0.2],"epsilon":null,"q":[1,0.1]}', "radius JSON 'epsilon' must be a number"),
    ('{"kind":"product","p":[1,"x"],"epsilon":0.1}', "radius JSON 'p' must be a list of numbers"),
    pytest.param('{"kind":"constant","r0":%s}' % BIG, "radius JSON 'r0' must be a number", id="r0-400-digits"),
    pytest.param('{"kind":"product","p":[%s],"epsilon":0.1}' % BIG, "radius JSON 'p' must be a list", id="p-400-digits"),
    pytest.param('{"kind":"constant","r0":1%s}' % ("0" * 5000), "invalid radius JSON", id="r0-5001-digits"),
    ('{"kind":"constant"}', "radius JSON missing key 'r0'"),
    ('{"kind":"gaussian_band"}', "radius JSON missing key 'd'"),
    ('{"kind":"product","q":[1]}', "radius JSON missing key 'p'"),
])
def test_model_json_of_the_wrong_shape_exits_two(capsys, tmp_path, text, message):
    # read from a file, since an inline --radius must start with "{"; each is one
    # error line with exit 2, not Python's TypeError text or an OverflowError traceback
    path = tmp_path / "model.json"
    path.write_text(text)
    code, out, err = run(capsys, "eval", "--copula", "mbar", "--radius", str(path), "--u", "0.5", "--v", "0.5")
    assert (code, out) == (2, "") and err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("radius, message", [
    ('{"kind":"product","p":[1e308,1e308,1e308],"epsilon":0}', "p(w) must be finite across the diamond; found inf"),
    ('{"kind":"product","p":[1e300],"q":[1e300]}', "max over z of r(w, z) must be finite across the diamond; found inf"),
    ('{"kind":"product","p":[0],"q":[1e308,1e308,1e308]}', "p(w) must be strictly positive across the diamond; found 0.0"),
], ids=["p", "p-times-q", "p-zero-q-inf"])
def test_a_radius_that_overflows_exits_two_with_one_line(capsys, radius, message):
    # before, numpy RuntimeWarning blocks came first: of the overflow, and of 0 * inf where p is 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "eval", "--copula", "mbar", "--radius", radius, "--u", "0.9", "--v", "0.9")
    assert (code, out, caught) == (2, "", [])
    assert err.startswith(f"error: {message} at ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("density", "--u", "0.95", "--v", "0.9"), ("validate",), ("check",),
], ids=["density", "validate", "check"])
def test_a_jet_that_overflows_exits_two_with_one_line(capsys, argv):
    # r is finite on the diamond, p'q and p''q are not; before, density printed an overflow
    # warning and then inf with exit 0, and validate and check warned before their reports
    radius = '{"kind":"product","p":[1,0,0,0,4e155],"q":[1,0,0,0,4e155]}'
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv[0], "--copula", "mbar", "--radius", radius, *argv[1:])
    assert (code, out, caught) == (2, "", [])
    assert err.startswith("error: max over z of |p'q| must be finite across the diamond; found inf at ")
    assert err.count("\n") == 1


def test_file_errors_exit_two(capsys, tmp_path):
    # a missing or unreadable --radius path and an --out in a missing directory
    # are input errors (2), reported on stderr, not a traceback or a failed check (1)
    point = ("--u", "0.5", "--v", "0.5")
    for argv in (("--radius", str(tmp_path / "missing.json")), ("--radius", str(tmp_path)),
                 ("--radius", GAUSS_JSON, "--out", str(tmp_path / "no" / "such" / "x.txt"))):
        code, out, err = run(capsys, "eval", "--copula", "mbar", *argv, *point)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(ACCEPTS))
def test_help_lists_the_copulas_each_command_accepts(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    listed = re.findall(r"--copula \{([^}]*)\}", out)
    assert code == 0 and listed
    assert all(choices.split(",") == ACCEPTS[command] for choices in listed)


@pytest.mark.parametrize("command", sorted(ACCEPTS))
def test_parser_rejects_the_other_copulas(capsys, command):
    # the rejected copula is the only fault: a smoothed one brings its --radius
    for copula in sorted(set(ALL) - set(ACCEPTS[command])):
        radius = ("--radius", GAUSS_JSON) if copula.endswith("bar") else ()
        code, out, err = run(capsys, command, "--copula", copula, *radius, *EXTRA.get(command, ()))
        assert (code, out) == (2, "")
        assert "invalid choice" in err and "Traceback" not in err


@pytest.mark.parametrize("command, argv", [
    ("eval", ("--copula", "m", "--u", "0.3", "--v", "0.5")),
    ("density", ("--copula", "mbar", "--radius", CONST_JSON, "--u", "0.5", "--v", "0.5")),
    ("grid", ("--copula", "mbar", "--radius", GAUSS_JSON, "--grid-n", "4")),
    ("validate", ("--copula", "mbar", "--radius", CONST_JSON, "--grid-n", "8")),
    ("check", ("--copula", "m", "--grid-n", "32")),
    ("sample", ("--copula", "mbar", "--radius", GAUSS_JSON, "--n", "5", "--seed", "3")),
    ("band", ("--copula", "mbar", "--radius", SKEW_JSON)),
])
def test_out_file_gets_the_stdout_bytes(capsys, tmp_path, command, argv):
    code, out, _ = run(capsys, command, *argv)
    assert code in (0, 1)  # validate fails its model: the report is written all the same
    path = tmp_path / "out.txt"
    assert run(capsys, command, *argv, "--out", str(path)) == (code, "", "")
    assert path.read_bytes() == out.encode() and out.endswith("\n")


def test_readme_command_lines_parse():
    # parsed only, not run: the README's examples name options and copulas
    # the parser accepts
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("fhsmooth ")]
    assert {shlex.split(line)[1] for line in lines} == set(ACCEPTS)
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_sample_rejects_invalid_model(capsys):
    code, _, err = run(
        capsys, "sample", "--copula", "mbar", "--radius", CONST_JSON, "--n", "5",
    )
    assert code == 1
    assert "validation" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: fhsmooth")


def test_main_reuses_one_parser(capsys):
    # the argparse tree is built once per process; reusing it changes no
    # exit code, stdout or stderr
    eval_argv = ("eval", "--copula", "mbar", "--radius", GAUSS_JSON, "--u", "0.3", "--v", "0.6")
    usage_argv = ("eval", "--copula", "mbar", "--u", "0.5")
    first = [run(capsys, *eval_argv), run(capsys, *usage_argv), run(capsys, "--help"),
             run(capsys, *usage_argv), run(capsys, *eval_argv), run(capsys, "--help")]
    assert [c for c, _, _ in first] == [0, 2, 0, 2, 0, 0]
    assert first[0] == first[4] and first[1] == first[3] and first[2] == first[5]
    assert first[0][1] and not first[0][2]
    assert first[1][2].startswith("usage: fhsmooth eval") and "--v" in first[1][2]
    assert first[2][1].startswith("usage: fhsmooth")
    assert build_parser() is build_parser()


def subprocess_env():
    """os.environ with the imported fhsmooth's sources first on PYTHONPATH."""
    src = str(Path(fhsmooth.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point(capsys):
    # `python -m fhsmooth.cli` runs entry(), which exits with main's code
    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "fhsmooth.cli", *argv],
                              capture_output=True, text=True, env=subprocess_env(), timeout=60)

    argv = ("eval", "--copula", "m", "--u", "0.3", "--v", "0.5")
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout) == run(capsys, *argv)[:2]
    assert proc.stdout == "0.29999999999999999\n"
    proc = run_module("eval", "--copula", "mbar", "--u", "0.5", "--v", "0.5")
    assert proc.returncode == 2
    assert "requires --radius" in proc.stderr


# Only the gaussian band's solve and the normal-marginal transform call
# scipy.special; it must be loaded there and nowhere else.
SCIPY_PROBE = """
import contextlib, io, json, sys
import fhsmooth, fhsmooth.cli
loaded = ["scipy.special" in sys.modules]
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(fhsmooth.cli.main(argv))
    loaded.append("scipy.special" in sys.modules)
print(json.dumps([codes, loaded]))
"""


def start_probe(*argvs):
    return subprocess.Popen([sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=subprocess_env())


def probe_result(proc):
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()  # a no-op once it has exited
    assert proc.returncode == 0, err
    return json.loads(out)


def test_scipy_loads_only_for_normal_quantiles_and_cdfs():
    product = ("--copula", "mbar", "--radius", '{"kind":"product","p":[0.25,0,-0.5],"epsilon":0.2}')
    # two processes, run side by side: scipy stays loaded once imported
    numpy_only = start_probe(
        ["eval", *product, "--u", "0.3", "--v", "0.6"],
        ["validate", *product, "--grid-n", "8"],
        ["check", *product, "--grid-n", "32"],
        ["grid", *product, "--grid-n", "4"],
        ["sample", *product, "--n", "5"],
        ["eval", "--copula", "m", "--u", "0.3", "--v", "0.6"],
        ["sample", *product, "--n", "5", "--gaussian"],  # to_gaussian: Phi^-1
    )
    band = start_probe(["eval", "--copula", "mbar", "--radius", GAUSS_JSON, "--u", "0.3", "--v", "0.6"])
    assert probe_result(numpy_only) == [[0] * 7, [False] * 7 + [True]]
    assert probe_result(band) == [[0], [False, True]]
