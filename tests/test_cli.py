import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fhsmooth
from fhsmooth.cli import build_parser, main
from fhsmooth.copulas import CopulaSpec, copula_density, copula_values, smoothed_value
from fhsmooth.geometry import SquarePoint
from fhsmooth.radius import gaussian_band_radius

GAUSS_JSON = '{"kind":"gaussian_band","d":1.0}'
CONST_JSON = '{"kind":"constant","r0":0.2}'
SKEW_JSON = '{"kind":"product","p":[0.25,0,-0.2],"epsilon":0.3}'


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
    assert run(capsys, "eval", "--copula", "mbar", "--radius", "/no/such/file.json",
               "--u", "0.5", "--v", "0.5")[0] == 2
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


def test_file_errors_exit_two(capsys, tmp_path):
    # an unreadable --radius path and an --out in a missing directory are
    # input errors (2), reported on stderr, not a traceback or a failed check (1)
    point = ("--u", "0.5", "--v", "0.5")
    for argv in (("--radius", str(tmp_path)),
                 ("--radius", GAUSS_JSON, "--out", str(tmp_path / "no" / "such" / "x.txt"))):
        code, out, err = run(capsys, "eval", "--copula", "mbar", *argv, *point)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


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


def test_module_entry_point(capsys):
    # `python -m fhsmooth.cli` runs entry(), which exits with main's code
    src = str(Path(fhsmooth.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "fhsmooth.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    argv = ("eval", "--copula", "m", "--u", "0.3", "--v", "0.5")
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout) == run(capsys, *argv)[:2]
    assert proc.stdout == "0.29999999999999999\n"
    proc = run_module("eval", "--copula", "mbar", "--u", "0.5", "--v", "0.5")
    assert proc.returncode == 2
    assert "requires --radius" in proc.stderr
