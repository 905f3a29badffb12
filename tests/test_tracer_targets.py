"""The benchmark's references into fhsmooth still resolve.

`perfbench/` imports fhsmooth names, reads attributes of fhsmooth modules,
and its tracer wraps public names where the calling module looks them up,
by `owner.__dict__[attr]`.  A refactor that moves, renames or deletes one
of them breaks the benchmark, which this suite does not run, and nothing
else would notice.  These tests parse the benchmark's files without
running them, and load the tracer from its file without changing it,
check every target, and install and remove the tracer once.  The
benchmark's report checks are also run on real reports, since they call
methods of fhsmooth results that no parse can see, and one traced copula
call pins the spans and point counts the tracer records for a call that
fhsmooth evaluates in blocks.  The tracer's byte count of CSV output is
pinned the same way, against the files the CLI writes.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
import types
from pathlib import Path

import numpy as np

import fhsmooth
from fhsmooth import checker, cli
from fhsmooth.checker import check_copula
from fhsmooth.copulas import CopulaSpec
from fhsmooth.radius import constant_radius, gaussian_band_radius
from fhsmooth.validator import validate_model

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_targets_resolve():
    tracing = _load(TRACING, "perfbench_tracing")
    targets = tracing._targets()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if not callable(owner.__dict__.get(attr))
    ]
    assert not missing, f"tracer targets not found: {missing}"
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    with tracing.Tracer().installed():
        for (owner, attr, _, _), original in zip(targets, originals):
            assert owner.__dict__[attr] is not original
    for (owner, attr, _, _), original in zip(targets, originals):
        assert owner.__dict__[attr] is original


def test_benchmark_references_resolve():
    # every `from fhsmooth... import name`, and every attribute read on an
    # imported fhsmooth module, in each perfbench/*.py file
    for info in pkgutil.iter_modules(fhsmooth.__path__):  # so `from fhsmooth import cli` resolves
        importlib.import_module(f"fhsmooth.{info.name}")
    checked, missing = 0, []
    for path in sorted(TRACING.parent.glob("*.py")):
        tree, modules = ast.parse(path.read_text()), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):  # `import fhsmooth.x` binds fhsmooth, `as y` binds x
                for a in node.names:
                    if a.name.split(".")[0] == "fhsmooth":
                        modules[a.asname or "fhsmooth"] = sys.modules[a.name if a.asname else "fhsmooth"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fhsmooth"):
                for a in node.names:
                    checked += 1
                    obj = getattr(sys.modules.get(node.module), a.name, None)
                    if obj is None:
                        missing.append(f"{path.name}:{node.lineno} {node.module}.{a.name}")
                    elif isinstance(obj, types.ModuleType):
                        modules[a.asname or a.name] = obj
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                checked += 1
                owner = modules[node.value.id]
                if not hasattr(owner, node.attr):
                    missing.append(f"{path.name}:{node.lineno} {owner.__name__}.{node.attr}")
    assert not missing, f"benchmark references that no longer resolve: {missing}"
    assert checked >= 30, checked


def test_benchmark_report_checks_run():
    # check_validation and check_report read report fields and format the
    # report's to_json_dict(); an admissible and a rejected model each
    checks = _load(TRACING.parent / "checks.py", "perfbench_checks")
    for model, admissible in ((gaussian_band_radius(1.0), True), (constant_radius(0.2), False)):
        spec = CopulaSpec("smoothed_upper", model)
        checks.check_validation(validate_model(model, spec.orientation, 32), admissible)
        checks.check_report(check_copula(spec, 64), spec, admissible)


def test_tracer_counts_blocked_density():
    # a 512^2 density call runs in eight 2^15-point blocks: one copulas span,
    # eight kernel and eight radius spans under it, and the same point counts
    # as one pass
    tracing = _load(TRACING, "perfbench_tracing")
    mids = (np.arange(512) + 0.5) / 512
    uu, vv = np.meshgrid(mids, mids, indexing="ij")
    with tracing.Tracer().installed() as tracer:
        checker.copula_density(CopulaSpec("smoothed_upper", gaussian_band_radius(1.0)), uu, vv)
    spans = tracer.take()
    top = [i for i, s in enumerate(spans) if s[0] == "copulas.density"]
    assert len(top) == 1 and spans[top[0]][4] == 512 * 512
    for layer in ("kernel", "radius"):
        nested = [s for s in spans if s[0] == layer]
        assert len(nested) == 8 and all(s[3] == top[0] for s in nested)
        assert sum(s[4] for s in nested) == 512 * 512


def test_tracer_counts_every_byte_of_csv_output(tmp_path):
    # serialize.bytes sums the points of every serialize.write span, one per
    # CSV text; a 70^2 grid is two pieces (4096 and 804 rows) under its header
    tracing = _load(TRACING, "perfbench_tracing")
    gauss = '{"kind":"gaussian_band","d":1.0}'
    for argv in (("grid", "--grid-n", "70"), ("sample", "--n", "300", "--seed", "3")):
        path = tmp_path / f"{argv[0]}.csv"
        with tracing.Tracer().installed() as tracer:
            assert cli.main([*argv, "--copula", "mbar", "--radius", gauss, "--out", str(path)]) == 0
        spans = tracer.take()
        writes = [s[4] for s in spans if s[0] == "serialize.write"]
        assert sum(writes) == path.stat().st_size
        assert len(writes) == (3 if argv[0] == "grid" else 2)  # the header, then each piece
        assert [s[0] for s in spans].count("serialize.csv") == 1
