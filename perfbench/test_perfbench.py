"""Tests of the benchmark itself.

Each output check must reject a deliberately broken output, and every
workload must run to its end at a small size.  Run from the repository
root with:

    python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (puts the package sources on sys.path)
import checks  # noqa: E402
import run  # noqa: E402


def small_session(name, tmp_path, seed=5):
    """The workload's operations at a size that runs in seconds."""
    plan = replace(
        workloads.PLANS[name],
        pairs=min(workloads.PLANS[name].pairs, 300),
        validate_grid=16,
        check_grid=32,
        grid_n=24,
        eval_calls=2,
    )
    return workloads.Session(name, seed, tmp_path, plan)


@pytest.mark.parametrize("key", ["gauss-1", "product-upper-0.2", "product-lower"])
def test_sample_check_rejects_permuted_v(tmp_path, key):
    op = small_session("design-check", tmp_path).sample_op(key, 2000, seed=11)
    pairs, xy = op.run()
    op.verify((pairs, xy))
    order = np.random.default_rng(0).permutation(pairs.shape[0])
    pairs = pairs.copy()
    pairs[:, 1] = pairs[order, 1]
    if xy is not None:
        xy = xy.copy()
        xy[:, 1] = xy[order, 1]
    with pytest.raises(checks.Mismatch):
        op.verify((pairs, xy))


def _grid_text(session, key, n):
    op = session.grid_op(key, n)
    assert op.run() == 0
    path = session.tmpdir / f"grid-0-{key}.csv"
    return op, path, path.read_text()


def _edit_rows(text, edit):
    lines = text.split("\n")
    for i in range(1, len(lines) - 1):
        fields = lines[i].split(",")
        lines[i] = ",".join(edit(i - 1, fields))
    return "\n".join(lines)


@pytest.mark.parametrize("key", ["gauss-1", "product-lower"])
def test_grid_check_rejects_one_moved_value(tmp_path, key):
    session = small_session("design-check", tmp_path)
    n = session.plan.grid_n
    op, path, text = _grid_text(session, key, n)
    op.verify(0)
    subset, _, _ = session._grid_refs(key, n)
    row = next(i for i in range(n * n) if i not in set(subset))  # not one the oracle sees

    def move(i, fields):
        if i == row:
            fields[2] = format(float(fields[2]) + 1e-6, ".17g")
        return fields

    path.write_text(_edit_rows(text, move))
    with pytest.raises(checks.Mismatch, match="chord"):
        op.verify(0)


@pytest.mark.parametrize("key", ["gauss-1", "product-lower"])
def test_grid_check_rejects_scaled_density(tmp_path, key):
    session = small_session("design-check", tmp_path)
    op, path, text = _grid_text(session, key, session.plan.grid_n)

    def scale(i, fields):
        fields[3] = format(float(fields[3]) * 1.01, ".17g")
        return fields

    path.write_text(_edit_rows(text, scale))
    with pytest.raises(checks.Mismatch, match="density"):
        op.verify(0)


def test_eval_check_rejects_a_wrong_digit(tmp_path):
    op = small_session("design-check", tmp_path).eval_op("gauss-1", 0.3, 0.4)
    code, out = op.run()
    op.verify((code, out))
    with pytest.raises(checks.Mismatch):
        op.verify((code, repr(float(out) + 1e-8)))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_small(tmp_path, name):
    counts = []
    for seed in (1, 2):
        session = small_session(name, tmp_path, seed)
        session.warm_up()
        untraced, traced, attempted, failed, peak_rss_mb = run.measure(session, 0.0, trace=True)
        assert failed == 0
        assert attempted == 2 * len(session.round_ops(0))
        assert peak_rss_mb > 0
        assert all(value > 0 for value, _ in run.end_to_end(untraced).values())
        layers = run.per_layer(untraced, traced)
        assert layers["sampler.partials_per_inverse"][0] == 60
        counts.append({k: v for k, (v, unit) in layers.items() if unit != "s" and k not in ("serialize.bytes", "trace.overhead_ratio")})
    assert counts[0] == counts[1]  # counts do not depend on the seed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample-product", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
