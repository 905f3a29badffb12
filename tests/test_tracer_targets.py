"""The benchmark tracer's targets still resolve.

`perfbench/tracing.py` wraps fhsmooth's public names where the calling
module looks them up, by `owner.__dict__[attr]`.  A refactor that moves or
renames one of them breaks the traced benchmark run, and nothing else would
notice.  This test loads the tracer from its file without changing it,
checks every target, and installs and removes the tracer once.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_targets_resolve():
    tracing = _load_tracing()
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
