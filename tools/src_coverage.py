"""List the statements of src/fhsmooth that no Tier-1 test executes.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line tracer
that records only frames of src/fhsmooth, then walks each module's ``ast``
and prints every statement none of whose lines ran, as ``path:line: text``.
Standard library only (and pytest, which Tier-1 needs anyway); the traced
suite takes about twice its usual time.

    python tools/src_coverage.py [extra pytest arguments]

Exits with pytest's status.  A subprocess a test starts (the module entry
point test) is not traced, so the lines only it runs are listed.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fhsmooth"

_hits = defaultdict(set)  # filename -> line numbers that ran


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def _is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _span(node) -> range:
    """The lines whose execution shows that a statement ran: a compound
    statement's header (decorators included), a simple statement's whole text."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(node.lineno, node.end_lineno + 1)


def _unexecuted(path: Path, hits: set):
    source = path.read_text()
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        if isinstance(node, ast.Try):  # `try:` itself emits no line event; its body decides
            continue
        if not hits.intersection(_span(node)):
            yield node.lineno, lines[node.lineno - 1].strip()


def main(argv) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    if any(name == "fhsmooth" or name.startswith("fhsmooth.") for name in sys.modules):
        raise SystemExit("fhsmooth was imported before tracing began")
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [
        (path, line, text)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, text in sorted(_unexecuted(path, _hits[str(path)]))
    ]
    print(f"\n{len(missed)} src/ statements not executed by Tier-1:")
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
