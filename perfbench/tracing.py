"""Per-layer spans recorded from outside fhsmooth.

The tracer replaces public names where the calling module looks them up
(`fhsmooth.sampler.copula_partials`, `fhsmooth.copulas.kernel_arrays`, the
radius models' `radius`/`jet`, ...) with wrappers that record a span: its
name, start, end, parent span and the number of points it was asked for.
Spans stay in memory and are written out when the run ends.  A layer's
self time is its spans' time minus the time of their child spans.  No file
of the package changes; the originals are put back when tracing stops.

`geometry` is too cheap to trace on its own and counts toward its caller;
the `oracle` runs only in the output checks, which are never traced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

from fhsmooth import checker, cli, copulas, radius, sampler, validator


def _uv_points(spec, u, v, *rest):
    return int(np.broadcast(np.asarray(u), np.asarray(v)).size)


def _wz_points(model, w, z, *rest):
    return int(np.broadcast(np.asarray(w), np.asarray(z)).size)


def _targets():
    """(owner, attribute, span name, points counted from the call's arguments)."""
    targets = [
        (sampler, "sample_batch", "sampler.batch", None),
        (sampler, "conditional_inverse", "sampler.inverse", None),
        (sampler, "counter_uniforms", "sampler.uniforms", lambda seed, counters: int(np.size(counters))),
        (sampler, "validate_model", "sampler.validate", None),
        (sampler, "copula_partials", "copulas.partials", _uv_points),
        (validator, "validate_model", "validator.validate", None),
        (validator, "containment_check", "validator.containment", None),
        (checker, "check_copula", "checker.check", None),
        (checker, "copula_values", "copulas.values", _uv_points),
        (checker, "copula_density", "copulas.density", _uv_points),
        (cli, "main", "cli", None),
        (cli, "copula_values", "copulas.values", _uv_points),
        (cli, "copula_density", "copulas.density", _uv_points),
        (cli, "smoothed_value", "copulas.values", lambda spec, point: 1),
        (cli, "csv_text", "serialize.csv", None),
        (cli, "write_output", "serialize.write", lambda text, *rest: len(text)),
        (copulas, "kernel_arrays", "kernel", lambda rho: int(np.size(rho))),
    ]
    for cls in (radius.ConstantRadius, radius.ProductRadius, radius.GaussianBandRadius):
        for method in ("radius", "jet"):
            targets.append((cls, method, "radius", _wz_points))
    return targets


class Tracer:
    """Records spans while installed; `spans` rows are [name, start, end, parent, points]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, points):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, points(*args) if points else 0])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, points in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, points))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self):
        """Hand over the spans recorded so far and start an empty list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


SELF_TIMES = (
    "radius", "kernel", "copulas.values", "copulas.density", "copulas.partials",
    "sampler.batch", "sampler.inverse", "sampler.uniforms", "sampler.validate",
    "validator.validate", "validator.containment", "checker.check",
    "serialize.csv", "serialize.write", "cli",
)


def layer_metrics(spans, pairs: int, lattice_points: int) -> dict:
    """Per-layer counts and self times of one round's spans.

    Calls and points count only the outermost span of a nested run of one
    layer (ConstantRadius.jet calls its own radius).  Radius points are
    also attributed to the operation at the root of their span tree, so
    they can be divided by the pairs drawn and the lattice points checked.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    root = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
        if parent >= 0:
            child_time[parent] += duration[i]
    self_s = defaultdict(float)
    calls, points, radius_by_root = Counter(), Counter(), Counter()
    for i, (name, _, _, parent, n) in enumerate(spans):
        self_s[name] += duration[i] - child_time[i]
        if parent < 0 or spans[parent][0] != name:
            calls[name] += 1
            points[name] += n
            if name == "radius":
                radius_by_root[spans[root[i]][0]] += n
    out = {
        "radius.calls": (calls["radius"], "count"),
        "radius.points": (points["radius"], "count"),
        "radius.points_per_pair": (radius_by_root["sampler.batch"] / pairs, "points/pair"),
        "radius.points_per_lattice_point": (radius_by_root["checker.check"] / lattice_points, "points/point"),
        "kernel.calls": (calls["kernel"], "count"),
        "kernel.points": (points["kernel"], "count"),
        "copulas.points": (sum(points[k] for k in ("copulas.values", "copulas.density", "copulas.partials")), "count"),
        "sampler.partials_per_inverse": (calls["copulas.partials"] / calls["sampler.inverse"], "calls/inverse"),
        "serialize.bytes": (points["serialize.write"], "bytes"),
        "cli.calls": (calls["cli"], "count"),
        "trace.spans": (len(spans), "count"),
    }
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (self_s[name], "s")
    return out


def write_spans(path, rounds):
    """Write every traced round's spans as JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for round_index, spans in rounds:
            for i, (name, start, end, parent, n) in enumerate(spans):
                fh.write(json.dumps({
                    "round": round_index, "span": i, "name": name, "start": start,
                    "end": end, "parent": parent, "points": n,
                }) + "\n")
