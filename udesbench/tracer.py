"""Span tracing around the public functions of the udes modules.

The tracer wraps functions from outside the package: every module namespace
that binds a traced function gets the wrapper, so `designs.twirl_finite` and
`twirl.twirl_finite` record the same spans.  Spans live in flat arrays while
the run lasts and are written out once at the end.  Nothing here imports
numpy, so the accounting can be tested on synthetic span trees.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

#: (module, attribute path) of every traced function; a class stands for its
#: constructor.  Metric names are "<module>.<attribute path>.<field>".
TRACED = (
    ("twirl", "HaarSampler.quaternions"),
    ("twirl", "su2_batch"),
    ("twirl", "mc_oracle_check"),
    ("twirl", "twirl_finite"),
    ("twirl", "haar_twirl"),
    ("twirl", "frame_potential"),
    ("twirl", "UnitarySet"),
    ("designs", "verify_design"),
    ("designs", "classify_min_1design"),
    ("designs", "extend_to_2design"),
    ("groups", "su2_closure"),
    ("groups", "group_profile"),
    ("groups", "polytope_identify"),
    ("groups", "so3_image_table"),
    ("groups", "axis_cycle_closure_table"),
    ("su2", "quaternion_of"),
    ("su2", "normalize_to_su2"),
    ("su2", "canonical_su2"),
    ("su2", "axis_angle_of"),
    ("su2", "so3_rep"),
    ("linalg", "as_matrix"),
    ("linalg", "assert_unitary"),
    ("linalg", "kron_power"),
    ("linalg", "hs_norm"),
    ("linalg", "hs_inner"),
    ("cli", "main"),
    ("cli", "load_unitary_set"),
    ("cli", "save_unitary_set"),
    ("cli", "emit_json"),
    ("cli", "render_text"),
)

#: traced functions that call other traced functions; they also report
#: `.total_ms`, the time of their outermost spans including children
WITH_CHILDREN = (
    "twirl.mc_oracle_check",
    "twirl.twirl_finite",
    "twirl.haar_twirl",
    "twirl.UnitarySet",
    "designs.verify_design",
    "designs.classify_min_1design",
    "designs.extend_to_2design",
    "groups.su2_closure",
    "groups.group_profile",
    "groups.so3_image_table",
    "groups.axis_cycle_closure_table",
    "su2.quaternion_of",
    "su2.normalize_to_su2",
    "su2.canonical_su2",
    "su2.axis_angle_of",
    "su2.so3_rep",
    "linalg.assert_unitary",
    "linalg.kron_power",
    "linalg.hs_inner",
    "cli.main",
    "cli.load_unitary_set",
    "cli.save_unitary_set",
    "cli.emit_json",
)


def _samples(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n"]


def _elements(args, kwargs, result):
    return len(args[0] if args else kwargs["C"])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _disagreements(args, kwargs, result):
    return int(not result.method_agreement)


#: work counters "<function>.<field>", taken from the outermost calls only
COUNTERS = {
    "twirl.HaarSampler.quaternions": ("samples", _samples),
    "designs.verify_design": ("disagreements", _disagreements),
    "groups.group_profile": ("elements", _elements),
    "cli.load_unitary_set": ("bytes", _file_bytes),
    "cli.emit_json": ("bytes", _text_bytes),
}


def function_names() -> list[str]:
    return [f"{mod}.{path}" for mod, path in TRACED]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in function_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_ms", "ms", "lower"))
        if name in WITH_CHILDREN:
            specs.append((f"{name}.total_ms", "ms", "lower"))
        if name in COUNTERS:
            field = COUNTERS[name][0]
            unit = "bytes" if field == "bytes" else "count"
            better = "higher" if field in ("samples", "elements") else "lower"
            specs.append((f"{name}.{field}", unit, better))
    specs += [
        ("import.python_ms", "ms", "lower"),
        ("import.numpy_ms", "ms", "lower"),
        ("import.udes_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return specs


class Tracer:
    """Records one span per call of a wrapped function while `active`.

    A span is (function, parent span, op id, start, end, outermost) where
    `outermost` marks calls not nested inside another call of the same
    function.  Single-threaded by design: the benchmark has one caller.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.fn = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, fid: int) -> int:
        idx = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.outer.append(1 if self._depth[fid] == 0 else 0)
        self.end.append(0.0)
        self._depth[fid] += 1
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self._depth[self.fn[idx]] -= 1

    def register(self, name: str) -> int:
        self.names.append(name)
        self._depth.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, func):
        fid = self.register(name)
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            idx = self.begin(fid)
            try:
                result = func(*args, **kwargs)
            finally:
                self.finish(idx)
            if counter is not None and self.outer[idx]:
                field, measure = counter
                self.counts[f"{name}.{field}"] += measure(args, kwargs, result)
            return result

        return traced

    # -- installing wrappers -----------------------------------------------

    def install(self, package: str = "udes") -> None:
        """Wrap every function in TRACED, in every namespace that binds it."""
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for mod_name, path in TRACED:
            owner = sys.modules[f"{package}.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            name = f"{mod_name}.{path}"
            if inspect.isclass(original):
                # a class is traced through its constructor; every binding of
                # the class name then sees the wrapped __init__
                init = original.__dict__["__init__"]
                self._patch(original, "__init__", self.wrap(name, init))
                continue
            wrapped = self.wrap(name, original)
            if outer:
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- accounting --------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """calls, self_ms and total_ms per function, plus the work counters."""
        return summarize(self.names, self.fn, self.parent, self.start, self.end, self.outer, self.counts)


def self_times(parent, start, end) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping or out-of-range children are never subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(parent)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def summarize(names, fn, parent, start, end, outer, counts) -> dict[str, float]:
    calls = [0] * len(names)
    self_ms = [0.0] * len(names)
    total_ms = [0.0] * len(names)
    for i, own in enumerate(self_times(parent, start, end)):
        f = fn[i]
        calls[f] += 1
        self_ms[f] += 1e3 * own
        if outer[i]:
            total_ms[f] += 1e3 * (end[i] - start[i])
    out: dict[str, float] = {}
    for f, name in enumerate(names):
        out[f"{name}.calls"] = calls[f]
        out[f"{name}.self_ms"] = self_ms[f]
        if name in WITH_CHILDREN:
            out[f"{name}.total_ms"] = total_ms[f]
    for name, (field, _) in COUNTERS.items():
        key = f"{name}.{field}"
        out[key] = counts.get(key, 0)
    return out
