"""Timing wrappers around the public functions of the ``ultratree`` modules.

The wrappers live here, in the benchmark, and are installed only for traced
passes: every module binding of a wrapped function is replaced, imported
names included (``verify.us_witness``, ``spaces.coerce_nonnegative`` and so
on), and restored afterwards. Each call becomes a span with a request id and
a parent span; a span's self time is its duration minus the durations of its
child spans. Spans stay in memory up to a cap and are written out at exit.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager

MODULES = ("rationals", "trees", "labelings", "spaces", "serialize", "verify", "cli")

# Functions reported one by one: those the workloads reach. Every other
# public function is wrapped too, so its time still counts for its module.
REPORTED = {
    "rationals": ("coerce_rational", "coerce_nonnegative", "parse_rational", "format_rational"),
    "trees": ("validate_tree", "unique_path", "high_degree_vertices", "longest_path_length", "classify"),
    "labelings": ("is_nondegenerate", "raw_distance_matrix", "build_ultrametric", "counterexample_labeling"),
    "spaces": ("validate_ultrametric", "us_witness", "realize_as_star", "canonical_form", "check_isometric"),
    "serialize": (
        "tree_to_dict",
        "tree_from_dict",
        "labeled_tree_to_dict",
        "labeled_tree_from_dict",
        "space_to_dict",
        "space_from_dict",
    ),
    "verify": ("predicted_cases", "verify_theorem_nondegeneracy", "verify_main_theorem", "report_to_dict"),
    "cli": ("run",),
}

SPAN_CAP = 200_000

_ISOMETRIC = "spaces.check_isometric"
_CANONICAL = "spaces.canonical_form"


def public_functions(package):
    """{qualified name: function} for each public function the package's
    modules define."""
    found = {}
    for mod_name in MODULES:
        module = sys.modules[f"{package.__name__}.{mod_name}"]
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
            ):
                found[f"{mod_name}.{name}"] = value
    return found


class Tracer:
    """Spans of the traced passes, and per-function call counts and self time."""

    def __init__(self, package):
        self.package = package
        self.functions = public_functions(package)
        self.calls = dict.fromkeys(self.functions, 0)
        self.self_s = dict.fromkeys(self.functions, 0.0)
        self.spans = []  # (request id, span id, parent id, name, start, end)
        self.dropped = 0
        self.request_id = 0
        self.isometric_calls = 0
        self.isometric_shortcuts = 0
        self._stack = []  # open spans: [span id, child time, name, saw canonical_form]
        self._next_id = 1
        self._wrappers = {q: self._wrap(q, f) for q, f in self.functions.items()}

    def _wrap(self, qualname, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            if qualname == _CANONICAL and parent is not None and parent[2] == _ISOMETRIC:
                parent[3] = True
            frame = [sid, 0.0, qualname, False]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[qualname] += 1
                self_s[qualname] += duration - frame[1]
                if qualname == _ISOMETRIC:
                    self.isometric_calls += 1
                    self.isometric_shortcuts += not frame[3]
                if len(spans) < SPAN_CAP:
                    pid = parent[0] if parent is not None else 0
                    spans.append((self.request_id, sid, pid, qualname, start, end))
                else:
                    self.dropped += 1

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def installed(self):
        """Replace every binding of a wrapped function in the package's
        modules, the package namespace included, for the duration."""
        by_id = {id(f): self._wrappers[q] for q, f in self.functions.items()}
        prefix = self.package.__name__
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    patched.append((module, name, value))
                    setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, value in patched:
                setattr(module, name, value)

    def write(self, path):
        """Write the kept spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tspan\tparent\tname\tstart_s\tend_s\n")
            for rid, sid, pid, name, start, end in self.spans:
                fh.write(f"{rid}\t{sid}\t{pid}\t{name}\t{start:.9f}\t{end:.9f}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} further spans counted but not kept\n")

    def module_self_s(self, mod_name):
        return sum(v for q, v in self.self_s.items() if q.split(".", 1)[0] == mod_name)
