"""Span tracer for the traced benchmark run.

The library imports functions by name (``from .core import rank``), so one
function has a binding in every module that uses it.  ``install`` replaces the
function at each of those bindings with one wrapper, so ``basis.rank``,
``graphs.rank`` and ``core.rank`` all record ``core.rank`` spans, and
``hierarchy_audit`` calling ``check_type_d`` through the criteria module
globals records a ``criteria.check_type_d`` span.

Each call records a span: name, start, end, parent span index and op id.
Spans stay in memory until ``write`` dumps them.  Self time is a span's
duration minus the durations of its direct child spans.  An elimination is a
``core.rank`` or ``core.null_space`` call, attributed to its nearest traced
ancestor.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "mechindep"

# (module, function) pairs; the span is named "<module>.<function>", except
# sparsest_basis, whose spans are named by mode.
TRACED = [
    ("core", "rank"),
    ("core", "null_space"),
    ("core", "column_supports"),
    ("basis", "minimal_supports"),
    ("basis", "sparsest_basis"),
    ("basis", "sparsity_gap"),
    ("graphs", "finest_rank_additive_partition"),
    ("graphs", "block_structure_audit"),
    ("graphs", "build_graph"),
    ("graphs", "components"),
    ("criteria", "check_type_d"),
    ("criteria", "check_type_m"),
    ("criteria", "check_type_o"),
    ("criteria", "check_type_h"),
    ("criteria", "contrast_certificate"),
    ("criteria", "check_type_s"),
    ("criteria", "check_type_s_pairwise"),
    ("criteria", "hierarchy_audit"),
    ("topology", "premise_report"),
    ("topology", "is_connected"),
    ("topology", "slices_connected"),
    ("io", "read_matrix_csv"),
    ("io", "read_tensor_json"),
    ("io", "read_region_json"),
    ("io", "write_matrix_csv"),
    ("io", "emit_report"),
    ("certificates", "inputs_digest"),
    ("cli", "run"),
    ("synth", "gen_overlap_jacobian"),
]

ELIMINATIONS = ("core.rank", "core.null_space")
SPARSEST_MODES = ("unconstrained", "blockRespecting", "forceMixing")
READERS = ("io.read_matrix_csv", "io.read_tensor_json", "io.read_region_json")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.op = None
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.eliminations = Counter()
        self.counters = Counter()  # io.bytes_in, io.bytes_out, minimal-support vectors
        self.absent = []
        self._stack = []  # [span index, name, time covered by children]
        self._patched = []

    def install(self):
        """Wrap every traced function at every binding in the package."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self.absent = []
        for module, fname in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{module}")
            original = getattr(home, fname, None)
            if original is None:
                self.absent.append(f"{module}.{fname}")
                continue
            wrapper = self._wrap(f"{module}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, name, fn):
        tracer = self

        if name == "basis.sparsest_basis":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                mode = kwargs.get("mode", args[2] if len(args) > 2 else "unconstrained")
                return tracer._call(f"{name}.{mode}", fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and name in ELIMINATIONS:
            self.eliminations[parent[1]] += 1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.spans[index] = (name, start, end, parent[0] if parent else -1, self.op)
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
        if name in READERS:
            self.counters["io.bytes_in"] += os.path.getsize(args[0])
        elif name == "io.write_matrix_csv":
            self.counters["io.bytes_out"] += os.path.getsize(args[0])
        elif name == "io.emit_report":
            self.counters["io.bytes_out"] += len(result)
        elif name == "basis.minimal_supports":
            self.counters["minimal_supports.vectors"] += len(result)
        return result

    def metrics(self) -> dict:
        """Per-layer values by metric name; a metric of a function missing
        from the library maps to None."""
        out = {}
        for module, fname in TRACED:
            base = f"{module}.{fname}"
            names = [f"{base}.{m}" for m in SPARSEST_MODES] if fname == "sparsest_basis" else [base]
            for name in names:
                present = base not in self.absent
                out[f"{name}.calls"] = self.calls[name] if present else None
                out[f"{name}.self_s"] = self.self_s[name] if present else None
                out[f"{name}.eliminations"] = self.eliminations[name] if present else None
        for key in ("io.bytes_in", "io.bytes_out"):
            out[key] = self.counters[key]
        elim = out["basis.minimal_supports.eliminations"]
        if elim is None:
            out["basis.minimal_supports.yield"] = None
        else:
            out["basis.minimal_supports.yield"] = self.counters["minimal_supports.vectors"] / max(elim, 1)
        return out

    def write(self, path):
        """Dump the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
