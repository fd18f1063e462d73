"""In-memory span tracer around hypgeo's public functions.

Calls between hypgeo modules go through each module's own binding of the
callee (`hypgeo.optimality.exp_map`, `hypgeo.cli.riemannian_log`, ...),
so install() rebinds every such name in every hypgeo module, the package
namespace included, and uninstall() puts the originals back.

A span is (name, start, end, parent span, op id), kept in flat arrays
while the run lasts.  A span's self time is its duration minus the time
its child spans cover; one thread runs them, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

# Public functions wrapped, per module.  tau_of_t is left out on purpose:
# exp_map calls it every time, so its time counts as exp_map's own.
TRACED = {
    "algebra": ("psl2_canonicalize", "sq_mul", "sq_exp"),
    "metric_space": (
        "make_metric", "metric_from_eta", "covector_from_components",
        "covector_from_pbar3", "light_covector",
    ),
    "geodesic_engine": ("exp_map", "vertical_flow", "sample_geodesic"),
    "root_solver": (
        "find_first_positive_root", "maxwell_root_q0", "maxwell_root_q3",
        "conjugate_roots",
    ),
    "optimality": (
        "first_conjugate_time", "maxwell_time", "cut_time", "describe_cut",
        "injectivity_radius", "cut_locus_sample", "wavefront_row",
        "wavefront_sample", "riemannian_log",
    ),
    "sr_limit": ("beta_from_pbar3", "sr_cut_time", "sr_exp_map", "limit_comparison"),
    "cli": ("parse_args", "run"),
}
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names = []
        self.name_col = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.scan_evals = 0
        self.roots_found = 0
        self._restore = []

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_col, parent, op = self.name_col, self.parent, self.op
        start, end, child, stack = self.start, self.end, self.child, self.stack

        def traced(*args, **kwargs):
            sid = len(start)
            name_col.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            child.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                end[sid] = t1
                if stack[-1] >= 0:
                    child[stack[-1]] += t1 - t0

        traced.__wrapped__ = fn
        return traced

    def _count_scan(self, fn):
        """find_first_positive_root with its f evaluations and roots counted."""

        def counted_root(f, *args, **kwargs):
            def counted_f(x):
                self.scan_evals += 1
                return f(x)

            root = fn(counted_f, *args, **kwargs)
            self.roots_found += 1
            return root

        return counted_root

    def install(self):
        modules = {m: importlib.import_module(f"hypgeo.{m}") for m in TRACED}
        hyp = [mod for key, mod in list(sys.modules.items())
               if mod is not None and (key == "hypgeo" or key.startswith("hypgeo."))]
        for short, names in TRACED.items():
            for fname in names:
                orig = getattr(modules[short], fname, None)
                if orig is None:  # gone from the package: its metrics read 0
                    continue
                inner = self._count_scan(orig) if fname == "find_first_positive_root" else orig
                wrapper = self.wrap(f"{short}.{fname}", inner)
                for mod in hyp:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def totals(self):
        """Per span name: [calls, inclusive seconds, self seconds]."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        names, start, end, child = self.names, self.start, self.end, self.child
        for sid, nid in enumerate(self.name_col):
            dur = end[sid] - start[sid]
            row = out[names[nid]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[sid]
        return out

    def calls_under(self, ancestor, names):
        """Calls of each of `names` made anywhere below an `ancestor` span."""
        if ancestor not in self.names:
            return {n: 0 for n in names}
        aid = self.names.index(ancestor)
        wanted = {self.names.index(n): n for n in names if n in self.names}
        counts = {n: 0 for n in names}
        below = bytearray(len(self.name_col))
        parent, name_col = self.parent, self.name_col
        for sid, nid in enumerate(name_col):
            p = parent[sid]
            if p >= 0 and (below[p] or name_col[p] == aid):
                below[sid] = 1
                if nid in wanted:
                    counts[wanted[nid]] += 1
        return counts

    def write_spans(self, path, limit):
        """The first `limit` spans as CSV (times in microseconds from the first span)."""
        n = min(limit, len(self.name_col))
        t0 = self.start[0] if n else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,parent,op,name,start_us,end_us\n")
            for sid in range(n):
                f.write(
                    f"{sid},{self.parent[sid]},{self.op[sid]},{self.names[self.name_col[sid]]},"
                    f"{(self.start[sid] - t0) * 1e6:.3f},{(self.end[sid] - t0) * 1e6:.3f}\n"
                )
        return n
