"""Span tracing from outside the program.

The tracer wraps the public functions of each clusterlab layer with a timer
that records one span per call: (name, start, end, parent, work).  Spans are
kept in compact arrays in memory, written out as TSV at the end of a run, and
reduced to per-layer call counts, self times (span duration minus the
durations of its child spans) and work counts.  Nothing under ``src/`` is
edited: the wrappers are installed on the imported modules and removed again
by ``uninstall``.

The program is single-threaded and waits on no lock, queue or other thread,
so a span's duration is all busy time and no wait-time metric applies.
"""

from __future__ import annotations

import sys
import time
from array import array

# Span name -> the end-to-end metric it should move, and on which workloads.
LAYER_MAP = {
    "surface.other_triangle": ("wall_s, items_per_s", "verify_all, arc_sweep"),
    "surface.triangle_walk": ("wall_s, items_per_s", "verify_all, arc_sweep"),
    "surface.builtin_genus": ("setup_s", "all"),
    "snake.build": ("items_per_s", "arc_sweep, verify_all"),
    "snake.enumerate": ("wall_s, peak_rss_mb", "bracelets, arc_sweep"),
    "snake.expand": ("wall_s", "bracelets"),
    "algebra.mul": ("items_per_s, item_p99_ms", "mutation_walk, verify_all"),
    "algebra.div_exact": ("items_per_s, item_p99_ms", "mutation_walk, verify_all"),
    "algebra.addsub": ("items_per_s, item_p99_ms", "mutation_walk, verify_all"),
    "mutation.mutate": ("items_per_s", "mutation_walk"),
    "verify.zigzag_v_arcs": ("wall_s", "verify_all"),
    "verify.case.*": ("wall_s", "verify_all"),
    "cli.main": ("wall_s (predicted ~0)", "verify_all"),
}

# The verify cases that get a metric of their own (every case is traced).
CASE_NAMES = ("eq1", "eq2", "genus2", "mutation_oracle", "genus3", "chebyshev", "fuzz")

# Spans whose call count is reported, and the work count each one carries.
COUNTED = ("surface.other_triangle", "surface.triangle_walk", "snake.build",
           "snake.enumerate", "algebra.mul", "algebra.div_exact", "mutation.mutate",
           "verify.zigzag_v_arcs")
WORK_METRIC = {
    "snake.build": "snake.tiles",
    "snake.enumerate": "snake.matchings",
    "snake.expand": "snake.terms",
    "algebra.mul": "algebra.mul.term_pairs",
    "algebra.div_exact": "algebra.div_exact.quotient_terms",
}
SPAN_NAMES = (
    "surface.other_triangle", "surface.triangle_walk", "surface.builtin_genus",
    "snake.build", "snake.enumerate", "snake.expand",
    "algebra.mul", "algebra.div_exact", "algebra.addsub", "mutation.mutate",
    "verify.zigzag_v_arcs", *(f"verify.case.{c}" for c in CASE_NAMES), "cli.main",
)


class Spans:
    """Spans in columnar arrays, in the order they ended.

    A span's parent is not stored while recording: spans are properly
    nested (one thread) and recorded when they end, so the parent of a span
    is the first span recorded after it that started no later than it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")

    def __len__(self):
        return len(self.start)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def parents(self):
        """Index of each span's parent, or -1 for a root."""
        parent = array("i", [-1]) * len(self)
        pending = []  # spans still without a parent, by increasing start
        for i, t0 in enumerate(self.start):
            while pending and self.start[pending[-1]] >= t0:
                parent[pending.pop()] = i
            pending.append(i)
        return parent

    def dump(self, path):
        parent = self.parents()
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\twork\n")
            for i in range(len(self)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                         f"\t{parent[i]}\t{self.work[i]}\n")

    @classmethod
    def load(cls, path):
        spans = cls()
        with open(path) as fh:
            next(fh)
            for line in fh:
                name, start, end, _, work = line.rstrip("\n").split("\t")
                spans.name.append(spans.name_id(name))
                spans.start.append(float(start))
                spans.end.append(float(end))
                spans.work.append(int(work))
        return spans

    def layer_stats(self, lo=0):
        """{span name: {"calls", "self_s", "incl_s", "work"}} over the spans
        recorded from index lo on.  Self time is a span's duration minus the
        durations of its children; inclusive time counts only the outermost
        span of each name."""
        parent = self.parents()
        child = [0.0] * len(self)
        for i in range(lo, len(self)):
            if parent[i] >= 0:
                child[parent[i]] += self.end[i] - self.start[i]
        stats = {}
        for i in range(lo, len(self)):
            name = self.name[i]
            s = stats.setdefault(self.names[name],
                                 {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0})
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["self_s"] += dur - child[i]
            s["work"] += self.work[i]
            p = parent[i]
            while p >= 0 and self.name[p] != name:
                p = parent[p]
            if p < 0:
                s["incl_s"] += dur
        return stats


class Tracer:
    """Wraps clusterlab's layer functions so that each call records a span."""

    def __init__(self):
        self.spans = Spans()
        self._patches = []

    def wrap(self, name, fn, work=None):
        spans, clock = self.spans, time.perf_counter
        nid = spans.name_id(name)
        add_name, add_start, add_end, add_work = (
            spans.name.append, spans.start.append, spans.end.append, spans.work.append)

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                add_name(nid), add_start(t0), add_end(t1), add_work(0)
                raise
            t1 = clock()
            add_name(nid), add_start(t0), add_end(t1)
            add_work(0 if work is None else work(args, result))
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, module, attr, name, work=None):
        """Wrap a module-level function everywhere clusterlab imported it."""
        orig = getattr(module, attr)
        traced = self.wrap(name, orig, work)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "clusterlab" or mod_name.startswith("clusterlab."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, traced)

    def _wrap_method(self, cls, attrs, name, work=None):
        """Wrap methods sharing one span name (aliases such as __radd__ too)."""
        for attr in attrs:
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr], work))

    def install(self):
        """Install the wrappers on the imported clusterlab modules."""
        from clusterlab import algebra, cli, mutation, snake, surface, verify

        LP = algebra.LaurentPolynomial
        terms = lambda args, res: len(res.terms)
        self._wrap_method(surface.Triangulation, ("other_triangle",), "surface.other_triangle")
        self._wrap_method(surface.Triangulation, ("triangle_walk",), "surface.triangle_walk")
        self._wrap_function(surface, "builtin_genus", "surface.builtin_genus")
        tiles = lambda args, res: len(res.tiles)
        for attr in ("build_snake", "build_band", "trim_to_band"):
            self._wrap_function(snake, attr, "snake.build", tiles)
        self._wrap_method(snake.MatchingGraph, ("enumerate_masks",), "snake.enumerate",
                          lambda args, res: len(res))
        for attr in ("expand", "expand_band"):
            self._wrap_function(snake, attr, "snake.expand", terms)
        self._wrap_method(LP, ("__mul__", "__rmul__"), "algebra.mul",
                          lambda args, res: len(args[0].terms)
                          * (len(args[1].terms) if isinstance(args[1], LP) else 1))
        self._wrap_method(LP, ("div_exact",), "algebra.div_exact", terms)
        self._wrap_method(LP, ("__add__", "__radd__", "__sub__", "__rsub__"), "algebra.addsub")
        self._wrap_function(mutation, "mutate", "mutation.mutate")
        self._wrap_function(verify, "zigzag_v_arcs", "verify.zigzag_v_arcs")
        for case, fn in list(verify.CASES.items()):
            self._set_item(verify.CASES, case, self.wrap(f"verify.case.{case}", fn))
        self._wrap_function(cli, "main", "cli.main")

    def _set_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()


def layer_metrics(stats):
    """The per-layer metric values of one traced pass (0 for idle layers)."""
    get = lambda name, key: stats.get(name, {}).get(key, 0)
    out = {}
    for name in SPAN_NAMES:
        if name in COUNTED:
            out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = float(get(name, "self_s"))
        if name in WORK_METRIC:
            out[WORK_METRIC[name]] = get(name, "work")
    matchings = out["snake.matchings"]
    out["snake.terms_per_matching"] = out["snake.terms"] / matchings if matchings else 0.0
    return out
