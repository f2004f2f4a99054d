"""Per-layer tracing of tropehrhart from outside the program.

`install()` replaces each traced public name at every place it is looked
up: the defining module, every tropehrhart module that imported it by name
(e.g. `tropvb.vertex_enumeration`, `hrr.minkowski_sum`, `lattice.rank`) and
the package namespace; traced methods are replaced on their class. The
returned function puts the originals back. Untimed runs never call it.

Layers are the module names. A call is timed as a frame when it enters a
layer from a different one, or when its name has metrics of its own; a call
from inside its own layer is only counted, which keeps hot leaves (e.g. the
hundreds of thousands of `linalg.det` calls made by `cross_nullvec`) cheap.
Frames of every layer but `linalg` are also kept as spans carrying their
parent span and op id. A frame's self time is its duration minus the
durations of the frames directly inside it; a layer's self time is the sum
over its frames.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "lattice", "linalg", "matroid", "tropvb", "chains", "hrr", "taut")
# linalg is a layer of leaves: only these kernels are traced, as entered
# from other layers
LINALG_KERNELS = ("rref", "rank", "nullspace", "solve", "solve_unique", "det",
                  "cross_nullvec")
# (module, class) -> methods traced besides the module-level functions
METHODS = {
    ("lattice", "Fan"): ("__init__",),
    ("matroid", "Matroid"): ("__init__", "rank", "closure"),
    ("chains", "ConvexChain"): ("evaluate",),
    ("tropvb", "TropicalVectorBundle"): (
        "euler_char_u", "euler_char_total", "h0_total", "chi_box",
        "characters", "support_function", "chain_alpha", "parliament",
    ),
}
# traced names with metrics of their own: always timed, whatever the caller
NAMED = {
    "lattice.Fan.__init__": "lattice.fan",
    "lattice.vcone_from_halfspaces": "lattice.vcone",
    "lattice.convex_hull_vertices": "lattice.hull",
    "lattice.refine_by_hyperplanes": "lattice.refine",
    "lattice.minkowski_sum": "lattice.minkowski",
    "lattice.volume": "lattice.volume",
    "lattice.vertex_enumeration": "lattice.vertex_enum",
    "tropvb.validate": "tropvb.validate",
    "chains.split_branches": "chains.split_branches",
    "hrr.interpolate_volume_polynomial": "hrr.interpolate",
    "taut.vanishing_check": "taut.check",
    "cli.main": "cli.main",
}
# counted only, never timed: their time stays with the caller's layer
LEAVES = ("chains.ConvexChain.evaluate", "tropvb.TropicalVectorBundle.euler_char_u")


def _fubini(m):
    """Ordered set partitions of an m-set: the cones of the permutahedral fan."""
    a = [1]
    for n in range(1, m + 1):
        a.append(sum(_binom(n, k) * a[n - k] for k in range(1, n + 1)))
    return a[m]


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [layer, metric, t0, child_seconds, span index]
        self.counts = Counter()  # every call
        self.entered = Counter()  # calls timed as frames
        self.self_s = defaultdict(float)  # by layer and by metric name
        self.incl_s = defaultdict(float)  # by metric name, outermost frames only
        self.depth = Counter()
        self.spans = []  # [metric, start, end, parent span index, op id]
        self.op_id = 0
        self.rank_keys = set()

    # -- hooks that count work at the layer boundary --------------------

    def _after(self, metric, args, out):
        c = self.counts
        if metric == "lattice.vcone":
            c["lattice.vcone.rows_in"] += len(args[0])
            c["lattice.vcone.rays_out"] += len(out[0])
        elif metric == "lattice.hull":
            c["lattice.hull.points_in"] += len(args[0])
            c["lattice.hull.vertices_out"] += len(out)
        elif metric == "lattice.refine":
            c["lattice.refine.cones_out"] += len(out.maximal_keys)
        elif metric == "lattice.minkowski" and self.depth["hrr.interpolate"]:
            c["hrr.minkowski_in_interp"] += 1
        elif metric == "chains.ConvexChain.evaluate":
            c["chains.terms_tested"] += len(args[0].terms)
            c["chains.evaluate.nonzero"] += out != 0
        elif metric == "taut.check":
            c["taut.points"] += out["points"]
            c["taut.flag_chains"] += _fubini(out["m"])
        elif metric == "matroid.Matroid.rank":
            # each op loads its own Matroid, so this is per op and instance
            self.rank_keys.add((self.op_id, id(args[0]), frozenset(args[1])))

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn, layer, metric, timed, spanned):
        """timed: 'always', 'entry' (from another layer) or 'never'."""
        tracer = self
        stack = self.stack
        counts = self.counts
        hooked = metric in _HOOKED

        if timed == "never" or inspect.isgeneratorfunction(fn):
            def leaf(*args, **kwargs):
                counts[metric] += 1
                out = fn(*args, **kwargs)
                if hooked:
                    tracer._after(metric, args, out)
                return out
            return leaf

        def frame(*args, **kwargs):
            counts[metric] += 1
            if timed == "entry" and stack and stack[-1][0] == layer:
                out = fn(*args, **kwargs)
                if hooked:
                    tracer._after(metric, args, out)
                return out
            tracer.entered[metric] += 1
            span = -1
            if spanned:
                span = len(tracer.spans)
                parent = next((f[4] for f in reversed(stack) if f[4] >= 0), -1)
                tracer.spans.append([metric, 0.0, 0.0, parent, tracer.op_id])
            f = [layer, metric, 0.0, 0.0, span]
            stack.append(f)
            tracer.depth[metric] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - f[3]
                tracer.self_s[layer] += own
                tracer.self_s[metric] += own
                tracer.depth[metric] -= 1
                if not tracer.depth[metric]:
                    tracer.incl_s[metric] += dur
                if stack:
                    stack[-1][3] += dur
                if span >= 0:
                    tracer.spans[span][1:3] = [t0, t1]
            if hooked:
                tracer._after(metric, args, out)
            return out
        return frame

    def install(self):
        """Patch every traced name; returns a function that undoes it."""
        modules = {name: sys.modules[f"tropehrhart.{name}"] for name in LAYERS}
        sites = list(modules.values()) + [sys.modules["tropehrhart"]]
        undo = []
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") or (layer == "linalg" and name not in LINALG_KERNELS):
                    continue
                if layer == "cli" and name != "main":
                    continue
                w = self._wrapper(obj, layer, f"{layer}.{name}")
                for site in sites:
                    if vars(site).get(name) is obj:
                        setattr(site, name, w)
                        undo.append((site, name, obj))
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for name in names:
                obj = vars(cls)[name]
                setattr(cls, name, self._wrapper(obj, layer, f"{layer}.{cls_name}.{name}"))
                undo.append((cls, name, obj))

        def restore():
            for site, name, obj in reversed(undo):
                setattr(site, name, obj)
        return restore

    def _wrapper(self, fn, layer, qualname):
        if qualname in LEAVES:
            return self.wrap(fn, layer, qualname, "never", False)
        if qualname in NAMED:
            return self.wrap(fn, layer, NAMED[qualname], "always", True)
        return self.wrap(fn, layer, qualname, "entry", layer != "linalg")

    # -- results ---------------------------------------------------------

    def metrics(self, ops, op_seconds):
        """Per-layer metrics, per op, over `ops` traced ops lasting op_seconds."""
        c, s, inc = self.counts, self.self_s, self.incl_s
        per = 1.0 / ops
        # kernels entered from other layers; linalg's calls to itself are
        # counted in c but are not layer entries
        linalg_calls = sum(self.entered[f"linalg.{k}"] for k in LINALG_KERNELS)
        out = {
            "cli.self_s": (s["cli"] * per, "s"),
            "lattice.fan.calls": (c["lattice.fan"] * per, "count"),
            "lattice.fan.s": (inc["lattice.fan"] * per, "s"),
            "lattice.vcone.calls": (c["lattice.vcone"] * per, "count"),
            "lattice.vcone.rows_in": (c["lattice.vcone.rows_in"] * per, "count"),
            "lattice.vcone.rays_out": (c["lattice.vcone.rays_out"] * per, "count"),
            "lattice.vcone.rays_per_row": (
                _ratio(c["lattice.vcone.rays_out"], c["lattice.vcone.rows_in"]), "ratio"),
            "lattice.vcone.self_s": (s["lattice.vcone"] * per, "s"),
            "lattice.hull.calls": (c["lattice.hull"] * per, "count"),
            "lattice.hull.points_in": (c["lattice.hull.points_in"] * per, "count"),
            "lattice.hull.vertices_out": (c["lattice.hull.vertices_out"] * per, "count"),
            "lattice.hull.self_s": (s["lattice.hull"] * per, "s"),
            "lattice.refine.calls": (c["lattice.refine"] * per, "count"),
            "lattice.refine.cones_out": (c["lattice.refine.cones_out"] * per, "count"),
            "lattice.refine.s": (inc["lattice.refine"] * per, "s"),
            "lattice.minkowski.calls": (c["lattice.minkowski"] * per, "count"),
            "lattice.volume.calls": (c["lattice.volume"] * per, "count"),
            "lattice.vertex_enum.calls": (c["lattice.vertex_enum"] * per, "count"),
            "lattice.self_s": (s["lattice"] * per, "s"),
            "linalg.calls": (linalg_calls * per, "count"),
            "linalg.self_s": (s["linalg"] * per, "s"),
            "matroid.rank.calls": (c["matroid.Matroid.rank"] * per, "count"),
            "matroid.closure.calls": (c["matroid.Matroid.closure"] * per, "count"),
            "matroid.self_s": (s["matroid"] * per, "s"),
            "matroid.rank.distinct_frac": (
                _ratio(len(self.rank_keys), c["matroid.Matroid.rank"]), "ratio"),
            "tropvb.validate.calls": (c["tropvb.validate"] * per, "count"),
            "tropvb.validate.s": (inc["tropvb.validate"] * per, "s"),
            "tropvb.euler_char_u.calls": (
                c["tropvb.TropicalVectorBundle.euler_char_u"] * per, "count"),
            "tropvb.self_s": (s["tropvb"] * per, "s"),
            "chains.evaluate.calls": (c["chains.ConvexChain.evaluate"] * per, "count"),
            "chains.terms_tested": (c["chains.terms_tested"] * per, "count"),
            "chains.evaluate.nonzero_frac": (
                _ratio(c["chains.evaluate.nonzero"], c["chains.ConvexChain.evaluate"]), "ratio"),
            "chains.split_branches.s": (inc["chains.split_branches"] * per, "s"),
            "chains.self_s": (s["chains"] * per, "s"),
            "hrr.interpolate.s": (inc["hrr.interpolate"] * per, "s"),
            "hrr.minkowski_per_interp": (
                _ratio(c["hrr.minkowski_in_interp"], c["hrr.interpolate"]), "ratio"),
            "hrr.self_s": (s["hrr"] * per, "s"),
            "taut.check.calls": (c["taut.check"] * per, "count"),
            "taut.points": (_ratio(c["taut.points"], c["taut.check"]), "count"),
            "taut.flag_chains": (_ratio(c["taut.flag_chains"], c["taut.check"]), "count"),
            "taut.points_per_s": (_ratio(c["taut.points"], inc["taut.check"]), "1/s"),
            "taut.self_s": (s["taut"] * per, "s"),
            # op time outside the root span: output capture and the wrapper
            "trace.uncovered_s": ((op_seconds - inc["cli.main"]) * per, "s"),
        }
        return out


_HOOKED = {"lattice.vcone", "lattice.hull", "lattice.refine", "lattice.minkowski",
           "chains.ConvexChain.evaluate", "taut.check", "matroid.Matroid.rank"}


def _ratio(a, b):
    return a / b if b else 0.0
