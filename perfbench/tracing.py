"""Spans recorded from outside inflap, around its public entry points.

`Tracer.install()` replaces every public function of each inflap module, and
a few public methods, with a wrapper that records one span per call: name,
parent span, start and end (`time.perf_counter`), and an optional amount
(sweeps, node evaluations, computed bytes).  A function is replaced in every
inflap module namespace that holds it by name (for example `inflap.cli`
imports `solve_dirichlet` directly), so no call path is missed.  Spans stay
in memory; `write_tsv` writes them out once the measurement is over.
"""

import functools
import inspect
import math
import os
import sys
from time import perf_counter

LAYERS = ("core", "scheme", "solver", "radial", "criteria", "verify", "cli")


def _sweeps(args, out):
    rep = out[1] if isinstance(out, tuple) else out
    return int(getattr(rep, "sweeps", 0))


def _pair_bytes(args, out):
    # computed, not measured: 4 arrays of K x grid float64 per call
    st = args[0]
    return 32 * len(st.pairs) * int(math.prod(st.domain.dims))


def _node_evals(args, out):
    size = getattr(out, "size", None)
    return int(size) if size is not None else 1


def _file_bytes(args, out):
    return os.path.getsize(args[1])


# (module, class, method) -> span name; functions use "<layer>.<name>"
METHODS = {
    ("scheme", "Stencil", "__init__"): "scheme.Stencil.__init__",
    ("scheme", "Stencil", "pair_arrays"): "scheme.Stencil.pair_arrays",
    ("core", "RhsSpec", "eval_grid"): "core.RhsSpec.eval_grid",
}

AMOUNTS = {
    "solver.solve_dirichlet": _sweeps,
    "solver.perron_solve": _sweeps,
    "solver.probe_nonexistence": _sweeps,
    "scheme.Stencil.pair_arrays": _pair_bytes,
    "core.RhsSpec.eval_grid": _node_evals,
    "core.eval_rhs": _node_evals,
    "cli.write_field": _file_bytes,
}


class Tracer:
    """In-memory span recorder; one instance per traced measurement."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.amounts = []
        self.installed = set()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        amount = AMOUNTS.get(name)
        names, parents = self.names, self.parents
        starts, ends, amounts, stack = (self.starts, self.ends,
                                        self.amounts, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            amounts.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if amount is not None:
                amounts[i] = amount(args, out)
            return out
        return wrapper

    def install(self):
        """Wrap the entry points; `uninstall` puts the originals back."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "inflap" or n.startswith("inflap.")]
        for layer in LAYERS:
            mod = sys.modules.get("inflap." + layer)
            for attr, obj in list(vars(mod).items() if mod else ()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                wrapper = self._wrap(name, obj)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is obj:
                            setattr(m, key, wrapper)
                            self._undo.append((m, key, obj))
                self.installed.add(name)
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules.get("inflap." + layer), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                continue
            setattr(cls, meth, self._wrap(name, fn))
            self._undo.append((cls, meth, fn))
            self.installed.add(name)

    def uninstall(self):
        for owner, key, obj in reversed(self._undo):
            setattr(owner, key, obj)
        self._undo.clear()

    def mark(self):
        """Index of the next span, to slice one pass out of the record."""
        return len(self.starts)

    def write_tsv(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tamount\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, (n, p, s, e, a) in enumerate(zip(
                    self.names, self.parents, self.starts, self.ends,
                    self.amounts)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\n"
                         % (i, p, n, s - t0, e - t0, a))


def pass_metrics(tr, lo, hi):
    """Per-layer numbers of the spans recorded in [lo, hi): one pass."""
    by_name = {}
    for i in range(lo, hi):
        by_name.setdefault(tr.names[i], []).append(i)

    def group(names):
        # spans of these names that have no ancestor of these names
        names = set(names)
        calls, secs, amount = 0, 0.0, 0
        for n in names:
            for i in by_name.get(n, ()):
                p = tr.parents[i]
                while p >= lo and tr.names[p] not in names:
                    p = tr.parents[p]
                if p < lo:
                    calls += 1
                    secs += tr.ends[i] - tr.starts[i]
                    amount += tr.amounts[i]
        return calls, secs, amount

    def prefixed(p):
        return [n for n in by_name if n.startswith(p)]

    m = {}
    calls, secs, evals = group(["core.RhsSpec.eval_grid", "core.eval_rhs"])
    m["core.rhs_eval.calls"] = calls
    m["core.rhs_eval.s"] = secs
    m["core.rhs_eval.node_evals"] = evals
    m["core.build_domain.s"] = group(["core.build_domain"])[1]
    m["scheme.stencil_build.s"] = group(["scheme.Stencil.__init__"])[1]
    calls, secs, nbytes = group(["scheme.Stencil.pair_arrays"])
    m["scheme.pair_arrays.calls"] = calls
    m["scheme.pair_arrays.s"] = secs
    m["scheme.pair_arrays.bytes"] = nbytes
    _, secs, sweeps = group(prefixed("solver."))
    m["solver.s"] = secs
    m["solver.sweeps"] = sweeps
    m["solver.ms_per_sweep"] = 1e3 * secs / sweeps if sweeps else 0.0
    for fn in ("build_profile", "exact_family", "ode_residual"):
        m["radial.%s.s" % fn] = group(["radial." + fn])[1]
    for layer, fns in (("criteria", CRITERIA_FNS), ("verify", VERIFY_FNS)):
        m[layer + ".s"] = group(prefixed(layer + "."))[1]
        for fn in fns:
            m["%s.%s.s" % (layer, fn)] = group(["%s.%s" % (layer, fn)])[1]
    m["cli.parse_config.s"] = group(["cli.parse_config"])[1]
    _, secs, nbytes = group(["cli.write_field"])
    m["cli.write_field.s"] = secs
    m["cli.write_field.bytes"] = nbytes
    m["cli.write_report.s"] = group(["cli.write_report"])[1]
    # self time: a span's duration minus that of its direct children
    self_s = dict.fromkeys(LAYERS, 0.0)
    child = [0.0] * (hi - lo)
    for i in range(hi - 1, lo - 1, -1):
        dur = tr.ends[i] - tr.starts[i]
        self_s[tr.names[i].split(".", 1)[0]] += dur - child[i - lo]
        p = tr.parents[i]
        if p >= lo:
            child[p - lo] += dur
    for layer in LAYERS:
        m[layer + ".self_s"] = self_s[layer]
    m["trace.spans"] = hi - lo
    return m


CRITERIA_FNS = ("c_eta", "diam_threshold", "nonexistence_radius",
                "dd3_check", "apriori_box", "growth_class",
                "cubic_smallness", "eigen_bracket")
VERIFY_FNS = ("check_comparison", "check_harnack", "lipschitz_bound",
              "check_apriori")



def _sources():
    """pass_metrics key -> the span names it is made of, where a missing
    entry point would make the value read as less work."""
    src = {}
    for key in ("calls", "s", "node_evals"):
        src["core.rhs_eval." + key] = ("core.RhsSpec.eval_grid",
                                       "core.eval_rhs")
    for key in ("calls", "s", "bytes"):
        src["scheme.pair_arrays." + key] = ("scheme.Stencil.pair_arrays",)
    for key in ("sweeps", "ms_per_sweep"):
        src["solver." + key] = tuple("solver." + fn for fn in SWEEP_FNS)
    src["core.build_domain.s"] = ("core.build_domain",)
    src["scheme.stencil_build.s"] = ("scheme.Stencil.__init__",)
    for fn in ("build_profile", "exact_family", "ode_residual"):
        src["radial.%s.s" % fn] = ("radial." + fn,)
    for layer, fns in (("criteria", CRITERIA_FNS), ("verify", VERIFY_FNS)):
        for fn in fns:
            src["%s.%s.s" % (layer, fn)] = ("%s.%s" % (layer, fn),)
    for key in ("parse_config.s", "write_field.s", "write_field.bytes",
                "write_report.s"):
        src["cli." + key] = ("cli." + key.split(".")[0],)
    return src


def absent_metrics(tracer):
    """Metrics whose entry points this version of inflap does not have.

    They are left out of the result rather than read as 0, which a
    comparison would take for a gain.
    """
    return sorted(key for key, names in SOURCES.items()
                  if any(n not in tracer.installed for n in names))


SWEEP_FNS = ("solve_dirichlet", "perron_solve", "probe_nonexistence")
SOURCES = _sources()

# pass_metrics keys that count work; they must repeat exactly per pass
COUNTERS = ("core.rhs_eval.calls", "core.rhs_eval.node_evals",
            "scheme.pair_arrays.calls", "scheme.pair_arrays.bytes",
            "solver.sweeps", "cli.write_field.bytes", "trace.spans")
