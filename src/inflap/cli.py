"""Command-line entry point: config parsing, runs, and export.

Usage: inflap <action> --config <path> [--out <dir>] [--h <spacing>],
with action one of solve, perron, probe, radial, family, criteria,
verify.  Configs are JSON; unknown keys are rejected.  Reports
are JSON with sorted keys and %.12e floats so identical configs give
byte-identical output; fields export as CSV with one `x...,value` row
per non-exterior node.
"""

import argparse
import ast
import functools
import inspect
import json
from dataclasses import asdict, fields
import operator
import os
import sys

import numpy as np

from .core import (BoundaryTrace, RhsSpec, ScalarField, _write_rows,
                   build_domain)
from .scheme import SchemeParams
from .solver import (SolveOptions, perron_solve, probe_nonexistence,
                     solve_dirichlet)
from . import criteria as crit
from . import radial
from . import verify as ver


class ConfigError(ValueError):
    pass


# the keys of problem.domain that each kind needs, and their types
_DOMAIN_KEYS = {"ball": {"center": list, "R": float},
                "box": {"lo": list, "hi": list}, "mask": {"path": str}}
# the keys of a cone or power field spec, and their types
_FIELD_KEYS = {"cone": {"C": float, "z": list, "d": float,
                        "orientation": str},
               "power": {"gamma": float, "R": float}}
# the keys each verify check type reads besides "type"
_CHECK_KEYS = {"comparison": {"rhs2", "mode"},
               "monotone-comparison": {"v_constant"},
               "lipschitz": {"x0", "alpha"},
               "harnack": {"h_sup_plus", "z", "r"},
               "apriori": {"h_range"}}

_SECTION_KEYS = {
    "": {"problem", "action", "scheme", "solve", "perron", "radial",
         "family", "criteria", "verify"},
    "problem": {"domain", "h", "rhs", "rhs_coefs", "rhs_sign",
                "rhs_monotone", "boundary"},
    "problem.domain": {"kind"}.union(*_DOMAIN_KEYS.values()),
    "problem.boundary": {"constant", "expression"},
    "scheme": {f.name for f in fields(SchemeParams)},
    "solve": {f.name for f in fields(SolveOptions)},
    "perron": {"sub", "super"},
    "perron.sub": {"constant", "cone", "power"},
    "perron.super": {"constant", "cone", "power"},
    "radial": {"m", "ell", "a", "prefactor", "n"},
    "family": {"gamma", "k", "n"},
    "criteria": set(crit.CriteriaReport.of.__kwdefaults__),
    "verify": {"checks"},
}


def _only(spec, where, keys):
    """The one key check: `spec` is a config object with no key outside
    `keys`."""
    if not isinstance(spec, dict):
        raise ConfigError("%s must be a JSON object" % where)
    for key in spec:
        if key not in keys:
            raise ConfigError("unknown key %r in %s" % (key, where))


def _one_of(spec, where, kinds):
    """The one key of the config object `spec`, which names one of
    `kinds` (a tuple)."""
    _only(spec, where, kinds)
    if len(spec) != 1:
        raise ConfigError("%s needs exactly one of %s and %r" % (
            where, ", ".join(map(repr, kinds[:-1])), kinds[-1]))
    return next(iter(spec))


def _check_keys(obj, section):
    """Every section a JSON object, with only its known keys."""
    _only(obj, section or "top level", _SECTION_KEYS[section])
    for key in obj:
        sub = (section + "." + key) if section else key
        if sub in _SECTION_KEYS:
            _check_keys(obj[key], sub)


def parse_config(text):
    """Parse and validate a JSON run config; unknown keys are errors."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("config parse error at line %d column %d: %s"
                          % (e.lineno, e.colno, e.msg))
    _check_keys(cfg, "")
    if "problem" not in cfg and cfg.get("action") not in ("radial", None):
        raise ConfigError("config needs a problem section")
    return cfg


def _is(v, typ):
    """Whether the JSON value v is of type `typ`: an integer passes for a
    float, a bool for nothing else, and a list holds numbers."""
    if typ is list:
        return isinstance(v, list) and all(_is(x, float) for x in v)
    return isinstance(v, bool) == (typ is bool) and isinstance(
        v, (int, float) if typ is float else typ)


def _type_name(typ):
    return "list of numbers" if typ is list else typ.__name__


def _options(fn, cfg, section):
    """`fn` called with a config section as keywords, each value of the
    type its parameter is annotated with (see `_is`) or null where the
    default is None."""
    spec = cfg.get(section, {})
    params = inspect.signature(fn).parameters
    for key, v in spec.items():
        typ, default = params[key].annotation, params[key].default
        if not (_is(v, typ) or v is None and default is None):
            raise ConfigError("%s.%s must be of type %s" % (
                section, key, _type_name(typ)))
    return fn(**spec)


def _need(spec, where, /, **types):
    """The values of the keys of `types` in the config object `spec`, in
    that order, all required and each of its type (see `_is`).  A wrong
    type names every key of that type.  `spec` and `where` are
    positional-only, so that a key may have any name (rhs_coefs)."""
    if not isinstance(spec, dict):
        raise ConfigError("%s must be a JSON object" % where)
    for key in types:
        if key not in spec:
            raise ConfigError("%s needs %r" % (where, key))
    for key, typ in types.items():
        if not _is(spec[key], typ):
            raise ConfigError("%s: %s must be of type %s" % (
                where, " and ".join(k for k, t in types.items() if t is typ),
                _type_name(typ)))
    return [spec[key] for key in types]


def _get(spec, where, key, typ, default):
    """spec[key] as `_need` checks it, or `default` where the key is
    absent (or null, when the default is None)."""
    if key not in spec or spec[key] is None and default is None:
        return default
    return _need(spec, where, **{key: typ})[0]


def _build_problem(cfg, h_override):
    prob = cfg.get("problem")
    if prob is None:
        raise ConfigError("this action needs a problem section")
    dom, = _need(prob, "problem", domain=dict)
    kind, = _need(dom, "problem.domain", kind=str)
    if kind not in _DOMAIN_KEYS:
        raise ConfigError("unknown shape kind: %r" % (kind,))
    _only(dom, "problem.domain of kind %r" % kind,
          {"kind", *_DOMAIN_KEYS[kind]})
    _need(dom, "problem.domain", **_DOMAIN_KEYS[kind])
    h = h_override if h_override is not None else prob.get("h")
    if h is None and kind != "mask":
        raise ConfigError("problem needs 'h'")
    if h is not None and not _is(h, float):
        raise ConfigError("problem.h must be a number")
    d = build_domain(dom, h)
    # a mask file carries its own spacing
    if h is not None and h != d.h:
        raise ConfigError("h %r differs from the mask file's spacing %r"
                          % (h, d.h))
    coefs = _get(prob, "problem", "rhs_coefs", dict, None) or {}
    _need(coefs, "problem.rhs_coefs", **dict.fromkeys(coefs, float))
    f = RhsSpec(_get(prob, "problem", "rhs", str, "(const 0)"), coefs=coefs,
                sign=_get(prob, "problem", "rhs_sign", str, None),
                monotone_in_t=_get(prob, "problem", "rhs_monotone", str,
                                   None))
    bspec = prob.get("boundary", {"constant": 0.0})
    if _one_of(bspec, "problem.boundary",
               ("constant", "expression")) == "constant":
        b = BoundaryTrace.constant(d, *_need(bspec, "problem.boundary",
                                             constant=float))
    else:
        expr, = _need(bspec, "problem.boundary", expression=str)
        b = BoundaryTrace.from_function(d, _coord_fn(expr, d.N))
    return d, f, b


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}
_UNOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _coord_fn(expr, N):
    """A coordinate expression as a function of the points (..., N).

    The expression is parsed with `ast` and evaluated node by node, with
    Python's operators, over a whitelist: numbers, the names x0..x{N-1}
    and r = |x|, + - * / ** and unary +-, np.pi, np.e and calls
    np.<f>(...) where np.<f> is a numpy ufunc.  Anything else is a
    ConfigError; nothing is passed to eval.
    """
    try:
        tree = ast.parse(expr, mode="eval").body
    except (SyntaxError, TypeError) as e:
        raise ConfigError("boundary expression %r: %s" % (expr, e))

    def fn(pts):
        names = {"x%d" % j: pts[..., j] for j in range(N)}
        names["r"] = np.linalg.norm(pts, axis=-1)
        try:
            val = _coord_eval(tree, names)
        except (ArithmeticError, TypeError) as e:
            raise ConfigError("boundary expression %r: %s" % (expr, e))
        return np.broadcast_to(val, pts.shape[:-1]).astype(float)
    return fn


def _coord_eval(node, names):
    """Value of one whitelisted node of a boundary expression."""
    def is_np(n):
        return isinstance(n, ast.Name) and n.id == "np"

    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_coord_eval(node.left, names),
                                      _coord_eval(node.right, names))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNOPS:
        return _UNOPS[type(node.op)](_coord_eval(node.operand, names))
    if isinstance(node, ast.Attribute) and is_np(node.value) \
            and node.attr in ("pi", "e"):
        return getattr(np, node.attr)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and is_np(node.func.value) and not node.keywords \
            and isinstance(getattr(np, node.func.attr, None), np.ufunc):
        return getattr(np, node.func.attr)(
            *[_coord_eval(a, names) for a in node.args])
    raise ConfigError("boundary expression: %r is not allowed"
                      % ast.unparse(node))


def _field_from_spec(spec, d, where):
    kind = _one_of(spec, where, ("constant", "cone", "power"))
    if kind == "constant":
        return ScalarField.constant(d, *_need(spec, where, constant=float))
    where += "." + kind
    _only(spec[kind], where, _FIELD_KEYS[kind])
    args = _need(spec[kind], where, **_FIELD_KEYS[kind])
    if kind == "cone":
        return radial.cone_field(d, *args)
    gamma, R = args
    return radial.power_subsolution(gamma, R, d)


def _fmt(x):
    return "%.12e" % float(x)


def _dump_json(obj, out):
    """Serialize with sorted keys and %.12e floats (byte stable)."""
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _dump_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _dump_json(v, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        # "%.12e" writes NaN and +-inf as the strings the report quotes
        x = float(obj)
        out.append(_fmt(x) if np.isfinite(x) else json.dumps(_fmt(x)))
    else:
        out.append(json.dumps(obj))


def write_report(report, path):
    out = []
    _dump_json(report, out)
    with open(path, "w") as fh:
        fh.write("".join(out) + "\n")


def write_field(u, path):
    d = u.domain
    ne = d.nonexterior
    table = np.column_stack((d.points(ne), u.values[ne]))
    with open(path, "w") as fh:
        fh.write(",".join("x%d" % j for j in range(d.N)) + ",value\n")
        _write_rows(fh, table)


# exit codes of the iterative actions; 1 stays for usage and config errors
_EXIT = {"converged": 0, "diverged_past_alarm": 3, "max_sweeps_reached": 4}


def _run_solve(cfg, out_dir, h_override):
    d, f, b = _build_problem(cfg, h_override)
    u, rep = solve_dirichlet(d, f, b, _options(SolveOptions, cfg, "solve"),
                             _options(SchemeParams, cfg, "scheme"))
    write_field(u, os.path.join(out_dir, "field.csv"))
    write_report({"action": "solve", "solve": asdict(rep)},
                 os.path.join(out_dir, "report.json"))
    return _EXIT[rep.status]


def _run_perron(cfg, out_dir, h_override):
    d, f, b = _build_problem(cfg, h_override)
    pspec = cfg.get("perron", {})
    sspec, = _need(pspec, "perron", sub=dict)
    sub = _field_from_spec(sspec, d, "perron.sub")
    super_ = _field_from_spec(pspec["super"], d, "perron.super") \
        if "super" in pspec else None
    u, rep = perron_solve(d, f, b, sub, super_,
                          _options(SolveOptions, cfg, "solve"),
                          _options(SchemeParams, cfg, "scheme"))
    write_field(u, os.path.join(out_dir, "field.csv"))
    write_report({"action": "perron", "solve": asdict(rep)},
                 os.path.join(out_dir, "report.json"))
    return _EXIT[rep.status]


def _run_probe(cfg, out_dir, h_override):
    d, f, b = _build_problem(cfg, h_override)
    opts = _options(SolveOptions, cfg, "solve")
    rep = probe_nonexistence(d, f, b, opts)
    write_report({"action": "probe", "solve": asdict(rep),
                  "alarm_bound": opts.alarm_bound},
                 os.path.join(out_dir, "report.json"))
    return _EXIT[rep.status]


def _run_radial(cfg, out_dir, h_override):
    r = cfg.get("radial", {})
    mexpr, a = _need(r, "radial", m=str, a=float)
    m = radial.MonotoneRhs1D(mexpr, _get(r, "radial", "ell", float, 0.0))
    prof = radial.build_profile(
        m, a, _get(r, "radial", "prefactor", float, 1.0),
        n=_get(r, "radial", "n", int, 2000))
    radial.save_profile(prof, os.path.join(out_dir, "profile.csv"))
    resid = float(radial.ode_residual(prof, m).max())
    write_report({"action": "radial",
                  "profile": {"a": prof.a, "ell": prof.ell, "R": prof.R,
                              "prefactor": prof.prefactor,
                              "ode_residual": resid}},
                 os.path.join(out_dir, "report.json"))
    return 0


def _run_family(cfg, out_dir, h_override):
    fam = cfg.get("family", {})
    gamma, = _need(fam, "family", gamma=float)
    d, _, _ = _build_problem(cfg, h_override)
    k = _get(fam, "family", "k", int, 1)
    u, prof = radial.exact_family(gamma, k, d,
                                  n=_get(fam, "family", "n", int, 2000))
    write_field(u, os.path.join(out_dir, "field.csv"))
    radial.save_profile(prof, os.path.join(out_dir, "profile.csv"))
    write_report({"action": "family",
                  "family": {"gamma": gamma, "k": k, "a": prof.a,
                             "R": prof.R, "sup_norm": float(u.sup())}},
                 os.path.join(out_dir, "report.json"))
    return 0


def _run_criteria(cfg, out_dir, h_override):
    d, f, b = _build_problem(cfg, h_override)
    rep = _options(functools.partial(crit.CriteriaReport.of, f, b, d), cfg,
                   "criteria")
    write_report({"action": "criteria", "criteria": asdict(rep)},
                 os.path.join(out_dir, "report.json"))
    return 0


def _run_verify(cfg, out_dir, h_override):
    checks = cfg.get("verify", {}).get("checks", [])
    if not (isinstance(checks, list)
            and all(isinstance(chk, dict) for chk in checks)):
        raise ConfigError("verify.checks must be a list of JSON objects")
    d, f, b = _build_problem(cfg, h_override)
    opts = _options(SolveOptions, cfg, "solve")
    params = _options(SchemeParams, cfg, "scheme")
    u, rep = solve_dirichlet(d, f, b, opts, params)
    write_field(u, os.path.join(out_dir, "field.csv"))
    tol_check = 10.0 * opts.tol_for(b) + d.h
    results = []
    for chk in checks:
        kind, = _need(chk, "verify check", type=str)
        if kind not in _CHECK_KEYS:
            raise ConfigError("unknown check type: %r" % (kind,))
        where = "verify check %r" % kind
        _only(chk, where, {"type"} | _CHECK_KEYS[kind])
        if kind == "comparison":
            rhs2, mode = _need(chk, where, rhs2=str, mode=str)
            v, _ = solve_dirichlet(d, RhsSpec(rhs2), b, opts, params)
            res = ver.check_comparison(u, v, mode, tol_check)
        elif kind == "monotone-comparison":
            v = ScalarField.constant(d, *_need(chk, where, v_constant=float))
            res = ver.check_monotone_comparison(u, v, f, tol_check=tol_check)
        elif kind == "lipschitz":
            x0 = chk.get("x0")
            x0 = tuple(n // 2 for n in d.dims) if x0 in (None, "center") \
                else _get(chk, where, "x0", list, None)
            res = ver.lipschitz_bound(u, x0, _get(chk, where, "alpha",
                                                  float, 0.0), tol_check)
        elif kind == "harnack":
            hs, z, r = _need(chk, where, h_sup_plus=float, z=list, r=float)
            res = ver.check_harnack(u, hs, z, r, tol_check)
        else:   # apriori
            lo, hi = crit.apriori_range(
                f, b, d, _get(chk, where, "h_range", list, None))
            box = crit.apriori_box(lo, hi, b, d.out_in_radii()[0])
            res = ver.check_apriori(u, box, tol_check)
        results.append(res)
    write_report({"action": "verify", "solve": asdict(rep),
                  "checks": [r.to_dict() for r in results]},
                 os.path.join(out_dir, "report.json"))
    if any(r.status == "fail" for r in results):
        return 2
    return 0


_ACTIONS = {"solve": _run_solve, "perron": _run_perron,
            "probe": _run_probe, "radial": _run_radial,
            "family": _run_family, "criteria": _run_criteria,
            "verify": _run_verify}


def run(cfg, out_dir=".", h_override=None):
    """Execute a parsed config; returns the process exit code."""
    action = cfg.get("action")
    if action not in _ACTIONS:
        raise ConfigError("unknown or missing action: %r" % (action,))
    os.makedirs(out_dir, exist_ok=True)
    return _ACTIONS[action](cfg, out_dir, h_override)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="inflap",
        description="Numerical laboratory for the inhomogeneous "
                    "infinity-Laplace Dirichlet problem.")
    ap.add_argument("action", choices=sorted(_ACTIONS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=".")
    ap.add_argument("--h", type=float, default=None)
    args = ap.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        cfg["action"] = args.action
        return run(cfg, args.out, args.h)
    except (ConfigError, ValueError, OSError) as e:
        print("inflap: error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
