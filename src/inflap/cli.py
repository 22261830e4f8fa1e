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
import json
from dataclasses import asdict, fields
import operator
import os
import sys

import numpy as np

from .core import BoundaryTrace, RhsSpec, ScalarField, build_domain, rhs_range
from .scheme import SchemeParams
from .solver import (SolveOptions, perron_solve, probe_nonexistence,
                     solve_dirichlet)
from . import criteria as crit
from . import radial
from . import verify as ver


class ConfigError(ValueError):
    pass


_SECTION_KEYS = {
    "": {"problem", "action", "scheme", "solve", "perron", "radial",
         "family", "criteria", "verify"},
    "problem": {"domain", "h", "rhs", "rhs_coefs", "rhs_sign",
                "rhs_monotone", "boundary"},
    "problem.domain": {"kind", "center", "R", "lo", "hi", "path"},
    "problem.boundary": {"constant", "expression"},
    "scheme": {f.name for f in fields(SchemeParams)},
    "solve": {f.name for f in fields(SolveOptions)},
    "perron": {"sub", "super"},
    "perron.sub": {"constant", "cone", "power"},
    "perron.super": {"constant", "cone", "power"},
    "radial": {"m", "ell", "a", "prefactor", "n"},
    "family": {"gamma", "k", "n"},
    "criteria": {"eta_list", "m", "h_range", "a_sup", "eigen"},
    "verify": {"checks"},
}


def _check_keys(obj, section):
    """Every section a JSON object, with only its known keys."""
    where = section or "top level"
    if not isinstance(obj, dict):
        raise ConfigError("%s must be a JSON object" % where)
    for key in obj:
        if key not in _SECTION_KEYS[section]:
            raise ConfigError("unknown key %r in %s" % (key, where))
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


def _build_problem(cfg, h_override):
    prob = cfg.get("problem")
    if prob is None:
        raise ConfigError("this action needs a problem section")
    if "domain" not in prob or "h" not in prob and h_override is None:
        raise ConfigError("problem needs domain and h")
    h = h_override if h_override is not None else prob["h"]
    d = build_domain(prob["domain"], h)
    f = RhsSpec(prob.get("rhs", "(const 0)"),
                coefs=prob.get("rhs_coefs"),
                sign=prob.get("rhs_sign"),
                monotone_in_t=prob.get("rhs_monotone"))
    bspec = prob.get("boundary", {"constant": 0.0})
    if "constant" in bspec:
        b = BoundaryTrace.constant(d, float(bspec["constant"]))
    else:
        b = BoundaryTrace.from_function(d, _coord_fn(bspec["expression"], d.N))
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


def _field_from_spec(spec, d, b):
    if "constant" in spec:
        return ScalarField.constant(d, float(spec["constant"]))
    if "cone" in spec:
        c = spec["cone"]
        return radial.cone_field(d, c["C"], c["z"], c["d"], c["orientation"])
    if "power" in spec:
        p = spec["power"]
        return radial.power_subsolution(p["gamma"], p["R"], d)
    raise ConfigError("unknown field spec in perron section")


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
        x = float(obj)
        out.append(json.dumps("inf" if np.isinf(x) and x > 0 else
                              "-inf" if np.isinf(x) else None)
                   if not np.isfinite(x) else _fmt(x))
    else:
        out.append(json.dumps(obj))


def write_report(report, path):
    out = []
    _dump_json(report, out)
    with open(path, "w") as fh:
        fh.write("".join(out) + "\n")


def write_field(u, path):
    d = u.domain
    idx = np.argwhere(d.nonexterior)
    pts = idx * d.h + d.origin
    with open(path, "w") as fh:
        fh.write(",".join("x%d" % j for j in range(d.N)) + ",value\n")
        for p, i in zip(pts, idx):
            row = [_fmt(c) for c in p] + [_fmt(u.values[tuple(i)])]
            fh.write(",".join(row) + "\n")


# exit codes of the iterative actions; 1 stays for usage and config errors
_EXIT = {"converged": 0, "diverged_past_alarm": 3, "max_sweeps_reached": 4}


def _run_solve(cfg, out_dir, h_override):
    d, f, b = _build_problem(cfg, h_override)
    u, rep = solve_dirichlet(d, f, b, SolveOptions(**cfg.get("solve", {})),
                             SchemeParams(**cfg.get("scheme", {})))
    write_field(u, os.path.join(out_dir, "field.csv"))
    write_report({"action": "solve", "solve": asdict(rep)},
                 os.path.join(out_dir, "report.json"))
    return _EXIT[rep.status]


def _run_perron(cfg, out_dir, h_override):
    d, f, b = _build_problem(cfg, h_override)
    pspec = cfg.get("perron", {})
    if "sub" not in pspec:
        raise ConfigError("perron action needs perron.sub")
    sub = _field_from_spec(pspec["sub"], d, b)
    super_ = _field_from_spec(pspec["super"], d, b) \
        if "super" in pspec else None
    u, rep = perron_solve(d, f, b, sub, super_,
                          SolveOptions(**cfg.get("solve", {})),
                          SchemeParams(**cfg.get("scheme", {})))
    write_field(u, os.path.join(out_dir, "field.csv"))
    write_report({"action": "perron", "solve": asdict(rep)},
                 os.path.join(out_dir, "report.json"))
    return _EXIT[rep.status]


def _run_probe(cfg, out_dir, h_override):
    d, f, b = _build_problem(cfg, h_override)
    opts = SolveOptions(**cfg.get("solve", {}))
    rep = probe_nonexistence(d, f, b, opts)
    write_report({"action": "probe", "solve": asdict(rep),
                  "alarm_bound": opts.alarm_bound},
                 os.path.join(out_dir, "report.json"))
    return _EXIT[rep.status]


def _run_radial(cfg, out_dir, h_override):
    r = cfg.get("radial")
    if r is None or "m" not in r or "a" not in r:
        raise ConfigError("radial action needs radial.m and radial.a")
    m = radial.MonotoneRhs1D(r["m"], r.get("ell", 0.0))
    prof = radial.build_profile(m, r["a"], r.get("prefactor", 1.0),
                                n=r.get("n", 2000))
    radial.save_profile(prof, os.path.join(out_dir, "profile.csv"))
    resid = float(radial.ode_residual(prof, m).max())
    write_report({"action": "radial",
                  "profile": {"a": prof.a, "ell": prof.ell, "R": prof.R,
                              "prefactor": prof.prefactor,
                              "ode_residual": resid}},
                 os.path.join(out_dir, "report.json"))
    return 0


def _run_family(cfg, out_dir, h_override):
    fam = cfg.get("family")
    if fam is None or "gamma" not in fam:
        raise ConfigError("family action needs family.gamma")
    d, _, _ = _build_problem(cfg, h_override)
    gamma, k = fam["gamma"], fam.get("k", 1)
    u, prof = radial.exact_family(gamma, k, d, n=fam.get("n", 2000))
    write_field(u, os.path.join(out_dir, "field.csv"))
    radial.save_profile(prof, os.path.join(out_dir, "profile.csv"))
    write_report({"action": "family",
                  "family": {"gamma": gamma, "k": k, "a": prof.a,
                             "R": prof.R, "sup_norm": float(u.sup())}},
                 os.path.join(out_dir, "report.json"))
    return 0


def _run_criteria(cfg, out_dir, h_override):
    d, f, b = _build_problem(cfg, h_override)
    copt = cfg.get("criteria", {})
    rr = d.radii()
    out_r, in_r = rr[0], rr[2]
    exact = d.exact_radii()
    if exact is not None:
        out_r, in_r = exact
    rep = crit.CriteriaReport(ell=b.ell, L=b.L)
    for eta in copt.get("eta_list", [0.1, 1.0, 3.0, 10.0]):
        val = crit.c_eta(f, b.ell, b.L, eta, d)
        rep.c_eta_table.append((float(eta), float(val)))
    rep.diam_threshold = crit.diam_threshold(f, b.ell, b.L, d)
    rep.diam_actual = 2.0 * out_r
    rep.in_radius_actual = in_r
    rep.verdicts.append({
        "theorem": "diameter-threshold-existence",
        "status": "applies" if rep.diam_actual < rep.diam_threshold
        else "fails",
        "details": "diameter %s vs threshold %s"
        % (_fmt(rep.diam_actual), "inf" if np.isinf(rep.diam_threshold)
           else _fmt(rep.diam_threshold))})
    if "m" in copt or (not f.depends_on_x() and f.monotone_in_t):
        mexpr = copt.get("m", f.expression)
        try:
            m = radial.MonotoneRhs1D(mexpr, b.ell)
            M_f = crit.nonexistence_radius(m)
            rep.M_f = M_f * np.sqrt(2.0)
            rep.nonexistence_radius = M_f
            if np.isinf(M_f):
                status = "undetermined"
            else:
                status = "applies" if in_r > M_f else "fails"
            rep.verdicts.append({
                "theorem": "nonexistence-radius",
                "status": status,
                "details": "in-radius %s vs radius %s"
                % (_fmt(in_r), "inf" if np.isinf(M_f) else _fmt(M_f))})
        except ValueError as e:
            rep.nonexistence_radius_skipped = str(e)
        rep.dd3 = crit.dd3_check(f, b.ell, d)
    hr = copt.get("h_range")
    if hr is None:
        hr = rhs_range(f, (b.ell, b.L), d)
    rep.apriori_box = crit.apriori_box(hr[0], hr[1], b, out_r)
    gc = crit.growth_class(f, b.ell, b.L, out_r, d)
    rep.growth = gc
    rep.verdicts.append({
        "theorem": "growth-apriori",
        "status": "applies" if gc.applicable else "undetermined",
        "details": "beta_est %s alpha_est %s"
        % (_fmt(gc.beta_est), _fmt(gc.alpha_est))})
    if "a_sup" in copt:
        a_sup = copt["a_sup"]
        flag, M_bound, verdict = crit.cubic_smallness(a_sup, out_r, b)
        rep.cubic = (flag, M_bound, verdict)
        rep.verdicts.append({
            "theorem": "cubic-smallness-uniqueness",
            "status": "applies" if flag else "fails",
            "details": verdict})
        if copt.get("eigen", False):
            a_field = ScalarField.constant(d, a_sup)
            rep.eigen = crit.eigen_bracket(a_field, d)
    write_report({"action": "criteria", "criteria": rep.to_dict()},
                 os.path.join(out_dir, "report.json"))
    return 0


def _run_verify(cfg, out_dir, h_override):
    d, f, b = _build_problem(cfg, h_override)
    opts = SolveOptions(**cfg.get("solve", {}))
    params = SchemeParams(**cfg.get("scheme", {}))
    u, rep = solve_dirichlet(d, f, b, opts, params)
    write_field(u, os.path.join(out_dir, "field.csv"))
    tol_check = 10.0 * opts.tol_for(b) + d.h
    results = []
    for chk in cfg.get("verify", {}).get("checks", []):
        kind = chk.get("type")
        extra = {k: v for k, v in chk.items() if k != "type"}
        if kind == "comparison":
            f2 = RhsSpec(extra["rhs2"])
            v, _ = solve_dirichlet(d, f2, b, opts, params)
            res = ver.check_comparison(u, v, extra["mode"], tol_check)
        elif kind == "monotone-comparison":
            v = ScalarField.constant(d, extra["v_constant"])
            res = ver.check_monotone_comparison(u, v, f, tol_check=tol_check)
        elif kind == "lipschitz":
            x0 = extra.get("x0")
            if x0 is None or x0 == "center":
                x0 = tuple(n // 2 for n in d.dims)
            res = ver.lipschitz_bound(u, x0, extra.get("alpha", 0.0),
                                      tol_check)
        elif kind == "harnack":
            res = ver.check_harnack(u, extra["h_sup_plus"], extra["z"],
                                    extra["r"], tol_check)
        elif kind == "apriori":
            exact = d.exact_radii()
            out_r = exact[0] if exact is not None else d.radii()[0]
            hr = extra.get("h_range")
            if hr is None:
                hr = rhs_range(f, (b.ell, b.L), d)
            box = crit.apriori_box(hr[0], hr[1], b, out_r)
            res = ver.check_apriori(u, box, tol_check)
        else:
            raise ConfigError("unknown check type: %r" % (kind,))
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
