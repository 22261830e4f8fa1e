"""Post-hoc inequality checkers for computed fields.

Each checker reports a margin (worst slack, negative = violation) and a
witness node rather than a bare boolean, so that discretization noise
near an equality case stays visible.  Inputs are assumed certified by
the caller (converged, residual-checked) where the docstring says so.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .core import SIGMA


@dataclass
class CheckResult:
    """Outcome of one inequality check.

    `passed` holds exactly when margin >= -tol_check; `status` is one of
    "pass", "fail", "undetermined" (hypotheses could not be confirmed).
    """
    name: str
    passed: bool
    margin: float = None
    tol_check: float = 0.0
    witness: list = None
    status: str = "pass"
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _result(name, margin, tol_check, witness, details=None):
    passed = margin >= -tol_check
    return CheckResult(name=name, passed=passed, margin=float(margin),
                       tol_check=float(tol_check), witness=witness,
                       status="pass" if passed else "fail",
                       details=details or {})


def check_comparison(u, v, mode, tol_check=1e-6):
    """Boundary-dominance comparison: sup of (u - v) must sit on the boundary.

    mode is "strict-ordered-rhs" (right-hand sides strictly ordered) or
    "signed-rhs" (both sides share one sign); the caller asserts that the
    hypothesis holds and it is recorded in the result details.

    margin = sup over boundary of (u - v) minus sup over interior of (u - v).
    """
    if mode not in ("strict-ordered-rhs", "signed-rhs"):
        raise ValueError("unknown comparison mode: %r" % (mode,))
    if not u.same_domain(v):
        raise ValueError("comparison fields live on different domains")
    d = u.domain
    diff = u.values - v.values
    bd_sup = float(diff[d.boundary].max())
    if not d.interior.any():
        return _result("comparison", 0.0, tol_check, None, {"mode": mode})
    int_vals = diff[d.interior]
    i = int(np.argmax(int_vals))
    witness = [int(k) for k in np.argwhere(d.interior)[i]]
    margin = bd_sup - float(int_vals[i])
    return _result("comparison", margin, tol_check, witness, {"mode": mode})


def _zero_levels(f, span=1e6):
    """(l_lower, l_upper) delimiting the zero set of a nondecreasing f(t).

    l_upper = sup{a : f(a) <= 0}, l_lower = inf{a : f(a) >= 0}, found by
    bisection; +-inf when the sign never changes inside [-span, span].
    """
    def fval(t):
        from .core import eval_rhs
        return eval_rhs(f, None, t)

    def turn(pred):
        # where pred, false then true along [-span, span], turns true
        if pred(-span):
            return -np.inf
        if not pred(span):
            return np.inf
        lo, hi = -span, span
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if pred(mid):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    return turn(lambda t: fval(t) >= 0), turn(lambda t: fval(t) > 0)


def check_monotone_comparison(u, v, f, l_upper=None, l_lower=None,
                              tol_check=1e-6):
    """Comparison for a t-only nondecreasing right-hand side.

    Applies either the separated-boundary form (sup of u on the boundary
    below inf of v on the boundary) or the level form (u <= v on the
    boundary together with v >= l_upper or u <= l_lower there, where the
    l-levels delimit the zero set of f).  When neither hypothesis can be
    confirmed the check is skipped with status "undetermined".

    margin = min over interior of (v - u).
    """
    if not u.same_domain(v):
        raise ValueError("comparison fields live on different domains")
    if f.depends_on_x():
        raise ValueError("monotone comparison needs a t-only right-hand side")
    if f.monotone_in_t != "nondecreasing":
        raise ValueError("monotone comparison needs f nondecreasing in t")
    if l_upper is None or l_lower is None:
        zl, zu = _zero_levels(f)
        l_lower = zl if l_lower is None else l_lower
        l_upper = zu if l_upper is None else l_upper
    d = u.domain
    ub, vb = u.values[d.boundary], v.values[d.boundary]
    hyp = None
    if ub.max() <= vb.min() + tol_check:
        hyp = "separated-boundary"
    elif (ub <= vb + tol_check).all() and (
            vb.min() >= l_upper - tol_check
            or ub.max() <= l_lower + tol_check):
        hyp = "level"
    if hyp is None:
        return CheckResult(name="monotone-comparison", passed=False,
                           status="undetermined",
                           details={"reason": "no hypothesis applies",
                                    "l_lower": l_lower, "l_upper": l_upper})
    diff = (v.values - u.values)[d.interior]
    i = int(np.argmin(diff))
    witness = [int(k) for k in np.argwhere(d.interior)[i]]
    return _result("monotone-comparison", float(diff[i]), tol_check, witness,
                   {"hypothesis": hyp, "l_lower": l_lower, "l_upper": l_upper})


def lipschitz_bound(u, x0, alpha, tol_check=1e-6):
    """Interior Lipschitz estimate around one node.

    With M, m the field max/min, r the distance from x0 to the boundary,
    and diam the domain diameter, the constant is

        k = 2 (M - m) / r + 1 + |alpha| diam

    and every node pair inside the ball of radius r/3 about x0 must obey
    |u(x) - u(y)| <= k |x - y|.  margin = min slack over pairs; the check
    is undetermined when r/3 < 2h (ball too small to test on the grid).
    """
    d = u.domain
    x0 = np.asarray(x0)
    if x0.shape != (d.N,) or x0.dtype.kind not in "iu" \
            or (x0 < 0).any() or (x0 >= d.dims).any() \
            or not d.interior[tuple(x0)]:
        raise ValueError("x0 must be the %d integer indices of an interior "
                         "node" % d.N)
    idx = np.argwhere(d.nonexterior)
    pts = d.points(d.nonexterior)
    p0 = pts[(idx == x0).all(axis=1)][0]
    r = float(np.linalg.norm(d.points(d.boundary) - p0, axis=1).min())
    diam = 2.0 * d.radii()[0]
    M = u.sup()
    m = u.inf()
    k = 2.0 * (M - m) / r + 1.0 + abs(alpha) * diam
    if r / 3.0 < 2.0 * d.h:
        return CheckResult(name="lipschitz", passed=False,
                           status="undetermined",
                           details={"reason": "ball radius below 2h",
                                    "r": r, "k": k})
    dist0 = np.linalg.norm(pts - p0, axis=1)
    sel = dist0 <= r / 3.0
    pts, idx = pts[sel], idx[sel]
    vals = u.values[tuple(idx.T)]
    dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    slack = k * dmat - np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(slack, np.inf)
    i, j = np.unravel_index(int(np.argmin(slack)), slack.shape)
    witness = [[int(t) for t in idx[i]], [int(t) for t in idx[j]]]
    return _result("lipschitz", float(slack[i, j]), tol_check, witness,
                   {"k": k, "r": r})


def check_harnack(u, h_sup_plus, z, r, tol_check=1e-6):
    """Harnack inequality for a nonnegative supersolution.

    Over the grid nodes B within distance 2r/3 of z,

        margin = 9 inf_B u + 12 sigma (r^4 h_sup_plus)^(1/3) - sup_B u.

    Requires u >= 0 on the domain and the full ball of radius 2r about z
    to lie inside the domain (every grid node within 2r is non-exterior).
    """
    if h_sup_plus < 0:
        raise ValueError("h_sup_plus must be >= 0")
    if r <= 0:
        raise ValueError("r must be positive")
    d = u.domain
    if (u.values[d.nonexterior] < 0).any():
        raise ValueError("Harnack check needs u >= 0 on the domain")
    z = np.asarray(z, dtype=float)
    if z.shape != (d.N,):
        raise ValueError("z must have %d coordinates" % d.N)
    dist = np.linalg.norm(d.points() - z, axis=-1).reshape(d.dims)
    if (dist <= 2.0 * r)[~d.nonexterior].any():
        raise ValueError("ball of radius 2r about z leaves the domain")
    inner = (dist <= 2.0 * r / 3.0) & d.nonexterior
    if not inner.any():
        raise ValueError("no grid nodes inside the Harnack ball")
    bvals = u.values[inner]
    margin = (9.0 * float(bvals.min())
              + 12.0 * SIGMA * (r ** 4 * h_sup_plus) ** (1.0 / 3.0)
              - float(bvals.max()))
    i = int(np.argmax(bvals))
    witness = [int(k) for k in np.argwhere(inner)[i]]
    return _result("harnack", margin, tol_check, witness,
                   {"r": r, "h_sup_plus": h_sup_plus})


def check_apriori(u, box, tol_check=1e-6):
    """Two-sided bound check: the field must stay inside the given box.

    margin = min(min u - lower, upper - max u).
    """
    lower, upper = box
    lo_m = u.inf() - lower
    hi_m = upper - u.sup()
    d = u.domain
    vals = u.values[d.nonexterior]
    if lo_m <= hi_m:
        i = int(np.argmin(vals))
    else:
        i = int(np.argmax(vals))
    witness = [int(k) for k in np.argwhere(d.nonexterior)[i]]
    return _result("apriori", float(min(lo_m, hi_m)), tol_check, witness,
                   {"lower": lower, "upper": upper})
