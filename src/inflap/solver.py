"""Gauss-Seidel Dirichlet solver and Perron-style monotone iteration.

The local update solves the scalar equation S(t) * phat^2 = f(x, t) at one
node, with phat frozen from the current iterate and S the second difference
along the currently steepest pair.  Division by phat^2 is guarded by a
scale-aware floor: p_floor^2 = (eps * |f|)^(2/3) / (2 sigma), so that a
flat iterate grows by sigma |f|^(1/3) eps^(4/3) per step, the growth rate
of the exact cone solution across one stencil arm, instead of exploding.
For x-only f the update has a closed form; for t-dependent f it is found
by a bracketed, safeguarded Newton solve (`_local_solve`).  Where the
bracket search finds no sign change (the local blow-up mechanism) the
update is the bracket edge, which the alarm check then catches; such
nodes are counted in `SolveReport.bracket_failures`.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import SIGMA, RhsSpec, ScalarField
from .scheme import SchemeParams, Stencil, _select, _steepest

# a local-solve step this small relative to 1 + |t| is rounding noise
_STEP_TOL = 4.0 * np.finfo(float).eps


@dataclass
class SolveOptions:
    """Iteration knobs for the Dirichlet and Perron solvers."""
    max_sweeps: int = 100000
    tol: float = None            # default 1e-8 * (1 + sup|b|)
    damping: float = None        # default 1.0, or 0.5 for t-dependent f
    order: str = "red-black"     # or "lexicographic"
    alarm_bound: float = None

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.tol is not None and self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.order not in ("red-black", "lexicographic"):
            raise ValueError("unknown sweep order %r" % self.order)


@dataclass
class SolveReport:
    status: str                  # converged | max_sweeps_reached | diverged_past_alarm
    sweeps: int
    residual: float
    sup: float
    inf: float
    monotone: bool
    clipped: bool = False
    bracket_failures: int = 0    # local solves that found no sign change


def _phat2_eff(phat, eps, fscale, delta_reg):
    floor = (eps * np.abs(fscale)) ** (2.0 / 3.0) / (2.0 * SIGMA)
    return np.maximum(np.maximum(phat ** 2, floor), delta_reg)


def _at(coefs, flat):
    """Coefficient values at the nodes with flat grid indices `flat`."""
    return {k: v.take(flat) if np.ndim(v) else v for k, v in coefs.items()}


def _local_solve(g, lo, hi, t0):
    """Safeguarded Newton solve of g(t) = 0, one equation per node.

    `g(t)` gives g on the node array t and `g(t, dt=True)` the pair
    (g, dg/dt).  The bracket [lo, hi] is first widened, by doubling
    steps, until g(lo) <= 0 <= g(hi) (at most 60 widenings).  Newton then
    starts from t0 clipped into the bracket.  Each step shrinks the
    bracket by the sign of g, and a step that leaves the bracket (its
    ends count as inside), is not finite or comes from a slope that is
    not finite becomes a bisection step.  A step shorter than the
    rounding level h = 4 eps (1 + |t|) is lengthened to h, so that near
    a root the bracket closes; a node stops, at the step from its last
    point, once g vanishes there or the bracket is at most 2 h wide, and
    after at most 100 steps.  A node where no sign change was found
    (f outgrowing the linear term, the local blow-up mechanism) returns
    the bracket edge on the side where g has the wrong sign, hi first.

    Returns
    -------
    (t, failed) : ndarray roots and the mask of nodes without sign change
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        span = 1.0
        # 60 widenings, each followed by a check
        for k in range(61):
            bad_lo = g(lo) > 0
            bad_hi = g(hi) < 0
            failed = bad_lo | bad_hi
            if k == 60 or not failed.any():
                break
            span *= 2.0
            lo = np.where(bad_lo, lo - span, lo)
            hi = np.where(bad_hi, hi + span, hi)
        edge = np.where(bad_hi, hi, lo)
        t = np.clip(t0, lo, hi)
        live = ~failed
        for _ in range(100):
            if not live.any():
                break
            gt, dg = g(t, dt=True)
            up = gt > 0
            hi = np.where(up, t, hi)
            lo = np.where(up, lo, t)
            # off an exact root, an infinite or zero slope (e.g. (pow t g),
            # g < 1, at t = 0) gives no Newton step: bisect instead
            step = np.where(gt == 0, 0.0, gt / dg)
            newton = np.isfinite(step) & (np.isfinite(dg) | (gt == 0))
            tn = np.where(newton, t - step, np.nan)
            tn = np.where((tn >= lo) & (tn <= hi), tn, 0.5 * (lo + hi))
            h = _STEP_TOL * (1.0 + np.abs(t))
            done = (gt == 0) | (hi - lo <= 2.0 * h)
            # a step below rounding level is no proof of a root (a huge
            # slope far from it gives one too): step h toward the root,
            # which closes the bracket if the root is that near; t is a
            # bracket end and the other end is over 2 h away
            short = ~done & (np.abs(tn - t) < h)
            tn = np.where(short, np.where(up, t - h, t + h), tn)
            t = np.where(live, tn, t)
            live &= ~done
    return np.where(failed, edge, t), failed


class _Sweeper:
    """Vectorized colored Gauss-Seidel machinery shared by the solvers.

    `tables` holds the gather tables of the update groups in sweep order:
    the two colors, or one per node in lexicographic order.  Implicit
    solves bracket at the iterate's range +- 1, or in lexicographic order
    at u0 +- 1, and count failures in both orders.
    """

    def __init__(self, domain, f, stencil, opts):
        self.domain = domain
        self.f = f
        self.stencil = stencil
        # undamped colored sweeps can enter a period-2 cycle when f
        # depends on t (the frozen slope couples neighboring updates),
        # so a t-dependent f defaults to averaging damping
        self.theta = opts.damping if opts.damping is not None \
            else (0.5 if f.depends_on_t else 1.0)
        self.interior = stencil.interior
        self.sequential = opts.order == "lexicographic"
        if self.sequential:
            self.tables = [self.interior.part(i)
                           for i in range(self.interior.flat.size)]
        else:
            parity = np.indices(domain.dims).sum(axis=0) % 2
            self.tables = [stencil.gather(domain.interior & (parity == c))
                           for c in (0, 1)]
        self.bracket_failures = 0
        if not f.depends_on_t:
            self.fx0 = f.eval_grid(domain, np.zeros(domain.dims))
        else:
            # coefficient values, resolved once per solve
            self.coefs = f.coef_grid(domain)

    def _candidate(self, values, tab):
        """Candidate values at the nodes of a gather table, in its order."""
        st = self.stencil
        arm_p, arm_m, c0, csum, eps = st.pair_arrays(values, tab)
        k, pick, phat = _select(arm_p, arm_m, eps)
        A = arm_p.take(pick) + arm_m.take(pick) - 2.0 * csum.take(pick)
        eps_s, c0_s = eps[k], c0[k]
        if not self.f.depends_on_t:
            fx = self.fx0.take(tab.flat)
            p2 = _phat2_eff(phat, eps_s, fx, st.params.delta_reg)
            return (A - eps_s ** 2 * fx / p2) / (2.0 * c0_s)
        u0 = values.take(tab.flat)
        if self.sequential:
            lo, hi = u0 - 1.0, u0 + 1.0
        else:
            vals = values[self.domain.nonexterior]
            lo = np.full(u0.shape, vals.min() - 1.0)
            hi = np.full(u0.shape, vals.max() + 1.0)
        t, failed = self._implicit(u0, A, phat, eps_s, c0_s,
                                   _at(self.coefs, tab.flat), lo, hi)
        self.bracket_failures += int(failed.sum())
        return t

    def _implicit(self, u0, A, phat, eps_s, c0_s, coefs, lo, hi):
        """Implicit local update at a set of nodes (1-D arrays).

        Solves 2 c0 t - A + eps^2 f(x, t) / p2 = 0 by `_local_solve`
        from the bracket [lo, hi], warm-started at the current values u0,
        with the gradient floor p2 frozen at the incoming value; at a
        Gauss-Seidel fixed point the frozen floor equals the current one,
        so fp_residual vanishes there.  Returns (t, failed) as
        `_local_solve` does.
        """
        f = self.f
        p2 = _phat2_eff(phat, eps_s, f.eval_nodes(u0, coefs),
                        self.stencil.params.delta_reg)
        eps2 = eps_s ** 2

        def g(t, dt=False):
            if not dt:
                return 2.0 * c0_s * t - A + eps2 * f.eval_nodes(t, coefs) / p2
            ft, dft = f.eval_nodes(t, coefs, dt=True)
            return 2.0 * c0_s * t - A + eps2 * ft / p2, \
                2.0 * c0_s + eps2 * dft / p2

        return _local_solve(g, lo, hi, u0)

    def fp_residual(self, values):
        """Sup-norm of the regularized residual S * phat2_eff - f.

        This is the residual of the equation the local update actually
        solves; it vanishes at the Gauss-Seidel fixed point even at nodes
        where the discrete gradient degenerates (e.g. interior extrema,
        where the raw S * phat^2 residual cannot go below |f|).
        """
        S, phat, eps_s = _steepest(values, self.stencil, self.interior)
        with np.errstate(invalid="ignore"):
            fx = self.f.eval_grid(self.domain, values) \
                if self.f.depends_on_t else self.fx0
        fx = fx.take(self.interior.flat)
        p2 = _phat2_eff(phat, eps_s, fx, self.stencil.params.delta_reg)
        return float(np.abs(S * p2 - fx).max())

    def half_sweep(self, values, tab, only_up=False, cap=None):
        t = self._candidate(values, tab)
        old = values.take(tab.flat)
        new = old + self.theta * (t - old)
        if only_up:
            new = np.maximum(old, new)
        clipped = False
        if cap is not None:
            top = cap.take(tab.flat)
            clipped = bool((new > top + 1e-12).any())
            new = np.minimum(new, top)
        values.put(tab.flat, new)
        return clipped

    def full_sweep(self, values, only_up=False, cap=None):
        """One sweep: each update group of `tables` in turn."""
        clipped = False
        for tab in self.tables:
            clipped |= self.half_sweep(values, tab, only_up=only_up, cap=cap)
        return clipped


def local_update(node, u, f, s, p=None):
    """Solve the local scalar equation at one interior node.

    Returns the value t with (u+ - 2t~ + u-) * phat^2 / eps^2 = f(x, t),
    where t~ is t adjusted by the stencil's center correction and phat is
    frozen from the current iterate.
    """
    node = tuple(node)
    if u.domain.mask[node] != 2:
        raise ValueError("local_update needs an interior node")
    opts = SolveOptions(damping=1.0, order="lexicographic")
    sw = _Sweeper(u.domain, f, s, opts)
    t = float(sw._candidate(u.values, s.gather(node))[0])
    if sw.bracket_failures:
        raise ValueError("bracket failure in local update")
    return t


def _init_harmonic(domain, b, stencil, opts, tol):
    f0 = RhsSpec("(const 0)")
    vals = np.full(domain.dims, np.nan)
    vals[domain.boundary] = b.values[domain.boundary]
    vals[domain.interior] = 0.5 * (b.ell + b.L)
    sw = _Sweeper(domain, f0, stencil, replace(opts, damping=1.0))
    for _ in range(opts.max_sweeps):
        sw.full_sweep(vals)
        if sw.fp_residual(vals) <= tol:
            break
    return vals


def solve_dirichlet(d, f, b, opts=None, params=None, initial_guess=None):
    """Gauss-Seidel solve of Delta_inf u = f(x, u), u = b on the boundary.

    The initial guess is the f == 0 solve of the same boundary data unless
    `initial_guess` (a ScalarField) is supplied.

    Returns
    -------
    (ScalarField, SolveReport)
    """
    opts = opts or SolveOptions()
    params = params or SchemeParams()
    stencil = Stencil(d, params)
    tol = opts.tol if opts.tol is not None \
        else 1e-8 * (1.0 + max(abs(b.ell), abs(b.L)))
    if initial_guess is not None:
        vals = initial_guess.values.copy()
        vals[d.boundary] = b.values[d.boundary]
    else:
        vals = _init_harmonic(d, b, stencil, opts, tol)
    sw = _Sweeper(d, f, stencil, opts)
    status = "max_sweeps_reached"
    sweeps = opts.max_sweeps
    res_sup = np.inf
    for it in range(1, opts.max_sweeps + 1):
        sw.full_sweep(vals)
        res_sup = sw.fp_residual(vals)
        if opts.alarm_bound is not None \
                and np.abs(vals[d.nonexterior]).max() > opts.alarm_bound:
            status, sweeps = "diverged_past_alarm", it
            break
        if res_sup <= tol:
            status, sweeps = "converged", it
            break
    u = ScalarField(d, vals)
    rep = SolveReport(status, sweeps, res_sup, u.sup(), u.inf(),
                      monotone=False, bracket_failures=sw.bracket_failures)
    return u, rep


def perron_solve(d, f, b, sub, super_, opts=None, params=None):
    """Monotone nondecreasing iteration from a sub-solution.

    Starts at `sub`, applies each local update only when it increases the
    value, and clips at `super_` (pass None for an unbounded probe).  On
    convergence the field sits between sub and super.
    """
    opts = opts or SolveOptions()
    params = params or SchemeParams()
    stencil = Stencil(d, params)
    tol = opts.tol if opts.tol is not None \
        else 1e-8 * (1.0 + max(abs(b.ell), abs(b.L)))
    ne = d.nonexterior
    bd = d.boundary
    if super_ is not None:
        if (sub.values[ne] > super_.values[ne] + 1e-12).any():
            raise ValueError("ordering violated: sub > super somewhere")
        if (b.values[bd] > super_.values[bd] + 1e-12).any():
            raise ValueError("ordering violated: b > super on the boundary")
    if (sub.values[bd] > b.values[bd] + 1e-12).any():
        raise ValueError("ordering violated: sub > b on the boundary")
    vals = sub.values.copy()
    vals[bd] = b.values[bd]
    cap = super_.values if super_ is not None else None
    floor_vals = sub.values
    sw = _Sweeper(d, f, stencil, opts)
    status = "max_sweeps_reached"
    sweeps = opts.max_sweeps
    res_sup = np.inf
    clipped = False
    monotone = True
    # Phase 1 realizes the sup-over-sub-solutions construction as a pure
    # ascent.  The local update is not monotone in the neighbor values
    # (the division by the squared slope breaks it), so the ascent can
    # lock in a transient overshoot and stall above the fixed point;
    # when the upward motion dies out with the residual still large, a
    # plain clamped sweep phase finishes the job inside [sub, super].
    ascent = True
    for it in range(1, opts.max_sweeps + 1):
        prev = vals.copy()
        if ascent:
            clipped = sw.full_sweep(vals, only_up=True, cap=cap)
            if (vals[ne] < prev[ne] - 1e-12).any():
                raise ValueError("Perron iterate decreased (internal error)")
        else:
            clipped = sw.full_sweep(vals, cap=cap)
            np.maximum(vals, floor_vals, out=vals)
            if (vals[ne] < prev[ne] - 1e-12).any():
                monotone = False
        if opts.alarm_bound is not None \
                and vals[d.interior].max() > opts.alarm_bound:
            status, sweeps = "diverged_past_alarm", it
            break
        res_sup = sw.fp_residual(vals)
        if res_sup <= tol:
            status, sweeps = "converged", it
            break
        if ascent and np.abs(vals[ne] - prev[ne]).max() < tol:
            ascent = False
    u = ScalarField(d, vals)
    rep = SolveReport(status, sweeps, res_sup, u.sup(), u.inf(),
                      monotone=monotone,
                      clipped=clipped and status == "converged",
                      bracket_failures=sw.bracket_failures)
    return u, rep


def probe_nonexistence(d, f, b, opts):
    """Unbounded Perron probe: blow-up evidence for the non-existence regime.

    Runs the only-increase iteration from the constant sub-solution at the
    boundary infimum with no upper clipping; crossing opts.alarm_bound is
    reported as diverged_past_alarm (a result, not an error).
    """
    if opts.alarm_bound is None:
        raise ValueError("probe_nonexistence needs alarm_bound set")
    sub = ScalarField.constant(d, b.ell)
    _, rep = perron_solve(d, f, b, sub, None, opts)
    return rep
