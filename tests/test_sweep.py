"""The fused sweep against a reference that gathers for every update.

The solver reads the steepest pairs twice per sweep: once for the second
update group and once, over the whole interior, for the residual, whose
data at the first group's nodes feeds the next sweep's first update.  The
reference below gathers once per group and once more for the residual,
from the public kernel (`Stencil.pair_arrays`, `scheme._select`,
`scheme._steepest`); every field, residual, status and count must match
it bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from inflap import (
    BoundaryTrace,
    RhsSpec,
    ScalarField,
    SchemeParams,
    SolveOptions,
    Stencil,
    build_domain,
    perron_solve,
    probe_nonexistence,
    solve_dirichlet,
)
from inflap.core import SIGMA
from inflap.scheme import _select, _steepest
from inflap.solver import _local_solve


def _p2(phat, eps, fx, delta_reg):
    floor = (eps * np.abs(fx)) ** (2.0 / 3.0) / (2.0 * SIGMA)
    return np.maximum(np.maximum(phat ** 2, floor), delta_reg)


class _RefSweeper:
    """Colored Gauss-Seidel that gathers afresh for every update."""

    def __init__(self, d, f, st, opts):
        self.d, self.f, self.st = d, f, st
        self.theta = opts.damping if opts.damping is not None \
            else (0.5 if f.depends_on_t else 1.0)
        self.seq = opts.order == "lexicographic"
        if self.seq:
            self.tables = [st.gather(tuple(i))
                           for i in np.argwhere(d.interior)]
        else:
            parity = np.indices(d.dims).sum(axis=0) % 2
            self.tables = [st.gather(d.interior & (parity == c))
                           for c in (0, 1)]
        self.failures = 0
        self.fx0 = f.eval_grid(d, np.zeros(d.dims))
        self.coefs = f.coef_grid(d)

    def candidate(self, values, tab):
        f, delta = self.f, self.st.params.delta_reg
        arm_p, arm_m, c0, csum, eps = self.st.pair_arrays(values, tab)
        k, pick, phat = _select(arm_p, arm_m, eps)
        A = arm_p.take(pick) + arm_m.take(pick) - 2.0 * csum.take(pick)
        eps_s, c0_s = eps[k], c0[k]
        if not f.depends_on_t:
            fx = self.fx0.take(tab.flat)
            p2 = _p2(phat, eps_s, fx, delta)
            return (A - eps_s ** 2 * fx / p2) / (2.0 * c0_s)
        u0 = values.take(tab.flat)
        coefs = {n: v.take(tab.flat) if np.ndim(v) else v
                 for n, v in self.coefs.items()}
        if self.seq:
            lo, hi = u0 - 1.0, u0 + 1.0
        else:
            vals = values[self.d.nonexterior]
            lo = np.full(u0.shape, vals.min() - 1.0)
            hi = np.full(u0.shape, vals.max() + 1.0)
        p2 = _p2(phat, eps_s, f.eval_nodes(u0, coefs), delta)
        eps2 = eps_s ** 2

        def g(t, dt=False):
            if not dt:
                return 2.0 * c0_s * t - A + eps2 * f.eval_nodes(t, coefs) / p2
            ft, dft = f.eval_nodes(t, coefs, dt=True)
            return 2.0 * c0_s * t - A + eps2 * ft / p2, \
                2.0 * c0_s + eps2 * dft / p2

        t, failed = _local_solve(g, lo, hi, u0)
        self.failures += int(failed.sum())
        return t

    def residual(self, values):
        S, phat, eps_s = _steepest(values, self.st, self.st.interior)
        with np.errstate(invalid="ignore"):
            fx = self.f.eval_grid(self.d, values) if self.f.depends_on_t \
                else self.fx0
        fx = fx.take(self.st.interior.flat)
        p2 = _p2(phat, eps_s, fx, self.st.params.delta_reg)
        return float(np.abs(S * p2 - fx).max())

    def sweep(self, values, only_up=False, cap=None):
        clipped = False
        for tab in self.tables:
            old = values.take(tab.flat)
            new = old + self.theta * (self.candidate(values, tab) - old)
            if only_up:
                new = np.maximum(old, new)
            if cap is not None:
                top = cap.take(tab.flat)
                clipped |= bool((new > top + 1e-12).any())
                new = np.minimum(new, top)
            values.put(tab.flat, new)
        return clipped


def _tol(opts, b):
    return opts.tol if opts.tol is not None \
        else 1e-8 * (1.0 + max(abs(b.ell), abs(b.L)))


def _ref_dirichlet(d, f, b, opts, params):
    st = Stencil(d, params)
    tol = _tol(opts, b)
    vals = np.full(d.dims, np.nan)
    vals[d.boundary] = b.values[d.boundary]
    vals[d.interior] = 0.5 * (b.ell + b.L)
    sw = _RefSweeper(d, RhsSpec("(const 0)"), st, replace(opts, damping=1.0))
    for _ in range(opts.max_sweeps):
        sw.sweep(vals)
        if sw.residual(vals) <= tol:
            break
    sw = _RefSweeper(d, f, st, opts)
    status, sweeps, res = "max_sweeps_reached", opts.max_sweeps, np.inf
    for it in range(1, opts.max_sweeps + 1):
        sw.sweep(vals)
        res = sw.residual(vals)
        if opts.alarm_bound is not None \
                and np.abs(vals[d.nonexterior]).max() > opts.alarm_bound:
            status, sweeps = "diverged_past_alarm", it
            break
        if res <= tol:
            status, sweeps = "converged", it
            break
    return vals, dict(status=status, sweeps=sweeps, residual=res,
                      monotone=False, clipped=False,
                      bracket_failures=sw.failures)


def _ref_perron(d, f, b, sub, super_, opts, params):
    sw = _RefSweeper(d, f, Stencil(d, params), opts)
    tol = _tol(opts, b)
    ne = d.nonexterior
    vals = sub.values.copy()
    vals[d.boundary] = b.values[d.boundary]
    cap = super_.values if super_ is not None else None
    status, sweeps, res = "max_sweeps_reached", opts.max_sweeps, np.inf
    clipped, monotone, ascent = False, True, True
    for it in range(1, opts.max_sweeps + 1):
        prev = vals.copy()
        if ascent:
            clipped = sw.sweep(vals, only_up=True, cap=cap)
        else:
            clipped = sw.sweep(vals, cap=cap)
            np.maximum(vals, sub.values, out=vals)
            if (vals[ne] < prev[ne] - 1e-12).any():
                monotone = False
        if opts.alarm_bound is not None \
                and vals[d.interior].max() > opts.alarm_bound:
            status, sweeps = "diverged_past_alarm", it
            break
        res = sw.residual(vals)
        if res <= tol:
            status, sweeps = "converged", it
            break
        if ascent and np.abs(vals[ne] - prev[ne]).max() < tol:
            ascent = False
    return vals, dict(status=status, sweeps=sweeps, residual=res,
                      monotone=monotone,
                      clipped=clipped and status == "converged",
                      bracket_failures=sw.failures)


def _ball(R, N=2):
    return {"kind": "ball", "center": [0.0] * N, "R": R}


def _same(u, rep, ref_vals, ref_rep):
    assert np.array_equal(u.values, ref_vals, equal_nan=True)
    got = {k: getattr(rep, k) for k in ref_rep}
    assert got == ref_rep


SOLVES = [
    # (order, rhs, damping, params, N, R, h, max_sweeps)
    ("red-black", "(const -1)", None, SchemeParams(), 2, 0.5, 1 / 8, 500),
    ("red-black", "(const 1)", 0.5, SchemeParams(), 2, 0.5, 1 / 8, 500),
    ("red-black", "(neg (exp t))", None, SchemeParams(), 2, 0.5, 1 / 8,
     500),
    ("red-black", "(neg (exp t))", 1.0, SchemeParams(), 2, 0.5, 1 / 8, 500),
    ("red-black", "(mul (coef a) (neg (exp t)))", None, SchemeParams(), 2,
     0.5, 1 / 8, 500),
    ("lexicographic", "(const -1)", 1.0, SchemeParams(), 2, 0.5, 1 / 8,
     500),
    ("lexicographic", "(neg (exp t))", 0.5, SchemeParams(), 2, 0.5, 1 / 8,
     30),
    ("red-black", "(const -1)", None, SchemeParams(w=2, refined=True), 2,
     0.5, 1 / 8, 500),
    ("red-black", "(const -1)", None, SchemeParams(), 3, 1.0, 1 / 4, 500),
]


def _rhs(expr):
    coefs = {"a": lambda p: 1.0 + p[:, 0] ** 2} if "coef" in expr else None
    return RhsSpec(expr, coefs=coefs)


@pytest.mark.parametrize("order, expr, damping, params, N, R, h, cap",
                         SOLVES)
def test_dirichlet_matches_reference(order, expr, damping, params, N, R, h,
                                     cap):
    d = build_domain(_ball(R, N), h)
    b = BoundaryTrace.from_function(d, lambda p: 0.1 * p[:, 0])
    opts = SolveOptions(tol=1e-9, damping=damping, order=order,
                        max_sweeps=cap)
    u, rep = solve_dirichlet(d, _rhs(expr), b, opts, params)
    _same(u, rep, *_ref_dirichlet(d, _rhs(expr), b, opts, params))
    assert rep.sweeps > 2


@pytest.mark.parametrize("order, expr, damping, cap, clips", [
    ("red-black", "(const 1)", None, 300, True),
    ("red-black", "(neg (exp t))", 1.0, 300, True),
    ("red-black", "(neg (exp t))", 0.5, 300, False),
    ("lexicographic", "(const 1)", None, 300, False),
    ("lexicographic", "(neg (exp t))", 1.0, 20, False)])
def test_perron_clipping_matches_reference(order, expr, damping, cap, clips):
    # the super-solution is the Dirichlet solution itself, which the
    # undamped ascent overshoots and is clipped back to
    d = build_domain(_ball(0.5), 1 / 8)
    b = BoundaryTrace.constant(d, 0.0)
    f = RhsSpec(expr)
    opts = SolveOptions(tol=1e-9, damping=damping, max_sweeps=300)
    u, _ = solve_dirichlet(d, f, b, opts)
    sub = ScalarField.constant(d, -1.0)
    sup = ScalarField(d, u.values)
    opts = replace(opts, order=order, max_sweeps=cap)
    v, rep = perron_solve(d, f, b, sub, sup, opts)
    _same(v, rep, *_ref_perron(d, f, b, sub, sup, opts, SchemeParams()))
    assert rep.clipped == clips


@pytest.mark.parametrize("order", ["red-black", "lexicographic"])
def test_probe_matches_reference(order):
    d = build_domain(_ball(3.0), 1 / 4)
    b = BoundaryTrace.constant(d, 0.0)
    f = RhsSpec("(neg (exp t))")
    opts = SolveOptions(alarm_bound=20.0, max_sweeps=500, order=order)
    rep = probe_nonexistence(d, f, b, opts)
    _, ref = _ref_perron(d, f, b, ScalarField.constant(d, b.ell), None,
                         opts, SchemeParams())
    assert {k: getattr(rep, k) for k in ref} == ref
    assert rep.status == "diverged_past_alarm"


def test_two_gathers_per_sweep(monkeypatch, small_ball):
    # a sweep after the first reuses the residual's gather for color 0
    calls = []
    pair_arrays = Stencil.pair_arrays

    def counted(self, values, nodes):
        calls.append(1)
        return pair_arrays(self, values, nodes)

    monkeypatch.setattr(Stencil, "pair_arrays", counted)
    d = small_ball
    b = BoundaryTrace.constant(d, 1.0)
    for expr in ("(const -1)", "(neg (exp t))"):
        calls.clear()
        guess = ScalarField.constant(d, 1.0)
        _, rep = solve_dirichlet(d, RhsSpec(expr), b,
                                 SolveOptions(tol=1e-8),
                                 initial_guess=guess)
        assert rep.status == "converged" and rep.sweeps > 10
        assert len(calls) == 2 * rep.sweeps + 1
