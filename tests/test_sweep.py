"""The fused sweep against a reference that gathers for every update.

The solver reads the steepest pairs twice per sweep: once for the second
update group and once for the first group's part of the residual, whose
data feeds the next sweep's first update (the second group's part is read
again only where it can change the outcome, see `tests/test_iterate.py`).
The reference below gathers once per group and once more for the residual,
through frozen copies of the steepest-pair kernel as it was before its
per-stencil constants were worked out once (`_ref_pair_arrays`,
`_ref_select`, `_ref_steepest`, reading only `Stencil.pairs` and the
`Stencil.gather` tables), and solves the implicit update with a frozen
copy of the bracketed Newton solve (`_ref_local_solve`); every field,
residual, status and count must match it bit for bit.
"""

import functools
import math
import re
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
    inf_lap_field,
    perron_solve,
    probe_nonexistence,
    solve_dirichlet,
)
from inflap.core import SIGMA
from inflap.solver import _local_solve, _Sweeper


@functools.lru_cache(maxsize=None)
def _ref_layout(st):
    """(P, J, wts, c0) of the slot layout, rebuilt from `Stencil.pairs`:
    plus-arm slots 0..P-1, minus-arm slots P..2P-1, then both nodes of
    each correction entry; padding has weight 0."""
    P = max(len(p.plus) for p in st.pairs)
    J = 2 * P + 2 * max(len(p.corr) for p in st.pairs)
    wts = np.zeros((J, len(st.pairs)))
    c0 = np.ones(len(st.pairs))
    for k, p in enumerate(st.pairs):
        corr = []
        for off, wt in p.corr:
            corr += [(off, wt), (tuple(-o for o in off), wt)]
            c0[k] -= 2 * wt
        for j0, pattern in ((0, p.plus), (P, p.minus), (2 * P, corr)):
            for j, (_, wt) in enumerate(pattern, j0):
                wts[j, k] = wt
    return P, J, wts, c0


def _ref_pair_arrays(st, values, tab):
    """Frozen copy of the gather arithmetic of `Stencil.pair_arrays`."""
    P, J, wts, c0 = _ref_layout(st)
    g = np.concatenate((values.ravel(), [np.nan, 0.0]))[
        tab.idx.transpose(0, 2, 1)]
    g *= wts[:, :, None]
    # slot by slot in pattern order: the sums of a per-node loop
    arm_p, arm_m = g[0], g[P]
    for j in range(1, P):
        arm_p = arm_p + g[j]
        arm_m = arm_m + g[P + j]
    csum = np.zeros(arm_p.shape)
    for j in range(2 * P, J, 2):
        csum = csum + (g[j] + g[j + 1])
    return arm_p, arm_m, c0, csum, np.array([p.eps for p in st.pairs])


def _ref_select(arm_p, arm_m, eps):
    """Frozen copy of `scheme._select`: ties to the lowest k, NaN last."""
    with np.errstate(invalid="ignore"):
        dc = (arm_p - arm_m) / (2.0 * eps[:, None])
    k = np.fmax(np.abs(dc), -1.0).argmax(axis=0)
    pick = k * k.size + np.arange(k.size)
    return k, pick, dc.take(pick)


def _ref_steepest(values, st, tab):
    """Frozen copy of `scheme._steepest`: (S, phat, eps) along the pick."""
    arm_p, arm_m, c0, csum, eps = _ref_pair_arrays(st, values, tab)
    k, pick, phat = _ref_select(arm_p, arm_m, eps)
    u0c = c0[k] * values.take(tab.flat) + csum.take(pick)
    with np.errstate(invalid="ignore"):
        S = (arm_p.take(pick) + arm_m.take(pick) - 2.0 * u0c) / eps[k] ** 2
    return S, phat, eps[k]


def _ref_local_solve(g, lo, hi, t0, rounds=100):
    """Frozen copy of the safeguarded Newton solve as it was before its
    numpy calls were cut, kept as the reference `solver._local_solve`
    must match bit for bit (same points visited, same roots).  `rounds`
    caps the steps, and the last takes no lengthened step, which only
    serves the next round's stop test."""
    step_tol = 4.0 * np.finfo(float).eps
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
        for k in range(rounds):
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
            h = step_tol * (1.0 + np.abs(t))
            done = (gt == 0) | (hi - lo <= 2.0 * h)
            # a step below rounding level is no proof of a root (a huge
            # slope far from it gives one too): step h toward the root,
            # which closes the bracket if the root is that near; t is a
            # bracket end and the other end is over 2 h away
            short = ~done & (np.abs(tn - t) < h) & (k + 1 < rounds)
            tn = np.where(short, np.where(up, t - h, t + h), tn)
            t = np.where(live, tn, t)
            live &= ~done
    return np.where(failed, edge, t), failed


def _ref_g(f, coefs, A, p2, eps2, c0_s):
    """g(t) = 2 c0 t - A + eps^2 f(x, t) / p2 of the implicit update, with
    2 c0 t evaluated left to right."""
    def g(t, dt=False):
        if not dt:
            return 2.0 * c0_s * t - A + eps2 * f.eval_nodes(t, coefs) / p2
        ft, dft = f.eval_nodes(t, coefs, dt=True)
        return 2.0 * c0_s * t - A + eps2 * ft / p2, \
            2.0 * c0_s + eps2 * dft / p2
    return g


# the solver's least squared slope, frozen
_DELTA_REG = 1e-10


def _p2(phat, eps, fx):
    floor = (eps * np.abs(fx)) ** (2.0 / 3.0) / (2.0 * SIGMA)
    return np.maximum(np.maximum(phat ** 2, floor), _DELTA_REG)


class _RefSweeper:
    """Colored Gauss-Seidel that gathers afresh for every update."""

    def __init__(self, d, f, st, opts):
        self.d, self.f, self.st = d, f, st
        self.theta = opts.damping if opts.damping is not None \
            else (0.5 if f.depends_on_t else 1.0)
        parity = np.indices(d.dims).sum(axis=0) % 2
        self.tables = [st.gather(d.interior & (parity == c)) for c in (0, 1)]
        self.failures = 0
        self.fx0 = f.eval_grid(d, np.zeros(d.dims))
        self.coefs = f.coef_grid(d)

    def candidate(self, values, tab):
        f = self.f
        arm_p, arm_m, c0, csum, eps = _ref_pair_arrays(self.st, values, tab)
        k, pick, phat = _ref_select(arm_p, arm_m, eps)
        A = arm_p.take(pick) + arm_m.take(pick) - 2.0 * csum.take(pick)
        eps_s, c0_s = eps[k], c0[k]
        if not f.depends_on_t:
            fx = self.fx0.take(tab.flat)
            p2 = _p2(phat, eps_s, fx)
            return (A - eps_s ** 2 * fx / p2) / (2.0 * c0_s)
        u0 = values.take(tab.flat)
        coefs = {n: v.take(tab.flat) if np.ndim(v) else v
                 for n, v in self.coefs.items()}
        p2 = _p2(phat, eps_s, f.eval_nodes(u0, coefs))
        g = _ref_g(f, coefs, A, p2, eps_s ** 2, c0_s)
        # every node brackets at its own value +- 1 and takes one
        # safeguarded Newton step from it
        t, failed = _ref_local_solve(g, u0 - 1.0, u0 + 1.0, u0, rounds=1)
        self.failures += int(failed.sum())
        return t

    def residual(self, values):
        S, phat, eps_s = _ref_steepest(values, self.st, self.st.interior)
        with np.errstate(invalid="ignore"):
            fx = self.f.eval_grid(self.d, values) if self.f.depends_on_t \
                else self.fx0
        fx = fx.take(self.st.interior.flat)
        p2 = _p2(phat, eps_s, fx)
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
        res = sw.residual(vals)
        if not math.isfinite(res) or res <= tol:
            break
    sw = _RefSweeper(d, f, st, opts)
    status, sweeps, res = "max_sweeps_reached", opts.max_sweeps, np.inf
    for it in range(1, opts.max_sweeps + 1):
        sw.sweep(vals)
        res = sw.residual(vals)
        if not math.isfinite(res) or (
                opts.alarm_bound is not None
                and np.abs(vals[d.nonexterior]).max() > opts.alarm_bound):
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
        res = sw.residual(vals)
        if not math.isfinite(res) or (
                opts.alarm_bound is not None
                and np.abs(vals[ne]).max() > opts.alarm_bound):
            status, sweeps = "diverged_past_alarm", it
            break
        if res <= tol:
            status, sweeps = "converged", it
            break
        if ascent and np.abs(vals[ne] - prev[ne]).max() < tol:
            ascent = False
    return vals, dict(status=status, sweeps=sweeps, residual=res,
                      monotone=monotone, clipped=clipped,
                      bracket_failures=sw.failures)


def _ball(R, N=2):
    return {"kind": "ball", "center": [0.0] * N, "R": R}


def _same(u, rep, ref_vals, ref_rep):
    assert np.array_equal(u.values, ref_vals, equal_nan=True)
    got = {k: getattr(rep, k) for k in ref_rep}
    assert got == ref_rep


# The case ids are the ones pytest gave these cases while the sweep order
# was a column of the tables, so that a case keeps its name.
SOLVES = [
    # (rhs, damping, params, N, R, h, max_sweeps)
    ("(const -1)", None, SchemeParams(), 2, 0.5, 1 / 8, 500),
    ("(const 1)", 0.5, SchemeParams(), 2, 0.5, 1 / 8, 500),
    ("(neg (exp t))", None, SchemeParams(), 2, 0.5, 1 / 8, 500),
    ("(neg (exp t))", 1.0, SchemeParams(), 2, 0.5, 1 / 8, 500),
    ("(mul (coef a) (neg (exp t)))", None, SchemeParams(), 2, 0.5, 1 / 8,
     500),
    ("(const -1)", None, SchemeParams(w=2, refined=True), 2, 0.5, 1 / 8,
     500),
    ("(const -1)", None, SchemeParams(), 3, 1.0, 1 / 4, 500),
]
SOLVE_IDS = [
    "red-black-(const -1)-None-params0-2-0.5-0.125-500",
    "red-black-(const 1)-0.5-params1-2-0.5-0.125-500",
    "red-black-(neg (exp t))-None-params2-2-0.5-0.125-500",
    "red-black-(neg (exp t))-1.0-params3-2-0.5-0.125-500",
    "red-black-(mul (coef a) (neg (exp t)))-None-params4-2-0.5-0.125-500",
    "red-black-(const -1)-None-params7-2-0.5-0.125-500",
    "red-black-(const -1)-None-params8-3-1.0-0.25-500",
]


def _rhs(expr):
    coefs = {"a": lambda p: 1.0 + p[:, 0] ** 2} if "coef" in expr else None
    return RhsSpec(expr, coefs=coefs)


@pytest.mark.parametrize("expr, damping, params, N, R, h, cap", SOLVES,
                         ids=SOLVE_IDS)
def test_dirichlet_matches_reference(expr, damping, params, N, R, h, cap):
    d = build_domain(_ball(R, N), h)
    b = BoundaryTrace.from_function(d, lambda p: 0.1 * p[:, 0])
    opts = SolveOptions(tol=1e-9, damping=damping, max_sweeps=cap)
    u, rep = solve_dirichlet(d, _rhs(expr), b, opts, params)
    _same(u, rep, *_ref_dirichlet(d, _rhs(expr), b, opts, params))
    assert rep.sweeps > 2


# x-only cases of the closed form's per-solve tables (E = eps^2 f, 2 c0
# and eps^2 per pair): a callable coefficient, so that f and E vary by
# node; damping 0.7 (a relaxed update); a box; a 3-D refined stencil,
# whose centre weights c0 differ from 1 and whose pairs have correction
# slots; and a 2-D refined stencil with f > 0
CLOSED_FORM = [
    # (rhs, damping, params, domain, h, max_sweeps)
    ("(mul (coef a) (const -1))", None, SchemeParams(), _ball(0.5), 1 / 8,
     500),
    ("(const -1)", 0.7, SchemeParams(), _ball(0.5), 1 / 8, 500),
    ("(const 1)", None, SchemeParams(w=3),
     {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 0.75]}, 1 / 8, 500),
    ("(mul (coef a) (const -1))", 0.7, SchemeParams(w=1, refined=True),
     _ball(1.0, 3), 1 / 4, 500),
    ("(mul (coef a) (const 1))", None, SchemeParams(w=2, refined=True),
     _ball(0.5), 1 / 8, 300),
]
CLOSED_FORM_IDS = [
    "red-black-(mul (coef a) (const -1))-None-params0-domain0-0.125-500",
    "red-black-(const -1)-0.7-params1-domain1-0.125-500",
    "red-black-(const 1)-None-params2-domain2-0.125-500",
    "red-black-(mul (coef a) (const -1))-0.7-params3-domain3-0.25-500",
    "red-black-(mul (coef a) (const 1))-None-params4-domain4-0.125-300",
]


@pytest.mark.parametrize("expr, damping, params, domain, h, cap",
                         CLOSED_FORM, ids=CLOSED_FORM_IDS)
def test_closed_form_tables_match_reference(expr, damping, params, domain,
                                            h, cap):
    d = build_domain(domain, h)
    b = BoundaryTrace.from_function(d, lambda p: 0.1 * p[:, 0])
    opts = SolveOptions(tol=1e-9, damping=damping, max_sweeps=cap)
    u, rep = solve_dirichlet(d, _rhs(expr), b, opts, params)
    _same(u, rep, *_ref_dirichlet(d, _rhs(expr), b, opts, params))
    assert rep.sweeps > 2


@pytest.mark.parametrize("expr, damping, clips", [
    ("(const 1)", None, True),
    ("(neg (exp t))", 1.0, False),
    ("(neg (exp t))", 0.5, True),
    ("(mul (coef a) (const 1))", None, True),
    ("(mul (coef a) (const 1))", 0.7, True)],
    ids=["red-black-(const 1)-None-300-True",
         "red-black-(neg (exp t))-1.0-300-False",
         "red-black-(neg (exp t))-0.5-300-True",
         "red-black-(mul (coef a) (const 1))-None-300-True",
         "red-black-(mul (coef a) (const 1))-0.7-300-True"])
def test_perron_clipping_matches_reference(expr, damping, clips):
    # the super-solution is the Dirichlet solution itself, which the
    # ascent can overshoot and be clipped back to: the undamped one for
    # f = 1, the damped one for f = -e^t (one Newton step per sweep)
    d = build_domain(_ball(0.5), 1 / 8)
    b = BoundaryTrace.constant(d, 0.0)
    f = _rhs(expr)
    opts = SolveOptions(tol=1e-9, damping=damping, max_sweeps=300)
    u, _ = solve_dirichlet(d, f, b, opts)
    sub = ScalarField.constant(d, -1.0)
    sup = ScalarField(d, u.values)
    v, rep = perron_solve(d, f, b, sub, sup, opts)
    _same(v, rep, *_ref_perron(d, f, b, sub, sup, opts, SchemeParams()))
    assert rep.clipped == clips


def test_probe_matches_reference():
    d = build_domain(_ball(3.0), 1 / 4)
    b = BoundaryTrace.constant(d, 0.0)
    f = RhsSpec("(neg (exp t))")
    opts = SolveOptions(alarm_bound=20.0, max_sweeps=500)
    rep = probe_nonexistence(d, f, b, opts)
    _, ref = _ref_perron(d, f, b, ScalarField.constant(d, b.ell), None,
                         opts, SchemeParams())
    assert {k: getattr(rep, k) for k in ref} == ref
    assert rep.status == "diverged_past_alarm"


def test_two_gathers_per_sweep(monkeypatch, small_ball):
    # each sweep gathers the interior once, in both solvers and both
    # stencil modes: color 1 for its update and color 0 for the residual,
    # whose data the next sweep's color 0 update reads; the first sweep
    # gathers color 0 for its update, and color 1's part of the residual
    # is gathered again only where it can change the outcome, here the
    # last sweep, where color 0's part is <= tol.  The benchmark counts
    # these gathers (`scheme.pair_arrays.calls`) next to the sweeps
    d = small_ball
    parity = np.indices(d.dims).sum(axis=0) % 2
    color0 = np.ravel_multi_index(np.nonzero(d.interior & (parity == 0)),
                                  d.dims)
    n0, n1 = color0.size, np.count_nonzero(d.interior) - color0.size
    gathers = []
    pair_arrays = Stencil.pair_arrays

    def counted(self, values, nodes):
        gathers.append("0" if np.array_equal(nodes.flat, color0) else "1")
        return pair_arrays(self, values, nodes)

    monkeypatch.setattr(Stencil, "pair_arrays", counted)
    b = BoundaryTrace.constant(d, 1.0)
    guess = ScalarField.constant(d, 1.0)
    for params in (SchemeParams(), SchemeParams(w=1, refined=True)):
        for expr in ("(const -1)", "(neg (exp t))"):
            f = RhsSpec(expr)
            opts = SolveOptions(tol=1e-8)
            for run in (lambda: solve_dirichlet(d, f, b, opts, params,
                                                initial_guess=guess),
                        lambda: perron_solve(d, f, b, guess, None, opts,
                                             params)):
                gathers.clear()
                _, rep = run()
                assert rep.status == "converged" and rep.sweeps > 10
                seq = "".join(gathers)
                # sweep by sweep: color 1, color 0, maybe color 1 again
                assert re.fullmatch("0(101?)+", seq) and seq[-3:] == "101"
                extra = seq.count("1") - rep.sweeps
                assert seq.count("0") == rep.sweeps + 1 and 1 <= extra <= 3
                nodes = n0 * seq.count("0") + n1 * seq.count("1")
                assert nodes == (n0 + n1) * rep.sweeps + n0 + n1 * extra


@pytest.mark.parametrize("params", [SchemeParams(),
                                    SchemeParams(w=2, refined=True)])
def test_group_tables_pair_minor_and_contiguous(small_ball, params):
    # each group gathers from its own contiguous (J, n, K) table, and a
    # part of a table reads the full table's columns in the public (K, n)
    # shape
    d = small_ball
    st = Stencil(d, params)
    sw = _Sweeper(d, RhsSpec("(const -1)"), st, SolveOptions())
    K = len(st.pairs)
    J = st.interior.idx.shape[0]
    for grp in [sw.all] + sw.groups:
        n = grp.tab.flat.size
        assert grp.tab.idx.shape == (J, n, K)
        assert grp.tab.idx.flags.c_contiguous
        assert grp.floor.shape == (n, K) and grp.floor.flags.c_contiguous
    vals = np.random.default_rng(5).uniform(-1.0, 1.0, d.dims)
    vals[~d.nonexterior] = np.nan
    full = st.pair_arrays(vals, sw.all.tab)
    lo = 0
    for grp in sw.groups:
        hi = lo + grp.tab.flat.size
        part = st.pair_arrays(vals, grp.tab)
        for j in (0, 1, 3):
            assert part[j].shape == (K, hi - lo)
            assert part[j].tobytes() == full[j][:, lo:hi].tobytes()
        lo = hi


@pytest.mark.parametrize("params, N, h", [
    (SchemeParams(), 2, 1 / 8),
    (SchemeParams(w=3), 2, 1 / 8),
    (SchemeParams(w=2, refined=True), 2, 1 / 8),
    (SchemeParams(w=1), 3, 1 / 4),
    (SchemeParams(w=1, refined=True), 3, 1 / 4)])
def test_kernel_matches_frozen_reference(params, N, h):
    # values on a lattice of quarters make ties between pairs, and zeros
    # of both signs, common
    d = build_domain(_ball(1.0, N), h)
    st = Stencil(d, params)
    rng = np.random.default_rng(N + 10 * params.w + 100 * params.refined)
    for _ in range(4):
        vals = np.round(rng.uniform(-1.0, 1.0, d.dims) * 4.0) / 4.0
        vals[~d.nonexterior] = np.nan
        for tab in (st.interior, st.interior.part(3, 17)):
            got = st.pair_arrays(vals, tab)
            want = _ref_pair_arrays(st, vals, tab)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        lap = np.full(d.dims, np.nan)
        S, phat, _ = _ref_steepest(vals, st, st.interior)
        lap.put(st.interior.flat, S * phat ** 2)
        assert inf_lap_field(vals, st).tobytes() == lap.tobytes()


def _same_bits(got, want):
    # bytes, not values: signed zeros and NaN payloads count too
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])


# (rhs, coefficient a or None, start at t = 0): concave (-e^t, -a e^t),
# convex (e^t, t^3 for t > 0), flat past a clip, periodic, an infinite
# slope at the start (t^(1/2) at 0) and blow-up (-1e4 e^t: no sign change)
FAMILIES = [("(neg (exp t))", False, False),
            ("(mul (coef a) (neg (exp t)))", True, False),
            ("(exp t)", False, False),
            ("(pow t 3)", False, False),
            ("(clip (exp t) 1.5)", False, False),
            ("(cospow 2)", False, False),
            ("(add (const 1) (pow t 0.5))", False, True),
            ("(mul (const -1e4) (exp t))", False, False)]


@pytest.mark.parametrize("expr, coef, at_zero", FAMILIES)
def test_implicit_update_matches_frozen_solve(small_ball8, expr, coef,
                                              at_zero):
    # the implicit update against the frozen solve on g built as before,
    # with seeded random nodes; brackets at the range of u0 +- 1, at
    # each node's own u0 +- 1 (the update's) and narrow ones that must
    # widen
    f = _rhs(expr)
    sw = _Sweeper(small_ball8, f, Stencil(small_ball8, SchemeParams()),
                  SolveOptions())
    rng = np.random.default_rng(sum(map(ord, expr)))
    failures = widened = 0
    for trial in range(24):
        n = int(rng.integers(1, 90))
        u0 = np.zeros(n) if at_zero else rng.uniform(-1.0, 1.0, n)
        A = rng.uniform(-3.0, 3.0, n)
        c0 = rng.uniform(0.5, 2.0, n)
        eps = rng.uniform(1 / 32, 1 / 4, n)
        p2 = 10.0 ** rng.uniform(-6.0, 1.0, n)
        coefs = {"a": rng.uniform(0.5, 2.0, n)} if coef else {}
        lo, hi = [(np.full(n, u0.min() - 1.0), np.full(n, u0.max() + 1.0)),
                  (u0 - 1.0, u0 + 1.0),
                  (u0 - 1e-3, u0 + 1e-3)][trial % 3]
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            got = sw._implicit(u0, A, p2, eps, c0, coefs, lo, hi)
        g = _ref_g(f, coefs, A, p2, eps ** 2, c0)
        want = _ref_local_solve(g, lo, hi, u0)
        _same_bits(got, want)
        failures += int(want[1].sum())
        widened += int(((want[0] < lo) | (want[0] > hi)).sum())
    assert widened > 0
    assert failures > 0 or "1e4" not in expr


def _cycle(t, dt=False):
    # plain Newton cycles 0 -> 1 -> 0 on t^3 - 2t + 2
    val = t ** 3 - 2.0 * t + 2.0
    return (val, 3.0 * t ** 2 - 2.0) if dt else val


def _sqrt(t, dt=False):
    # infinite slope at the start t = 0, root at 1/4
    val = np.sign(t) * np.sqrt(np.abs(t)) + t - 0.75
    with np.errstate(divide="ignore"):
        return (val, 0.5 / np.sqrt(np.abs(t)) + 1.0) if dt else val


def _line(t, dt=False):
    # Newton lands on the roots exactly (g = 0)
    return (t - 0.375, np.ones_like(t)) if dt else t - 0.375


def _edges(t, dt=False):
    # node 0: g < 0 everywhere; node 1: g > 0 everywhere; node 2 regular
    e = np.exp(np.minimum(t, 700.0))
    val = np.array([2 * t[0] - 5 - e[0], 1 + e[1], t[2] - 0.25])
    der = np.array([2 - e[0], e[1], 1.0])
    return (val, der) if dt else val


@pytest.mark.parametrize("g, lo, hi, t0", [
    (_cycle, [-3.0], [3.0], [0.0]),
    (_cycle, [0.5], [3.0], [1.0]),
    (_sqrt, [-1.0, -0.5], [1.0, 2.0], [0.0, 0.0]),
    (_line, [-1.0, 0.375, 2.0], [1.0, 1.0, 3.0], [0.0, 0.375, 2.5]),
    (_edges, [-1.0] * 3, [1.0] * 3, [0.0] * 3)])
def test_local_solve_matches_frozen_solve(g, lo, hi, t0):
    args = [np.array(a) for a in (lo, hi, t0)]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        got = _local_solve(g, *args)
    _same_bits(got, _ref_local_solve(g, *args))


def _recorded(g):
    """g, and the log of its calls: (dt, bytes of t) in call order."""
    log = []

    def rec(t, dt=False):
        log.append((dt, np.asarray(t).tobytes()))
        return g(t, dt)
    return rec, log


def _first_round_matches(g, lo, hi, t0):
    # given g(t0, dt=True), the solve must return the reference's bits
    # and evaluate g exactly where the reference does, less the
    # reference's first evaluation with dg/dt, which is at t0 (t0 lies
    # in the bracket, so the clip leaves it as it is)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        first = g(t0, dt=True)
        g_ref, ref_log = _recorded(g)
        want = _ref_local_solve(g_ref, lo, hi, t0)
        g_new, new_log = _recorded(g)
        got = _local_solve(g_new, lo, hi, t0, first)
    _same_bits(got, want)
    k = next((i for i, (dt, _) in enumerate(ref_log) if dt), None)
    if k is None:
        assert new_log == ref_log
        return 0
    assert ref_log[k] == (True, t0.tobytes())
    assert new_log == ref_log[:k] + ref_log[k + 1:]
    return 1


@pytest.mark.parametrize("expr, coef, at_zero", FAMILIES)
def test_first_round_reuses_f_at_u0(small_ball8, expr, coef, at_zero):
    f = _rhs(expr)
    sw = _Sweeper(small_ball8, f, Stencil(small_ball8, SchemeParams()),
                  SolveOptions())
    rng = np.random.default_rng(sum(map(ord, expr)) + 1)
    saved = 0
    for trial in range(24):
        n = int(rng.integers(1, 90))
        u0 = np.zeros(n) if at_zero else rng.uniform(-1.0, 1.0, n)
        A = rng.uniform(-3.0, 3.0, n)
        c0 = rng.uniform(0.5, 2.0, n)
        eps = rng.uniform(1 / 32, 1 / 4, n)
        p2 = 10.0 ** rng.uniform(-6.0, 1.0, n)
        coefs = {"a": rng.uniform(0.5, 2.0, n)} if coef else {}
        lo, hi = [(u0 - 1.0, u0 + 1.0), (u0 - 1e-3, u0 + 1e-3)][trial % 2]
        g = _ref_g(f, coefs, A, p2, eps ** 2, c0)
        saved += _first_round_matches(g, lo, hi, u0)
        # the update's own path: f and df/dt at u0 as `_steep` has them
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            f0 = f.eval_nodes(u0, coefs, dt=True)
            got = sw._implicit(u0, A, p2, eps, c0, coefs, lo, hi, f0)
        _same_bits(got, _ref_local_solve(g, lo, hi, u0))
    assert saved > 0


@pytest.mark.parametrize("g, lo, hi, t0", [
    (_cycle, [-3.0], [3.0], [0.0]),
    (_cycle, [0.5], [3.0], [1.0]),
    (_sqrt, [-1.0, -0.5], [1.0, 2.0], [0.0, 0.0]),
    (_line, [-1.0, 0.375, 2.0], [1.0, 1.0, 3.0], [0.0, 0.375, 2.5]),
    (_edges, [-1.0] * 3, [1.0] * 3, [0.0] * 3),
    (_edges, [-1.0] * 3, [1.0] * 3, [-1.0, 1.0, 1.0])])
def test_first_round_reuses_g_at_t0(g, lo, hi, t0):
    args = [np.array(a) for a in (lo, hi, t0)]
    assert _first_round_matches(g, *args) == 1
