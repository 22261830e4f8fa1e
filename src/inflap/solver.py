"""Dirichlet solvers (Gauss-Seidel, and Newton in 1-D) and Perron iteration.

The local update solves the scalar equation S(t) * phat^2 = f(x, t) at one
node, with phat frozen from the current iterate and S the second difference
along the currently steepest pair.  Division by phat^2 is guarded by a
scale-aware floor: p_floor^2 = (eps * |f|)^(2/3) / (2 sigma), so that a
flat iterate grows by sigma |f|^(1/3) eps^(4/3) per step, the growth rate
of the exact cone solution across one stencil arm, instead of exploding.
For x-only f the update has a closed form; for t-dependent f it is one
safeguarded Newton step (`_local_solve` with one round) from the node's
own value u0, inside a bracket that starts at u0 +- 1.  The step takes
g and g' from the f and df/dt at u0 that `_Sweeper._steep` has evaluated
in one tree walk, and it is zero exactly where g(u0) = 0, so the sweeps
have the fixed points of sweeps that solve each node to its root
(one-step SOR-Newton, Ortega and Rheinboldt 1970, sections 7.4 and 10.3)
while they evaluate f only for the bracket checks; `local_update` solves
its one node to the root.  Where the bracket search finds no sign change
(the local blow-up mechanism) the update is the bracket edge, which the
divergence rule then catches; such nodes are counted in
`SolveReport.bracket_failures`.  A node at its edge widens no other
node's bracket, so a blow-up stays local.

A sweep updates the two colors in turn (red-black Gauss-Seidel, relaxed
by at most 1, see `SolveOptions`), and each update and the residual need
the same steepest-pair data: one `Stencil.pair_arrays` gather and one
`scheme._select`.  The groups sit end to end in one gather table, and a
sweep takes one kernel pass over it: color 1's update, then color 0's
part of the residual, whose data the next sweep's color 0 update reads
as it stands, since the values do not change in between.  Color 1's part
of the residual is taken only where it can change the outcome (see
`_iterate`): where color 0's part is at most tol or not finite, where
the alarm trips, at the budget's last sweep, and where max |u| is above
a bound up to which color 1's part is certainly finite (the certificate,
`_safe_top`, from the stencil's weights, its least arm length, the
largest slope floor and a bound on |f|).  Everywhere else the residual
is above tol and finite whatever color 1's part is, so every result is
the one the residual over the whole table gives.  A t-dependent f
without such a bound (one with a coefficient, a bare t or a power of
it, or a clip of such a subtree) gets no certificate, and its loop
reads the residual over the whole table after every sweep instead, in
one pass, whose color 0 rows the next sweep reads: two kernel passes
per sweep.  What the update and the residual read at the
picked pair k is worked out once per solve: eps, eps^2, c0 and 2 c0 per
pair, and for x-only f two tables over nodes and pairs, the slope floor
and the numerator E = eps_k^2 f_i of the closed form
(A - E / p2) / (2 c0), so that a sweep only picks their entries: the
same operations on the same operands as working them out per sweep.  An
undamped update (theta 1) skips the relaxation product, and A is apm
itself where no pair has correction slots.  The kernel and the local
update, the implicit one's `_local_solve` too, open no `np.errstate`
of their own, a few microseconds per call: `solve_dirichlet`,
`perron_solve` and `local_update` each open one block that ignores
invalid operations, overflow and division by zero.  Every sweep runs
in one loop, `_iterate` (sweep, residual, max |u|, divergence test,
tolerance test, within a budget): the f == 0 start, the solve,
`_newton`'s fallback bursts and `perron_solve`, whose ascent and
clamped phases are the sweep it passes in.  One rule,
`_Sweeper.diverged`, also tested after each Newton step, ends a run as
diverged: a residual that is not finite, or max |u| over the
non-exterior nodes (the boundary ones too) above `alarm_bound`.  The
alarm bounds |u|, so it must exceed sup|b|, and a start (`sub`, or
`initial_guess`) above it is an error too (`_tol`, `_check_start`).

In 1-D with an x-only f there is one direction pair, and the residual
F = S * p2 - f is piecewise smooth in the values with a tridiagonal
Jacobian (`_Sweeper.newton_system`, from the same steepest-pair data).
There `solve_dirichlet`, its f == 0 start included, runs damped Newton
(`_newton`): one banded solve and an Armijo backtracking on ||F||_2 per
step, a few sweeps where the line search fails, and plain sweeps for the
rest of the budget after _NEWTON_ROUNDS rounds.  Gauss-Seidel needs a
sweep count growing as n^2 there.  Every other solve sweeps.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import SATURATE, SIGMA, RhsSpec, ScalarField, _finite_bound
from .scheme import SchemeParams, Stencil, _c0_at, _pick, _second_diff

# a local-solve step this small relative to 1 + |t| is rounding noise
_STEP_TOL = 4.0 * np.finfo(float).eps
# the most Newton steps of a local solve to the root (`local_update`);
# a sweep takes one step per node
_ROOT_ROUNDS = 100
# the least squared slope the update divides by, whatever f is
_DELTA_REG = 1e-10
# 1-D Newton: tridiagonal solves before the Gauss-Seidel handoff, sweeps
# after a failed line search, the Armijo constant on ||F||^2 and the
# shortest step the backtracking tries
_NEWTON_ROUNDS = 50
_FALLBACK_SWEEPS = 20
_ARMIJO = 1e-4
_MIN_STEP = 2.0 ** -20
# the most |S * p2| the certificate allows (`_safe_top`): with |f| <=
# SATURATE the residual then stays below the largest double
_ROOM = np.finfo(float).max / 4.0


@dataclass
class SolveOptions:
    """Iteration knobs for the Dirichlet and Perron solvers.

    Every sweep is red-black Gauss-Seidel.  `damping` theta moves each
    node from u to u + theta (t - u), t the local update, with theta in
    (0, 1]: under-relaxation only.
    """
    max_sweeps: int = 100000
    tol: float = None            # default: see `tol_for`
    damping: float = None        # default 1.0, or 0.5 for t-dependent f
    alarm_bound: float = None

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.tol is not None and self.tol <= 0:
            raise ValueError("tol must be positive")
        # damping 0 never moves the iterate, and over-relaxation pays
        # only for a monotone scheme, which this one is not: on 2-D
        # balls at h = 1/16 (tol 1e-8, 5000 sweeps), f = 1 (R = 1) and
        # f = -e^u (R = 0.5, b = 0 and b = 0.3 x0) and f = e^u (R = 1)
        # converge at theta 1 in 1156, 464, 401 and 780 sweeps and reach
        # none at 1.2 or 1.5; the chained comparisons are false for NaN
        if self.damping is not None and not 0 < self.damping <= 1:
            raise ValueError("damping must be in (0, 1]")
        if self.alarm_bound is not None \
                and not 0 < self.alarm_bound < np.inf:
            raise ValueError("alarm_bound must be finite and positive")

    def tol_for(self, b):
        """`tol`, or the default 1e-8 * (1 + sup|b|) for boundary data b."""
        return self.tol if self.tol is not None \
            else 1e-8 * (1.0 + max(abs(b.ell), abs(b.L)))


@dataclass
class SolveReport:
    status: str                  # converged | max_sweeps_reached | diverged_past_alarm
    sweeps: int
    residual: float
    sup: float
    inf: float
    monotone: bool
    clipped: bool = False        # the last sweep hit the super-solution
    bracket_failures: int = 0    # local solves that found no sign change
    newton_steps: int = 0        # 1-D Newton steps, the harmonic start's too
    start_sweeps: int = 0        # f == 0 start sweeps that `sweeps` leaves out


def _at(coefs, flat):
    """Coefficient values at the nodes with flat grid indices `flat`."""
    return {k: v.take(flat) if np.ndim(v) else v for k, v in coefs.items()}


def _local_solve(g, lo, hi, t0, first=None, rounds=_ROOT_ROUNDS):
    """Safeguarded Newton solve of g(t) = 0, one equation per node.

    `g(t)` gives g on the node array t and `g(t, dt=True)` the pair
    (g, dg/dt).  The bracket [lo, hi] is first widened, by doubling
    steps, until g(lo) <= 0 <= g(hi) (at most 60 widenings).  Newton then
    starts from t0 clipped into the bracket.  `first`, when given, is
    the pair g(t0, dt=True) the caller already has, and the first step
    uses it instead of evaluating g there again; t0 must then lie in
    [lo, hi], so that the clip leaves it as it is (widening only moves
    the ends outward).  Each step shrinks the bracket by the sign of g,
    and a step that leaves the bracket (its ends count as inside), is
    not finite or comes from a slope that is not finite becomes a
    bisection step.  A node stops, at the step from its last point, once
    g vanishes there or the bracket is at most 2 h wide, h = 4 eps
    (1 + |t|) the rounding level, and after at most `rounds` steps.  A
    step shorter than h is lengthened to h, so that near a root the
    bracket closes, except in the last round: the lengthened step only
    serves the next round's stop test.  So `rounds=1` (the sweeps'
    update) is one safeguarded Newton step from t0: the Newton point
    when it is finite and inside the bracket, else the bisection
    midpoint, and t0 itself where g(t0) = 0.  A node where no sign change
    was found (f outgrowing the linear term, the local blow-up
    mechanism) returns the bracket edge on the side where g has the
    wrong sign, hi first.

    The arrays hold a few dozen nodes, so the number of numpy calls per
    step sets the cost, not the arithmetic: each test is one mask, the
    bisection and the lengthened steps are built only in a step where
    some node needs them, the edges only where some node failed, and the
    selection of the live nodes' steps only once some node has stopped.
    Opens no `np.errstate`: the caller ignores invalid operations,
    overflow and division by zero.

    Returns
    -------
    (t, failed) : ndarray roots (or steps) and the mask of nodes without
    sign change
    """
    count = np.count_nonzero
    span = 1.0
    # 60 widenings, each followed by a check
    for k in range(61):
        bad_lo = g(lo) > 0
        bad_hi = g(hi) < 0
        failed = bad_lo | bad_hi
        n_failed = count(failed)
        if k == 60 or not n_failed:
            break
        span *= 2.0
        lo = np.where(bad_lo, lo - span, lo)
        hi = np.where(bad_hi, hi + span, hi)
    edge = np.where(bad_hi, hi, lo) if n_failed else None
    t = np.minimum(np.maximum(t0, lo), hi)
    live = ~failed
    for k in range(rounds - 1, -1, -1):    # k rounds follow this one
        n_live = count(live)
        if not n_live:
            break
        gt, dg = g(t, dt=True) if first is None else first
        first = None
        up = gt > 0.0
        hi = np.where(up, t, hi)
        lo = np.where(up, lo, t)
        root = gt == 0.0
        step = gt / dg
        step[root] = 0.0
        tn = t - step
        # off an exact root, an infinite or zero slope (e.g. (pow t g),
        # g < 1, at t = 0) gives no Newton step: bisect instead
        newton = (tn >= lo) & (tn <= hi) & np.isfinite(step) \
            & (np.isfinite(dg) | root)
        if count(newton) < newton.size:
            tn = np.where(newton, tn, 0.5 * (lo + hi))
        if k:
            h = _STEP_TOL * (1.0 + np.abs(t))
            go_on = ~(root | (hi - lo <= 2.0 * h))
            # a step below rounding level is no proof of a root (a huge
            # slope far from it gives one too): step h toward the root,
            # which closes the bracket if the root is that near; t is a
            # bracket end and the other end is over 2 h away
            short = (np.abs(tn - t) < h) & go_on
            if count(short):
                tn = np.where(short, np.where(up, t - h, t + h), tn)
        t = tn if n_live == live.size else np.where(live, tn, t)
        if k:
            live &= go_on
    return (np.where(failed, edge, t) if n_failed else t), failed


class _Group(NamedTuple):
    """One update group: its gather table and what stays fixed per solve.

    For x-only f, fx is f at the group's nodes, floor the (n, K) table of
    slope floors max((eps_k |f|)^(2/3) / (2 sigma), _DELTA_REG) and E the
    (n, K) table eps_k^2 f_i of the closed form's numerators, pairs minor
    like the kernel's arrays, from which `_steep` and `_candidate` take
    the steepest pair's entries; for t-dependent f, coefs holds the
    coefficient values at the nodes.
    """
    tab: object
    fx: np.ndarray = None
    floor: np.ndarray = None
    E: np.ndarray = None
    coefs: dict = None


def _floor(eps, fx):
    """Slope floor max(p_floor^2, _DELTA_REG), where p_floor^2 is
    (eps |f|)^(2/3) / (2 sigma)."""
    return np.maximum((eps * np.abs(fx)) ** (2.0 / 3.0) / (2.0 * SIGMA),
                      _DELTA_REG)


def _safe_top(stencil, f, fx):
    """The certificate: a max |u| over the non-exterior nodes up to which
    every entry of the residual S * p2 - f is finite, or -inf for none.

    B bounds |f|: max |fx| for an x-only f (fx its values at the table's
    nodes), `core._finite_bound` of a t-dependent one (`f.bound` where
    that also shows f finite at every finite t), and there is no
    certificate unless B <= SATURATE.  No gathered value, arm or
    correction sum, apm, second difference S or slope phat at a node
    exceeds q M, M the max |u| over the nodes it reads and q the gain
    max_k (sum_j |w_jk| + sum_corr |w_jk| + 2 |c0_k|) max(1, eps_min^-2)
    from the stencil's weights w, centre weights c0 and least arm
    length.  p2 = max(phat^2, floor) with floor at most
    F = `_floor`(eps_max, B), so q M <= min(_ROOM^(1/3), _ROOM / F) keeps
    every factor and |S * p2| within _ROOM, a quarter of the largest
    double, which leaves room for rounding and for f.
    """
    B = _finite_bound(f.tree) if f.depends_on_t \
        else np.abs(fx).max(initial=0.0)
    F = _floor(stencil._eps.max(), B) if B <= SATURATE else math.inf
    if not F < math.inf:
        return -math.inf
    w = np.abs(stencil._wts)
    q = (w.sum(axis=0) + w[2 * stencil._P:].sum(axis=0)
         + 2.0 * np.abs(stencil._c0)).max() \
        * max(1.0, stencil._eps.min() ** -2.0)
    return float(_ROOM ** (1.0 / 3.0) * min(1.0, _ROOM ** (2.0 / 3.0) / F)
                 / q)


class _Sweeper:
    """Vectorized colored Gauss-Seidel machinery shared by the solvers.

    One gather table covers the interior with the two colors laid end to
    end in sweep order, color 0 then color 1.  `groups` are its parts
    (`_Table.part`, each copied to contiguous indices once per solve).
    `fp_residual` reads the whole table, or one group, in one
    `pair_arrays` pass and hands color 0 the data its update reads
    (`full_sweep(values, head)`).  With a certificate, `safe`, the max
    |u| up to which color 1's part is certainly finite (`_safe_top`),
    color 0's part is taken after every sweep and color 1's only where
    it can change the outcome (`_iterate` says where); without one, the
    whole table after every sweep.  The per-pair
    constants the update and the residual read at the picked pair, eps,
    eps^2, c0 and 2 c0, are arrays over the pairs, worked out once per
    solve.  The implicit update brackets each node's root at its own
    value u0 +- 1, takes one Newton step from u0 and counts the nodes
    where no sign change is found.  Given `node`, one node's index tuple,
    the table is that node's alone (`local_update`), the floor and the
    coefficients are taken there only, and the implicit update is solved
    to the root.
    """

    def __init__(self, domain, f, stencil, opts, node=None):
        self.f = f
        self.stencil = stencil
        # undamped colored sweeps can enter a period-2 cycle when f
        # depends on t (the frozen slope couples neighboring updates),
        # so a t-dependent f defaults to averaging damping
        self.theta = opts.damping if opts.damping is not None \
            else (0.5 if f.depends_on_t else 1.0)
        if node is not None:
            table, cut = stencil.gather(node), 1
        else:
            parity = np.indices(domain.dims).sum(axis=0) % 2
            colors = [np.nonzero(domain.interior & (parity == c))
                      for c in (0, 1)]
            table = stencil.gather(tuple(np.concatenate(c)
                                         for c in zip(*colors)))
            cut = colors[0][0].size
        self.bracket_failures = 0
        # one Newton step per node and sweep; one node's update
        # (`local_update`) is solved to the root
        self.rounds = 1 if node is None else _ROOT_ROUNDS
        self.ne_flat = np.flatnonzero(domain.nonexterior)
        self.eps, self.c0 = stencil._eps, stencil._c0
        self.eps_sq, self.c2 = self.eps ** 2, 2.0 * self.c0
        if f.depends_on_t:
            # coefficient values, resolved once per solve
            self.all = _Group(table, coefs=_at(f.coef_grid(domain),
                                               table.flat))
        else:
            fx = f.eval_grid(domain, np.zeros(domain.dims)).take(table.flat)
            self.all = _Group(table, fx=fx,
                              floor=_floor(self.eps, fx[:, None]),
                              E=self.eps_sq * fx[:, None])
        # the two colors (one node and an empty group for `local_update`)
        self.groups = [self._part(0, cut), self._part(cut, table.flat.size)]

    @cached_property
    def safe(self):
        """`_safe_top` of this solve, worked out when a sweep first asks
        (a 1-D Newton solve never does)."""
        return _safe_top(self.stencil, self.f, self.all.fx)

    def _part(self, a, b):
        """The group of the table's nodes a..b-1."""
        g = self.all
        if g.coefs is not None:
            return _Group(g.tab.part(a, b), coefs={
                k: v[a:b] if np.ndim(v) else v for k, v in g.coefs.items()})
        return _Group(g.tab.part(a, b), fx=g.fx[a:b], floor=g.floor[a:b],
                      E=g.E[a:b])

    def _steep(self, values, grp):
        """Steepest-pair data at a group's nodes, in its order.

        Returns the tuple (u, A, k, pick, p2, fx, dfx, apm, cs, phat).
        The first seven are the update's data (`_candidate`): the values,
        A = apm - 2 cs (apm itself when cs is the scalar 0.0, which has
        no correction slots to subtract), the index of the pair
        `scheme._select` picks and its flat indices into the group's
        (n, K) tables, the floored squared slope, f at the values and
        df/dt at the values (the scalar 0.0 for x-only f).  The last three
        are what the residual and the Newton system read besides: the sum
        of the two arm values and the correction sum along the pair and
        the signed centered slope.  A t-dependent f is evaluated with its
        derivative, in one tree walk that gives the same f; the implicit
        update starts from the pair.
        """
        u, apm, cs, k, pick, phat = _pick(self.stencil, values, grp.tab)
        if self.f.depends_on_t:
            fx, dfx = self.f.eval_nodes(u, grp.coefs, dt=True)
            floor = _floor(self.eps.take(k), fx)
        else:
            fx, dfx, floor = grp.fx, 0.0, grp.floor.take(pick)
        A = apm - 2.0 * cs if self.stencil._corr else apm
        return (u, A, k, pick, np.maximum(phat ** 2, floor), fx, dfx, apm,
                cs, phat)

    def _candidate(self, grp, data):
        """Candidate values at a group's nodes from the update's data
        (the first seven entries of `_steep`'s tuple): the closed form
        (A - E / p2) / (2 c0) for x-only f, from the group's E table and
        the per-pair 2 c0, else `_implicit` with `self.rounds` Newton
        steps (one in a sweep, to the root for `local_update`)."""
        u0, A, k, pick, p2, fx, dfx = data[:7]
        if not self.f.depends_on_t:
            return (A - grp.E.take(pick) / p2) / self.c2.take(k)
        t, failed = self._implicit(u0, A, p2, self.eps.take(k),
                                   self.c0.take(k), grp.coefs, u0 - 1.0,
                                   u0 + 1.0, (fx, dfx), self.rounds)
        self.bracket_failures += int(np.count_nonzero(failed))
        return t

    def _implicit(self, u0, A, p2, eps_s, c0_s, coefs, lo, hi, f0=None,
                  rounds=_ROOT_ROUNDS):
        """Implicit local update at a set of nodes (1-D arrays).

        Solves 2 c0 t - A + eps^2 f(x, t) / p2 = 0 by `_local_solve`
        from the bracket [lo, hi], warm-started at the current values u0,
        with the gradient floor in p2 frozen at the incoming value; at a
        Gauss-Seidel fixed point the frozen floor equals the current one,
        so fp_residual vanishes there.  `rounds` caps the Newton steps:
        the default solves to the root, and a sweep takes one step.
        `f0`, the pair (f, df/dt) at u0 that `_steep` found (u0 inside
        [lo, hi]), makes the first Newton step's g and g' without a
        second evaluation of f.  Returns (t, failed) as `_local_solve`
        does.
        """
        f = self.f
        eps2 = eps_s ** 2
        c2 = 2.0 * c0_s

        def pair(t, ft, dft):
            return c2 * t - A + eps2 * ft / p2, c2 + eps2 * dft / p2

        def g(t, dt=False):
            if not dt:
                return c2 * t - A + eps2 * f.eval_nodes(t, coefs) / p2
            return pair(t, *f.eval_nodes(t, coefs, dt=True))

        first = None if f0 is None else pair(u0, *f0)
        return _local_solve(g, lo, hi, u0, first, rounds)

    def fp_residual(self, values, grp=None):
        """Sup-norm of the regularized residual S * phat2_eff - f.

        This is the residual of the equation the local update actually
        solves; it vanishes at the Gauss-Seidel fixed point even at nodes
        where the discrete gradient degenerates (e.g. interior extrema,
        where the raw S * phat^2 residual cannot go below |f|).

        Taken over the whole table, or at the nodes of one update group
        `grp` (0 for an empty one): `_iterate` takes color 0's part after
        every sweep and color 1's only when it can change the outcome,
        or, with no certificate, the whole table after every sweep.
        Returns (residual, head): head is the update's data (the first
        seven entries of `_steep`'s tuple) at `grp`'s nodes, or at color
        0's for the whole table, whose first rows they are; at color 0
        it is the `head` of the next `full_sweep` on these values.
        """
        data = self._steep(values, self.all if grp is None else grp)
        u, _, k, _, p2, fx, _, apm, cs, _ = data
        F = _second_diff(u, apm, cs, self.eps_sq.take(k),
                         _c0_at(self.stencil, k)) * p2 - fx
        head = data[:7]
        if grp is None:
            n = self.groups[0].tab.flat.size
            u, A, k, pick, p2, fx, dfx = head
            head = (u[:n], A[:n], k[:n], pick[:n], p2[:n], fx[:n],
                    dfx[:n] if self.f.depends_on_t else dfx)
        return float(np.abs(F, out=F).max(initial=0.0)), head

    def top(self, values):
        """max |u| over the non-exterior nodes, the boundary ones too."""
        return np.abs(values.take(self.ne_flat)).max()

    def diverged(self, values, res, alarm, top=None):
        """The one divergence rule: the residual is not finite (it is so
        before the iterate overflows), or max |u| over the non-exterior
        nodes passes `alarm` (None for no alarm).  `top`, when given, is
        that max, `self.top(values)`."""
        return not math.isfinite(res) or (
            alarm is not None
            and (self.top(values) if top is None else top) > alarm)

    def newton_system(self, values, order, link):
        """F = S * p2 - f and its tridiagonal Jacobian, in grid order (1-D).

        `order` sorts the table's nodes into grid order (the table lists
        color 0 first), and link[j] says whether sorted nodes j and j + 1
        are grid neighbours.  With the one pair's plus arm at the next
        node, dF_i/du_i = -2 c0 p2 / eps^2 and dF_i/du_(i+-1) =
        p2 / eps^2 +- S phat / eps, without the S phat term where the
        floor binds; boundary neighbours drop out.

        Returns (F, ab), ab in the layout of `solve_banded((1, 1), ...)`.
        The entries are worked out node by node in table order and only
        then sorted, which gives the same values.
        """
        u, _, k, _, p2, fx, _, apm, cs, phat = self._steep(values, self.all)
        eps_sq = self.eps_sq.take(k)
        S = _second_diff(u, apm, cs, eps_sq, _c0_at(self.stencil, k))
        arm = p2 / eps_sq
        slope = np.where(phat ** 2 < p2, 0.0, S * phat / self.eps.take(k))
        F, arm, slope, diag = ((S * p2 - fx)[order], arm[order],
                               slope[order],
                               (-2.0 * self.c0.take(k) * arm)[order])
        ab = np.zeros((3, F.size))
        ab[0, 1:] = np.where(link, (arm + slope)[:-1], 0.0)
        ab[1] = diag
        ab[2, :-1] = np.where(link, (arm - slope)[1:], 0.0)
        return F, ab

    def half_sweep(self, values, grp, head=None, only_up=False, cap=None):
        """Update one group; `head` is its update data at these values
        (what `fp_residual` hands on at color 0), found here when not
        given."""
        if head is None:
            head = self._steep(values, grp)
        old = head[0]
        t = self._candidate(grp, head)
        # theta 1.0 relaxes nothing: 1.0 * x is x exactly
        new = old + (t - old) if self.theta == 1.0 \
            else old + self.theta * (t - old)
        if only_up:
            new = np.maximum(old, new)
        clipped = False
        if cap is not None:
            top = cap.take(grp.tab.flat)
            clipped = bool((new > top + 1e-12).any())
            new = np.minimum(new, top)
        values.put(grp.tab.flat, new)
        return clipped

    def full_sweep(self, values, head=None, only_up=False, cap=None):
        """One sweep: each update group in turn.

        `head` is the data `fp_residual` returned at the first group's
        nodes for these same values, and that group updates from it
        without gathering again.
        """
        clipped = False
        for grp in self.groups:
            clipped |= self.half_sweep(values, grp, head, only_up=only_up,
                                       cap=cap)
            head = None
        return clipped


def local_update(node, u, f, s):
    """Solve the local scalar equation at one interior node.

    Returns the value t with (u+ - 2t~ + u-) * phat^2 / eps^2 = f(x, t),
    where t~ is t adjusted by the stencil's center correction and phat is
    frozen from the current iterate.  Gathers that node alone, solves an
    implicit update to the root (a sweep takes one Newton step there),
    and raises ValueError where the bracket search finds no sign change.
    """
    node = tuple(node)
    if u.domain.mask[node] != 2:
        raise ValueError("local_update needs an interior node")
    sw = _Sweeper(u.domain, f, s, SolveOptions(), node=node)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        t = float(sw._candidate(sw.all, sw._steep(u.values, sw.all))[0])
    if sw.bracket_failures:
        raise ValueError("bracket failure in local update")
    return t


def _tol(opts, b):
    """`opts.tol_for(b)`, once the alarm lies above sup|b|: a lower one
    would end every solve after its first sweep."""
    top = max(abs(b.ell), abs(b.L))
    if opts.alarm_bound is not None and opts.alarm_bound <= top:
        raise ValueError("alarm_bound %r must exceed sup|b| = %r"
                         % (opts.alarm_bound, top))
    return opts.tol_for(b)


def _check_start(sw, vals, alarm, what):
    """Reject a start beyond the alarm: the alarm bounds |u| (see `_tol`),
    so such a start would end the run as diverged at its first sweep,
    whatever the sweeps do.  `vals` is the start as the run sees it, the
    boundary data in place, and `what` names it in the message."""
    if alarm is None:
        return
    top = float(sw.top(vals))
    if top > alarm:
        raise ValueError("%s: max |u| = %r over the non-exterior nodes is "
                         "above alarm_bound %r" % (what, top, alarm))


def _iterate(sw, vals, tol, budget, alarm, sweep=None):
    """The one sweep loop: up to `budget` sweeps of `vals` in place, each
    followed by the residual, stopping as `sw.diverged` says (alarm None
    for none) or at the first residual <= tol.  `sweep(vals, head)`, by
    default `sw.full_sweep`, starts from the data `fp_residual` handed
    over.  Returns (status, sweeps, residual).

    After a sweep the residual is taken at color 0, whose data the next
    sweep's first group reads, and max |u| once.  Color 1's part, and
    with it the residual over the whole table (the max of the two, NaN
    if either is), is taken only where it can change the outcome: color
    0's part is <= tol or not finite, the alarm trips, the sweep is the
    budget's last, or max |u| is above `sw.safe`, up to which color 1's
    part is certainly finite.  Elsewhere the residual is above tol and
    finite whatever color 1's part is, so the run goes on as it would.
    A solve without a certificate (`sw.safe` -inf) would read color 1
    after every sweep, and reads the whole table in one pass instead.
    """
    sweep = sweep or sw.full_sweep
    first, second = sw.groups
    safe = sw.safe
    res, head, top = np.inf, None, None
    for it in range(1, budget + 1):
        sweep(vals, head)
        if safe == -math.inf:
            res, head = sw.fp_residual(vals)
        else:
            res, head = sw.fp_residual(vals, first)
            top = sw.top(vals)
            if not (tol < res and top <= safe
                    and (alarm is None or top <= alarm)) or it == budget:
                res = float(np.max((res, sw.fp_residual(vals, second)[0])))
        if sw.diverged(vals, res, alarm, top):
            return "diverged_past_alarm", it, res
        if res <= tol:
            return "converged", it, res
    return "max_sweeps_reached", budget, res


def _newton(sw, vals, tol, budget, alarm):
    """Damped Newton on the 1-D system F(u) = 0 of an x-only f.

    F is the residual `fp_residual` bounds, so a converged Newton solve
    carries the same certificate as a Gauss-Seidel one.  Each round takes
    one `_newton_step`; where it finds no step, up to _FALLBACK_SWEEPS
    Gauss-Seidel sweeps move the iterate instead.  Newton steps plus
    sweeps stay within `budget`, and `sw.diverged` is tested after every
    step and sweep (alarm None for no alarm).

    Returns (status, steps, sweeps, residual); status is None when
    _NEWTON_ROUNDS rounds ended without a verdict.
    """
    order = np.argsort(sw.all.tab.flat)
    flat = sw.all.tab.flat[order]
    link = np.diff(flat) == 1
    F, ab = sw.newton_system(vals, order, link)
    steps = sweeps = 0
    for rounds in range(_NEWTON_ROUNDS + 1):
        res = float(np.abs(F).max())
        # after a step; a fallback burst has tested its own sweeps
        if rounds and sw.diverged(vals, res, alarm):
            return "diverged_past_alarm", steps, sweeps, res
        if res <= tol:
            return "converged", steps, sweeps, res
        if steps + sweeps >= budget:
            return "max_sweeps_reached", steps, sweeps, res
        if rounds == _NEWTON_ROUNDS:
            break
        step = _newton_step(sw, vals, flat, order, link, F, ab)
        if step is not None:
            F, ab = step
            steps += 1
            continue
        status, k, res = _iterate(
            sw, vals, tol, min(_FALLBACK_SWEEPS, budget - steps - sweeps),
            alarm)
        sweeps += k
        if status != "max_sweeps_reached":
            return status, steps, sweeps, res
        F, ab = sw.newton_system(vals, order, link)
    return None, steps, sweeps, res


def _newton_step(sw, vals, flat, order, link, F, ab):
    """One globalized Newton step on the values at `flat`, in place.

    Solves the tridiagonal system for the direction, then backtracks from
    the full step, halving it down to _MIN_STEP, until ||F||^2 falls by
    the Armijo factor 1 - 2 _ARMIJO t.  Returns the new (F, ab), or None
    (values untouched) when the matrix is singular or no step passes:
    F is only piecewise smooth, so the direction need not descend.
    """
    from scipy.linalg import LinAlgError, solve_banded
    try:
        dx = solve_banded((1, 1), ab, -F)
    except (LinAlgError, ValueError):   # singular, or not finite
        return None
    u, phi = vals.take(flat), F @ F
    trial = vals.copy()
    t = 1.0
    while t >= _MIN_STEP:
        trial.put(flat, u + t * dx)
        Ft, abt = sw.newton_system(trial, order, link)
        if Ft @ Ft <= (1.0 - 2.0 * _ARMIJO * t) * phi:
            vals.put(flat, u + t * dx)
            return Ft, abt
        t *= 0.5
    return None


def solve_dirichlet(d, f, b, opts=None, params=None, initial_guess=None):
    """Solve Delta_inf u = f(x, u), u = b on the boundary.

    The initial guess is the f == 0 solve of the same boundary data,
    started from the constant (ell + L) / 2, unless `initial_guess` (a
    ScalarField) is supplied.

    In 1-D with an x-only f the discrete system F(u) = S p2 - f = 0 has
    one direction pair and a tridiagonal Jacobian, and both the f == 0
    start and the solve use `_newton`, handing over to Gauss-Seidel
    sweeps after _NEWTON_ROUNDS rounds.  `newton_steps` and `sweeps` then
    count the start's steps and sweeps too, and all of them together stay
    within `max_sweeps`; `damping` shapes only the sweeps.
    Everywhere else (2-D, 3-D, or f depending on t) the solve is the
    colored Gauss-Seidel iteration, and the start's sweeps, which the
    budget does not count, are reported as `start_sweeps`.

    Returns
    -------
    (ScalarField, SolveReport)
    """
    opts = opts or SolveOptions()
    params = params or SchemeParams()
    stencil = Stencil(d, params)
    tol = _tol(opts, b)
    newton = d.N == 1 and not f.depends_on_t
    steps = sweeps = start_sweeps = 0
    start = None
    if initial_guess is not None:
        vals = initial_guess.values.copy()
    else:
        vals = np.full(d.dims, np.nan)
        vals[d.interior] = 0.5 * (b.ell + b.L)
        start = _Sweeper(d, RhsSpec("(const 0)"), stencil,
                         replace(opts, damping=1.0))
    vals[d.boundary] = b.values[d.boundary]
    sw = _Sweeper(d, f, stencil, opts)
    if initial_guess is not None:
        _check_start(sw, vals, opts.alarm_bound, "initial_guess")
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if start is not None:
            if newton:
                _, steps, sweeps, _ = _newton(start, vals, tol,
                                              opts.max_sweeps, None)
            else:
                _, start_sweeps, _ = _iterate(start, vals, tol,
                                              opts.max_sweeps, None)
        budget = opts.max_sweeps - steps - sweeps
        status = None
        if newton:
            status, k, j, res_sup = _newton(sw, vals, tol, budget,
                                            opts.alarm_bound)
            steps, sweeps, budget = steps + k, sweeps + j, budget - k - j
        if status is None:
            status, j, res_sup = _iterate(sw, vals, tol, budget,
                                          opts.alarm_bound)
            sweeps += j
    u = ScalarField(d, vals)
    rep = SolveReport(status, sweeps, res_sup, u.sup(), u.inf(),
                      monotone=False, bracket_failures=sw.bracket_failures,
                      newton_steps=steps, start_sweeps=start_sweeps)
    return u, rep


def perron_solve(d, f, b, sub, super_, opts=None, params=None):
    """Monotone nondecreasing iteration from a sub-solution.

    Starts at `sub`, applies each local update only when it increases the
    value, and clips at `super_` (pass None for an unbounded probe).  On
    convergence the field sits between sub and super.  It stops as
    diverged by the rule `solve_dirichlet` uses, `_Sweeper.diverged`.
    The report's `clipped` says whether the last sweep hit the cap,
    whatever the status.
    """
    opts = opts or SolveOptions()
    params = params or SchemeParams()
    stencil = Stencil(d, params)
    tol = _tol(opts, b)
    ne, bd = d.nonexterior, d.boundary
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
    sw = _Sweeper(d, f, stencil, opts)
    _check_start(sw, vals, opts.alarm_bound, "sub")
    clipped, monotone, ascent = False, True, True

    def sweep(vals, head):
        # Phase 1 is the sup-over-sub-solutions construction, a pure
        # ascent.  The update is not monotone in the neighbor values (the
        # division by the squared slope breaks it), so the ascent can lock
        # in an overshoot and stall above the fixed point; once its upward
        # motion dies out, clamped sweeps finish inside [sub, super].
        nonlocal clipped, monotone, ascent
        old = vals.take(sw.ne_flat)
        clipped = sw.full_sweep(vals, head, only_up=ascent, cap=cap)
        if ascent:
            ascent = not np.abs(vals.take(sw.ne_flat) - old).max() < tol
        else:
            np.maximum(vals, sub.values, out=vals)
            monotone &= not (vals.take(sw.ne_flat) < old - 1e-12).any()

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        status, sweeps, res_sup = _iterate(sw, vals, tol, opts.max_sweeps,
                                           opts.alarm_bound, sweep)
    u = ScalarField(d, vals)
    rep = SolveReport(status, sweeps, res_sup, u.sup(), u.inf(),
                      monotone=monotone, clipped=clipped,
                      bracket_failures=sw.bracket_failures)
    return u, rep


def probe_nonexistence(d, f, b, opts):
    """Unbounded Perron probe: blow-up evidence for the non-existence regime.

    Runs the only-increase iteration from the constant sub-solution at the
    boundary infimum with no upper clipping; crossing opts.alarm_bound is
    reported as diverged_past_alarm (a result, not an error).  That
    constant is a sub-solution only where f(x, ell) <= 0: where f(x, ell)
    > 0 the update lowers it, the only-increase iteration cannot move,
    and the probe would spin to max_sweeps, so that is a ValueError.
    """
    if opts.alarm_bound is None:
        raise ValueError("probe_nonexistence needs alarm_bound set")
    fl = f.eval_grid(d, b.ell)[d.interior]
    if (fl > 0).any():
        raise ValueError("probe_nonexistence: f(x, ell) > 0 at %d interior "
                         "nodes (max %r), so the start ell = %r is no "
                         "sub-solution" % (np.count_nonzero(fl > 0),
                                           float(np.nanmax(fl)), b.ell))
    sub = ScalarField.constant(d, b.ell)
    _, rep = perron_solve(d, f, b, sub, None, opts)
    return rep
