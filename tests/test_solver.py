"""Tests for the Gauss-Seidel and Perron solvers."""

import re

import numpy as np
import pytest
from scipy.optimize import brentq

from inflap import (
    BoundaryTrace,
    RhsSpec,
    ScalarField,
    SchemeParams,
    SolveOptions,
    Stencil,
    build_domain,
    local_update,
    perron_solve,
    probe_nonexistence,
    residual_field,
    solve_dirichlet,
)
from inflap.solver import _Sweeper
from inflap.solver import _local_solve as _bare_local_solve


def _local_solve(g, lo, hi, t0):
    """`solver._local_solve` inside the errstate block its callers open."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return _bare_local_solve(g, lo, hi, t0)


class TestSolveDirichlet:
    def test_constant_boundary_zero_rhs(self, ball2d):
        b = BoundaryTrace.constant(ball2d, 3.0)
        u, rep = solve_dirichlet(ball2d, RhsSpec("(const 0)"), b)
        assert rep.status == "converged"
        assert rep.sweeps <= 2
        assert np.allclose(u.values[ball2d.nonexterior], 3.0)

    def test_one_dimensional_exact(self):
        # f == 1 on (0, 1) with zero boundary data has the closed form
        # u(x) = (1/4) ((3|x - A|)^(4/3) sgn(x - A) + (3 A)^(4/3)),
        # A fixed by u(1) = 0
        d = build_domain({"kind": "box", "lo": [0.0], "hi": [1.0]}, 1.0 / 100)
        b = BoundaryTrace.constant(d, 0.0)
        u, rep = solve_dirichlet(d, RhsSpec("(const 1)"), b,
                                 SolveOptions(tol=1e-10))
        assert rep.status == "converged"

        # symmetry pins the critical point at A = 1/2
        A = 0.5
        x = d.grid_coords()[0]
        exact = (np.abs(3.0 * (x - A)) ** (4 / 3)
                 - (3.0 * A) ** (4 / 3)) / 4.0
        err = np.abs(u.values - exact)[d.nonexterior].max()
        assert err < 5e-4

    def test_degree_three_scaling(self, ball2d, rng):
        # u solves rhs f iff c*u solves c**3 * f with boundary c*b
        c = 2.0
        b = BoundaryTrace.constant(ball2d, 0.0)
        u1, r1 = solve_dirichlet(ball2d, RhsSpec("(const 1)"), b,
                                 SolveOptions(tol=1e-10))
        u2, r2 = solve_dirichlet(ball2d, RhsSpec("(const 8)"), b,
                                 SolveOptions(tol=1e-10))
        assert r1.status == r2.status == "converged"
        ne = ball2d.nonexterior
        assert np.abs(c * u1.values[ne] - u2.values[ne]).max() < 1e-7

    def test_start_sweeps_constant_data(self, small_ball8):
        # the f == 0 start is at its fixed point after one sweep
        d = small_ball8
        b = BoundaryTrace.constant(d, 0.3)
        _, rep = solve_dirichlet(d, RhsSpec("(const -1)"), b,
                                 SolveOptions(tol=1e-8))
        assert rep.status == "converged"
        assert rep.start_sweeps == 1

    def test_start_sweeps_nonconstant_data(self, small_ball8):
        # the start is the f == 0 solve from the constant (ell + L) / 2,
        # and its sweeps are not in `sweeps`
        d = small_ball8
        b = BoundaryTrace.from_function(d, lambda p: 0.1 * p[:, 0])
        opts = SolveOptions(tol=1e-8)
        u, rep = solve_dirichlet(d, RhsSpec("(const -1)"), b, opts)
        mid = ScalarField.constant(d, 0.5 * (b.ell + b.L))
        u0, start = solve_dirichlet(d, RhsSpec("(const 0)"), b, opts,
                                    initial_guess=mid)
        assert start.status == "converged" and start.sweeps > 1
        assert rep.start_sweeps == start.sweeps
        # started from the start's field, the solve takes the same sweeps
        again, rep2 = solve_dirichlet(d, RhsSpec("(const -1)"), b, opts,
                                      initial_guess=u0)
        assert rep2.start_sweeps == 0
        assert rep2.sweeps == rep.sweeps
        assert np.array_equal(again.values, u.values, equal_nan=True)

    def test_start_sweeps_outside_the_budget(self, small_ball8):
        # x0 x1 data: the start does not converge and runs out its own
        # max_sweeps before the solve gets the full budget
        d = small_ball8
        b = BoundaryTrace.from_function(d, lambda p: p[:, 0] * p[:, 1])
        _, rep = solve_dirichlet(d, RhsSpec("(const -1)"), b,
                                 SolveOptions(tol=1e-8, max_sweeps=40))
        assert rep.status == "max_sweeps_reached"
        assert rep.start_sweeps == rep.sweeps == 40

    def test_start_sweeps_one_dimensional(self):
        # with an x-only f the 1-D start runs Newton and counts in
        # newton_steps and sweeps; a t-dependent f sweeps as in 2-D
        d = build_domain({"kind": "box", "lo": [0.0], "hi": [1.0]}, 0.05)
        b = BoundaryTrace.from_function(d, lambda p: p[:, 0])
        opts = SolveOptions(tol=1e-8)
        _, rep = solve_dirichlet(d, RhsSpec("(const 1)"), b, opts)
        assert rep.status == "converged" and rep.newton_steps > 0
        assert rep.start_sweeps == 0
        _, rep = solve_dirichlet(d, RhsSpec("(neg (exp t))"), b, opts)
        assert rep.status == "converged" and rep.newton_steps == 0
        assert rep.start_sweeps > 0

    def test_start_sweeps_initial_guess(self, small_ball8):
        d = small_ball8
        b = BoundaryTrace.from_function(d, lambda p: 0.1 * p[:, 0])
        _, rep = solve_dirichlet(d, RhsSpec("(const -1)"), b,
                                 SolveOptions(tol=1e-8),
                                 initial_guess=ScalarField.constant(d, 0.0))
        assert rep.status == "converged"
        assert rep.start_sweeps == 0

    def test_residual_small_after_converged(self, ball2d):
        b = BoundaryTrace.constant(ball2d, 0.0)
        f = RhsSpec("(const 1)")
        u, rep = solve_dirichlet(ball2d, f, b, SolveOptions(tol=1e-9))
        res = residual_field(u, f, Stencil(ball2d, SchemeParams()))
        # the regularized fixed-point residual converged; the raw one is
        # small wherever the gradient is not degenerate
        assert rep.residual <= 1e-9
        assert np.median(np.abs(res.values[ball2d.interior])) < 1e-6

    def test_t_dependent_monotone(self, small_ball):
        # f(t) = e^t is nondecreasing, handled by the scalar bisection
        b = BoundaryTrace.constant(small_ball, 0.0)
        f = RhsSpec("(exp t)", monotone_in_t="nondecreasing")
        u, rep = solve_dirichlet(small_ball, f, b, SolveOptions(tol=1e-7))
        assert rep.status == "converged"
        assert u.sup() <= 0.0 + 1e-12
        assert u.inf() > -1.0

    def test_initial_guess_independence(self, ball2d):
        # the gradient-dominated zero-rhs problem has a unique discrete
        # solution, so the start point cannot matter
        b = BoundaryTrace.from_function(ball2d, lambda p: p[:, 0] - p[:, 1])
        f = RhsSpec("(const 0)")
        o = SolveOptions(tol=1e-9)
        u1, _ = solve_dirichlet(ball2d, f, b, o)
        g = ScalarField.constant(ball2d, 2.0)
        u2, _ = solve_dirichlet(ball2d, f, b, o, initial_guess=g)
        ne = ball2d.nonexterior
        assert np.abs(u1.values[ne] - u2.values[ne]).max() < 1e-6

    def test_bad_options(self):
        with pytest.raises(ValueError):
            SolveOptions(max_sweeps=0)
        with pytest.raises(ValueError):
            SolveOptions(tol=-1.0)
        # red-black is the one sweep order: no knob selects it
        with pytest.raises(TypeError):
            SolveOptions(order="red-black")

    # damping 0 ran to max_sweeps with residual 1, a negative one
    # overflowed, and alarm_bound -1 ended every solve after one sweep;
    # over-relaxation (above 1) never converged on this scheme
    @pytest.mark.parametrize("damping", [0.0, -0.5, 1.0 + 1e-12, 1.2, 1.9,
                                         2.0, 2.5, np.nan, np.inf,
                                         -np.inf])
    def test_bad_damping(self, damping):
        with pytest.raises(ValueError, match="damping"):
            SolveOptions(damping=damping)

    @pytest.mark.parametrize("alarm", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_alarm_bound(self, alarm):
        with pytest.raises(ValueError, match="alarm_bound"):
            SolveOptions(alarm_bound=alarm)

    @pytest.mark.parametrize("damping", [1e-3, 0.5, 1.0])
    def test_damping_in_range_accepted(self, damping):
        assert SolveOptions(damping=damping, alarm_bound=1e-3).damping \
            == damping

    def test_overflow_ends_diverged(self):
        # from an interior at 1e200 the first sweep's S * p2 overflows;
        # the solve stops there, with finite values and no alarm set,
        # instead of sweeping on into inf and raising
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                         1.0 / 8)
        b = BoundaryTrace.constant(d, 1.0)
        u, rep = solve_dirichlet(d, RhsSpec("(const -1)"), b,
                                 initial_guess=ScalarField.constant(d, 1e200))
        assert rep.status == "diverged_past_alarm" and rep.sweeps == 1
        assert np.isnan(rep.residual)
        assert np.isfinite(u.values[d.nonexterior]).all()
        assert rep.sup > 1e100

    def test_alarm_ends_diverged(self):
        # f = -e^u has no solution on the R=3 ball: the first sweep takes
        # the iterate past the alarm while the residual, saturated at
        # 1e300, is still finite, and the solve stops there
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 3.0},
                         0.25)
        b = BoundaryTrace.constant(d, 0.0)
        _, rep = solve_dirichlet(d, RhsSpec("(neg (exp t))"), b,
                                 SolveOptions(alarm_bound=20.0))
        assert rep.status == "diverged_past_alarm" and rep.sweeps == 1
        assert np.isfinite(rep.residual) and rep.sup > 20.0

    @pytest.mark.parametrize("data", [30.0, -30.0, 20.0])
    def test_alarm_must_exceed_boundary_sup(self, small_ball8, data):
        # the boundary nodes count in the alarm's max, so an alarm at or
        # below sup|b| ended a converging solve after one sweep
        d = small_ball8
        b = BoundaryTrace.constant(d, data)
        f = RhsSpec("(const -1)")
        sub = ScalarField.constant(d, min(data, 0.0))
        opts = SolveOptions(alarm_bound=20.0)
        for run in (lambda: solve_dirichlet(d, f, b, opts),
                    lambda: perron_solve(d, f, b, sub, None, opts),
                    lambda: probe_nonexistence(d, f, b, opts)):
            with pytest.raises(ValueError, match="alarm_bound 20.0 must "
                               "exceed sup.b. = %r" % abs(data)):
                run()
        _, rep = solve_dirichlet(d, f, b, SolveOptions(alarm_bound=31.0))
        assert rep.status == "converged"

    def test_start_beyond_alarm_is_config_error(self, small_ball8):
        # the alarm bounds |u|, so a start above it ended a run that
        # converges without the alarm after its first sweep
        d = small_ball8
        b = BoundaryTrace.constant(d, 0.0)
        f = RhsSpec("(const -1)")
        start = ScalarField.constant(d, -25.0)
        opts = SolveOptions(alarm_bound=20.0)
        with pytest.raises(ValueError, match=r"^sub: max \|u\| = 25.0 .* "
                           "above alarm_bound 20.0$"):
            perron_solve(d, f, b, start, None, opts)
        with pytest.raises(ValueError, match=r"^initial_guess: max \|u\| = "
                           "25.0 .* above alarm_bound 20.0$"):
            solve_dirichlet(d, f, b, opts, initial_guess=start)
        _, rep = perron_solve(d, f, b, start, None, SolveOptions())
        assert rep.status == "converged" and rep.sweeps == 55
        # a start at the alarm is not above it
        _, rep = perron_solve(d, f, b, ScalarField.constant(d, -20.0), None,
                              opts)
        assert rep.status == "converged"

    def test_callable_coefficient_resolved_once(self, small_ball8):
        # the residual used to resolve the coefficient again every sweep
        calls = []

        def a(pts):
            calls.append(len(pts))
            return 1.0 + pts[:, 0] ** 2

        f = RhsSpec("(mul (coef a) (neg (exp t)))", coefs={"a": a})
        b = BoundaryTrace.constant(small_ball8, 0.0)
        counts, sweeps = [], []
        for tol in (1e-3, 1e-9):
            calls.clear()
            _, rep = solve_dirichlet(small_ball8, f, b, SolveOptions(tol=tol))
            assert rep.status == "converged"
            counts.append(len(calls))
            sweeps.append(rep.sweeps)
        assert sweeps[0] < sweeps[1]
        assert counts == [1, 1]


class TestLocalUpdate:
    def test_closed_form_literal(self):
        # width-1 literal stencil on a 1D grid: the axis pair gives
        # (u+ + u-)/2 - t = eps^2 f / (2 phat^2) with
        # phat = (u+ - u-) / (2 eps)
        d = build_domain({"kind": "box", "lo": [0.0], "hi": [1.0]}, 0.25)
        s = Stencil(d, SchemeParams(w=1, refined=False))
        u = ScalarField(d, np.linspace(0.0, 1.0, d.dims[0]) ** 2)
        node = (2,)
        f = RhsSpec("(const 1)")
        got = local_update(node, u, f, s)
        up, um = u.values[3], u.values[1]
        eps = 0.25
        phat2 = ((up - um) / (2 * eps)) ** 2
        want = 0.5 * (up + um) - 0.5 * eps ** 2 * 1.0 / phat2
        assert got == pytest.approx(want, abs=1e-12)

    def test_requires_interior(self, ball2d):
        u = ScalarField.constant(ball2d, 0.0)
        s = Stencil(ball2d, SchemeParams())
        bd_node = tuple(np.argwhere(ball2d.boundary)[0])
        with pytest.raises(ValueError):
            local_update(bd_node, u, RhsSpec("(const 0)"), s)


class TestLocalSolve:
    """The safeguarded Newton local solve behind the implicit update."""

    @staticmethod
    def _g(f, c0, A, k):
        def g(t, dt=False):
            if not dt:
                return 2.0 * c0 * t - A + k * f.eval_nodes(t, {})
            ft, dft = f.eval_nodes(t, {}, dt=True)
            return 2.0 * c0 * t - A + k * ft, 2.0 * c0 + k * dft
        return g

    @pytest.mark.parametrize("expr", ["(exp t)", "(neg (exp t))"])
    def test_matches_brentq(self, expr):
        # g = 2 c0 t - A + k f(t): increasing for f = e^t, concave for
        # f = -e^t, where the root sought is the lower one, below the
        # maximum at t* = ln(2 c0 / k); some nodes need bracket expansion
        rng = np.random.default_rng(11)
        n = 40
        c0 = rng.uniform(0.5, 1.0, n)
        k = rng.uniform(0.01, 0.3, n)
        concave = expr.startswith("(neg")
        A = rng.uniform(-1.0, 0.0, n) if concave else rng.uniform(-3, 3, n)
        f = RhsSpec(expr)
        t, failed = _local_solve(self._g(f, c0, A, k), np.full(n, -0.5),
                                 np.full(n, 0.5), rng.uniform(-0.5, 0.5, n))
        assert not failed.any()
        for i in range(n):
            gi = lambda x: 2.0 * c0[i] * x - A[i] \
                + k[i] * float(f.eval_nodes(x, {}))
            top = np.log(2.0 * c0[i] / k[i]) if concave else 50.0
            ref = brentq(gi, -50.0, top, xtol=1e-15, rtol=1e-15)
            assert abs(t[i] - ref) <= 1e-12 * (1.0 + abs(ref))

    @pytest.mark.parametrize("expr,t0", [
        ("(add (const 1) (pow t 0.5))", 0.0),
        ("(add (const 1) (pow t 0.5))", -1e-300),
        ("(cospow 0.5)", np.pi),
    ])
    def test_infinite_slope_start(self, expr, t0):
        # df/dt is infinite at t0 (|t|^(g-1) at 0, (1 + cos t)^(g-1) at
        # pi), so the Newton step there is 0; the solve must bisect on,
        # not stop at t0 where g != 0
        rng = np.random.default_rng(5)
        n = 12
        c0 = rng.uniform(0.5, 1.0, n)
        k = rng.uniform(0.2, 1.0, n)
        A = rng.uniform(-1.0, 1.0, n) + 2.0 * c0 * t0
        f = RhsSpec(expr)
        g = self._g(f, c0, A, k)
        t, failed = _local_solve(g, np.full(n, t0 - 1.0),
                                 np.full(n, t0 + 1.0), np.full(n, t0))
        assert not failed.any()
        for i in range(n):
            gi = lambda x: 2.0 * c0[i] * x - A[i] \
                + k[i] * float(f.eval_nodes(x, {}))
            ref = brentq(gi, t0 - 10.0, t0 + 10.0, xtol=1e-15, rtol=1e-15)
            assert abs(t[i] - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_sign_change_on_last_widening(self):
        # the root 1.5 * 2^60 enters the bracket only with the 60th
        # widening (hi = 2^61 - 1); it is found, not reported as failed
        root = 1.5 * 2.0 ** 60

        def g(t, dt=False):
            return (t - root, np.ones_like(t)) if dt else t - root

        t, failed = _local_solve(g, np.array([-1.0]), np.array([1.0]),
                                 np.array([0.0]))
        assert not failed[0] and t[0] == root

    def test_newton_cycle_is_broken(self):
        # plain Newton on t^3 - 2t + 2 cycles 0 -> 1 -> 0; the shrinking
        # bracket and the bisection fallback reach the root near -1.769
        def g(t, dt=False):
            val = t ** 3 - 2.0 * t + 2.0
            return (val, 3.0 * t ** 2 - 2.0) if dt else val

        t, failed = _local_solve(g, np.array([-3.0]), np.array([3.0]),
                                 np.array([0.0]))
        ref = brentq(lambda x: x ** 3 - 2.0 * x + 2.0, -3.0, 0.0,
                     xtol=1e-15, rtol=1e-15)
        assert not failed[0] and abs(t[0] - ref) <= 1e-14

    def test_no_sign_change_returns_edge(self):
        # node 0: g < 0 everywhere (concave, max below 0), so hi runs off;
        # node 1: g > 0 everywhere, so lo runs off; node 2 is regular
        def g(t, dt=False):
            e = np.exp(np.minimum(t, 700.0))
            val = np.array([2 * t[0] - 5 - e[0], 1 + e[1], t[2] - 0.25])
            der = np.array([2 - e[0], e[1], 1.0])
            return (val, der) if dt else val

        t, failed = _local_solve(g, np.full(3, -1.0), np.full(3, 1.0),
                                 np.zeros(3))
        reach = 2.0 ** 61 - 2.0   # 60 doubling steps 2 + 4 + ... + 2^60
        assert failed.tolist() == [True, True, False]
        assert t[0] == 1.0 + reach and t[1] == -1.0 - reach
        assert t[2] == 0.25

    def test_zero_start_converges(self, small_ball8):
        # zero boundary data starts every node at t = 0, where the slope
        # of (pow t 0.5) is infinite; the solve still converges
        d = small_ball8
        f = RhsSpec("(add (const 1) (pow t 0.5))")
        b = BoundaryTrace.constant(d, 0.0)
        u, rep = solve_dirichlet(d, f, b, SolveOptions(max_sweeps=2000))
        assert rep.status == "converged" and rep.bracket_failures == 0
        assert u.values[d.interior].max() < 0.0

    def test_bracket_failures_counted(self, small_ball8):
        # f = -1e4 e^t outgrows the linear term at every node: the update
        # is the bracket edge there, counted per node and sweep; the
        # scalar path raises instead
        d = small_ball8
        f = RhsSpec("(mul (const -1e4) (exp t))")
        b = BoundaryTrace.constant(d, 0.0)
        _, rep = solve_dirichlet(d, f, b, SolveOptions(max_sweeps=2))
        assert rep.bracket_failures == 2 * int(d.interior.sum())
        assert rep.sup > 1e18
        _, rep = solve_dirichlet(d, RhsSpec("(neg (exp t))"), b,
                                 SolveOptions(max_sweeps=2))
        assert rep.bracket_failures == 0
        node = tuple(np.argwhere(d.interior)[0])
        with pytest.raises(ValueError, match="bracket failure"):
            local_update(node, ScalarField.constant(d, 0.0), f,
                         Stencil(d, SchemeParams()))

    def test_blow_up_stays_local(self, monkeypatch):
        # f = -300 e^t on the unit ball: some nodes find no sign change
        # and take their bracket edge (~1e18), but each node brackets at
        # its own value +- 1, so the next half-sweep still solves where
        # the local equation has its root (a bracket at the iterate's
        # range +- 1 failed at every node there)
        counts = []
        half_sweep = _Sweeper.half_sweep

        def counted(self, values, grp, *args, **kwargs):
            before = self.bracket_failures
            clipped = half_sweep(self, values, grp, *args, **kwargs)
            if self.f.depends_on_t:
                counts.append((self.bracket_failures - before,
                               grp.tab.flat.size))
            return clipped

        monkeypatch.setattr(_Sweeper, "half_sweep", counted)
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                         1 / 16)
        _, rep = solve_dirichlet(d, RhsSpec("(mul (const -300) (exp t))"),
                                 BoundaryTrace.constant(d, 0.0),
                                 SolveOptions(max_sweeps=4))
        assert len(counts) == 8
        first = next(i for i, (k, _) in enumerate(counts) if k)
        assert counts[first][0] < counts[first][1]
        nxt, size = counts[first + 1]
        assert 0 < nxt < size
        assert rep.bracket_failures == sum(k for k, _ in counts)


class TestOneStepSweeps:
    """A sweep takes one safeguarded Newton step per node from its value
    u0, with f and df/dt at u0 from the steepest-pair step."""

    def test_half_sweep_evaluates_no_newton_round(self, monkeypatch,
                                                  small_ball8):
        # f once with df/dt in `_steep`, then g(lo) and g(hi) for each
        # bracket check; the step itself evaluates nothing
        calls = []
        eval_nodes = RhsSpec.eval_nodes

        def counted(self, t, coefs, dt=False):
            calls.append(dt)
            return eval_nodes(self, t, coefs, dt=dt)

        d = small_ball8
        b = BoundaryTrace.constant(d, 0.0)
        f = RhsSpec("(neg (exp t))")
        u, _ = solve_dirichlet(d, f, b, SolveOptions(max_sweeps=5))
        sw = _Sweeper(d, f, Stencil(d, SchemeParams()), SolveOptions())
        monkeypatch.setattr(RhsSpec, "eval_nodes", counted)
        for grp in sw.groups:
            calls.clear()
            sw.half_sweep(u.values, grp)
            assert calls == [True, False, False]

    def test_step_keeps_a_root(self):
        # g(u0) = 0 exactly at nodes 0 and 1 (u0 = 0 and -0.0, where
        # 2 c0 u0 - A + eps^2 f / p2 = 0 + 1 - 1): they return u0 bit for
        # bit; node 2 (u0 = -0.5) moves
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 0.5},
                         1.0 / 8)
        f = RhsSpec("(neg (exp t))")
        sw = _Sweeper(d, f, Stencil(d, SchemeParams()), SolveOptions())
        u0 = np.array([0.0, -0.0, -0.5])
        A, c0 = np.full(3, -1.0), np.ones(3)
        eps, p2 = np.full(3, 0.25), np.full(3, 0.0625)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            t, failed = sw._implicit(u0, A, p2, eps, c0, {}, u0 - 1.0,
                                     u0 + 1.0, f.eval_nodes(u0, {}, dt=True),
                                     rounds=1)
        assert not failed.any()
        assert t[:2].tobytes() == u0[:2].tobytes()
        assert t[2] != u0[2]

    def test_one_step_is_safeguarded(self):
        # node 0: the Newton point from 0 leaves the bracket [-3, 0] of
        # t^3 - 2t + 2, so the step is its midpoint; node 1: a line, whose
        # Newton point is its root; node 2: no sign change, the edge;
        # node 3: a step far below rounding level is taken as it is (the
        # lengthened step only serves a next round's stop test)
        def g(t, dt=False):
            e = np.exp(np.minimum(t, 700.0))
            val = np.array([t[0] ** 3 - 2 * t[0] + 2, t[1] - 0.375,
                            1 + e[2], t[3] - 1e-300])
            der = np.array([3 * t[0] ** 2 - 2, 1.0, e[2], 1.0])
            return (val, der) if dt else val

        lo, hi, t0 = np.full(4, -3.0), np.full(4, 3.0), np.zeros(4)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            t, failed = _bare_local_solve(g, lo, hi, t0, g(t0, dt=True),
                                          rounds=1)
        assert failed.tolist() == [False, False, True, False]
        assert t[0] == -1.5 and t[1] == 0.375 and t[3] == 1e-300
        assert t[2] == -3.0 - (2.0 ** 61 - 2.0)

    def test_dirichlet_and_perron_agree(self, small_ball):
        from inflap import SIGMA, cone_field

        d = small_ball
        tol = 1e-8
        b = BoundaryTrace.constant(d, -0.05)
        f = RhsSpec("(neg (exp t))", monotone_in_t="nonincreasing")
        opts = SolveOptions(tol=tol, max_sweeps=5000)
        u, rep = solve_dirichlet(d, f, b, opts)
        sub = ScalarField.constant(d, -0.05)
        cone = cone_field(d, 1.3, [0.0, 0.0], SIGMA * 0.5 ** (4.0 / 3.0),
                          "super")
        sup = ScalarField(d, cone.values - 0.05)
        v, prep = perron_solve(d, f, b, sub, sup, opts)
        assert rep.status == prep.status == "converged"
        ne = d.nonexterior
        assert np.abs(u.values[ne] - v.values[ne]).max() <= 10 * tol

    def test_flat_clip_converges(self):
        # f = -min(e^t, 1.5) on the unit ball: a solve to the root in
        # every sweep ran out of 5000 sweeps at residual 0.21; one step
        # per node converges in 2871
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                         1.0 / 16)
        _, rep = solve_dirichlet(d, RhsSpec("(neg (clip (exp t) 1.5))"),
                                 BoundaryTrace.constant(d, 0.0),
                                 SolveOptions(max_sweeps=5000))
        assert rep.status == "converged" and rep.bracket_failures == 0

    @pytest.mark.parametrize("expr", ["(const -1)", "(neg (exp t))"])
    def test_bracket_failures_is_int(self, small_ball8, expr):
        # x-only and implicit paths, Dirichlet and Perron
        d = small_ball8
        b = BoundaryTrace.constant(d, 0.0)
        _, rep = solve_dirichlet(d, RhsSpec(expr), b,
                                 SolveOptions(max_sweeps=3))
        assert type(rep.bracket_failures) is int
        _, rep = perron_solve(d, RhsSpec(expr), b,
                              ScalarField.constant(d, -1.0), None,
                              SolveOptions(max_sweeps=3))
        assert type(rep.bracket_failures) is int
        assert "np." not in repr(rep)


class TestSeedValues:
    """Implicit local updates agree with the earlier fixed 60 + 100-step
    bisection to within 1e-12; reference figures recorded from it."""

    # every 7th interior node, the sum, and the sum weighted by node rank
    LOCAL = {
        "(neg (exp t))": ([0.08553117637077734, 0.13685708804814467,
                           0.3486405272492906, 0.24922413400725196],
                          4.9755841045977505, 71.23246688527733),
        "(exp t)": ([-0.05119824446115227, -0.0022036894839613866,
                     -0.0866286944177721, 0.10491971790855228],
                    0.27225042843151753, 11.350520632186777),
    }

    @staticmethod
    def _agree(v, ref):
        every7, total, weighted = ref
        n = len(v)
        assert np.abs(v[::7] - every7).max() <= 1e-12
        assert abs(v.sum() - total) <= 1e-12 * n
        assert abs((v * np.arange(n)).sum() - weighted) <= 1e-12 * n * n

    @pytest.mark.parametrize("expr", sorted(LOCAL))
    def test_local_update(self, small_ball8, expr):
        d = small_ball8
        s = Stencil(d, SchemeParams())
        u = ScalarField.from_function(
            d, lambda p: 0.3 * p[:, 0] - 0.2 * p[:, 1] ** 2 + 0.1)
        f = RhsSpec(expr)
        v = np.array([local_update(tuple(n), u, f, s)
                      for n in np.argwhere(d.interior)])
        self._agree(v, self.LOCAL[expr])


class TestPerron:
    def test_ordering_errors(self, ball2d):
        b = BoundaryTrace.constant(ball2d, 0.0)
        f = RhsSpec("(const 1)")
        lo = ScalarField.constant(ball2d, -1.0)
        hi = ScalarField.constant(ball2d, 1.0)
        with pytest.raises(ValueError):
            perron_solve(ball2d, f, b, hi, lo)
        with pytest.raises(ValueError):
            perron_solve(ball2d, f, b, hi, hi)  # sub > b on the boundary
        b2 = BoundaryTrace.constant(ball2d, 2.0)
        with pytest.raises(ValueError):
            perron_solve(ball2d, f, b2, lo, hi)  # b > super on the boundary

    def test_fixed_point_converges_immediately(self, ball2d):
        # starting the iteration at the solution terminates in one sweep
        b = BoundaryTrace.constant(ball2d, 0.0)
        f = RhsSpec("(const 1)")
        u, _ = solve_dirichlet(ball2d, f, b, SolveOptions(tol=1e-10))
        hi = ScalarField.constant(ball2d, 1.0)
        u2, rep = perron_solve(ball2d, f, b, u, hi,
                               SolveOptions(tol=1e-8))
        assert rep.status == "converged"
        assert rep.sweeps == 1
        ne = ball2d.nonexterior
        assert np.abs(u2.values[ne] - u.values[ne]).max() < 1e-7

    def test_sandwich_and_agreement(self, small_ball):
        from inflap import SIGMA, cone_field

        b = BoundaryTrace.constant(small_ball, 0.0)
        f = RhsSpec("(neg (exp t))", monotone_in_t="nonincreasing")
        sub = ScalarField.constant(small_ball, 0.0)
        sup = cone_field(small_ball, 1.3, [0.0, 0.0],
                         SIGMA * 0.5 ** (4.0 / 3.0), "super")
        o = SolveOptions(tol=1e-6)
        u, rep = perron_solve(small_ball, f, b, sub, sup, o)
        assert rep.status == "converged"
        ne = small_ball.nonexterior
        assert (u.values[ne] >= sub.values[ne] - 1e-9).all()
        assert (u.values[ne] <= sup.values[ne] + 1e-9).all()
        u2, _ = solve_dirichlet(small_ball, f, b, o)
        assert np.abs(u.values[ne] - u2.values[ne]).max() < 1e-5

    def test_overflow_ends_diverged(self):
        # a sub at 1e200 inside, b on the boundary: the first sweep's
        # residual overflows, and the ascent stops there with no alarm set
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                         1.0 / 8)
        b = BoundaryTrace.constant(d, 1.0)
        sub = ScalarField(d, np.where(d.interior, 1e200, b.values))
        u, rep = perron_solve(d, RhsSpec("(const -1)"), b, sub, None)
        assert rep.status == "diverged_past_alarm" and rep.sweeps == 1
        assert rep.residual == np.inf
        assert np.isfinite(u.values[d.nonexterior]).all()

    def test_clipping_reported_without_convergence(self, small_ball8):
        # the super-solution 0.05 lies below the solution of f = -1, so
        # the cap binds on every sweep and the run never converges
        d = small_ball8
        b = BoundaryTrace.constant(d, 0.0)
        u, rep = perron_solve(d, RhsSpec("(const -1)"), b,
                              ScalarField.constant(d, -1.0),
                              ScalarField.constant(d, 0.05),
                              SolveOptions(max_sweeps=50))
        assert rep.status == "max_sweeps_reached"
        assert rep.clipped and rep.sup == 0.05

    def test_ascent_never_decreases(self, small_ball8):
        # the first sweeps are the pure ascent: each field is pointwise
        # at or above the one a sweep shorter, and somewhere above it
        d = small_ball8
        b = BoundaryTrace.constant(d, 0.0)
        f = RhsSpec("(const -1)")
        sub = ScalarField.constant(d, -1.0)
        _, rep = perron_solve(d, f, b, sub, None, SolveOptions(tol=1e-8))
        assert rep.status == "converged" and rep.sweeps > 6
        ne = d.nonexterior
        prev = sub.values[ne]
        for k in range(1, 7):
            u, rep = perron_solve(d, f, b, sub, None,
                                  SolveOptions(tol=1e-8, max_sweeps=k))
            assert rep.status == "max_sweeps_reached"
            assert (u.values[ne] >= prev).all()
            assert (u.values[ne] > prev).any()
            prev = u.values[ne]

    def test_diverged_reports_its_fields_residual(self):
        # the residual of a diverged run is the one of the field it
        # returns, the sweep that tripped the alarm included
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 3.0},
                         0.25)
        b = BoundaryTrace.constant(d, 0.0)
        f = RhsSpec("(neg (exp t))")
        opts = SolveOptions(alarm_bound=20.0, max_sweeps=50)
        sub = ScalarField.constant(d, 0.0)
        for u, rep in (perron_solve(d, f, b, sub, None, opts),
                       solve_dirichlet(d, f, b, opts)):
            assert rep.status == "diverged_past_alarm"
            sw = _Sweeper(d, f, Stencil(d, SchemeParams()), opts)
            with np.errstate(invalid="ignore", over="ignore",
                             divide="ignore"):
                assert rep.residual == sw.fp_residual(u.values)[0]

    def test_report_monotone_flag_honest(self, small_ball):
        b = BoundaryTrace.constant(small_ball, 0.0)
        f = RhsSpec("(const 1)")
        sub = ScalarField.constant(small_ball, -1.0)
        sup = ScalarField.constant(small_ball, 0.0)
        u, rep = perron_solve(small_ball, f, b, sub, sup,
                              SolveOptions(tol=1e-8))
        assert rep.status == "converged"
        assert isinstance(rep.monotone, bool)


class TestProbe:
    def test_requires_alarm(self, small_ball):
        b = BoundaryTrace.constant(small_ball, 0.0)
        f = RhsSpec("(exp t)", monotone_in_t="nondecreasing")
        with pytest.raises(ValueError):
            probe_nonexistence(small_ball, f, b, SolveOptions())

    def test_bounded_regime_converges(self, small_ball):
        b = BoundaryTrace.constant(small_ball, 0.0)
        f = RhsSpec("(const -1)")
        rep = probe_nonexistence(small_ball, f, b,
                                 SolveOptions(tol=1e-8, alarm_bound=100.0))
        assert rep.status == "converged"
        assert rep.sup <= 100.0

    def test_divergent_regime_alarms(self):
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 3.0},
                         1.0 / 8)
        b = BoundaryTrace.constant(d, 0.0)
        f = RhsSpec("(neg (exp t))", monotone_in_t="nonincreasing")
        rep = probe_nonexistence(d, f, b,
                                 SolveOptions(alarm_bound=20.0,
                                              max_sweeps=2000))
        assert rep.status == "diverged_past_alarm"
        assert rep.sup > 20.0

    def test_bracket_failure_alarms(self):
        # bracket failures are counted, and the run ends past the alarm
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 3.0},
                         0.25)
        b = BoundaryTrace.constant(d, 0.0)
        f = RhsSpec("(neg (exp t))", monotone_in_t="nonincreasing")
        rep = probe_nonexistence(d, f, b, SolveOptions(alarm_bound=20.0,
                                                       max_sweeps=2000))
        assert rep.status == "diverged_past_alarm"
        assert rep.sweeps == 1 and rep.bracket_failures > 0

    @pytest.mark.parametrize("expr", ["(exp t)", "(const 1)",
                                      "(mul (coef a) (exp t))"])
    def test_start_not_a_subsolution_rejected(self, expr):
        # f(x, ell) > 0 lowers the constant start, which the only-increase
        # iteration cannot undo: f = e^u and f = 1 ran all 2000 sweeps
        # with residual 1.0 and sup 0.0, 100,000 at the default budget
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 0.5},
                         1.0 / 8)
        b = BoundaryTrace.constant(d, 0.0)
        # f(x, 0) is 1, or the coefficient a = x0, positive where x0 > 0
        x0 = d.points(d.interior)[:, 0]
        coef = "coef" in expr
        f = RhsSpec(expr, coefs={"a": lambda p: p[:, 0]} if coef else None)
        fx = x0 if coef else np.ones_like(x0)
        msg = "f(x, ell) > 0 at %d interior nodes (max %r)" % (
            np.count_nonzero(fx > 0), float(fx.max()))
        with pytest.raises(ValueError, match=re.escape(msg)):
            probe_nonexistence(d, f, b, SolveOptions(alarm_bound=20.0,
                                                     max_sweeps=2000))

    def test_start_checked_at_ell_only(self, small_ball8):
        # f = e^u - 2 is positive above t = log 2, not at ell = 0
        b = BoundaryTrace.constant(small_ball8, 0.0)
        rep = probe_nonexistence(small_ball8, RhsSpec("(add (exp t) -2)"), b,
                                 SolveOptions(alarm_bound=20.0))
        assert rep.status == "converged"
