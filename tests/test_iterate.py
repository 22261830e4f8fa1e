"""The sweep loop's split residual against a loop that reads it whole.

After each sweep `solver._iterate` takes the residual at color 0, whose
data the next sweep's first update reads, and at color 1 only where that
part can change the outcome; the certificate `_Sweeper.safe` (from
`solver._safe_top`) bounds max |u| so that a color 1 part it skips is
finite, and a solve without one, where f may be NaN, reads color 1
after every sweep.  The frozen loop below reads the residual over the
whole table after every sweep, as the loop did before the split, and
every status,
sweep count, residual, count and field must match it bit for bit: on
blow-ups with and without an alarm, overflowing starts, a cycling solve,
w = 1 and 3-D stencils, trees with and without a bound on |f|, Perron's
ascent and clamped phases, the probe, the 1-D Newton path's fallback
sweeps and domains where one color is empty.
"""

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
    cone_field,
    perron_solve,
    probe_nonexistence,
    solve_dirichlet,
)
from inflap import solver
from inflap.core import SIGMA
from inflap.solver import _iterate, _Sweeper


def _frozen_iterate(sw, vals, tol, budget, alarm, sweep=None):
    """Frozen copy of the sweep loop that read the residual over the whole
    table after every sweep and handed its color 0 slice on."""
    sweep = sweep or sw.full_sweep
    n = sw.groups[0].tab.flat.size
    res, head = np.inf, None
    for it in range(1, budget + 1):
        sweep(vals, head)
        res, data = sw.fp_residual(vals, sw.all)
        head = tuple(a[:n] if np.ndim(a) else a for a in data)
        if sw.diverged(vals, res, alarm):
            return "diverged_past_alarm", it, res
        if res <= tol:
            return "converged", it, res
    return "max_sweeps_reached", budget, res


def _ball(R, h, N=2):
    return build_domain({"kind": "ball", "center": [0.0] * N, "R": R}, h)


def _box(hi, h):
    return build_domain({"kind": "box", "lo": [0.0] * len(hi), "hi": hi}, h)


def _solve(d, expr, b, guess=None, params=None, coefs=None, **opts):
    return lambda: [solve_dirichlet(
        d, RhsSpec(expr, coefs=coefs), BoundaryTrace.constant(d, b),
        SolveOptions(**opts), params,
        initial_guess=None if guess is None
        else ScalarField.constant(d, guess))]


def _perron_exp():
    # f = -e^u between the constant b and the super-solution b + cone of
    # criterion 05: the ascent stalls and clamped sweeps finish
    d = _ball(0.5, 1 / 16)
    f = RhsSpec("(neg (exp t))")
    b = BoundaryTrace.constant(d, -0.05)
    cone = cone_field(d, 1.3, [0.0, 0.0], SIGMA * 0.5 ** (4.0 / 3.0),
                      "super")
    return [perron_solve(d, f, b, ScalarField.constant(d, -0.05),
                         ScalarField(d, cone.values - 0.05),
                         SolveOptions(tol=1e-6, max_sweeps=3000))]


def _perron_budget():
    d = _ball(1.0, 1 / 8)
    return [perron_solve(d, RhsSpec("(const -1)"),
                         BoundaryTrace.constant(d, 0.0),
                         ScalarField.constant(d, -1.0), None,
                         SolveOptions(max_sweeps=20))]


def _damped(expr, damping, tol, cap):
    # from u = 0, color 1's part is the larger one in some sweeps, and
    # at this tol it alone keeps the run going at one of them
    return _solve(_ball(1.0, 1 / 8), expr, 0.0, guess=0.0, tol=tol,
                  damping=damping, max_sweeps=cap)


def _perron_overflow():
    # a sub at 1e200 inside: the first residual is inf
    d = _ball(1.0, 1 / 8)
    sub = ScalarField(d, np.where(d.interior, 1e200, 1.0))
    return [perron_solve(d, RhsSpec("(const -1)"),
                         BoundaryTrace.constant(d, 1.0), sub, None)]


def _probe(R, h):
    d = _ball(R, h)
    return lambda: [(None, probe_nonexistence(
        d, RhsSpec("(neg (exp t))"), BoundaryTrace.constant(d, 0.0),
        SolveOptions(alarm_bound=20.0, max_sweeps=500)))]


def _newton_fallback():
    # a failed line search hands a few Gauss-Seidel sweeps the iterate
    d = _box([1.0], 1 / 125)
    f = RhsSpec("(mul (coef a) (const 1))",
                coefs={"a": lambda p: np.sin(6.0 * p[:, 0])})
    return [solve_dirichlet(d, f, BoundaryTrace.constant(d, 0.3))]


def _spike():
    # one node at 1e200: after the first sweep color 0's part is inf
    # and color 1's NaN, which the residual must keep
    d = _ball(1.0, 1 / 8)
    guess = ScalarField(d, np.where(d.nonexterior, 1.0, np.nan))
    guess.values[tuple(n // 2 for n in d.dims)] = 1e200
    return [solve_dirichlet(d, RhsSpec("(const -1)"),
                            BoundaryTrace.constant(d, 1.0),
                            initial_guess=guess)]


def _clip_nan_coef():
    d = _ball(0.5, 1 / 8)
    parity = np.indices(d.dims).sum(axis=0) % 2
    a = np.ones(d.dims)
    a[tuple(c[0] for c in np.nonzero(d.interior & (parity == 1)))] = np.nan
    f = RhsSpec("(add (clip (coef a) 1) (neg (exp t)))", coefs={"a": a})
    return [solve_dirichlet(d, f, BoundaryTrace.constant(d, 0.0),
                            SolveOptions(max_sweeps=50))]


def _pow_data():
    d = _ball(1.0, 1 / 8)
    b = BoundaryTrace.from_function(d, lambda p: 0.5 * np.sign(p[:, 0]))
    return [solve_dirichlet(d, RhsSpec("(pow t -1)"), b,
                            SolveOptions(max_sweeps=200)),
            solve_dirichlet(d, RhsSpec("(pow t 3)"), b,
                            SolveOptions(max_sweeps=200))]


CASES = {
    # blow-up without an alarm: residual 1e300, bracket failures
    "blow-up": _solve(_ball(1.5, 1 / 8), "(neg (exp t))", 0.0,
                      max_sweeps=150),
    # the alarm trips at the first sweep, the residual still finite
    "alarm": _solve(_ball(3.0, 1 / 4), "(neg (exp t))", 0.0,
                    alarm_bound=20.0),
    # f = 1 with zero data cycles until the budget ends
    "cycling": _solve(_ball(1.0, 1 / 24), "(const 1)", 0.0, max_sweeps=150),
    "w1-converged": _solve(_ball(0.5, 1 / 8), "(const -1)", 1.0,
                           params=SchemeParams(w=1)),
    "3d-neg-exp": _solve(_ball(1.0, 1 / 4, 3), "(neg (exp t))", 0.0,
                         max_sweeps=60),
    "3d-exp": _solve(_ball(1.0, 1 / 4, 3), "(exp t)", 0.0),
    # a NaN residual at the first sweep (S * p2 is inf - inf)
    "start-1e200": _solve(_ball(1.0, 1 / 8), "(const -1)", 1.0,
                          guess=1e200),
    "spike-1e200": _spike,
    "cospow": _solve(_ball(1.0, 1 / 8), "(cospow 2)", 0.0,
                     max_sweeps=400),
    # (pow t -1) may be NaN: no certificate, color 1 every sweep; (pow t 3)
    # and a coefficient tree have one
    "pow-data": _pow_data,
    "coef-exp": _solve(_ball(0.5, 1 / 8), "(mul (coef a) (neg (exp t)))",
                       0.0, coefs={"a": lambda p: 1.0 + p[:, 0] ** 2}),
    # the budget's last sweep ends with color 1's part the larger one:
    # heavy damping, and an ascent that color 1 cannot follow down
    "damped-budget": _solve(_ball(1.0, 1 / 8), "(const -1)", 0.0,
                            damping=0.1, max_sweeps=60),
    "damped-budget-exp": _solve(_ball(1.0, 1 / 8), "(neg (exp t))", 0.0,
                                damping=0.2, max_sweeps=20),
    "damped-tol": _damped("(const -1)", 0.1, 1.09, 100),
    "damped-tol-exp": _damped("(neg (exp t))", 0.2, 1.26, 200),
    "perron-budget": _perron_budget,
    # a NaN coefficient under a clip: f is NaN at one color 1 node, with
    # the node's value finite
    "clip-nan-coef": _clip_nan_coef,
    "perron-clamped": _perron_exp,
    "perron-overflow": _perron_overflow,
    "probe-R3": _probe(3.0, 1 / 4),
    "probe-R1.5": _probe(1.5, 1 / 8),
    "newton-fallback": _newton_fallback,
    # one interior node: color 0 empty (1-D) or color 1 empty (2-D)
    "empty-color-0": _solve(_box([1.0], 0.5), "(clip (exp t) 1.5)", 1.0,
                            max_sweeps=500),
    "empty-color-1": _solve(_box([1.0, 1.0], 0.5), "(clip (exp t) 1.5)",
                            1.0, max_sweeps=500),
}


@pytest.mark.parametrize("case", list(CASES))
def test_matches_whole_residual_loop(monkeypatch, case):
    got = CASES[case]()
    monkeypatch.setattr(solver, "_iterate", _frozen_iterate)
    want = CASES[case]()
    for (u, rep), (v, ref) in zip(got, want, strict=True):
        assert repr(rep) == repr(ref)
        assert repr(rep.residual) == repr(ref.residual)
        assert (u is None) == (v is None)
        if u is not None:
            assert u.values.tobytes() == v.values.tobytes()


def test_edge_cases_reach_their_endings(monkeypatch):
    # the matrix above covers what it says it does
    phases = []
    full_sweep = _Sweeper.full_sweep

    def recorded(self, values, head=None, only_up=False, cap=None):
        phases.append("ascent" if only_up else "clamped")
        return full_sweep(self, values, head, only_up, cap)

    monkeypatch.setattr(_Sweeper, "full_sweep", recorded)
    ends = {case: [rep for _, rep in CASES[case]()]
            for case in ("blow-up", "alarm", "cycling", "w1-converged",
                         "start-1e200", "spike-1e200", "clip-nan-coef",
                         "perron-overflow", "empty-color-0", "empty-color-1",
                         "newton-fallback")}
    assert ends["blow-up"][0].status == "max_sweeps_reached"
    assert ends["blow-up"][0].residual == 1e300
    assert ends["blow-up"][0].bracket_failures > 0
    assert ends["alarm"][0].status == "diverged_past_alarm"
    assert ends["cycling"][0].status == "max_sweeps_reached"
    assert ends["w1-converged"][0].status == "converged"
    assert np.isnan(ends["start-1e200"][0].residual)
    assert np.isnan(ends["spike-1e200"][0].residual)
    assert ends["clip-nan-coef"][0].sweeps == 1
    assert np.isnan(ends["clip-nan-coef"][0].residual)
    assert ends["perron-overflow"][0].residual == np.inf
    for case in ("empty-color-0", "empty-color-1", "newton-fallback"):
        assert ends[case][0].status == "converged"
        assert ends[case][0].sweeps > 0
    for dims, empty in (([1.0], 0), ([1.0, 1.0], 1)):
        d = _box(dims, 0.5)
        sw = _Sweeper(d, RhsSpec("(clip (exp t) 1.5)"),
                      Stencil(d, SchemeParams()), SolveOptions())
        sizes = [g.tab.flat.size for g in sw.groups]
        assert sizes[empty] == 0 and sum(sizes) == 1
    phases.clear()
    (_, rep), = CASES["perron-clamped"]()
    assert rep.status == "converged"
    assert {"ascent", "clamped"} <= set(phases)


SOUND = [
    # (N, h, params, rhs)
    (2, 1 / 8, SchemeParams(), "(const -1.5)"),
    (2, 1 / 8, SchemeParams(w=3), "(const 2)"),
    (3, 1 / 4, SchemeParams(w=1), "(neg (exp t))"),
    (3, 1 / 4, SchemeParams(w=3), "(neg (exp t))"),
    (2, 1 / 16, SchemeParams(w=3), "(mul (const 2) (clip (exp t) 5))"),
    (2, 1 / 8, SchemeParams(w=3), "(cospow 3)"),
    (3, 1 / 4, SchemeParams(w=2), "(const 1e300)"),
    # f is never NaN at a finite t, with a = 2
    (2, 1 / 8, SchemeParams(), "(add (const 1) t)"),
    (2, 1 / 8, SchemeParams(), "(mul (coef a) (exp t))"),
    (2, 1 / 8, SchemeParams(), "(add (clip (coef a) 1) (neg (exp t)))"),
    (2, 1 / 8, SchemeParams(), "(pow t 3)"),
]


def _sweeper(N, h, params, expr):
    d = _ball(1.0, h, N)
    return d, _Sweeper(d, RhsSpec(expr, coefs={"a": 2.0}), Stencil(d, params),
                       SolveOptions())


def _signs(d, top, seed):
    # checkerboard and random signs at +-top on the non-exterior nodes
    parity = np.indices(d.dims).sum(axis=0) % 2
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], d.dims)
    for s in (1.0 - 2.0 * parity, signs):
        vals = np.full(d.dims, np.nan)
        vals[d.nonexterior] = (top * s)[d.nonexterior]
        yield vals


@pytest.mark.parametrize("N, h, params, expr", SOUND)
def test_certificate_sound(N, h, params, expr):
    # at max |u| = safe, color 1's part of the residual, the part the
    # loop skips, is finite, and so is every other part
    d, sw = _sweeper(N, h, params, expr)
    assert 0.0 < sw.safe < np.inf
    for vals in _signs(d, sw.safe, 3):
        assert sw.top(vals) == sw.safe
        with np.errstate(over="raise", invalid="raise"):
            for grp in sw.groups + [sw.all]:
                assert np.isfinite(sw.fp_residual(vals, grp)[0])
    # the bound is not loose: a thousand times above it the residual
    # overflows
    with np.errstate(over="ignore", invalid="ignore"):
        bad = [sw.fp_residual(vals, sw.all)[0]
               for vals in _signs(d, 1e3 * sw.safe, 3)]
    assert not all(np.isfinite(bad))


def _reads(sw, vals):
    """The parts of the residual read in a two-sweep run whose sweep moves
    nothing, so that the residual stays far above tol: "0" and "1" for a
    color, "all" for the whole table."""
    reads = []
    whole = sw.fp_residual

    def counted(values, grp):
        reads.append("all" if grp is sw.all else str(sw.groups.index(grp)))
        return whole(values, grp)

    sw.fp_residual = counted
    try:
        with np.errstate(all="ignore"):
            status, sweeps, _ = _iterate(sw, vals.copy(), 1e-8, 2, None,
                                         lambda vals, head: None)
    finally:
        del sw.fp_residual
    assert (status, sweeps) == ("max_sweeps_reached", 2)
    return reads


@pytest.mark.parametrize("N, h, params, expr", SOUND[:4])
def test_certificate_refuses_above_safe(N, h, params, expr):
    d, sw = _sweeper(N, h, params, expr)
    vals = next(_signs(d, sw.safe, 3))
    # at max |u| = safe, color 1 is read at the budget's last sweep only
    assert _reads(sw, vals) == ["0", "0", "1"]
    # a node just above safe: color 1 read in both sweeps
    i = np.flatnonzero(d.nonexterior)[0]
    vals.flat[i] = np.nextafter(sw.safe, np.inf) * np.sign(vals.flat[i])
    assert _reads(sw, vals) == ["0", "1", "0", "1"]


@pytest.mark.parametrize("expr, coefs", [
    ("(pow t -1)", None),
    ("(mul (const 0) (pow t 2))", None),
    ("(clip (pow t -1) 5)", None)])
def test_no_certificate_without_a_bound(small_ball8, expr, coefs):
    # a t-dependent tree that may be NaN at a finite t (0 * inf, or a
    # clip of such a subtree, which passes NaN on) reads color 1 after
    # every sweep, however small u is
    d = small_ball8
    sw = _Sweeper(d, RhsSpec(expr, coefs=coefs), Stencil(d, SchemeParams()),
                  SolveOptions())
    assert sw.safe == -np.inf
    vals = np.random.default_rng(4).uniform(0.5, 1.0, d.dims)
    vals[~d.nonexterior] = np.nan
    assert _reads(sw, vals) == ["0", "1", "0", "1"]


def test_x_only_bound_is_the_largest_f(small_ball8):
    # an x-only f is bounded by its largest |f| over the nodes, which
    # must be a number; f beyond SATURATE is clamped to it
    d = small_ball8
    for a, ok in ((1.0, True), (2e300, True), (np.nan, False)):
        coef = np.where(d.interior, 1.0, 0.0)
        coef[tuple(c[0] for c in np.nonzero(d.interior))] = a
        f = RhsSpec("(mul (coef a) (const 1))", coefs={"a": coef})
        sw = _Sweeper(d, f, Stencil(d, SchemeParams()), SolveOptions())
        assert (sw.safe > 0) == ok
