"""The 1-D Newton path of `solve_dirichlet` against Gauss-Seidel.

In 1-D with an x-only f, `solve_dirichlet` solves F(u) = S p2 - f = 0 by
damped Newton steps on a tridiagonal Jacobian, with Gauss-Seidel sweeps as
the fallback.  The references here drive the sweeper directly
(`_Sweeper.full_sweep` and `fp_residual`), which is the iteration every
other solve still runs.
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
    solve_dirichlet,
)
from inflap.solver import _Sweeper

SIN6 = {"a": lambda p: np.sin(6.0 * p[:, 0])}


def _line(n):
    return build_domain({"kind": "box", "lo": [0.0], "hi": [1.0]},
                        1.0 / (n - 1))


def _data(d, kind):
    if kind == "const":
        return BoundaryTrace.constant(d, 0.3)
    return BoundaryTrace.from_function(d, lambda p: 0.2 + 0.7 * p[:, 0])


def _rhs(expr):
    return RhsSpec(expr, coefs=SIN6 if "coef" in expr else None)


def _system(sw, values):
    order = np.argsort(sw.all.tab.flat)
    flat = sw.all.tab.flat[order]
    return flat, sw.newton_system(values, order, np.diff(flat) == 1)


def _gauss_seidel(d, f, b, tol, vals, cap=200000):
    """Sweeps until fp_residual <= tol, checked every 10 sweeps."""
    sw = _Sweeper(d, f, Stencil(d, SchemeParams()), SolveOptions())
    for it in range(1, cap + 1):
        sw.full_sweep(vals)
        if it % 10 == 0 and sw.fp_residual(vals, sw.all)[0] <= tol:
            return it
    raise AssertionError("reference Gauss-Seidel did not converge")


@pytest.mark.parametrize("params", [SchemeParams(),
                                    SchemeParams(w=3)])
def test_jacobian_matches_central_differences(params):
    # slope 2 - 0.6 = 1.4 at least, so phat^2 is far above the floor
    d = _line(41)
    x = d.grid_coords()[0]
    sw = _Sweeper(d, RhsSpec("(const 1.5)"),
                  Stencil(d, params), SolveOptions())
    vals = 2.0 * x + 0.2 * np.sin(3.0 * x)
    flat, (F, ab) = _system(sw, vals)
    n = flat.size
    J = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    fd = np.empty((n, n))
    delta = 1e-6
    for j in range(n):
        up, dn = vals.copy(), vals.copy()
        up[flat[j]] += delta
        dn[flat[j]] -= delta
        fd[:, j] = (_system(sw, up)[1][0] - _system(sw, dn)[1][0]) \
            / (2.0 * delta)
    assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()
    # the residual the solver certifies is max|F|
    assert sw.fp_residual(vals, sw.all)[0] == np.abs(F).max()


def test_jacobian_where_the_floor_binds():
    # near the vertex of a shallow parabola phat^2 is below the floor
    # while S phat is not 0: the S phat term must drop out there
    d = _line(21)
    x = d.grid_coords()[0]
    st = Stencil(d, SchemeParams())
    sw = _Sweeper(d, RhsSpec("(const 1)"), st, SolveOptions())
    vals = 0.1 * (x - 0.52) ** 2
    _, (F, ab) = _system(sw, vals)
    h2 = st.pairs[0].eps ** 2
    floor = sw.all.floor[0, 0]
    i = 9                     # x = 0.5: phat = -0.004, S = 0.2
    assert ab[1, i] == pytest.approx(-2.0 * floor / h2, rel=1e-12)
    assert ab[0, i + 1] == ab[2, i - 1] == pytest.approx(floor / h2,
                                                         rel=1e-12)
    # boundary neighbours drop out
    assert ab[0, 0] == 0.0 and ab[2, -1] == 0.0


# at 251 nodes one case: the reference needs 53,000 sweeps there with
# constant data and 60,000 to 110,000 with linear data (f = -c with
# constant data is f = c mirrored and rescaled)
@pytest.mark.parametrize("n, c, kind", [
    (n, c, kind) for n in (51, 101) for c in (2.0, -0.7)
    for kind in ("const", "lin")] + [(251, 2.0, "const")])
def test_matches_gauss_seidel(n, c, kind):
    d = _line(n)
    b = _data(d, kind)
    f = RhsSpec("(const %r)" % c)
    tol = 1e-6
    u, rep = solve_dirichlet(d, f, b, SolveOptions(tol=tol))
    assert rep.status == "converged" and rep.residual <= tol
    assert rep.newton_steps > 0
    # the reference starts from the linear interpolant of the data
    x = d.grid_coords()[0]
    vals = np.interp(x, x[[0, -1]], b.values[[0, -1]])
    _gauss_seidel(d, f, b, tol, vals)
    assert np.abs(vals - u.values).max() <= 10 * tol


@pytest.mark.parametrize("n", [51, 101, 251])
def test_sign_changing_coefficient_is_a_sweep_fixed_point(n):
    # f = sin(6x) changes sign, and such a problem can have several
    # discrete solutions (cold Gauss-Seidel ends 2e-3 away from Newton
    # at 101 nodes, both with residual <= 1e-8); Newton's is one of them
    d = _line(n)
    b = _data(d, "lin")
    f = _rhs("(mul (coef a) (const 1))")
    tol = 1e-8
    u, rep = solve_dirichlet(d, f, b, SolveOptions(tol=tol))
    assert rep.status == "converged"
    vals = u.values.copy()
    sw = _Sweeper(d, f, Stencil(d, SchemeParams()), SolveOptions())
    assert sw.fp_residual(vals, sw.all)[0] <= tol
    sw.full_sweep(vals)
    assert np.abs(vals - u.values).max() <= 10 * tol


def test_cold_1001_nodes_without_sweeps():
    # Gauss-Seidel is not converged here after 200,000 sweeps
    c = 1.3
    d = _line(1001)
    b = BoundaryTrace.constant(d, 0.2)
    u, rep = solve_dirichlet(d, RhsSpec("(const %r)" % c), b,
                             SolveOptions(tol=1e-3 * c))
    assert rep.status == "converged" and rep.sweeps == 0
    assert 0 < rep.newton_steps < 20
    x = d.grid_coords()[0]
    exact = 0.2 + c ** (1 / 3) * (np.abs(3.0 * (x - 0.5)) ** (4 / 3)
                                  - 1.5 ** (4 / 3)) / 4.0
    assert np.abs(u.values - exact).max() < 1e-3


def test_failed_line_search_falls_back_to_sweeps():
    d = _line(126)
    b = BoundaryTrace.constant(d, 0.3)
    u, rep = solve_dirichlet(d, _rhs("(mul (coef a) (const 1))"), b)
    assert rep.status == "converged"
    assert rep.sweeps > 0 and rep.newton_steps > 0


@pytest.mark.parametrize("cap", [1, 10, 30])
def test_budget_covers_steps_and_sweeps(cap):
    d = _line(101)
    b = _data(d, "lin")
    _, rep = solve_dirichlet(d, RhsSpec("(const -1.3)"), b,
                             SolveOptions(tol=1e-10, max_sweeps=cap))
    assert rep.status == "max_sweeps_reached"
    assert rep.newton_steps + rep.sweeps <= cap
    assert np.isfinite(rep.residual)


def test_gauss_seidel_handoff_after_the_round_cap():
    # f = 40 at 2001 nodes with linear data: the slope-floor region
    # creeps a few nodes per damped step, so Newton stops after its
    # rounds and Gauss-Seidel sweeps take the rest of the budget
    d = _line(2001)
    b = _data(d, "lin")
    _, rep = solve_dirichlet(d, RhsSpec("(const 40)"), b,
                             SolveOptions(tol=1e-7, max_sweeps=300))
    assert rep.status == "max_sweeps_reached"
    assert rep.newton_steps + rep.sweeps == 300
    assert rep.sweeps > 200


def test_harmonic_start_steps_are_counted():
    d = _line(251)
    b = _data(d, "lin")
    tol = 1e-9
    opts = SolveOptions(tol=tol)
    u0, r0 = solve_dirichlet(d, RhsSpec("(const 0)"), b, opts)
    x = d.grid_coords()[0]
    assert r0.status == "converged" and r0.newton_steps > 0
    assert np.abs(u0.values - (0.2 + 0.7 * x)).max() < 1e-12
    f = RhsSpec("(const 1)")
    u1, r1 = solve_dirichlet(d, f, b, opts, initial_guess=u0)
    u, rep = solve_dirichlet(d, f, b, opts)
    assert np.array_equal(u.values, u1.values)
    assert rep.newton_steps == r0.newton_steps + r1.newton_steps
    assert rep.sweeps == r0.sweeps + r1.sweeps


def test_initial_guess_is_newtons_start():
    d = _line(101)
    b = BoundaryTrace.constant(d, 0.0)
    f = RhsSpec("(const 1)")
    u, rep = solve_dirichlet(d, f, b, SolveOptions(tol=1e-10))
    _, again = solve_dirichlet(d, f, b, SolveOptions(tol=1e-10),
                               initial_guess=ScalarField(d, u.values))
    assert again.status == "converged"
    assert again.newton_steps == again.sweeps == 0


def test_alarm_checked_after_steps():
    d = _line(101)
    b = BoundaryTrace.constant(d, 0.0)
    _, rep = solve_dirichlet(d, RhsSpec("(const -50)"), b,
                             SolveOptions(tol=1e-10, alarm_bound=0.5))
    assert rep.status == "diverged_past_alarm"
    assert rep.sup > 0.5
