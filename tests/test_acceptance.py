"""Acceptance suite: ten quantitative end-to-end checks.

Each test prints one PASS/FAIL line with its measured quantities before
asserting, so a full run gives a ten-line scoreboard.
"""

import numpy as np
import pytest

from inflap import (
    BoundaryTrace,
    MonotoneRhs1D,
    RhsSpec,
    ScalarField,
    SIGMA,
    SolveOptions,
    SchemeParams,
    Stencil,
    apriori_box,
    build_domain,
    build_profile,
    check_apriori,
    check_harnack,
    cone_field,
    cubic_smallness,
    eigen_bracket,
    exact_family,
    family_a,
    ode_residual,
    perron_solve,
    probe_nonexistence,
    residual_field,
    solve_dirichlet,
    zeta,
    zeta_bounds,
)


def _report(num, ok, detail):
    print("criterion %02d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def _cone_residual_sup(h):
    d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0}, h)
    u = cone_field(d, 2.0, [0.0, 0.0], 1.0, "sub")
    st = Stencil(d, SchemeParams(w=3))
    res = residual_field(u, RhsSpec("(const 8)"), st)
    r = np.sqrt(sum(g ** 2 for g in d.grid_coords()))
    sel = d.interior & st.avail.all(axis=0) & (r >= 3.0 / 64.0)
    return float(np.abs(res.values[sel]).max())


def test_criterion_01_cone_exactness():
    sup1 = _cone_residual_sup(1.0 / 64)
    sup2 = _cone_residual_sup(1.0 / 128)
    ratio = sup2 / sup1
    ok = sup1 <= 0.4 and ratio < 0.9
    _report(1, ok, "sup residual %.4f at h=1/64, ratio %.3f" % (sup1, ratio))


def test_criterion_02_one_dimensional_oracle():
    # cascade of interpolated restarts keeps the 1001-node solve cheap
    levels = [(126, 1e-6), (251, 5e-4), (501, 5e-4), (1001, 1e-3)]
    guess = None
    for n, tol in levels:
        d = build_domain({"kind": "box", "lo": [0.0], "hi": [1.0]},
                         1.0 / (n - 1))
        b = BoundaryTrace.constant(d, 0.0)
        if guess is not None:
            xo, vo = guess
            x = d.grid_coords()[0]
            g = ScalarField(d, np.interp(x, xo, vo))
        else:
            g = None
        u, rep = solve_dirichlet(d, RhsSpec("(const 1)"), b,
                                 SolveOptions(tol=tol), initial_guess=g)
        guess = (d.grid_coords()[0], u.values)
    x = guess[0]
    exact = (np.abs(3.0 * (x - 0.5)) ** (4.0 / 3.0)
             - 1.5 ** (4.0 / 3.0)) / 4.0
    err = float(np.abs(u.values - exact).max())
    ok = rep.status == "converged" and err <= 1e-2
    _report(2, ok, "1001-node sup error %.2e" % err)


def test_criterion_03_radial_ode_residual():
    m = MonotoneRhs1D("(exp t)", 0.0)
    pref = 1.0 / np.sqrt(2.0)
    prof = build_profile(m, 1.0, pref)
    resid = float(ode_residual(prof, m).max())
    rel = abs(prof.R - zeta(m, 1.0, pref)) / prof.R
    ok = resid <= 1e-4 and rel <= 1e-8
    _report(3, ok, "ode residual %.2e, R mismatch %.2e" % (resid, rel))


def test_criterion_04_sandwich_bounds():
    exprs = ["(const 1)", "t", "(exp t)", "(pow t 3)"]
    worst = 0.0
    ok = True
    for expr in exprs:
        m = MonotoneRhs1D(expr, 0.0)
        for a in (0.1, 1.0, 10.0):
            z = zeta(m, a, 1.0)
            lo, hi = zeta_bounds(m, a, 0.0)
            if not (lo - 1e-10 <= z <= hi + 1e-10):
                ok = False
    m1 = MonotoneRhs1D("(const 1)", 0.0)
    for a in (0.1, 1.0, 10.0):
        worst = max(worst,
                    abs(zeta(m1, a, 1.0) - (4.0 / 3.0) * a ** 0.75))
    ok = ok and worst <= 1e-8
    _report(4, ok, "sandwich holds, constant-h error %.2e" % worst)


def test_criterion_05_nonexistence_regime():
    f = RhsSpec("(neg (exp t))", monotone_in_t="nonincreasing")
    d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 3.0},
                     1.0 / 8)
    b = BoundaryTrace.constant(d, 0.0)
    rep1 = probe_nonexistence(d, f, b,
                              SolveOptions(alarm_bound=20.0,
                                           max_sweeps=100000))
    d2 = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 0.5},
                      1.0 / 16)
    b2 = BoundaryTrace.constant(d2, 0.0)
    sub = ScalarField.constant(d2, 0.0)
    sup = cone_field(d2, 1.3, [0.0, 0.0], SIGMA * 0.5 ** (4.0 / 3.0),
                     "super")
    tol = 1e-6
    u, rep2 = perron_solve(d2, f, b2, sub, sup, SolveOptions(tol=tol))
    ok = (rep1.status == "diverged_past_alarm"
          and rep2.status == "converged" and rep2.residual <= tol)
    _report(5, ok, "probe %s in %d sweeps, small-ball residual %.2e"
            % (rep1.status, rep1.sweeps, rep2.residual))


def _family_residual_sup(h):
    d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0}, h)
    u, _ = exact_family(7.0, 2, d)
    st = Stencil(d, SchemeParams(w=2))
    # the family solves the zero-data problem with rhs -u^7 (odd power)
    f = RhsSpec("(neg (pow t 7))", monotone_in_t="nonincreasing")
    res = residual_field(u, f, st)
    r = np.sqrt(sum(g ** 2 for g in d.grid_coords()))
    sel = d.interior & st.avail.all(axis=0)
    for c in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
        sel &= np.abs(r - c) >= 3.0 / 32.0
    return float(np.abs(res.values[sel]).max())


def test_criterion_06_exact_family():
    d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                     1.0 / 16)
    sups = [exact_family(7.0, k, d)[0].sup() for k in (1, 2, 3)]
    r3 = sups[1] / sups[0]
    r5 = sups[2] / sups[0]
    ratios_ok = abs(r3 - 3.0) <= 1e-10 and abs(r5 - 5.0) <= 1e-10
    s1 = _family_residual_sup(1.0 / 32)
    s2 = _family_residual_sup(1.0 / 64)
    ratio = s2 / s1
    ok = ratios_ok and ratio < 1.0
    _report(6, ok, "sup ratios %.12f %.12f, residual ratio %.3f"
            % (r3, r5, ratio))


def _harnack_suite(n_fields=20):
    """Randomized nonnegative exact-rhs solves on the unit ball.

    Each field solves a constant nonpositive rhs with positive constant
    boundary data, so it is a certified supersolution of the zero
    right-hand side and stays positive.
    """
    d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                     1.0 / 16)
    rng = np.random.default_rng(20260826)
    tol = 1e-7
    fields = []
    for _ in range(n_fields):
        c = -float(rng.uniform(0.0, 2.0))
        bc = float(rng.uniform(0.5, 2.0))
        b = BoundaryTrace.constant(d, bc)
        u, rep = solve_dirichlet(d, RhsSpec("(const %.17g)" % c), b,
                                 SolveOptions(tol=tol))
        assert rep.status == "converged"
        fields.append((u, c, b, tol))
    return d, fields


@pytest.fixture(scope="module")
def harnack_suite():
    return _harnack_suite()


def test_criterion_07_apriori_box(harnack_suite):
    d, fields = harnack_suite
    worst = np.inf
    for u, c, b, tol in fields:
        box = apriori_box(c, c, b, 1.0)
        tol_check = 10.0 * tol + d.h ** (1.0 / 3.0)
        res = check_apriori(u, box, tol_check)
        worst = min(worst, res.margin)
        if not res.passed:
            _report(7, False, "box violated by %.2e" % -res.margin)
    _report(7, True, "worst margin %.2e over %d solves"
            % (worst, len(fields)))


def test_criterion_08_harnack(harnack_suite):
    d, fields = harnack_suite
    probes = [([0.0, 0.0], 0.32), ([0.2, 0.0], 0.25), ([-0.2, 0.0], 0.25),
              ([0.0, 0.2], 0.25), ([0.0, -0.2], 0.25)]
    worst = np.inf
    checked = 0
    for u, c, b, _ in fields:
        for z, r in probes:
            res = check_harnack(u, max(c, 0.0), z, r)
            checked += 1
            worst = min(worst, res.margin)
            if not res.passed:
                _report(8, False, "violated at z=%s r=%.2f by %.2e"
                        % (z, r, -res.margin))
    _report(8, True, "worst margin %.3f over %d checks" % (worst, checked))


def test_criterion_09_uniqueness_monotone_rhs():
    # on this ball the slope floor keeps the local update monotone in the
    # neighbor values, so the discrete fixed point is unique as well
    d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 0.5},
                     1.0 / 16)
    b = BoundaryTrace.constant(d, 1.0)
    f = RhsSpec("t", monotone_in_t="nondecreasing")
    tol = 1e-9
    o = SolveOptions(tol=tol)
    u1, r1 = solve_dirichlet(d, f, b, o,
                             initial_guess=ScalarField.constant(d, 0.0))
    u2, r2 = solve_dirichlet(d, f, b, o,
                             initial_guess=ScalarField.constant(d, 2.0))
    ne = d.nonexterior
    diff = float(np.abs(u1.values[ne] - u2.values[ne]).max())
    ok = (r1.status == r2.status == "converged" and diff <= 10.0 * tol)
    _report(9, ok, "sup difference %.2e vs bound %.0e" % (diff, 10 * tol))


def test_criterion_10_eigen_bracket_and_smallness():
    d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                     1.0 / 16)
    a = ScalarField.constant(d, 1.0)
    lo, hi = eigen_bracket(a, d)
    e1 = abs(lo - 64.0 / 81.0)
    e2 = abs(hi - 16384.0 / 2187.0)
    b = BoundaryTrace.constant(d, 0.0)
    flag, M, verdict = cubic_smallness(1.0, 0.9, b)
    ok = (e1 <= 1e-12 and e2 <= 1e-12 and flag and verdict == "only-zero")
    _report(10, ok, "bracket errors %.1e %.1e, verdict %s"
            % (e1, e2, verdict))
