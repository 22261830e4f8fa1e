"""Tests for the existence and non-existence threshold calculators."""

import numpy as np
import pytest

from inflap import (
    BoundaryTrace,
    MonotoneRhs1D,
    RhsSpec,
    SIGMA,
    SIGMA3,
    apriori_box,
    build_domain,
    c_eta,
    cubic_smallness,
    diam_threshold,
    dd3_check,
    eigen_bracket,
    growth_class,
    nonexistence_radius,
    zeta,
    zeta_bounds,
)


class TestConstants:
    def test_cone_constant(self):
        assert SIGMA == pytest.approx(3.0 ** (4.0 / 3.0) / 4.0, rel=1e-15)
        assert SIGMA ** 3 == pytest.approx(81.0 / 64.0, rel=1e-12)
        assert SIGMA3 == 81.0 / 64.0


class TestConeAmplitude:
    def test_constant_rhs_exact(self):
        # f == -8 contributes only through the negative part: C = 2
        val = c_eta(RhsSpec("(const -8)"), 0.0, 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_positive_and_negative_parts(self):
        # f == 27 > 0 enters through the sup on the lower band
        val = c_eta(RhsSpec("(const 27)"), 0.0, 0.0, 1.0)
        assert val == pytest.approx(3.0, rel=1e-12)

    def test_zero_for_benign_sign(self):
        # f = t is negative below ell = 0 and positive above L = 0, so
        # neither band contributes
        val = c_eta(RhsSpec("t", monotone_in_t="nondecreasing"),
                    0.0, 0.0, 1.0)
        assert val == 0.0

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            c_eta(RhsSpec("(const 1)"), 0.0, 0.0, -1.0)


class TestDiamThreshold:
    def test_constant_rhs_closed_form(self):
        # C(eta) = 2 for all eta, so the sup over eta is unbounded
        got = diam_threshold(RhsSpec("(const -8)"), 0.0, 0.0)
        assert np.isinf(got)

    def test_exponential_reference_value(self):
        # f = -e^t with zero data: scan plus golden-section refinement
        f = RhsSpec("(neg (exp t))", monotone_in_t="nonincreasing")
        got = diam_threshold(f, 0.0, 0.0)
        assert got == pytest.approx(1.0151817887492676, rel=1e-9)

    def test_benign_sign_infinite(self):
        f = RhsSpec("t", monotone_in_t="nondecreasing")
        assert np.isinf(diam_threshold(f, 0.0, 0.0))


class TestNonexistenceRadius:
    def test_constant_h_unbounded(self):
        # h == 1: zeta(a) = (4/3) a^(3/4) grows without bound
        m = MonotoneRhs1D("(const 1)", 0.0)
        assert np.isinf(nonexistence_radius(m))

    def test_exponential_reference_value(self):
        # h = e^t: M_f = sup_a zeta(a) is finite; pinned scan value
        m = MonotoneRhs1D("(exp t)", 0.0)
        got = nonexistence_radius(m)
        assert np.isfinite(got)
        assert got == pytest.approx(1.1792728788833469, rel=1e-6)

    def test_power_growth_finite_iff_supercubic(self):
        m7 = MonotoneRhs1D("(pow t 7)", 0.0)
        assert np.isfinite(nonexistence_radius(m7))
        m2 = MonotoneRhs1D("(pow t 2)", 0.0)
        assert np.isinf(nonexistence_radius(m2))


def _reference_radius(m, a_min=1e-6, a_max=1e6, n_scan=120):
    """The nonexistence scan by adaptive quadrature: `zeta_bounds` screens
    the grid, `zeta` is evaluated at the 12 largest bounds."""
    avals = m.ell + np.geomspace(a_min, a_max, n_scan)
    uppers = np.array([zeta_bounds(m, a, m.ell)[1] for a in avals])
    slope = np.diff(np.log(uppers[-8:]))
    if uppers[-1] >= uppers.max() * (1.0 - 1e-9) and (slope > 1e-4).all():
        return np.inf
    top = np.argsort(uppers)[::-1][:12]
    return max(zeta(m, float(avals[i]), 1) for i in top) / np.sqrt(2.0)


class TestNonexistenceRadiusReference:
    @pytest.mark.parametrize("ell", [0.0, 0.5])
    @pytest.mark.parametrize("expr", ["(exp t)", "(pow t 7)", "(pow t 3.5)",
                                      "(pow t 4)", "(add (const 1) (exp t))"])
    def test_matches_adaptive_scan(self, expr, ell):
        m = MonotoneRhs1D(expr, ell)
        got = nonexistence_radius(m)
        assert np.isfinite(got)
        assert got == pytest.approx(_reference_radius(m), rel=1e-9)

    @pytest.mark.parametrize("ell", [0.0, 0.5])
    @pytest.mark.parametrize("expr", ["(const 1)", "t", "(pow t 2)"])
    def test_subcubic_stays_infinite(self, expr, ell):
        m = MonotoneRhs1D(expr, ell)
        assert np.isinf(_reference_radius(m))
        assert np.isinf(nonexistence_radius(m))


class TestDd3Check:
    def test_exponential(self):
        f = RhsSpec("(exp t)", monotone_in_t="nondecreasing")
        cond_i, cond_ii = dd3_check(f, 0.0)
        assert cond_i == "yes"
        assert cond_ii == "no"

    def test_supercubic_power(self):
        # H1 ~ s^8 near ell, so H1^(-1/4) ~ s^(-2) is not integrable
        f = RhsSpec("(pow t 7)", monotone_in_t="nondecreasing")
        cond_i, cond_ii = dd3_check(f, 0.0)
        assert cond_i == "no"
        assert cond_ii == "no"

    def test_subcubic_power(self):
        f = RhsSpec("(pow t 2)", monotone_in_t="nondecreasing")
        cond_i, cond_ii = dd3_check(f, 0.0)
        assert cond_i == "yes"
        assert cond_ii == "yes"


class TestAprioriBox:
    def test_zero_rhs_collapses_to_data_range(self, ball2d):
        b = BoundaryTrace.constant(ball2d, 1.0)
        lo, hi = apriori_box(0.0, 0.0, b, 1.0)
        assert lo == 1.0
        assert hi == 1.0

    def test_constant_rhs_shifts(self, ball2d):
        b = BoundaryTrace.constant(ball2d, 0.0)
        lo, hi = apriori_box(-8.0, 8.0, b, 1.0)
        assert lo == pytest.approx(-2.0 * SIGMA, rel=1e-12)
        assert hi == pytest.approx(2.0 * SIGMA, rel=1e-12)

    def test_validation(self, ball2d):
        b = BoundaryTrace.constant(ball2d, 0.0)
        with pytest.raises(ValueError):
            apriori_box(1.0, -1.0, b, 1.0)
        with pytest.raises(ValueError):
            apriori_box(0.0, 0.0, b, -1.0)


class TestGrowthClass:
    def test_cubic_comparable_applicable(self):
        f = RhsSpec("t", monotone_in_t="nondecreasing")
        gc = growth_class(f, 0.0, 0.0, 1.0)
        assert gc.applicable
        assert gc.bounds is not None
        assert gc.bounds[0] < 0 < gc.bounds[1]

    def test_wrong_sign_cubic_inapplicable(self):
        # f = -t^3 violates the liminf condition on the positive side
        f = RhsSpec("(neg (pow t 3))", monotone_in_t="nonincreasing")
        gc = growth_class(f, 0.0, 0.0, 1.0)
        assert not gc.applicable
        assert gc.beta_est < -1e-3


class TestCubicSmallness:
    def test_small_coefficient_zero_data(self, ball2d):
        b = BoundaryTrace.constant(ball2d, 0.0)
        flag, M, verdict = cubic_smallness(0.5, 0.9, b)
        assert flag
        assert M == 0.0
        assert verdict == "only-zero"

    def test_small_coefficient_nonzero_data(self, ball2d):
        b = BoundaryTrace.constant(ball2d, 1.0)
        flag, M, verdict = cubic_smallness(0.5, 0.9, b)
        assert flag and verdict == "bounded"
        denom = 1.0 - SIGMA * 0.5 ** (1.0 / 3.0) * 0.9 ** (4.0 / 3.0)
        assert M == pytest.approx(1.0 / denom, rel=1e-12)

    def test_large_coefficient_inapplicable(self, ball2d):
        b = BoundaryTrace.constant(ball2d, 0.0)
        flag, M, verdict = cubic_smallness(10.0, 1.0, b)
        assert not flag
        assert M is None and verdict == "inapplicable"

    def test_negative_coefficient_rejected(self, ball2d):
        with pytest.raises(ValueError):
            cubic_smallness(-1.0, 1.0, BoundaryTrace.constant(ball2d, 0.0))


class TestEigenBracket:
    def test_constant_weight_exact_radii(self, ball2d):
        from inflap import ScalarField

        a = ScalarField.constant(ball2d, 1.0)
        lo, hi = eigen_bracket(a, ball2d)
        # unit ball: lower = 1/sigma^3 = 64/81; upper uses the exact
        # in-radius 1 and alpha = 1: 4 (4/3)^3 / sigma^3 = 16384/2187
        assert lo == pytest.approx(64.0 / 81.0, rel=1e-12)
        assert hi == pytest.approx(16384.0 / 2187.0, rel=1e-12)
        assert lo < hi

    def test_scaling_in_amplitude(self, ball2d):
        from inflap import ScalarField

        a1 = ScalarField.constant(ball2d, 1.0)
        a2 = ScalarField.constant(ball2d, 4.0)
        lo1, hi1 = eigen_bracket(a1, ball2d)
        lo2, hi2 = eigen_bracket(a2, ball2d)
        assert lo2 == pytest.approx(lo1 / 4.0, rel=1e-12)
        assert hi2 == pytest.approx(hi1 / 4.0, rel=1e-12)

    def test_validation(self, ball2d):
        from inflap import ScalarField

        with pytest.raises(ValueError):
            eigen_bracket(ScalarField.constant(ball2d, 0.0), ball2d)
        neg = ScalarField.constant(ball2d, -1.0)
        with pytest.raises(ValueError):
            eigen_bracket(neg, ball2d)
