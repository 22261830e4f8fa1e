"""Tests for the radial profile engine and explicit barrier fields."""

import numpy as np
import pytest

from inflap import (
    MonotoneRhs1D,
    SIGMA,
    build_domain,
    build_profile,
    cone_field,
    cumulative_H,
    exact_family,
    family_a,
    load_mask,
    ode_residual,
    power_subsolution,
    save_mask,
    save_profile,
    zeta,
    zeta_bounds,
)
from inflap.radial import RadialProfile, _H_table, _phi_star


class TestMonotoneRhs1D:
    def test_accepts_exp(self):
        m = MonotoneRhs1D("(exp t)", 0.0)
        assert m(0.0) == pytest.approx(1.0)
        assert m(1.0) == pytest.approx(np.e)

    def test_rejects_coefficient(self):
        # h is t-only; a (coef a) used to raise KeyError when evaluated
        with pytest.raises(ValueError, match="coefficient"):
            MonotoneRhs1D("(mul (coef a) (exp t))", 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MonotoneRhs1D("(const -1)", 0.0)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            MonotoneRhs1D("(neg t)", 0.0)

    def test_rejects_vanishing_above_ell(self):
        with pytest.raises(ValueError):
            MonotoneRhs1D("(const 0)", 0.0)


class TestZeta:
    def test_constant_h_closed_form(self):
        # h == 1 gives H(t) = t - ell and
        # zeta(a) = int_0^a (a - t)^(-1/4) dt = (4/3) a^(3/4)
        m = MonotoneRhs1D("(const 1)", 0.0)
        for a in (0.3, 1.0, 5.0):
            got = zeta(m, a, 1.0)
            assert got == pytest.approx((4.0 / 3.0) * a ** 0.75, abs=1e-8)

    def test_prefactor_scales(self):
        m = MonotoneRhs1D("(exp t)", 0.0)
        z1 = zeta(m, 1.0, 1.0)
        z2 = zeta(m, 1.0, 1.0 / np.sqrt(2.0))
        assert z2 == pytest.approx(z1 / np.sqrt(2.0), rel=1e-12)

    def test_rejects_bad_args(self):
        m = MonotoneRhs1D("(exp t)", 0.0)
        with pytest.raises(ValueError):
            zeta(m, -1.0, 1.0)
        with pytest.raises(ValueError):
            zeta(m, 1.0, 0.7)
        with pytest.raises(ValueError):
            zeta(m, 1.0, "1")

    def test_prefactor_within_ulps(self):
        # np.sqrt(0.5) is one ulp above 1/np.sqrt(2.0): same prefactor
        m = MonotoneRhs1D("(exp t)", 0.0)
        root = 1.0 / np.sqrt(2.0)
        assert zeta(m, 1.0, np.sqrt(0.5)) == zeta(m, 1.0, root)
        assert zeta(m, 1.0, np.int64(1)) == zeta(m, 1.0, 1.0)
        prof = build_profile(m, 1.0, float(np.sqrt(0.5)), n=200)
        assert prof.prefactor == root
        with pytest.raises(ValueError):
            zeta(m, 1.0, root + 1e-9)

    def test_bounds_sandwich_zeta(self):
        # the closed-form sandwich at t = ell must bracket the integral
        m = MonotoneRhs1D("(exp t)", 0.0)
        for a in (0.1, 1.0, 10.0):
            lo, hi = zeta_bounds(m, a, 0.0)
            z = zeta(m, a, 1.0)
            assert lo <= z + 1e-10
            assert z <= hi + 1e-10

    def test_bounds_validate_range(self):
        m = MonotoneRhs1D("(exp t)", 0.0)
        with pytest.raises(ValueError):
            zeta_bounds(m, 1.0, 2.0)
        assert zeta_bounds(m, 1.0, 1.0) == (0.0, 0.0)


class TestHTable:
    """The composite Gauss H table at the nonexistence scan points against
    adaptive quadrature.  Its pieces are about 5 % of s wide, so e^t is
    compared where a piece spans a few units of t (s <= 60), and t^3.5
    only away from ell = 0, where its non-smooth endpoint limits 8-point
    Gauss on the first piece to about 1e-8."""

    @pytest.mark.parametrize("expr, ell, s_max", [
        ("(exp t)", 0.0, 60.0), ("(exp t)", 0.5, 60.0),
        ("(add (const 1) (exp t))", 0.5, 60.0), ("(pow t 3.5)", 0.5, 1e6),
        ("(pow t 7)", 0.0, 1e6), ("(pow t 4)", 0.5, 1e6),
        ("(const 1)", 0.0, 1e6), ("t", 0.5, 1e6)])
    def test_matches_cumulative_H(self, expr, ell, s_max):
        m = MonotoneRhs1D(expr, ell)
        a = ell + np.geomspace(1e-6, 1e6, 120)
        s = a - ell
        H = _H_table(m, s)
        keep = s <= s_max
        ref = np.array([cumulative_H(m, v) for v in a[keep]])
        np.testing.assert_allclose(H[keep], ref, rtol=1e-10, atol=0.0)


class TestProfile:
    def test_endpoints_and_monotonicity(self):
        m = MonotoneRhs1D("(exp t)", 0.0)
        p = build_profile(m, 1.0, 1.0)
        assert p.r[0] == 0.0
        assert p.phi[0] == 1.0
        assert p.phi[-1] == 0.0
        assert (np.diff(p.r) > 0).all()
        assert (np.diff(p.phi) < 0).all()
        assert p.R == pytest.approx(zeta(m, 1.0, 1.0), rel=1e-8)

    def test_phi_at_matches_nodes(self):
        m = MonotoneRhs1D("(exp t)", 0.0)
        p = build_profile(m, 1.0, 1.0)
        sub = slice(5, None, 37)
        assert np.abs(p.phi_at(p.r[sub]) - p.phi[sub]).max() < 1e-9
        assert p.phi_at(0.0) == pytest.approx(1.0, abs=1e-12)
        assert p.phi_at(p.R) == pytest.approx(0.0, abs=1e-10)

    def test_ode_residual_small(self):
        m = MonotoneRhs1D("(exp t)", 0.0)
        for pref in (1.0, 1.0 / np.sqrt(2.0)):
            p = build_profile(m, 1.0, pref)
            assert ode_residual(p, m).max() < 1e-4

    def test_rejects_bad_args(self):
        m = MonotoneRhs1D("(exp t)", 0.0)
        with pytest.raises(ValueError):
            build_profile(m, -1.0, 1.0)
        with pytest.raises(ValueError):
            build_profile(m, 1.0, 0.3)

    def test_save_roundtrip(self, tmp_path):
        m = MonotoneRhs1D("(exp t)", 0.0)
        p = build_profile(m, 1.0, 1.0, n=200)
        path = tmp_path / "profile.csv"
        save_profile(p, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# RADIALPROFILE a=")
        assert "prefactor=" in lines[0]
        assert lines[1] == "r,phi"
        data = np.loadtxt(lines[2:], delimiter=",")
        assert data.shape == (len(p.r), 2)
        assert np.abs(data[:, 0] - p.r).max() < 1e-10
        assert np.abs(data[:, 1] - p.phi).max() < 1e-10


class TestExactFamily:
    def test_family_a_reference_value(self):
        assert family_a(7.0) == pytest.approx(1.2594635, abs=1e-6)

    def test_family_a_needs_supercubic(self):
        with pytest.raises(ValueError):
            family_a(2.0)

    def test_sup_norm_ratios(self):
        # members scale by (2k-1)^(4/(gamma-3)); for gamma = 7 the
        # sup-norm ratios against k = 1 are exactly 1, 3, 5
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                         1.0 / 16)
        sups = []
        for k in (1, 2, 3):
            u, _ = exact_family(7.0, k, d)
            sups.append(u.sup())
        a = family_a(7.0)
        assert sups[0] == pytest.approx(a, rel=1e-6)
        assert sups[1] / sups[0] == pytest.approx(3.0, rel=1e-6)
        assert sups[2] / sups[0] == pytest.approx(5.0, rel=1e-6)

    def test_needs_ball_domain(self, ball2d, tmp_path):
        # a box has no center, and a mask file keeps no shape at all
        box = build_domain({"kind": "box", "lo": [0.0, 0.0],
                            "hi": [1.0, 1.0]}, 1.0 / 8)
        save_mask(ball2d, tmp_path / "ball.mask")
        for d in (box, load_mask(tmp_path / "ball.mask")):
            with pytest.raises(ValueError, match="needs a ball domain"):
                exact_family(7.0, 1, d)

    def test_boundary_values_vanish(self):
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                         1.0 / 16)
        u, prof = exact_family(7.0, 2, d)
        assert prof.R == pytest.approx(1.0, abs=1e-9)
        r = np.sqrt(sum(g ** 2 for g in d.grid_coords()))
        near_bd = d.nonexterior & (np.abs(r - 1.0) < 1e-9)
        if near_bd.any():
            assert np.abs(u.values[near_bd]).max() < 1e-8


class TestBarrierFields:
    def test_cone_exact_operator_value(self, ball2d):
        # the cone C(sigma |x|^(4/3) + d) has operator value exactly C^3
        from inflap import RhsSpec, SchemeParams, Stencil, residual_field

        C = 1.5
        u = cone_field(ball2d, C, [0.02, 0.01], 1.0, "sub")
        st = Stencil(ball2d, SchemeParams(w=3))
        res = residual_field(u, RhsSpec("(const %.17g)" % C ** 3), st)
        r = np.sqrt((ball2d.grid_coords()[0] - 0.02) ** 2
                    + (ball2d.grid_coords()[1] - 0.01) ** 2)
        full = st.avail.all(axis=0)
        away = ball2d.interior & full & (r > 0.3)
        assert away.any()
        assert np.abs(res.values[away]).max() < 0.2

    def test_cone_validation(self, ball2d):
        with pytest.raises(ValueError):
            cone_field(ball2d, -1.0, [0.0, 0.0], 0.0, "sub")
        with pytest.raises(ValueError):
            cone_field(ball2d, 1.0, [0.0, 0.0], 0.0, "sideways")

    @pytest.mark.parametrize("z", [[0.0], [0.0, 0.0, 0.0], 0.0])
    def test_cone_centre_needs_n_coordinates(self, ball2d, z):
        # a short z used to measure |x - z| along x0 alone
        with pytest.raises(ValueError, match="z must have 2 coordinates"):
            cone_field(ball2d, 1.0, z, 0.0, "sub")

    def test_power_subsolution_shape(self):
        d = build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                         1.0 / 16)
        v = power_subsolution(1.0, 1.0, d)
        beta = 3.0 / 2.0
        assert v.sup() == pytest.approx((SIGMA / beta) ** beta, rel=1e-9)
        assert v.inf() >= 0.0

    def test_power_subsolution_validation(self, ball2d):
        with pytest.raises(ValueError):
            power_subsolution(3.5, 1.0, ball2d)
        d = build_domain({"kind": "box", "lo": [0.0, 0.0],
                          "hi": [1.0, 1.0]}, 1.0 / 8)
        with pytest.raises(ValueError):
            power_subsolution(1.0, 1.0, d)


# off-centre balls in 1-D, 2-D and 3-D
_BALLS = [({"kind": "ball", "center": [0.1], "R": 1.0}, 1.0 / 64),
          ({"kind": "ball", "center": [0.1, -0.2], "R": 1.0}, 1.0 / 16),
          ({"kind": "ball", "center": [0.1, -0.2, 0.05], "R": 1.0}, 1.0 / 6)]


def _grid_distance(d, z):
    """|x - z| on every node, as the fields took it from `grid_coords`."""
    return np.sqrt(sum((g - c) ** 2 for g, c in zip(d.grid_coords(), z)))


def _cone_frozen(d, C, z, dshift, orientation):
    core = SIGMA * _grid_distance(d, z) ** (4.0 / 3.0)
    vals = C * (core + dshift) if orientation == "sub" \
        else C * (dshift - core)
    return np.where(d.nonexterior, vals, np.nan)


def _power_frozen(gamma, R, d):
    beta = 3.0 / (3.0 - gamma)
    rr = _grid_distance(d, d.shape_info["center"])
    core = SIGMA * (R ** (4.0 / 3.0) - rr ** (4.0 / 3.0)) / beta
    vals = np.where(rr <= R, np.maximum(core, 0.0) ** beta, 0.0)
    return np.where(d.nonexterior, vals, np.nan)


def _family_frozen(gamma, k, d, n):
    a = family_a(gamma)
    m = MonotoneRhs1D("(pow t %.17g)" % gamma, 0.0)
    profile = build_profile(m, a, 1.0 / np.sqrt(2.0), n=n)
    scale = float(2 * k - 1) ** (4.0 / (gamma - 3.0))
    rr = _grid_distance(d, d.shape_info["center"])
    vals = scale * _phi_star(profile, (2 * k - 1) * rr)
    return np.where(d.nonexterior, vals, np.nan)


@pytest.mark.parametrize("spec, h", _BALLS)
class TestFieldsFrozen:
    """The fields built through `ScalarField.from_function` against frozen
    copies of their grid-wide evaluation, byte for byte."""

    def test_cone_field(self, spec, h):
        d = build_domain(spec, h)
        z = np.array([0.3, -0.05, 0.2][:d.N])
        for orientation in ("sub", "super"):
            u = cone_field(d, 1.3, z, 0.7, orientation)
            assert u.values.tobytes() \
                == _cone_frozen(d, 1.3, z, 0.7, orientation).tobytes()

    def test_power_subsolution(self, spec, h):
        d = build_domain(spec, h)
        for gamma, R in ((1.0, 1.0), (2.5, 0.6)):
            assert power_subsolution(gamma, R, d).values.tobytes() \
                == _power_frozen(gamma, R, d).tobytes()

    def test_exact_family(self, spec, h):
        d = build_domain(spec, h)
        for k in (1, 2, 3):
            u, _ = exact_family(7.0, k, d, n=500)
            assert u.values.tobytes() \
                == _family_frozen(7.0, k, d, 500).tobytes()
