import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflap import (BOUNDARY, EXTERIOR, INTERIOR, BoundaryTrace, GridDomain,
                    RhsSpec, ScalarField, build_domain, eval_rhs, load_mask,
                    rhs_range, save_mask)
from inflap.core import (SATURATE, _eval_tree, _split_separable, _t_grid,
                         _t_range)


class TestDomains:
    def test_ball_mask_partition(self, ball2d):
        m = ball2d.mask
        assert set(np.unique(m)) <= {EXTERIOR, BOUNDARY, INTERIOR}
        assert ball2d.interior.any() and ball2d.boundary.any()

    def test_interior_never_touches_exterior(self, ball2d):
        interior = ball2d.interior
        ext = ball2d.mask == EXTERIOR
        for ax in (0, 1):
            for step in (-1, 1):
                shifted = np.roll(ext, step, axis=ax)
                assert not (interior & shifted).any()

    def test_ball_nodes_strictly_inside(self, ball2d):
        pts = np.argwhere(ball2d.nonexterior) * ball2d.h + ball2d.origin
        assert (np.linalg.norm(pts, axis=1) < 1.0).all()

    def test_box_includes_endpoints(self):
        d = build_domain({"kind": "box", "lo": [0.0], "hi": [1.0]}, 0.25)
        xs = np.argwhere(d.nonexterior).ravel() * d.h + d.origin[0]
        assert xs.min() == pytest.approx(0.0)
        assert xs.max() == pytest.approx(1.0)

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            build_domain({"kind": "ball", "center": [0.0], "R": 1.0}, 0.0)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            build_domain({"kind": "pentagon"}, 0.1)

    @pytest.mark.parametrize("spec", [
        {"kind": "ball", "center": [], "R": 1.0},
        {"kind": "ball", "center": [[0.0, 0.0]], "R": 1.0},
        {"kind": "box", "lo": [0.0], "hi": [1.0, 1.0]},
        {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0]},
        {"kind": "box", "lo": [], "hi": []}])
    def test_list_lengths_checked(self, spec):
        # an empty centre ended in an AttributeError, and a box with more
        # upper than lower bounds built a box in fewer dimensions
        with pytest.raises(ValueError, match="one coordinate per axis"):
            build_domain(spec, 0.25)

    def test_isolated_interior_rejected(self):
        mask = np.zeros((5, 5), dtype=np.int8)
        mask[2, 2] = INTERIOR
        mask[1, 2] = BOUNDARY
        with pytest.raises(ValueError):
            GridDomain(0.1, [0.0, 0.0], mask)

    def test_radii_ordering(self, ball2d):
        out_r, _, in_r, _ = ball2d.radii()
        assert 0.0 < in_r <= out_r
        assert out_r == pytest.approx(1.0, abs=0.15)
        assert in_r == pytest.approx(1.0, abs=0.15)

    def test_exact_radii(self, ball2d, tmp_path):
        assert ball2d.out_in_radii() == (1.0, 1.0)
        d = build_domain({"kind": "box", "lo": [0.0, 0.0],
                          "hi": [2.0, 1.0]}, 0.25)
        out_r, in_r = d.out_in_radii()
        assert out_r == pytest.approx(np.hypot(1.0, 0.5))
        assert in_r == pytest.approx(0.5)
        # a mask file keeps no shape: the discrete radii stand in
        save_mask(ball2d, tmp_path / "ball.mask")
        m = load_mask(tmp_path / "ball.mask")
        rr = m.radii()
        assert m.out_in_radii() == (rr[0], rr[2])

    def test_mask_roundtrip(self, ball2d, tmp_path):
        path = tmp_path / "ball.mask"
        save_mask(ball2d, path)
        d2 = load_mask(path)
        assert d2.h == ball2d.h
        assert np.array_equal(d2.mask, ball2d.mask)
        assert np.allclose(d2.origin, ball2d.origin)

    @pytest.mark.parametrize("head", ["2 0.25 5", "2 0.25 5 5 5"])
    def test_mask_header_dims_count(self, tmp_path, head):
        # the dims fields must number exactly N
        path = tmp_path / "bad.mask"
        path.write_text("GRIDMASK v1\n%s\n0 0\n" % head
                        + "BBBBB\nBIIIB\nBIIIB\nBIIIB\nBBBBB\n")
        with pytest.raises(ValueError, match="header '%s'" % head):
            load_mask(path)


class TestFieldsAndTraces:
    def test_constant_field(self, ball2d):
        u = ScalarField.constant(ball2d, 3.0)
        assert u.sup() == 3.0 and u.inf() == 3.0
        assert np.isnan(u.values[ball2d.mask == EXTERIOR]).all()

    def test_from_function(self, ball2d):
        u = ScalarField.from_function(ball2d, lambda p: p[..., 0])
        assert u.sup() <= 1.0 and u.inf() >= -1.0

    def test_nonfinite_rejected(self, ball2d):
        vals = np.full(ball2d.dims, np.nan)
        vals[ball2d.nonexterior] = np.inf
        with pytest.raises(ValueError):
            ScalarField(ball2d, vals)

    def test_trace_bounds_and_oscillation(self, ball2d):
        b = BoundaryTrace.from_function(ball2d, lambda p: p[..., 0])
        assert b.ell < 0.0 < b.L
        c = BoundaryTrace.constant(ball2d, 2.0)
        assert c.ell == c.L == 2.0


class TestRhsSpec:
    def test_pinned_values(self):
        assert eval_rhs(RhsSpec("(neg (exp t))"), None, 1.0) \
            == pytest.approx(-np.e)
        assert eval_rhs(RhsSpec("(pow t 3)"), None, -2.0) \
            == pytest.approx(-8.0)
        assert eval_rhs(RhsSpec("(cospow 2)"), None, 0.0) \
            == pytest.approx(4.0)
        f = RhsSpec("(mul (coef a) (pow t 3))", coefs={"a": 0.5})
        assert eval_rhs(f, np.zeros(2), 2.0) == pytest.approx(4.0)

    def test_clip(self):
        f = RhsSpec("(clip (exp t) 10)")
        assert eval_rhs(f, None, 100.0) == 10.0

    def test_saturation(self):
        f = RhsSpec("(exp t)")
        assert eval_rhs(f, None, 1e6) == 1e300

    def test_missing_coef(self):
        with pytest.raises(ValueError):
            RhsSpec("(coef a)")

    def test_parse_error(self):
        with pytest.raises(ValueError):
            RhsSpec("(wat t)")

    def test_sign_probe(self):
        with pytest.raises(ValueError):
            RhsSpec("t", sign="nonneg")
        RhsSpec("(exp t)", sign="nonneg")

    def test_monotone_probe(self):
        with pytest.raises(ValueError):
            RhsSpec("(neg t)", monotone_in_t="nondecreasing")
        RhsSpec("t", monotone_in_t="nondecreasing")

    def test_callable_coefficient_probed_on_the_domain(self, ball2d):
        # a 2-D callable reads p[:, 1]: it is checked on the grid's
        # points, where the space dimension is known
        f = RhsSpec("(mul (coef a) (exp t))",
                    coefs={"a": lambda p: 1 + p[:, 1] ** 2}, sign="nonneg")
        a = f.coef_grid(ball2d)["a"]
        assert a.shape == ball2d.dims and a[ball2d.nonexterior].min() >= 1.0
        g = RhsSpec("(mul (coef a) (exp t))",
                    coefs={"a": lambda p: p[:, 1]}, sign="nonneg")
        with pytest.raises(ValueError, match="nonneg"):
            g.coef_grid(ball2d)
        h = RhsSpec("(mul (coef a) t)", coefs={"a": lambda p: p[:, 0]},
                    monotone_in_t="nondecreasing")
        with pytest.raises(ValueError, match="nondecreasing"):
            h.eval_grid(ball2d, np.zeros(ball2d.dims))

    def test_monotone_value_checked(self):
        with pytest.raises(ValueError):
            RhsSpec("t", monotone_in_t=True)

    def test_sign_value_checked(self):
        # an unknown sign used to be accepted and check nothing
        with pytest.raises(ValueError, match="'nonneg', 'nonpos', or "
                                             "'mixed'"):
            RhsSpec("(exp t)", sign="positive")
        RhsSpec("t", sign="mixed")

    def test_rhs_range_exact(self):
        f = RhsSpec("(neg (exp t))")
        lo, hi = rhs_range(f, (0.0, 3.0))
        assert lo == pytest.approx(-np.exp(3.0))
        assert hi == pytest.approx(-1.0)

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(-5.0, 5.0))
    def test_range_contains_samples(self, t):
        f = RhsSpec("(add (pow t 3) (neg (exp t)))")
        lo, hi = rhs_range(f, (-5.0, 5.0))
        assert lo - 1e-9 <= eval_rhs(f, None, t) <= hi + 1e-9


def _coef_kinds(d):
    """The coefficient a = x0 - x1 / 2 as a scalar stand-in, a grid array
    (with a huge exterior value that must not count) and a callable."""
    def fn(p):
        return p[:, 0] - 0.5 * p[:, 1]
    x0, x1 = d.grid_coords()
    grid = np.where(d.nonexterior, x0 - 0.5 * x1, 1e6)
    return {"scalar": -1.5, "grid": grid, "callable": fn}


def _brute_range(f, d, lo, hi):
    """min/max of f over the non-exterior nodes and 101 t's, ends included."""
    ys = [f.eval_grid(d, t)[d.nonexterior] for t in np.linspace(lo, hi, 101)]
    return min(y.min() for y in ys), max(y.max() for y in ys)


class TestRhsRangeCoefficients:
    @pytest.mark.parametrize("kind", ["scalar", "grid", "callable"])
    @pytest.mark.parametrize("expr", ["(mul (coef a) (exp t))",
                                      "(add (coef a) t)"])
    def test_matches_brute_force(self, ball2d, expr, kind):
        # the product is separable (coefficient-factor branch); the sum is
        # not (sampled branch); both extremes sit at the interval's ends
        f = RhsSpec(expr, coefs={"a": _coef_kinds(ball2d)[kind]})
        lo, hi = rhs_range(f, (-1.0, 0.5), ball2d)
        ref_lo, ref_hi = _brute_range(f, ball2d, -1.0, 0.5)
        assert lo == pytest.approx(ref_lo, rel=1e-12, abs=1e-12)
        assert hi == pytest.approx(ref_hi, rel=1e-12, abs=1e-12)
        assert lo < hi

    def test_callable_factor_needs_domain(self):
        f = RhsSpec("(mul (coef a) (exp t))", coefs={"a": lambda p: p[:, 0]})
        with pytest.raises(ValueError, match="needs a domain"):
            rhs_range(f, (0.0, 1.0))

    def test_non_separable_without_domain(self, ball2d):
        # a scalar coefficient needs no domain (this raised KeyError);
        # any other kind does, in the sampled branch as in the separable
        f = RhsSpec("(add (coef a) (exp t))", coefs={"a": 2.0})
        lo, hi = rhs_range(f, (0, 1))
        assert (lo, hi) == rhs_range(f, (0, 1), ball2d)
        assert (lo, hi) == rhs_range(RhsSpec("(add (const 2) (exp t))"),
                                     (0, 1))
        for kind in ("grid", "callable"):
            f = RhsSpec("(add (coef a) (exp t))",
                        coefs={"a": _coef_kinds(ball2d)[kind]})
            with pytest.raises(ValueError, match="needs a domain"):
                rhs_range(f, (0, 1))

    def test_grid_coefficient_shape_checked(self, ball2d):
        f = RhsSpec("(add (coef a) t)", coefs={"a": np.zeros((3, 3))})
        with pytest.raises(ValueError, match="shape mismatch"):
            f.coef_grid(ball2d)


# an off-centre ball in each dimension and a box, none with an origin on
# the lattice of multiples of h
_DOMAINS = [
    ({"kind": "ball", "center": [0.1], "R": 1.0}, 1.0 / 64),
    ({"kind": "box", "lo": [-0.3, 0.2], "hi": [0.7, 1.1]}, 1.0 / 16),
    ({"kind": "ball", "center": [0.1, -0.2], "R": 1.0}, 1.0 / 16),
    ({"kind": "ball", "center": [0.1, -0.2, 0.05], "R": 1.0}, 1.0 / 6)]


def _grid_points(d, nodes):
    """Coordinates of the selected nodes from `grid_coords`, as
    `from_function`, `coef_grid` and `rhs_range` took them before
    `GridDomain.points`."""
    return np.stack([g[nodes] for g in d.grid_coords()], axis=-1)


def _wavy(p):
    """A coordinate function that every last bit of p shows in."""
    return np.sin(7.0 * p[:, 0]) * np.exp(p.sum(axis=1)) + p[:, -1] ** 3


def _rhs_range_frozen(f, interval, domain=None):
    """`rhs_range` before `GridDomain.points`, kept as reference."""
    lo, hi = float(interval[0]), float(interval[1])
    if f._separable is not None:
        xp, tp = f._separable
        glo, ghi = _t_range(tp, {}, lo, hi)
        alo, ahi = 1.0, 1.0
        for cf in xp:
            vals = f.coefs[cf[1]]
            if callable(vals):
                grids = domain.grid_coords()
                ne = domain.nonexterior
                pts = np.stack([g[ne] for g in grids], axis=-1)
                arr = np.asarray(vals(pts), float)
            elif np.isscalar(vals):
                arr = np.asarray([vals], float)
            else:
                arr = np.asarray(vals, float)
                if domain is not None and arr.shape == domain.dims:
                    arr = arr[domain.nonexterior]
                arr = arr[np.isfinite(arr)]
            prods = [alo * arr.min(), alo * arr.max(),
                     ahi * arr.min(), ahi * arr.max()]
            alo, ahi = min(prods), max(prods)
        prods = [alo * glo, alo * ghi, ahi * glo, ahi * ghi]
        return min(prods), max(prods)
    t = np.linspace(lo, hi, 513)
    if domain is not None and f.depends_on_x():
        best_lo, best_hi = np.inf, -np.inf
        for tv in t:
            y = f.eval_grid(domain, tv)[domain.nonexterior]
            best_lo = min(best_lo, float(y.min()))
            best_hi = max(best_hi, float(y.max()))
        return best_lo, best_hi
    y = _eval_tree(f.tree, {}, t)
    return float(np.min(y)), float(np.max(y))


@pytest.mark.parametrize("spec, h", _DOMAINS)
class TestPointsFrozen:
    """`GridDomain.points` and its callers against the coordinates of
    `grid_coords`, byte for byte."""

    def test_points_are_grid_coords(self, spec, h):
        d = build_domain(spec, h)
        every = np.ones(d.dims, dtype=bool)
        for nodes in (d.nonexterior, d.boundary, d.interior, every):
            pts = d.points(nodes)
            assert pts.shape == (np.count_nonzero(nodes), d.N)
            assert pts.tobytes() == _grid_points(d, nodes).tobytes()
        assert d.points().tobytes() == _grid_points(d, every).tobytes()

    def test_from_function(self, spec, h):
        d = build_domain(spec, h)
        for cls, nodes in ((ScalarField, d.nonexterior),
                           (BoundaryTrace, d.boundary)):
            ref = np.full(d.dims, np.nan)
            ref[nodes] = _wavy(_grid_points(d, nodes))
            got = cls.from_function(d, _wavy).values
            assert got.tobytes() == ref.tobytes()

    def test_coef_grid(self, spec, h):
        d = build_domain(spec, h)
        every = np.ones(d.dims, dtype=bool)
        f = RhsSpec("(mul (coef a) t)", coefs={"a": _wavy})
        ref = _wavy(_grid_points(d, every)).reshape(d.dims)
        assert f.coef_grid(d)["a"].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("expr", [
        "(mul (coef a) (exp t))", "(add (mul (coef a) t) (cospow 2))",
        "(clip (add (coef a) (pow t 3)) 4)"])
    def test_rhs_range(self, spec, h, expr):
        # the product is separable; the sum and the clip are sampled
        d = build_domain(spec, h)
        grid = np.where(d.nonexterior, _wavy(_grid_points(
            d, np.ones(d.dims, dtype=bool))).reshape(d.dims), 1e6)
        # a declared sign is probed on the domain's coefficient values
        for coef, sign, interval in [
                (_wavy, None, (-3.0, 7.0)), (_wavy, "mixed", (0.25, 0.25)),
                (grid, None, (-3.0, 7.0)), (-1.5, None, (-1.0, 0.5))]:
            f = RhsSpec(expr, coefs={"a": coef}, sign=sign)
            assert repr(rhs_range(f, interval, d)) \
                == repr(_rhs_range_frozen(f, interval, d))


def _t_range_reference(trees, lo, hi, n=4097):
    """min/max of the factor product over the sorted, deduplicated sample
    set: the grid, both ends, multiples of pi and 0 inside [lo, hi]."""
    cands = [lo, hi] + [np.pi * k for k in range(int(np.ceil(lo / np.pi)),
                                                int(np.floor(hi / np.pi)) + 1)]
    if lo <= 0.0 <= hi:
        cands.append(0.0)
    t = np.unique(np.clip(np.concatenate([np.linspace(lo, hi, n), cands]),
                          lo, hi))
    y = np.ones_like(t)
    for tree in trees:
        y = y * _eval_tree(tree, {}, t)
    return y.min(), y.max()


class TestTRange:
    @pytest.mark.parametrize("expr, lo, hi", [
        ("(mul (pow t 3) (cospow 2))", -10.0, 10.0),
        ("(mul t (cospow 1))", 0.0, 3.0 * np.pi),
        ("(cospow 3)", -np.pi, 2.0 * np.pi),
        ("(neg (mul (exp t) (cospow 2)))", -0.5, 7.0),
        ("(pow t 2)", -3.0, 2.0),
        ("(pow t 0.5)", 0.0, 0.0),
        ("(exp t)", 1.0, 1.0 + 1e-9)])
    def test_matches_sorted_unique_samples(self, expr, lo, hi):
        trees = _split_separable(RhsSpec(expr).tree)[1]
        assert _t_range(trees, {}, lo, hi) == _t_range_reference(trees, lo, hi)


def _t_range_frozen(trees, combo, lo, hi, n=4097):
    """`_t_range` as it was before the one-buffer sampler, kept as reference:
    np.linspace and the candidates concatenated, and the product started
    from ones with each constant factor broadcast to an array."""
    cands = [lo, hi]
    k0 = int(np.ceil(lo / np.pi))
    k1 = int(np.floor(hi / np.pi))
    if k1 - k0 < 64:
        cands.extend(np.pi * k for k in range(k0, k1 + 1))
    cands.append(0.0) if lo <= 0.0 <= hi else None
    t = np.clip(np.concatenate(
        [np.linspace(lo, hi, n), np.asarray(cands, float)]), lo, hi)
    y = np.ones_like(t)
    for tree in trees:
        y = y * _eval_tree(tree, combo, t)
    return float(y.min()), float(y.max())


def _seeded_intervals():
    """Degenerate, tiny, zero-straddling and long intervals, seeded."""
    rng = np.random.default_rng(23)
    out = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 5e-324),
           (-5e-324, 0.0), (-300.0, 300.0), (-1e3, -10.0), (0.0, 1e3)]
    for _ in range(40):
        a = float(rng.normal() * 10.0 ** rng.uniform(-3.0, 3.0))
        b = float(rng.normal() * 10.0 ** rng.uniform(-3.0, 3.0))
        out += [(a, a), (a, a + 5e-324), (a, a + 1e-13),
                (-abs(a), abs(b)), (min(a, b), max(a, b)),
                (a, a + 64.5 * np.pi * (1.0 + abs(b)))]
    return out


# empty (pure-coef f), const-only, t, pow, cospow, clip, exp and neg
_FACTOR_LISTS = ["(coef a)", "(mul (const 2.5) (neg (const 3)))", "t",
                 "(mul (pow t 3) (const -0.5))", "(cospow 2.5)",
                 "(clip (pow t 2) 7)", "(exp t)", "(neg (exp t))",
                 "(mul (neg t) (mul (cospow 1) (exp t)))"]


class TestTRangeFrozen:
    @pytest.mark.parametrize("expr", _FACTOR_LISTS)
    def test_matches_frozen_sampler(self, expr):
        trees = _split_separable(RhsSpec(expr, coefs={"a": 1.0}).tree)[1]
        with np.errstate(all="ignore"):
            for lo, hi in _seeded_intervals():
                assert repr(_t_range(trees, {}, lo, hi)) \
                    == repr(_t_range_frozen(trees, {}, lo, hi)), (lo, hi)

    def test_factor_lists_cover_empty_and_const_only(self):
        kinds = [[tr[0] for tr in _split_separable(RhsSpec(
            e, coefs={"a": 1.0}).tree)[1]] for e in _FACTOR_LISTS[:2]]
        assert kinds == [[], ["const", "const", "const"]]

    def test_grid_is_linspace(self):
        out = np.empty(4097)
        for lo, hi in _seeded_intervals():
            _t_grid(out, lo, hi)
            assert out.tobytes() == np.linspace(lo, hi, 4097).tobytes(), \
                (lo, hi)


def _central_difference(f, coefs, t):
    step = 1e-6 * (1.0 + np.abs(t))
    return (f.eval_nodes(t + step, coefs)
            - f.eval_nodes(t - step, coefs)) / (2.0 * step)


class TestRhsDerivative:
    """df/dt from RhsSpec.eval_nodes against central differences."""

    T = np.array([-2.5, -1.3, -0.4, 0.05, 0.3, 1.1, 2.7])

    @pytest.mark.parametrize("expr", [
        "t", "(const 2.5)", "(pow t 3)", "(pow t 2)", "(pow t 1.5)",
        "(exp t)", "(cospow 2)", "(cospow 1.5)", "(neg (exp t))",
        "(add t (pow t 3) (const 1))",
        "(mul (const -0.5) (exp t) (cospow 2))",
    ])
    def test_ops(self, expr):
        f = RhsSpec(expr)
        y, dy = f.eval_nodes(self.T, {}, dt=True)
        assert np.array_equal(y, f.eval_nodes(self.T, {}))
        np.testing.assert_allclose(dy, _central_difference(f, {}, self.T),
                                   rtol=1e-6, atol=1e-8)

    def test_coef_array(self):
        f = RhsSpec("(mul (coef a) (pow t 3))", coefs={"a": 1.0})
        coefs = {"a": np.linspace(-1.0, 2.0, self.T.size)}
        _, dy = f.eval_nodes(self.T, coefs, dt=True)
        np.testing.assert_allclose(dy, 3.0 * coefs["a"] * self.T ** 2)
        np.testing.assert_allclose(
            dy, _central_difference(f, coefs, self.T), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("g", [3.0, 1.5])
    def test_pow_through_zero(self, g):
        # the odd power t|t|^(g-1) has slope g|t|^(g-1), 0 at t = 0
        t = np.array([-1e-2, 0.0, 1e-2])
        f = RhsSpec("(pow t %g)" % g)
        _, dy = f.eval_nodes(t, {}, dt=True)
        np.testing.assert_allclose(dy, g * np.abs(t) ** (g - 1.0))
        # at 0 the difference quotient is step^(g-1) (step = 1e-6)
        np.testing.assert_allclose(dy, _central_difference(f, {}, t),
                                   rtol=1e-6, atol=1.01e-6 ** (g - 1.0))

    def test_exp_saturation(self):
        # past t = ln(1e300) the value is clamped and the slope is 0
        f = RhsSpec("(exp t)")
        t = np.array([650.0, 700.0, 750.0, 1e6])
        y, dy = f.eval_nodes(t, {}, dt=True)
        assert y[0] == pytest.approx(np.exp(650.0))
        assert dy[0] == pytest.approx(np.exp(650.0))
        assert (y[1:] == 1e300).all() and (dy[1:] == 0.0).all()
        np.testing.assert_allclose(dy[1:], _central_difference(f, {}, t[1:]))

    def test_clip_both_sides(self):
        # 3t clipped to [-2, 2]: slope 3 inside, 0 beyond either side
        f = RhsSpec("(clip (mul (const 3) t) 2)")
        t = np.array([-1.5, -0.8, -0.2, 0.4, 0.9, 1.7])
        y, dy = f.eval_nodes(t, {}, dt=True)
        np.testing.assert_allclose(y, np.clip(3.0 * t, -2.0, 2.0))
        np.testing.assert_array_equal(dy, [0.0, 0.0, 3.0, 3.0, 0.0, 0.0])
        np.testing.assert_allclose(dy, _central_difference(f, {}, t),
                                   atol=1e-8)


class TestRhsBound:
    """RhsSpec.bound, the |f| bound that lets eval_nodes skip its clamp."""

    @pytest.mark.parametrize("expr, bound", [
        ("(exp t)", 1e300),
        ("(const -2.5)", 2.5),
        ("(const 0)", 0.0),
        ("(neg (exp t))", 1e300),
        ("(neg (const -3))", 3.0),
        ("(clip (exp t) 1.5)", 1.5),
        ("(clip (const 0.5) 2)", 0.5),
        ("(clip t 2)", 2.0),
        ("(clip (const 0) -5)", 5.0),       # clips everything to -5
        ("(cospow 2)", 4.0),
        ("(cospow 0)", 1.0),
        ("(cospow 995.5)", 2.0 ** 995.5),
        ("(cospow 996)", np.inf),
        ("(cospow -0.5)", np.inf),          # infinite where cos t = -1
        ("(add (const 1) (cospow 3) (neg (const 2)))", 11.0),
        ("(mul (const -0.5) (exp t) (cospow 2))", 2e300),
        ("(mul (const 1e-300) (exp t))", 1.0),
        ("t", np.inf),
        ("(coef a)", np.inf),
        ("(pow t 3)", np.inf),
        ("(pow t 0)", np.inf),
        ("(add (exp t) t)", np.inf),
        ("(mul (const 2) (pow t 0.5))", np.inf),
    ])
    def test_bound_per_op(self, expr, bound):
        f = RhsSpec(expr, coefs={"a": 1.0})
        assert f.bound == bound

    def test_zero_times_unbounded_has_no_bound(self):
        # inf * 0 is NaN, which is not <= SATURATE: the clamp stays
        f = RhsSpec("(mul (const 0) t)")
        assert not f.bound <= SATURATE

    T = np.array([np.inf, -np.inf, np.nan, 700.0, -700.0, 1e308, -1e308,
                  0.0, -0.0] + [k * np.pi for k in range(-4, 5)])

    @pytest.mark.parametrize("expr", [
        "(exp t)", "(neg (exp t))", "(clip (exp t) 1.5)", "(cospow 2)",
        "(cospow 0)", "(add (const 1) (neg (exp t)))",
        "(mul (const -0.5) (exp t) (cospow 2))", "(clip t -2)",
        "(mul (coef a) (neg (exp t)))", "t", "(pow t 3)", "(pow t 0.5)",
        "(cospow -0.5)", "(cospow 1000)", "(mul (const 1e10) (exp t))",
        "(add (exp t) (exp t))", "(mul (const 0) t)"])
    def test_skipped_clamp_changes_no_byte(self, expr):
        # against the clamp applied on every tree: the bytes
        # of f and df/dt at infinities, NaN, the exp cap, overflow, signed
        # zeros and the multiples of pi where cospow has its extrema
        f = RhsSpec(expr, coefs={"a": 2.0})
        coefs = {"a": np.linspace(0.5, 3.0, self.T.size)}
        with np.errstate(all="ignore"):
            y, dy = _eval_tree(f.tree, coefs, self.T, True)
            y = np.asarray(y, dtype=float)
            big = np.abs(y) > SATURATE
            if np.count_nonzero(big):
                y = np.clip(y, -SATURATE, SATURATE)
                dy = np.where(big, 0.0, dy)
            got = f.eval_nodes(self.T, coefs, dt=True)
            assert f.eval_nodes(self.T, coefs).tobytes() == y.tobytes()
        assert got[0].tobytes() == y.tobytes()
        assert np.asarray(got[1]).tobytes() == np.asarray(dy).tobytes()
        if f.bound <= SATURATE:
            assert not big.any()
