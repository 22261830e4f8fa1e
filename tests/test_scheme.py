import numpy as np
import pytest

from inflap import (EXTERIOR, GridDomain, INTERIOR, BOUNDARY, RhsSpec,
                    ScalarField, SchemeParams, Stencil, apply_inf_lap,
                    build_domain, cone_field, inf_lap_field, residual_field)

SIGMA = 3.0 ** (4.0 / 3.0) / 4.0


@pytest.fixture(scope="module")
def coarse_ball():
    return build_domain({"kind": "ball", "center": [0.0, 0.0], "R": 1.0},
                        1.0 / 16.0)


@pytest.fixture(scope="module")
def stencil(coarse_ball):
    return Stencil(coarse_ball, SchemeParams())


class TestOperator:
    def test_linear_field_harmonic(self, coarse_ball, stencil):
        u = ScalarField.from_function(coarse_ball,
                                      lambda p: 2.0 * p[..., 0] - p[..., 1])
        lap = inf_lap_field(u.values, stencil)
        assert np.nanmax(np.abs(lap[coarse_ball.interior])) < 1e-10

    def test_cone_value_sign(self, coarse_ball, stencil):
        u = cone_field(coarse_ball, 2.0, [0.0, 0.0], 0.0, "sub")
        lap = inf_lap_field(u.values, stencil)
        pts = np.argwhere(coarse_ball.interior) * coarse_ball.h \
            + coarse_ball.origin
        away = np.linalg.norm(pts, axis=1) > 0.3
        vals = lap[coarse_ball.interior][away]
        # cone of amplitude 2 solves the equation with right-hand side 8
        assert np.abs(vals - 8.0).max() < 2.0

    def test_degree_three_homogeneity(self, coarse_ball, stencil, rng):
        vals = np.where(coarse_ball.nonexterior,
                        rng.standard_normal(coarse_ball.dims), np.nan)
        lap1 = inf_lap_field(vals, stencil)
        lap5 = inf_lap_field(5.0 * vals, stencil)
        sel = coarse_ball.interior
        assert np.allclose(lap5[sel], 125.0 * lap1[sel], rtol=1e-12)

    def test_odd_symmetry(self, coarse_ball, stencil, rng):
        vals = np.where(coarse_ball.nonexterior,
                        rng.standard_normal(coarse_ball.dims), np.nan)
        lap = inf_lap_field(vals, stencil)
        lap_neg = inf_lap_field(-vals, stencil)
        sel = coarse_ball.interior
        assert np.allclose(lap_neg[sel], -lap[sel], rtol=1e-12)

    def test_deterministic_selection(self, coarse_ball, stencil, rng):
        vals = np.where(coarse_ball.nonexterior,
                        rng.standard_normal(coarse_ball.dims), np.nan)
        a = inf_lap_field(vals, stencil)
        b = inf_lap_field(vals.copy(), stencil)
        assert np.array_equal(a[coarse_ball.interior],
                              b[coarse_ball.interior])

    def test_monotone_in_neighbors_gradient_dominated(self, rng):
        # monotonicity of the node update holds when the centered slope
        # dominates the curvature; probe that regime with linear fields
        # plus small perturbations
        d = build_domain({"kind": "box", "lo": [0.0, 0.0],
                          "hi": [1.0, 1.0]}, 0.1)
        s = Stencil(d, SchemeParams())
        node = (5, 5)
        for _ in range(20):
            vals = np.zeros(d.dims)
            g = d.grid_coords()
            vals += 1.3 * g[0] + 0.7 * g[1]
            vals += 0.01 * rng.standard_normal(d.dims)
            base = apply_inf_lap(ScalarField(d, vals), node, s)
            bumped = vals.copy()
            bumped[6, 5] += 1e-4
            after = apply_inf_lap(ScalarField(d, bumped), node, s)
            assert after >= base - 1e-12

    def test_apply_requires_interior(self, coarse_ball, stencil):
        u = ScalarField.constant(coarse_ball, 0.0)
        bd_node = tuple(np.argwhere(coarse_ball.boundary)[0])
        with pytest.raises(ValueError):
            apply_inf_lap(u, bd_node, stencil)

    def test_residual_field_boundary_zero(self, coarse_ball, stencil):
        u = ScalarField.constant(coarse_ball, 1.0)
        res = residual_field(u, RhsSpec("(const 2)"), stencil)
        assert (res.values[coarse_ball.boundary] == 0.0).all()
        assert np.allclose(res.values[coarse_ball.interior], -2.0)


class TestStencilStructure:
    def test_axis_pairs_always_survive(self):
        # the mask invariant guarantees every interior node keeps at
        # least the N axis pairs even on a one-node-wide strip
        mask = np.zeros((3, 9), dtype=np.int8)
        mask[1, 1:-1] = INTERIOR
        mask[0, :] = BOUNDARY
        mask[2, :] = BOUNDARY
        mask[1, 0] = BOUNDARY
        mask[1, -1] = BOUNDARY
        d = GridDomain(0.1, [0.0, 0.0], mask)
        s = Stencil(d, SchemeParams())
        counts = s.avail[:, d.interior].sum(axis=0)
        assert counts.min() >= d.N

    def test_bad_params(self):
        with pytest.raises(ValueError):
            SchemeParams(w=0)


def _reference_pair_arrays(st, values):
    """Full-grid (K, dims) pair arrays by a loop over nodes and pairs.

    A pair is available where both its arm nodes x + v and x - v lie on
    the grid and are not exterior; elsewhere its arms are NaN.
    """
    d = st.domain
    K = len(st.pairs)
    arm_p = np.full((K,) + d.dims, np.nan)
    arm_m = np.full((K,) + d.dims, np.nan)
    for k, p in enumerate(st.pairs):
        for node in np.ndindex(d.dims):
            at = [tuple(int(n + s * o) for n, o in zip(node, p.v))
                  for s in (1, -1)]
            if not all(all(0 <= c < m for c, m in zip(q, d.dims))
                       and d.mask[q] != EXTERIOR for q in at):
                continue
            arm_p[k][node], arm_m[k][node] = values[at[0]], values[at[1]]
    return arm_p, arm_m


def _ball(N, h):
    return build_domain({"kind": "ball", "center": [0.0] * N, "R": 1.0}, h)


class TestGatheredKernel:
    CASES = {"2d-integer": (2, 1.0 / 8, SchemeParams()),
             "2d-w1": (2, 1.0 / 8, SchemeParams(w=1)),
             "2d-w3": (2, 1.0 / 8, SchemeParams(w=3)),
             "3d-integer": (3, 0.25, SchemeParams()),
             "3d-w3": (3, 0.25, SchemeParams(w=3))}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_grid_reference(self, case, rng):
        N, h, params = self.CASES[case]
        d = _ball(N, h)
        st = Stencil(d, params)
        vals = np.where(d.nonexterior, rng.standard_normal(d.dims), np.nan)
        ref_p, ref_m = _reference_pair_arrays(st, vals)
        ne = np.nonzero(d.nonexterior)
        order = rng.permutation(ne[0].size)
        some = tuple(c[order[:25]] for c in ne)
        node = tuple(int(c[order[0]]) for c in ne)
        for nodes, at in ((d.nonexterior, ne), (st.gather(some), some),
                          (node, tuple(np.array([c]) for c in node))):
            arm_p, arm_m = st.pair_arrays(vals, nodes)
            np.testing.assert_array_equal(arm_p, ref_p[(slice(None),) + at])
            np.testing.assert_array_equal(arm_m, ref_m[(slice(None),) + at])
        # truncated pairs at interior nodes: NaN arms
        arm_p, arm_m = st.pair_arrays(vals, d.interior)
        cut = ~st.avail[:, d.interior]
        assert cut.any()
        assert np.isnan(arm_p[cut]).all() and np.isnan(arm_m[cut]).all()
        assert not np.isnan(arm_p[~cut]).any()

    @pytest.mark.parametrize("params", [SchemeParams(),
                                        SchemeParams(w=3)])
    def test_apply_matches_field(self, coarse_ball, params, rng):
        st = Stencil(coarse_ball, params)
        vals = np.where(coarse_ball.nonexterior,
                        rng.standard_normal(coarse_ball.dims), np.nan)
        lap = inf_lap_field(vals, st)
        u = ScalarField(coarse_ball, vals)
        for node in np.argwhere(coarse_ball.interior):
            assert apply_inf_lap(u, node, st) == lap[tuple(node)]

    def test_shape_checked(self, coarse_ball, stencil):
        with pytest.raises(ValueError):
            stencil.pair_arrays(np.zeros(3), coarse_ball.interior)
