"""Tests for the post-hoc inequality checkers."""

import numpy as np
import pytest

from inflap import (
    BoundaryTrace,
    RhsSpec,
    ScalarField,
    SolveOptions,
    apriori_box,
    check_apriori,
    check_comparison,
    check_harnack,
    check_monotone_comparison,
    cone_field,
    lipschitz_bound,
    solve_dirichlet,
)
from inflap import SIGMA, build_domain
from inflap.verify import _result, _zero_levels


@pytest.fixture(scope="module")
def solved_pair(small_ball):
    # u solves f = 1, v solves f = -1; strict ordering of the right-hand
    # sides forces u <= v with the gap attained on the boundary
    b = BoundaryTrace.constant(small_ball, 0.0)
    o = SolveOptions(tol=1e-9)
    u, _ = solve_dirichlet(small_ball, RhsSpec("(const 1)"), b, o)
    v, _ = solve_dirichlet(small_ball, RhsSpec("(const -1)"), b, o)
    return u, v


class TestComparison:
    def test_ordered_rhs_passes(self, solved_pair):
        u, v = solved_pair
        res = check_comparison(u, v, "strict-ordered-rhs")
        assert res.passed
        assert res.margin >= -1e-6

    def test_violation_detected(self, small_ball):
        b = BoundaryTrace.constant(small_ball, 0.0)
        u = cone_field(small_ball, 1.0, [0.0, 0.0], 0.5, "super")
        v = ScalarField.constant(small_ball, 0.0)
        res = check_comparison(u, v, "signed-rhs")
        assert not res.passed
        assert res.witness is not None
        assert res.margin < 0

    def test_unknown_mode(self, solved_pair):
        u, v = solved_pair
        with pytest.raises(ValueError):
            check_comparison(u, v, "casual")

    def test_domain_mismatch(self, small_ball, ball2d):
        u = ScalarField.constant(small_ball, 0.0)
        v = ScalarField.constant(ball2d, 0.0)
        with pytest.raises(ValueError):
            check_comparison(u, v, "signed-rhs")


class TestMonotoneComparison:
    def test_separated_boundary(self, small_ball):
        b = BoundaryTrace.constant(small_ball, 0.0)
        f = RhsSpec("t", monotone_in_t="nondecreasing")
        o = SolveOptions(tol=1e-9)
        u, _ = solve_dirichlet(small_ball, f, b, o)
        b2 = BoundaryTrace.constant(small_ball, 0.5)
        v, _ = solve_dirichlet(small_ball, f, b2, o)
        res = check_monotone_comparison(u, v, f)
        assert res.status != "undetermined"
        assert res.passed

    def test_needs_t_only(self, small_ball):
        u = ScalarField.constant(small_ball, 0.0)
        f = RhsSpec("(mul (coef a) t)", coefs={"a": 1.0},
                    monotone_in_t="nondecreasing")
        with pytest.raises(ValueError):
            check_monotone_comparison(u, u, f)

    def test_needs_monotone(self, small_ball):
        u = ScalarField.constant(small_ball, 0.0)
        f = RhsSpec("(neg t)", monotone_in_t="nonincreasing")
        with pytest.raises(ValueError):
            check_monotone_comparison(u, u, f)

    def test_undetermined_when_no_hypothesis(self, small_ball):
        # equal boundary data, f vanishing at 0: neither hypothesis holds
        u = cone_field(small_ball, 1.0, [0.0, 0.0], 0.0, "sub")
        f = RhsSpec("t", monotone_in_t="nondecreasing")
        res = check_monotone_comparison(u, u, f, l_upper=1.0, l_lower=-1.0)
        assert res.status == "undetermined"

    @pytest.mark.parametrize("expr, levels", [
        ("(add t (neg (clip t 1)))", (-1.0, 1.0)),
        ("(add (pow t 3) (const -2))",
         (1.259921049894873, 1.2599210498948734)),
        ("(add t (const 0.3))",
         (-0.30000000000000004, -0.29999999999999993)),
        ("(pow t 3)", (-6.223015277861142e-55, 6.223015277861142e-55)),
        ("(const 0)", (-np.inf, np.inf)),
        ("(const 1)", (-np.inf, -np.inf)),
        ("(const -1)", (np.inf, np.inf))])
    def test_zero_levels(self, expr, levels):
        # inf{f >= 0} and sup{f <= 0}, to the last bit
        assert _zero_levels(RhsSpec(expr)) == levels


class TestLipschitz:
    def test_solved_field_passes(self, ball2d):
        b = BoundaryTrace.constant(ball2d, 0.0)
        u, _ = solve_dirichlet(ball2d, RhsSpec("(const 1)"), b,
                               SolveOptions(tol=1e-8))
        center = tuple(int(k) // 2 for k in ball2d.dims)
        res = lipschitz_bound(u, center, alpha=0.0)
        assert res.status != "undetermined"
        assert res.passed

    def test_needs_interior_node(self, ball2d):
        u = ScalarField.constant(ball2d, 0.0)
        bd = tuple(np.argwhere(ball2d.boundary)[0])
        with pytest.raises(ValueError):
            lipschitz_bound(u, bd, alpha=0.0)

    def test_undetermined_near_boundary(self, ball2d):
        u = ScalarField.constant(ball2d, 0.0)
        # an interior node hugging the boundary has r/3 < 2h
        idx = np.argwhere(ball2d.interior)
        cen = np.asarray(ball2d.dims, dtype=float) / 2.0
        far = idx[np.argmax(np.linalg.norm(idx - cen, axis=1))]
        res = lipschitz_bound(u, tuple(far), alpha=0.0)
        assert res.status == "undetermined"


    @pytest.mark.parametrize("x0", [5, (100, 100), (-1, 16), (4,),
                                    (16, 16, 16), (16.0, 16.0), "center"])
    def test_x0_checked(self, ball2d, x0):
        # these ended in TypeError, IndexError or numpy's "truth value of
        # an array is ambiguous"; a negative index wrapped around
        u = ScalarField.constant(ball2d, 0.0)
        with pytest.raises(ValueError, match="x0 must be the 2 integer "
                                             "indices of an interior node"):
            lipschitz_bound(u, x0, alpha=0.0)


class TestHarnack:
    def test_constant_field_identity(self, ball2d):
        # for u == c > 0 and h == 0 the margin is exactly 8c
        u = ScalarField.constant(ball2d, 1.0)
        res = check_harnack(u, 0.0, [0.0, 0.0], 0.3)
        assert res.passed
        assert res.margin == pytest.approx(8.0, rel=1e-12)

    def test_negative_field_rejected(self, ball2d):
        u = ScalarField.constant(ball2d, -1.0)
        with pytest.raises(ValueError):
            check_harnack(u, 0.0, [0.0, 0.0], 0.3)

    def test_ball_must_fit(self, ball2d):
        u = ScalarField.constant(ball2d, 1.0)
        with pytest.raises(ValueError):
            check_harnack(u, 0.0, [0.0, 0.0], 0.9)

    def test_bad_args(self, ball2d):
        u = ScalarField.constant(ball2d, 1.0)
        with pytest.raises(ValueError):
            check_harnack(u, -1.0, [0.0, 0.0], 0.3)
        with pytest.raises(ValueError):
            check_harnack(u, 0.0, [0.0, 0.0], 0.0)

    @pytest.mark.parametrize("z", [[0.0], [0.0, 0.0, 0.0], 0.0])
    def test_centre_needs_n_coordinates(self, ball2d, z):
        u = ScalarField.constant(ball2d, 1.0)
        with pytest.raises(ValueError, match="z must have 2 coordinates"):
            check_harnack(u, 0.0, z, 0.3)


class TestApriori:
    def test_solved_field_inside_box(self, small_ball):
        b = BoundaryTrace.constant(small_ball, 0.0)
        u, _ = solve_dirichlet(small_ball, RhsSpec("(const 1)"), b,
                               SolveOptions(tol=1e-8))
        box = apriori_box(1.0, 1.0, b, 0.5)
        res = check_apriori(u, box)
        assert res.passed

    def test_violation_detected(self, small_ball):
        u = ScalarField.constant(small_ball, 5.0)
        res = check_apriori(u, (-1.0, 1.0))
        assert not res.passed
        assert res.margin == pytest.approx(-4.0, rel=1e-12)
        assert res.witness is not None

    def test_serializes(self, small_ball):
        u = ScalarField.constant(small_ball, 0.0)
        d = check_apriori(u, (-1.0, 1.0)).to_dict()
        assert d["name"] == "apriori"
        assert d["passed"] is True


# off-centre balls in 1-D, 2-D and 3-D, fine enough that the Lipschitz
# ball about the centre node is at least 2h wide
_BALLS = [({"kind": "ball", "center": [0.1], "R": 1.0}, 1.0 / 64),
          ({"kind": "ball", "center": [0.1, -0.2], "R": 1.0}, 1.0 / 16),
          ({"kind": "ball", "center": [0.1, -0.2, 0.05], "R": 1.0}, 1.0 / 8)]


def _lipschitz_frozen(u, x0, alpha, tol_check):
    """`lipschitz_bound` before `GridDomain.points`, kept as reference."""
    d = u.domain
    x0 = tuple(int(i) for i in x0)
    p0 = d.origin + d.h * np.asarray(x0, dtype=float)
    bpts = np.argwhere(d.boundary) * d.h + d.origin
    r = float(np.linalg.norm(bpts - p0, axis=1).min())
    diam = 2.0 * d.radii()[0]
    k = 2.0 * (u.sup() - u.inf()) / r + 1.0 + abs(alpha) * diam
    idx = np.argwhere(d.nonexterior)
    pts = idx * d.h + d.origin
    sel = np.linalg.norm(pts - p0, axis=1) <= r / 3.0
    pts, idx = pts[sel], idx[sel]
    vals = u.values[tuple(idx.T)]
    dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    slack = k * dmat - np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(slack, np.inf)
    i, j = np.unravel_index(int(np.argmin(slack)), slack.shape)
    witness = [[int(t) for t in idx[i]], [int(t) for t in idx[j]]]
    return _result("lipschitz", float(slack[i, j]), tol_check, witness,
                   {"k": k, "r": r})


def _harnack_frozen(u, h_sup_plus, z, r, tol_check):
    """`check_harnack` before `GridDomain.points`, kept as reference."""
    d = u.domain
    grids = d.grid_coords()
    dist = np.sqrt(sum((g - c) ** 2 for g, c in zip(grids, z)))
    assert not (dist <= 2.0 * r)[~d.nonexterior].any()
    inner = (dist <= 2.0 * r / 3.0) & d.nonexterior
    bvals = u.values[inner]
    margin = (9.0 * float(bvals.min())
              + 12.0 * SIGMA * (r ** 4 * h_sup_plus) ** (1.0 / 3.0)
              - float(bvals.max()))
    i = int(np.argmax(bvals))
    witness = [int(k) for k in np.argwhere(inner)[i]]
    return _result("harnack", margin, tol_check, witness,
                   {"r": r, "h_sup_plus": h_sup_plus})


@pytest.mark.parametrize("spec, h", _BALLS)
class TestCheckersFrozen:
    """Checkers that measure distances, against frozen copies: the same
    margin, witness and details to the last bit."""

    @staticmethod
    def _field(d):
        vals = np.full(d.dims, np.nan)
        vals[d.nonexterior] = np.random.default_rng(d.N).uniform(
            0.0, 2.0, np.count_nonzero(d.nonexterior))
        return ScalarField(d, vals)

    def test_lipschitz_bound(self, spec, h):
        d = build_domain(spec, h)
        u = self._field(d)
        x0 = tuple(n // 2 for n in d.dims)
        res = lipschitz_bound(u, x0, 0.5, 1e-6)
        assert res.status != "undetermined"
        assert repr(res) == repr(_lipschitz_frozen(u, x0, 0.5, 1e-6))

    def test_check_harnack(self, spec, h):
        d = build_domain(spec, h)
        u = self._field(d)
        z = np.array(spec["center"]) + [0.05, -0.03, 0.02][:d.N]
        for hs, r in ((0.0, 0.3), (2.0, 0.41)):
            assert repr(check_harnack(u, hs, z, r, 1e-6)) \
                == repr(_harnack_frozen(u, hs, z, r, 1e-6))
