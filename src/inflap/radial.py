"""Explicit radial constructions: H, zeta, psi, profiles, cones, families.

The radial profile phi solves (phi')^2 phi'' = -h(phi) on (0, R) with
phi(0) = a, phi'(0) = 0, phi(R) = ell.  Its inverse is
psi(t) = prefactor * int_t^a (H(a) - H(s))^(-1/4) ds, where
H(t) = int_ell^t h.  All quadrature near the singular end t = a uses the
substitution t = a - tau^4, which removes the quarter-root singularity:
with Q(tau) = H(a) - H(a - tau^4) = int_0^tau 4 v^3 h(a - v^4) dv, both

    Q(tau)        (tail of H)
    psi-as-r(tau) = prefactor * int_0^tau 4 v^3 Q(v)^(-1/4) dv

have smooth integrands (the second behaves like 4 v^2 / h(a)^(1/4) at 0).
Profiles are stored as (r_j, phi_j) = (psi(t_j), t_j) on a grid
log-graded in a - t, so no inversion step adds interpolation noise.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (SIGMA, ScalarField, _eval_tree, _nodes, _parse_rhs,
                   _write_rows)

# 8-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
# offsets t - ell at which MonotoneRhs1D checks h
_PROBE_OFFSETS = np.geomspace(1e-9, 100.0, 2048)
# ode_residual leaves out the nodes with r below this fraction of R
_RMIN_FRAC = 1e-4


class MonotoneRhs1D:
    """Nondecreasing h(t) >= 0 on [ell, inf), h(t) > 0 for t > ell.

    Parameters
    ----------
    expression : str
        t-only expression in the RhsSpec grammar; a (coef name) node
        raises ValueError.
    ell : float
    """

    def __init__(self, expression, ell):
        self.expression = expression
        self.tree = _parse_rhs(expression)
        if any(n[0] == "coef" for n in _nodes(self.tree)):
            raise ValueError("h must not depend on x: %r has a coefficient"
                             % expression)
        self.ell = float(ell)
        t = self.ell + _PROBE_OFFSETS
        y = self(t)
        if (y < -1e-12).any():
            raise ValueError("h must be nonnegative on [ell, inf)")
        if (np.diff(y) < -1e-9 * (1.0 + np.abs(y[:-1]))).any():
            raise ValueError("h must be nondecreasing")
        if not (y[1:] > 0).all():
            raise ValueError("h must be positive for t > ell "
                             "(positivity flag failed)")

    def __call__(self, t):
        return _eval_tree(self.tree, {}, np.asarray(t, dtype=float))


def cumulative_H(m, t):
    """H(t) = int_ell^t h(s) ds by adaptive quadrature (rel tol 1e-10)."""
    t = float(t)
    if t < m.ell:
        raise ValueError("cumulative_H needs t >= ell")
    if t == m.ell:
        return 0.0
    from scipy.integrate import quad
    val, _ = quad(lambda s: float(m(s)), m.ell, t,
                  epsabs=1e-13, epsrel=1e-10, limit=400)
    return val


def _tail_Q(m, a, tau):
    """Q(tau) = H(a) - H(a - tau^4) by adaptive quadrature."""
    if tau <= 0:
        return 0.0
    from scipy.integrate import quad
    val, _ = quad(lambda v: 4.0 * v ** 3 * float(m(a - v ** 4)), 0.0, tau,
                  epsabs=1e-14, epsrel=1e-10, limit=400)
    return val


def _prefactor(p):
    """The admissible prefactors: 1.0 and 1/sqrt(2), the latter to 4 ulp.

    JSON's 0.7071067811865476 (np.sqrt(0.5)) is one ulp above
    1/np.sqrt(2.0); it is returned as that canonical value.
    """
    root = 1.0 / np.sqrt(2.0)
    if isinstance(p, (int, float, np.integer, np.floating)):
        if p == 1:
            return 1.0
        if abs(p - root) <= 4 * np.spacing(root):
            return root
    raise ValueError("prefactor must be 1 or 1/sqrt(2)")


def zeta(m, a, prefactor):
    """zeta(a) = prefactor * int_ell^a (H(a) - H(t))^(-1/4) dt.

    Plain adaptive quadrature away from t = a; the substitution
    t = a - tau^4 on the last subinterval kills the singularity.
    """
    prefactor = _prefactor(prefactor)
    if a <= m.ell:
        raise ValueError("zeta needs a > ell")
    from scipy.integrate import quad
    span = a - m.ell
    mid = a - min(1.0, span) / 2.0
    Ha = cumulative_H(m, a)

    def plain(t):
        d = Ha - cumulative_H(m, t)
        if d <= 0:
            raise ValueError("singular integral divergent: H flat below a")
        return d ** -0.25

    total = 0.0
    if mid > m.ell:
        v, _ = quad(plain, m.ell, mid, epsabs=1e-12, epsrel=1e-9, limit=400)
        total += v
    tmax = (a - mid) ** 0.25

    def subst(tau):
        q = _tail_Q(m, a, tau)
        if q <= 0:
            return 0.0
        return 4.0 * tau ** 3 * q ** -0.25

    v, _ = quad(subst, 0.0, tmax, epsabs=1e-12, epsrel=1e-9, limit=400)
    total += v
    return float(prefactor) * total


def zeta_bounds(m, a, t):
    """Closed-form sandwich for psi(t):

    (4/3)((a-t)^3 / h(a))^(1/4) <= psi(t) <= (4/3)((a-t)^4 / H(a))^(1/4).
    """
    if not (m.ell <= t <= a):
        raise ValueError("zeta_bounds needs ell <= t <= a")
    if t == a:
        return (0.0, 0.0)
    ha = float(m(a))
    if ha <= 0:
        raise ValueError("h(a) = 0: lower bound undefined")
    Ha = cumulative_H(m, a)
    lower = (4.0 / 3.0) * ((a - t) ** 3 / ha) ** 0.25
    upper = (4.0 / 3.0) * ((a - t) ** 4 / Ha) ** 0.25
    return (lower, upper)


@dataclass
class RadialProfile:
    """Sampled monotone radial profile phi on [0, R].

    nodes r (increasing, r[0] = 0), values phi (decreasing, phi[0] = a,
    phi[-1] = ell); tau holds (a - phi)^(1/4) for smooth interpolation.
    """
    r: np.ndarray
    phi: np.ndarray
    a: float
    ell: float
    R: float
    prefactor: float
    tau: np.ndarray = field(repr=False, default=None)
    _interp: object = field(repr=False, default=None, compare=False)

    def phi_at(self, r):
        """Evaluate phi off-node.

        Interpolates tau = (a - phi)^(1/4) against rho = r^(1/3) with a
        monotone cubic; both variables are smooth functions of each other
        through the vertex, unlike phi(r) itself (phi ~ a - c r^(4/3)).
        """
        r = np.asarray(r, dtype=float)
        if self._interp is None:
            from scipy.interpolate import PchipInterpolator
            rho = np.abs(self.r) ** (1.0 / 3.0)
            self._interp = PchipInterpolator(rho, self.tau, extrapolate=True)
        rho = np.clip(r, 0.0, self.R) ** (1.0 / 3.0)
        tau = self._interp(rho)
        return self.a - tau ** 4


def _profile_tables(m, a, prefactor, n):
    """Cumulative Gauss tables for Q and psi on a graded tau grid."""
    span = a - m.ell
    s = np.geomspace(1e-12 * span, span, n)      # a - t, increasing
    edges = np.concatenate([[0.0], s ** 0.25])   # tau edges, increasing
    lo, hi = edges[:-1], edges[1:]
    # Gauss nodes per segment, shape (n, 8)
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    x = mid + half * _GL_X[None, :]
    wx = half * _GL_W[None, :]

    def q_integrand(v):
        return 4.0 * v ** 3 * m(a - v ** 4)

    seg_q = (wx * q_integrand(x)).sum(axis=1)
    Q_edges = np.concatenate([[0.0], np.cumsum(seg_q)])
    # Q at the segment Gauss nodes by nested Gauss from the left edge
    mid2 = 0.5 * (lo[:, None] + x)[..., None]
    half2 = 0.5 * (x - lo[:, None])[..., None]
    xx = mid2 + half2 * _GL_X[None, None, :]
    ww = half2 * _GL_W[None, None, :]
    Q_nodes = Q_edges[:-1, None] + (ww * q_integrand(xx)).sum(axis=2)
    with np.errstate(divide="ignore"):
        p_int = 4.0 * x ** 3 * np.where(Q_nodes > 0, Q_nodes, np.inf) ** -0.25
    seg_p = (wx * p_int).sum(axis=1)
    r_edges = float(prefactor) * np.concatenate([[0.0], np.cumsum(seg_p)])
    return edges, r_edges


def _H_table(m, s):
    """H(ell + s) at increasing offsets s > 0 by one composite Gauss sum.

    The pieces are [0, s_0], then each [s_(i-1), s_i] split into 4 equal
    parts, with 8 Gauss-Legendre nodes per piece; h is evaluated once on
    all nodes and the piece integrals are summed cumulatively.  On the
    nonexistence scan a piece is about 5 % of s wide: for e^t the table
    agrees with adaptive quadrature to 1e-14 up to s = 60 but not beyond
    s = 100, where the screening bound of e^t is far below its maximum.
    """
    inner = s[:-1, None] + np.diff(s)[:, None] * (np.arange(4) / 4.0)
    edges = np.concatenate([[0.0], inner.ravel(), s[-1:]])
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    seg = (half * _GL_W * m(m.ell + mid + half * _GL_X)).sum(axis=1)
    return np.cumsum(seg)[::4]


def build_profile(m, a, prefactor, n=2000):
    """Build the radial profile for h = m, top value a, bottom value ell.

    Nodes are (psi(t_j), t_j) on a t-grid log-graded toward t = a, so the
    stored pairs carry no inversion error; R = psi(ell).
    """
    if a <= m.ell:
        raise ValueError("build_profile needs a > ell")
    prefactor = _prefactor(prefactor)
    tau, r = _profile_tables(m, a, prefactor, n)
    phi = a - tau ** 4
    # orient with r increasing from the vertex; pin the endpoints exactly
    phi[0] = a
    phi[-1] = m.ell
    if not (np.diff(phi) < 0).all():
        raise ValueError("profile failed strict monotonicity")
    return RadialProfile(r=r, phi=phi, a=float(a), ell=m.ell,
                         R=float(r[-1]), prefactor=float(prefactor), tau=tau)


def ode_residual(profile, m):
    """|(phi')^2 phi'' + h(phi)| from 3-point nonuniform differences.

    Nodes with r < _RMIN_FRAC * R are excluded: phi is not C^2 at the
    vertex (phi ~ a - c r^(4/3)), and below that radius the graded node
    values differ by so little that double-precision differences are
    noise rather than derivatives.
    """
    r, phi = profile.r, profile.phi
    rm, r0, rp = r[:-2], r[1:-1], r[2:]
    fm, f0, fp = phi[:-2], phi[1:-1], phi[2:]
    dm, dp = r0 - rm, rp - r0
    d1 = (fp * dm ** 2 - fm * dp ** 2 + f0 * (dp ** 2 - dm ** 2)) \
        / (dm * dp * (dm + dp))
    d2 = 2.0 * (fm * dp + fp * dm - f0 * (dm + dp)) / (dm * dp * (dm + dp))
    # (phi')^2 phi'' = -h(phi)/(4 p^4) for psi-prefactor p; p = 1/sqrt(2)
    # recovers the Lemma ODE exactly
    res = np.abs(d1 ** 2 * d2 + 0.25 * m(f0) / profile.prefactor ** 4)
    return res[r0 >= _RMIN_FRAC * profile.R]


def save_profile(profile, path):
    """Two-column CSV export with the RADIALPROFILE header line."""
    with open(path, "w") as fh:
        fh.write("# RADIALPROFILE a=%.12e l=%.12e R=%.12e prefactor=%.12e\n"
                 % (profile.a, profile.ell, profile.R, profile.prefactor))
        fh.write("r,phi\n")
        _write_rows(fh, np.column_stack((profile.r, profile.phi)))


def cone_field(d, C, z, dshift, orientation):
    """Cone sub/super-solution sampled on the grid.

    sub:   C * (sigma |x - z|^(4/3) + dshift)
    super: C * (dshift - sigma |x - z|^(4/3))
    """
    if C < 0:
        raise ValueError("cone amplitude C must be >= 0")
    if orientation not in ("sub", "super"):
        raise ValueError("orientation must be 'sub' or 'super'")
    z = np.asarray(z, dtype=float)
    if z.shape != (d.N,):
        raise ValueError("z must have %d coordinates" % d.N)

    def cone(pts):
        core = SIGMA * np.linalg.norm(pts - z, axis=-1) ** (4.0 / 3.0)
        return C * (core + dshift) if orientation == "sub" \
            else C * (dshift - core)
    return ScalarField.from_function(d, cone)


def power_subsolution(gamma, R, d):
    """Explicit sub-solution of Delta_inf v + v^gamma >= 0 on the R-ball.

    v(x) = {sigma (R^(4/3) - |x|^(4/3)) / beta}^beta with
    beta = 3/(3 - gamma), extended by zero outside the ball.
    """
    if not (0.0 < gamma < 3.0):
        raise ValueError("power_subsolution needs gamma in (0, 3)")
    si = d.shape_info
    if si is None or si["kind"] != "ball":
        raise ValueError("power_subsolution needs a ball domain")
    beta = 3.0 / (3.0 - gamma)
    center = np.asarray(si["center"], dtype=float)

    def v(pts):
        rr = np.linalg.norm(pts - center, axis=-1)
        core = SIGMA * (R ** (4.0 / 3.0) - rr ** (4.0 / 3.0)) / beta
        return np.where(rr <= R, np.maximum(core, 0.0) ** beta, 0.0)
    return ScalarField.from_function(d, v)


def family_a(gamma):
    """Top value a(gamma) of the exact unbounded family on the unit ball.

    Solves R = 1 for the profile of h = t^gamma:
    a^((gamma-3)/4) = I * ((gamma+1)/4)^(1/4) with
    I = int_0^1 (1 - s^(gamma+1))^(-1/4) ds.
    """
    if gamma <= 3.0:
        raise ValueError("exact family needs gamma > 3")

    def integrand(u):
        # s = 1 - u^4 removes the endpoint singularity
        return 4.0 * u ** 3 * (1.0 - (1.0 - u ** 4) ** (gamma + 1.0)) ** -0.25

    from scipy.integrate import quad
    I, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=400)
    return float((I * ((gamma + 1.0) / 4.0) ** 0.25) ** (4.0 / (gamma - 3.0)))


def _phi_star(profile, r):
    """4-periodic odd/even extension of the unit-interval profile."""
    r = np.abs(np.asarray(r, dtype=float))
    s = np.mod(r, 4.0)
    out = np.empty_like(s)
    m1 = s <= 1.0
    m2 = (s > 1.0) & (s <= 2.0)
    m3 = (s > 2.0) & (s <= 3.0)
    m4 = s > 3.0
    out[m1] = profile.phi_at(s[m1])
    out[m2] = -profile.phi_at(2.0 - s[m2])
    out[m3] = -profile.phi_at(s[m3] - 2.0)
    out[m4] = profile.phi_at(4.0 - s[m4])
    return out


def exact_family(gamma, k, d, n=2000):
    """Member u_k of the exact unbounded family on the unit ball.

    u_k(x) = (2k-1)^(4/(gamma-3)) * phi_inf((2k-1) |x|) where phi_inf is
    the 4-periodic reflection of the radial profile with h = t^gamma and
    top value a(gamma); sup-norm a(gamma) (2k-1)^(4/(gamma-3)).
    """
    if gamma <= 3.0:
        raise ValueError("exact family needs gamma > 3")
    if k < 1:
        raise ValueError("k must be a positive integer")
    si = d.shape_info
    if si is None or si["kind"] != "ball":
        raise ValueError("exact family needs a ball domain")
    a = family_a(gamma)
    m = MonotoneRhs1D("(pow t %.17g)" % gamma, 0.0)
    profile = build_profile(m, a, 1.0 / np.sqrt(2.0), n=n)
    scale = float(2 * k - 1) ** (4.0 / (gamma - 3.0))
    center = np.asarray(si["center"], dtype=float)
    u = ScalarField.from_function(d, lambda pts: scale * _phi_star(
        profile, (2 * k - 1) * np.linalg.norm(pts - center, axis=-1)))
    return u, profile
