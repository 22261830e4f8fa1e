"""Closed-form existence / non-existence thresholds and their report.

All limit-type conditions are decided from finite probe schedules and may
return `undetermined`; a verdict never claims a criterion applies unless
its hypothesis check passed on the probes.  The sup of f+ and the inf of
f- over Omega x I that the criteria read come from `rhs_range`, which
bounds f by interval arithmetic over its expression tree: outer bounds,
so a sufficient condition that holds on them holds for f, and the range
of f to rounding where t occurs once in the tree.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import SIGMA, ScalarField, rhs_range
from .radial import MonotoneRhs1D, _H_table, _profile_tables

SIGMA3 = 81.0 / 64.0

# diam_threshold scans eta up to this value
_ETA_MAX = 1e3
# nonexistence_radius probes a - ell on this log grid
_A_SCAN = np.geomspace(1e-6, 1e6, 120)
# growth_class applies when both liminf estimates are >= -_GROWTH_TOL
_GROWTH_TOL = 1e-3
# eigen_bracket's level fractions alpha
_ALPHAS = np.arange(1, 21) * 0.05


def c_eta(f, ell, L, eta, domain=None):
    """C(eta): cone amplitude needed to dominate f near the data range.

    max{(sup of f+ on Omega x [ell-eta, ell])^(1/3),
        (-inf of f- on Omega x [L, L+eta])^(1/3)}.

    The sup and the inf come from `rhs_range`, outer bounds (exact to
    rounding where t occurs once in f's tree), so C(eta) is at least the
    amplitude the cone construction needs.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    _, hi1 = rhs_range(f, (ell - eta, ell), domain)
    lo2, _ = rhs_range(f, (L, L + eta), domain)
    sup_plus = max(hi1, 0.0)
    inf_minus = min(lo2, 0.0)
    return max(sup_plus ** (1.0 / 3.0), (-inf_minus) ** (1.0 / 3.0))


def diam_threshold(f, ell, L, domain=None):
    """Largest domain diameter certified by the cone construction.

    sup over eta > 0 of (eta / (sigma C(eta)))^(3/4), by a log-eta scan
    with golden-section refinement; +inf when C(eta) = 0 somewhere.
    """
    def g(log_eta):
        eta = np.exp(log_eta)
        C = c_eta(f, ell, L, eta, domain)
        if C == 0.0:
            return np.inf
        return (eta / (SIGMA * C)) ** 0.75

    los, his = np.log(1e-6), np.log(_ETA_MAX)
    grid = np.linspace(los, his, 161)
    vals = np.array([g(x) for x in grid])
    if np.isinf(vals).any():
        return np.inf
    i = int(np.argmax(vals))
    # maximum at the window edge and still climbing: the sup lives at
    # eta = inf (C grows strictly slower than eta^(1/3))
    if i == len(grid) - 1 and vals[-1] > vals[-5] * (1.0 + 1e-9):
        return np.inf
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - phi * (hi - lo)
    d = lo + phi * (hi - lo)
    gc, gd = g(c), g(d)
    for _ in range(80):
        if gc > gd:
            hi, d, gd = d, c, gc
            c = hi - phi * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + phi * (hi - lo)
            gd = g(d)
    return float(max(vals[i], gc, gd))


def nonexistence_radius(m):
    """M_f / sqrt(2): above this in-radius only constants can solve.

    M_f = sup over a > ell of zeta(a) (prefactor 1), probed on a log grid
    in a - ell.  H(a) at every grid point comes from one composite Gauss
    table (`radial._H_table`), and the closed-form upper bound
    (4/3)((a-ell)^4 / H(a))^(1/4) (that of `zeta_bounds`) screens the
    grid and certifies the tail: when it is still rising at the far end
    of the probe window the sup may sit at infinity and +inf is returned
    (criterion inapplicable).  zeta is then evaluated at the 12 grid
    points with the largest bounds, as the R of the Gauss tables that
    `build_profile` uses (400 graded segments).
    """
    avals = m.ell + _A_SCAN
    if (m(avals) <= 0).any():
        raise ValueError("h(a) = 0: lower bound undefined")
    s = avals - m.ell
    uppers = (4.0 / 3.0) * (s ** 4 / _H_table(m, s)) ** 0.25
    tail = uppers[-8:]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.diff(np.log(tail))
    at_edge = uppers[-1] >= uppers.max() * (1.0 - 1e-9)
    if at_edge and (slope > 1e-4).all():
        return np.inf
    top = np.argsort(uppers)[::-1][:12]
    M_f = max(_profile_tables(m, float(a), 1.0, 400)[1][-1]
              for a in avals[top])
    return M_f / np.sqrt(2.0)


def _h1(f, t, domain, t_hi=1e3):
    """inf over Omega x [t, t_hi] of f."""
    return rhs_range(f, (t, t_hi), domain)[0]


def _h2(f, ell, t, domain):
    """sup over Omega x [ell, t] of f."""
    return rhs_range(f, (ell, t), domain)[1]


def dd3_check(f, ell, domain=None):
    """Tri-state pair for the two sufficient small/large-a conditions.

    (i)  integrability of H1^(-1/4) just above ell (decaying graded
         partial integrals -> yes; growing inner decades -> no;
         anything else -> undetermined);
    (ii) h2(t) = o(t^3): ratio h2(t)/t^3 probed at t = 10^j, j = 1..6
         (decay below 1e-3 -> yes; non-decreasing at or above 1e-3 -> no;
         anything else -> undetermined).
    """
    # condition (i): partial integrals of H1^{-1/4} over shrinking decades
    # just above ell; geometric decay of the inner decades certifies
    # integrability of the full tail.
    ss = np.geomspace(1e-13, 1e-1, 400)
    h1v = np.array([max(_h1(f, ell + s, domain), 0.0) for s in ss])
    H1 = np.concatenate([[h1v[0] * ss[0]], np.zeros(len(ss) - 1)])
    H1[1:] = 0.5 * (h1v[1:] + h1v[:-1]) * np.diff(ss)
    H1 = np.cumsum(H1)
    with np.errstate(divide="ignore"):
        integrand = H1 ** -0.25
    parts = []
    for j in range(1, 12):
        sel = (ss >= 10.0 ** -(j + 1)) & (ss <= 10.0 ** -j)
        parts.append(float(np.trapezoid(integrand[sel], ss[sel])))
    parts = np.array(parts[::-1])   # innermost decade first
    if not np.isfinite(parts).all():
        cond_i = "undetermined"
    elif parts[0] < 0.25 * parts[-1] and (np.diff(parts) > 0).all():
        cond_i = "yes"
    elif parts[0] > 4.0 * parts[-1] and (np.diff(parts) < 0).all():
        # inner decades dominate and keep growing inward: divergent
        cond_i = "no"
    else:
        cond_i = "undetermined"
    # condition (ii)
    ratios = []
    for j in range(1, 7):
        t = 10.0 ** j
        ratios.append(_h2(f, ell, t, domain) / t ** 3)
    ratios = np.array(ratios)
    if ratios[-1] < 1e-3 and ratios[-1] <= ratios[0] + 1e-12:
        cond_ii = "yes"
    elif ratios.min() >= 1e-3:
        cond_ii = "no"
    else:
        cond_ii = "undetermined"
    return cond_i, cond_ii


def apriori_range(f, b, d, h_range=None):
    """(lo, hi), the range of f behind the a priori box: `h_range`, or by
    default `rhs_range` over the data range [ell, L] on d."""
    if h_range is None:
        return rhs_range(f, (b.ell, b.L), d)
    lo, hi = h_range
    return lo, hi


def apriori_box(h_lo, h_hi, b, R):
    """Two-sided a priori bounds from the h-range of the right-hand side.

    lower = ell - sigma max(h_hi, 0)^(1/3) R^(4/3);
    upper = L - sigma cbrt(min(h_lo, 0)) R^(4/3).
    """
    if h_lo > h_hi:
        raise ValueError("apriori_box needs h_lo <= h_hi")
    if R < 0:
        raise ValueError("apriori_box needs R >= 0")
    lower = b.ell - SIGMA * max(h_hi, 0.0) ** (1.0 / 3.0) * R ** (4.0 / 3.0)
    upper = b.L - SIGMA * np.cbrt(min(h_lo, 0.0)) * R ** (4.0 / 3.0)
    return (float(lower), float(upper))


@dataclass
class GrowthClass:
    beta_est: float
    alpha_est: float
    t_alpha: float = None
    t_beta: float = None
    applicable: bool = False
    bounds: tuple = None


def growth_class(f, ell, L, R, domain=None):
    """Cubic-comparison growth classification and the resulting box.

    Probes inf_x f(x,t)/t^3 at t = 10^j (j = 0..6) and the mirrored
    negative side; when both liminf estimates are >= -_GROWTH_TOL the
    solver's sup-bound machinery applies with eps = (2 sigma R^(4/3))^-3
    and the box [2 t_alpha, 2 t_beta].
    """
    tpos = 10.0 ** np.arange(0, 7)
    infs = np.array([rhs_range(f, (t, t), domain)[0] for t in tpos])
    sups_neg = np.array([rhs_range(f, (-t, -t), domain)[1] for t in tpos])
    beta_probe = infs / tpos ** 3
    alpha_probe = sups_neg / (-tpos) ** 3
    beta_est = float(beta_probe[-3:].min())
    alpha_est = float(alpha_probe[-3:].min())
    gc = GrowthClass(beta_est=beta_est, alpha_est=alpha_est)
    if beta_est < -_GROWTH_TOL or alpha_est < -_GROWTH_TOL:
        return gc
    eps = (2.0 * SIGMA * R ** (4.0 / 3.0)) ** -3.0
    t_beta = None
    for i, t in enumerate(tpos):
        if t <= max(0.0, L):
            continue
        if (infs[i:] >= -eps * tpos[i:] ** 3 - 1e-15).all():
            t_beta = float(t)
            break
    t_alpha = None
    for i, t in enumerate(tpos):
        if -t >= min(0.0, ell):
            continue
        if (sups_neg[i:] <= eps * tpos[i:] ** 3 + 1e-15).all():
            t_alpha = float(-t)
            break
    if t_beta is not None and t_alpha is not None:
        gc.t_alpha, gc.t_beta = t_alpha, t_beta
        gc.applicable = True
        gc.bounds = (2.0 * t_alpha, 2.0 * t_beta)
    return gc


def cubic_smallness(a_sup, R, b):
    """Small cubic coefficient test sigma^3 a_sup R^4 < 1 and its M-bound.

    Returns (flag, M_bound, verdict); verdict is "only-zero" for zero
    boundary data under the flag, else "bounded" or "inapplicable".
    """
    if a_sup < 0:
        raise ValueError("a_sup must be >= 0")
    flag = SIGMA3 * a_sup * R ** 4 < 1.0
    if not flag:
        return False, None, "inapplicable"
    denom = 1.0 - SIGMA * a_sup ** (1.0 / 3.0) * R ** (4.0 / 3.0)
    M_bound = max(-b.ell, b.L) / denom
    verdict = "only-zero" if (b.ell == 0.0 and b.L == 0.0) else "bounded"
    return True, float(M_bound), verdict


def eigen_bracket(a_field, d):
    """Bracket for the first nonlinear eigenvalue of the cubic problem.

    lambda_lower = 1/(sigma^3 M R^4) with M = max a over interior nodes
    and R the out-radius; lambda_upper = 4 (4/3)^3 / (sigma^3 M) times
    the minimum over alpha = 0.05, 0.1, ..., 1 of 1/(alpha rho_alpha^4),
    rho_alpha the in-radius of {a >= alpha M}.  Both radii are those of
    `GridDomain.out_in_radii` where the level set fills the interior.
    """
    if isinstance(a_field, ScalarField):
        avals = a_field.values
    else:
        avals = np.asarray(a_field, dtype=float)
        if avals.shape != d.dims:
            raise ValueError("a_field shape mismatch")
    aint = avals[d.interior]
    if not (aint >= 0).all():
        raise ValueError("eigen_bracket needs a >= 0")
    M = float(aint.max())
    if M == 0.0:
        raise ValueError("eigen_bracket needs a not identically 0")
    out_r, in_r = d.out_in_radii()
    lam_lower = 1.0 / (SIGMA3 * M * out_r ** 4)
    best = np.inf
    for alpha in _ALPHAS:
        level = (avals >= alpha * M - 1e-15) & d.interior
        if not level.any():
            continue
        if level.sum() == d.interior.sum():
            rho = in_r
        else:
            from scipy import ndimage
            rho = float(ndimage.distance_transform_edt(level).max() * d.h)
        if rho <= 0:
            continue
        best = min(best, 1.0 / (alpha * rho ** 4))
    lam_upper = 4.0 * (4.0 / 3.0) ** 3 / (SIGMA3 * M) * best
    if lam_lower > lam_upper:
        raise ValueError("eigenvalue bracket inverted (internal error)")
    return float(lam_lower), float(lam_upper)


def _default_m(f):
    """The default h of the nonexistence radius for a t-only f: the radial
    construction solves Delta_inf u = -h(u) with h >= 0 nondecreasing, so
    h = -f, which only a nonincreasing f gives.  Any other declared
    monotonicity raises ValueError with the skip reason."""
    if f.monotone_in_t != "nonincreasing":
        raise ValueError("no default m for f declared %r in t: the default "
                         "m = (neg f) needs a nonincreasing f"
                         % f.monotone_in_t)
    return "(neg %s)" % f.expression


@dataclass
class CriteriaReport:
    """The criteria's numbers and verdicts; `asdict` gives the JSON object."""
    ell: float
    L: float
    c_eta_table: list = field(default_factory=list)
    diam_threshold: float = None
    diam_actual: float = None
    M_f: float = None
    nonexistence_radius: float = None
    nonexistence_radius_skipped: str = None   # why it was not computed
    in_radius_actual: float = None
    dd3: tuple = None
    growth: GrowthClass = None
    apriori_box: tuple = None
    cubic: tuple = None
    eigen: tuple = None
    verdicts: list = field(default_factory=list)

    @classmethod
    def of(cls, f, b, d, *, eta_list: list = (0.1, 1.0, 3.0, 10.0),
           m: str = None, h_range: list = None, a_sup: float = None,
           eigen: bool = False):
        """The report of the criteria for f with boundary data b on d.

        The keywords are the CLI's `criteria` section: the etas of the
        C(eta) table; m, the t-only h behind the nonexistence radius
        (default (neg f) for a t-only nonincreasing f, see `_default_m`,
        and none otherwise, with the reason in
        `nonexistence_radius_skipped`); the (lo, hi)
        range of f for the a priori box (default: see `apriori_range`);
        a_sup, the bound on the cubic coefficient of the smallness test;
        and eigen, whether to also bracket the eigenvalue of the
        constant weight a_sup; the annotations are the JSON types
        the CLI checks them against.  Verdicts compare thresholds with
        the radii of `GridDomain.out_in_radii`.
        """
        out_r, in_r = d.out_in_radii()
        rep = cls(ell=b.ell, L=b.L, diam_actual=2.0 * out_r,
                  in_radius_actual=in_r)

        def verdict(theorem, status, details):
            rep.verdicts.append({"theorem": theorem, "status": status,
                                 "details": details})

        rep.c_eta_table = [(float(eta), float(c_eta(f, b.ell, b.L, eta, d)))
                           for eta in eta_list]
        rep.diam_threshold = diam_threshold(f, b.ell, b.L, d)
        verdict("diameter-threshold-existence",
                "applies" if rep.diam_actual < rep.diam_threshold
                else "fails", "diameter %.12e vs threshold %.12e"
                % (rep.diam_actual, rep.diam_threshold))
        if m is not None or (not f.depends_on_x() and f.monotone_in_t):
            try:
                if m is None:
                    m = _default_m(f)
                M_f = nonexistence_radius(MonotoneRhs1D(m, b.ell))
            except ValueError as e:
                rep.nonexistence_radius_skipped = str(e)
            else:
                rep.M_f = M_f * np.sqrt(2.0)
                rep.nonexistence_radius = M_f
                verdict("nonexistence-radius",
                        "undetermined" if np.isinf(M_f)
                        else "applies" if in_r > M_f else "fails",
                        "in-radius %.12e vs radius %.12e" % (in_r, M_f))
            rep.dd3 = dd3_check(f, b.ell, d)
        rep.apriori_box = apriori_box(*apriori_range(f, b, d, h_range), b,
                                      out_r)
        gc = rep.growth = growth_class(f, b.ell, b.L, out_r, d)
        verdict("growth-apriori",
                "applies" if gc.applicable else "undetermined",
                "beta_est %.12e alpha_est %.12e"
                % (gc.beta_est, gc.alpha_est))
        if a_sup is not None:
            rep.cubic = cubic_smallness(a_sup, out_r, b)
            verdict("cubic-smallness-uniqueness",
                    "applies" if rep.cubic[0] else "fails", rep.cubic[2])
            if eigen:
                rep.eigen = eigen_bracket(ScalarField.constant(d, a_sup), d)
        return rep
