"""Wide-stencil discretization of the infinity Laplacian.

The non-normalized operator <D^2u Du, Du> is discretized per node as
(second difference along the steepest direction pair) times (centered
slope of that pair) squared.  The steepest pair is the one with the
largest centered difference quotient; ties break to the lexicographically
smallest offset.  The node update this gives is not monotone in the
neighbor values (see `inflap.solver.perron_solve`).

Two stencil modes:

* integer mode (default): antipodal pairs of coprime integer offsets with
  max-norm <= w, endpoints on grid nodes.
* refined mode: offsets v with 2 <= max-norm <= 2w and gcd in {1, 2},
  arms at the half-lattice points (v/2)h.  Half-integer arm values are
  averages of the 2 or 4 nearest nodes, and a matched center-correction
  pattern (axis neighbors, weight 1/8 per fractional axis) cancels the
  curvature error the averaging would otherwise add to the second
  difference.  All weights are positive, though the update is not
  monotone (see above); the worst angular gap between directions is
  halved.

Evaluation gathers.  The stencil lays each pair out as J read slots
(plus-arm nodes, minus-arm nodes, then the two nodes of each correction
entry, shorter patterns padded with weight 0).  `Stencil.gather` turns a
node set into one (J, n, K) table of flat indices into values.ravel(),
pairs minor, with a NaN slot (the arms of a pair cut off at that node)
and a 0 slot (padding, and the corrections of a cut-off pair) appended;
the table also holds what the pick needs at those nodes, the row
offsets i K and the quotient denominators 2 eps tiled to (n, K), and a
read-only (n, K) array of zeros that starts every correction sum.
`Stencil.pair_arrays` reads a table in one fancy-index gather, touching
only the requested nodes, into C-ordered (n, K) arrays, and returns
them as (K, n) views.  `_select` picks the steepest pair from the gathered arms along
the contiguous pair axis, and `_pick` (one gather, one pick and the
picked arms, with the pair index k and its flat indices) serves every
caller: the solver's local update and residual (one pass per update
group; see `inflap.solver`), `inf_lap_field` and `apply_inf_lap`.  Each
caller reads the per-pair constants it needs at k; `_second_diff` is the
one copy of the second difference S they share.  A part of a table
(`_Table.part`, one update group of the solver) is a contiguous copy.

What is fixed per stencil is worked out once when it is built: the
center weights c0, whether every read slot has weight 1 (integer mode,
where the weight product, exact anyway, is skipped) and whether any
pair has correction slots.  Without them the correction sum is the
table's zeros, the picked one is the scalar 0.0, and every c0 is 1, so
that `_second_diff` skips the product c0 u.  The kernel opens no
`np.errstate`: each solve opens one for all its sweeps (see
`inflap.solver`), and the public `inf_lap_field`, `apply_inf_lap` and
`residual_field` open their own.
"""

from dataclasses import dataclass
from math import gcd
import itertools

import numpy as np

from .core import EXTERIOR, ScalarField


@dataclass(frozen=True)
class SchemeParams:
    """Scheme knobs: stencil width and stencil mode."""
    w: int = 2
    refined: bool = False

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("stencil width w must be >= 1")


@dataclass(frozen=True)
class _Pair:
    """One antipodal direction pair.

    plus/minus are interpolation patterns [(integer offset, weight), ...]
    for the two arm values; corr is the center-correction pattern applied
    symmetrically (each entry contributes wt*(u(x+o) + u(x-o)) and the
    center weight drops by 2*wt).
    """
    v: tuple
    eps: float           # physical arm length
    plus: tuple
    minus: tuple
    corr: tuple


def _canonical(vs):
    out = []
    for v in vs:
        for c in v:
            if c > 0:
                out.append(v)
                break
            if c < 0:
                break
    return sorted(out)


def _integer_dirs(w, N):
    vs = []
    for v in itertools.product(range(-w, w + 1), repeat=N):
        if any(v) and gcd(*[abs(c) for c in v] + [0, 0]) == 1:
            vs.append(v)
    return _canonical(vs)


def _refined_dirs(w, N):
    vs = []
    for v in itertools.product(range(-2 * w, 2 * w + 1), repeat=N):
        m = max(abs(c) for c in v) if any(v) else 0
        if m < 2 or m > 2 * w:
            continue
        if gcd(*[abs(c) for c in v] + [0, 0]) in (1, 2):
            vs.append(v)
    return _canonical(vs)


def _arm_pattern(v):
    """Interpolation pattern for the half-lattice point v/2."""
    frac = [k for k, c in enumerate(v) if c % 2]
    base = tuple(c // 2 if c % 2 == 0 else (c - 1) // 2 for c in v)
    nodes = []
    wt = 0.5 ** len(frac)
    for bump in itertools.product((0, 1), repeat=len(frac)):
        off = list(base)
        for k, b in zip(frac, bump):
            off[k] += b
        nodes.append((tuple(off), wt))
    corr = tuple((tuple(1 if j == k else 0 for j in range(len(v))), 0.125)
                 for k in frac)
    return tuple(nodes), corr


def _build_pairs(params, N, h):
    pairs = []
    if params.refined:
        for v in _refined_dirs(params.w, N):
            plus, corr = _arm_pattern(v)
            minus = tuple((tuple(-c for c in off), wt) for off, wt in plus)
            eps = 0.5 * h * float(np.linalg.norm(v))
            pairs.append(_Pair(v, eps, plus, minus, corr))
    else:
        for v in _integer_dirs(params.w, N):
            eps = h * float(np.linalg.norm(v))
            minus = tuple([(tuple(-c for c in v), 1.0)])
            pairs.append(_Pair(v, eps, tuple([(v, 1.0)]), minus, ()))
    return pairs


@dataclass(frozen=True, eq=False)
class _Table:
    """Gather indices of every pair at a fixed node set (`Stencil.gather`).

    flat holds the nodes' indices into values.ravel().  idx[j, i, k]
    indexes values.ravel() with a NaN slot and a 0 slot appended: slot j
    of pair k at node i, in the layout of `Stencil`, pairs minor.  What
    the pick reads besides is fixed per table: rows holds the row offsets
    i K into an (n, K) array, and two_eps the denominators 2 eps of pair
    k, tiled to (n, K) so that the quotient is one flat division.  zero
    is a read-only (n, K) array of zeros, the start of every correction
    sum, and the correction sum itself when no pair has correction slots.
    """
    flat: np.ndarray     # (n,)
    idx: np.ndarray      # (J, n, K)
    rows: np.ndarray     # (n,)
    two_eps: np.ndarray  # (n, K)
    zero: np.ndarray     # (n, K), read-only

    def part(self, lo, hi):
        """The table of nodes lo..hi-1, its indices copied to a
        contiguous array once (a strided view gathers about 3x slower)."""
        return _Table(self.flat[lo:hi],
                      np.ascontiguousarray(self.idx[:, lo:hi]),
                      self.rows[:hi - lo], self.two_eps[lo:hi],
                      self.zero[lo:hi])


class Stencil:
    """Per-domain direction pairs with boundary-truncation availability.

    A pair survives at a node only when every node it reads (both arm
    patterns and the correction pattern) is non-exterior.  The axis pairs
    always survive at interior nodes; a node with fewer than N surviving
    pairs raises a degenerate-stencil error.  `interior` is the gather
    table of the interior nodes (see the module docstring).
    """

    def __init__(self, domain, params):
        self.domain = domain
        self.params = params
        self.pairs = _build_pairs(params, domain.N, domain.h)
        K, M = len(self.pairs), domain.mask.size
        pad = params.w + 1 if params.refined else params.w
        ok_pad = np.zeros(tuple(d + 2 * pad for d in domain.dims), dtype=bool)
        ok_pad[tuple(slice(pad, pad + d) for d in domain.dims)] = \
            domain.mask != EXTERIOR
        P = max(len(p.plus) for p in self.pairs)
        J = 2 * P + 2 * max(len(p.corr) for p in self.pairs)
        strides = np.cumprod((1,) + domain.dims[:0:-1])[::-1]
        delta = np.zeros((J, K), dtype=np.intp)
        wts = np.zeros((J, K))
        used = np.zeros((J, K), dtype=bool)
        self.avail = np.ones((K,) + domain.dims, dtype=bool)
        self._c0 = np.ones(K)
        for k, p in enumerate(self.pairs):
            corr = []
            for off, wt in p.corr:
                corr += [(off, wt), (tuple(-o for o in off), wt)]
                self._c0[k] -= 2 * wt
            for j0, pattern in ((0, p.plus), (P, p.minus), (2 * P, corr)):
                for j, (off, wt) in enumerate(pattern, j0):
                    delta[j, k], wts[j, k] = np.dot(off, strides), wt
                    used[j, k] = True
                    self.avail[k] &= ok_pad[tuple(
                        slice(pad + o, pad + o + d)
                        for o, d in zip(off, domain.dims))]
        counts = self.avail[:, domain.interior].sum(axis=0)
        if counts.size and counts.min() < domain.N:
            raise ValueError("degenerate stencil: an interior node kept "
                             "fewer than N direction pairs")
        # arm slots of an unavailable pair read the NaN slot; correction
        # slots and padding read the 0 slot
        fill = np.where(used, M, M + 1)
        fill[2 * P:] = M + 1
        self._P, self._J = P, J
        self._delta, self._wts, self._fill, self._used = delta, wts, fill, used
        self._eps = np.array([p.eps for p in self.pairs])
        self._tail = np.array([np.nan, 0.0])
        # per-stencil constants of the kernel (see the module docstring)
        self._unit = bool((wts[used] == 1.0).all())
        self._corr = J > 2 * P
        self.interior = self.gather(domain.interior)

    def gather(self, nodes):
        """Gather table of a node set, for `pair_arrays`.

        `nodes` is a boolean mask over the grid, an index tuple as
        np.nonzero gives, or one node's index tuple.  Build a table once
        per node set and pass it to every `pair_arrays` call on that set.
        """
        if isinstance(nodes, np.ndarray) and nodes.dtype == bool:
            nodes = np.nonzero(nodes)
        flat = np.ravel_multi_index(tuple(np.atleast_1d(c) for c in nodes),
                                    self.domain.dims)
        K = len(self.pairs)
        ok = self.avail.reshape(K, -1)[:, flat].T
        idx = np.where(self._used[:, None] & ok, flat[:, None]
                       + self._delta[:, None], self._fill[:, None])
        zero = np.zeros((flat.size, K))
        zero.flags.writeable = False
        return _Table(flat, idx, np.arange(flat.size) * K,
                      np.tile(2.0 * self._eps, (flat.size, 1)), zero)

    def pair_arrays(self, values, nodes):
        """Arm values and corrected center per pair at a node set.

        Parameters
        ----------
        values : array of shape domain.dims
        nodes : a table from `gather`, or anything `gather` accepts

        Returns
        -------
        arm_p, arm_m : (K, n) arrays, NaN where the pair is unavailable
        c0 : (K,) center weight after correction
        csum : (K, n) correction contribution from neighbor values, 0
            where the pair is unavailable; without correction slots, the
            table's read-only zeros
        eps : (K,) physical arm lengths

        Columns follow the order of the node set (np.nonzero order for a
        mask).  The (K, n) arrays are transposed views of C-ordered
        (n, K) arrays, pairs minor, which `_pick` reads back with `.T`.
        """
        tab = nodes if isinstance(nodes, _Table) else self.gather(nodes)
        if values.shape != self.domain.dims:
            raise ValueError("values must have the shape of the grid")
        g = np.concatenate((values.ravel(), self._tail))[tab.idx]
        if not self._unit:
            g *= self._wts[:, None]
        P = self._P
        # slot by slot in pattern order: the sums of a per-node loop
        arm_p, arm_m = g[0], g[P]
        for j in range(1, P):
            arm_p = arm_p + g[j]
            arm_m = arm_m + g[P + j]
        csum = tab.zero
        for j in range(2 * P, self._J, 2):
            csum = csum + (g[j] + g[j + 1])
        return arm_p.T, arm_m.T, self._c0, csum.T, self._eps


def _select(arm_p, arm_m, table):
    """Steepest pair per node, by largest centered quotient magnitude.

    Takes (n, K) arm arrays, pairs minor, at the nodes of `table`; ties
    go to the lowest k, the lexicographically smallest offset, and an
    unavailable (NaN) pair is never picked over an available one.
    The quotients divide by the table's `two_eps` in one flat division.
    Returns (k, pick, phat): the pair index per node, the flat indices
    that pick each node's steepest entry out of a C-ordered (n, K) array
    (`a.take(pick)`, `table.rows + k`; the solver's per-group (n, K)
    tables are read with them too), and the steepest centered quotient.
    Opens no `np.errstate`: the caller ignores invalid operations (arms
    that are both infinite).
    """
    dc = arm_p - arm_m
    dc /= table.two_eps
    # fmax maps NaN to -1, below every |dc|
    mag = np.abs(dc)
    k = np.fmax(mag, -1.0, out=mag).argmax(axis=1)
    pick = table.rows + k
    return k, pick, dc.take(pick)


def _pick(stencil, values, table):
    """One gather and one pick at the nodes of a table.

    Returns (u, apm, cs, k, pick, phat): the node values, then along the
    pair `_select` picks the sum of the two arm values and the correction
    sum (the scalar 0.0 when no pair has correction slots), then the pair
    index, its flat indices into (n, K) arrays (`table.rows + k`) and the
    centered slope.  The per-pair constants of `_second_diff` are read
    at k by the caller.
    """
    arm_p, arm_m, _, csum, _ = stencil.pair_arrays(values, table)
    arm_p, arm_m = arm_p.T, arm_m.T
    k, pick, phat = _select(arm_p, arm_m, table)
    cs = csum.T.take(pick) if stencil._corr else 0.0
    return (values.take(table.flat), arm_p.take(pick) + arm_m.take(pick),
            cs, k, pick, phat)


def _second_diff(u, apm, cs, eps_sq, c0):
    """S = (apm - 2 (c0 u + cs)) / eps^2, the corrected second difference
    along the picked pair, from its squared arm length eps_sq.  c0 is
    None where every center weight is 1 (no pair has correction slots):
    c0 u is then u itself.  + cs also when cs is the scalar 0.0: it turns
    -0.0 into 0.0, as adding a zero correction sum always did."""
    return (apm - 2.0 * ((u if c0 is None else c0 * u) + cs)) / eps_sq


def _c0_at(stencil, k):
    """The center weights of the pairs k, for `_second_diff`: None when
    every weight is 1."""
    return stencil._c0.take(k) if stencil._corr else None


def _steepest(stencil, values, table):
    """(S, phat) at the nodes of a table: the second difference along the
    picked pair and its centered slope."""
    u, apm, cs, k, _, phat = _pick(stencil, values, table)
    return _second_diff(u, apm, cs, stencil._eps.take(k) ** 2,
                        _c0_at(stencil, k)), phat


def inf_lap_field(values, stencil):
    """Discrete infinity Laplacian over the whole grid (vectorized).

    Returns an array with the operator value at interior nodes and NaN
    elsewhere.
    """
    with np.errstate(invalid="ignore"):
        S, phat = _steepest(stencil, values, stencil.interior)
        lap = S * phat ** 2
    out = np.full(stencil.domain.dims, np.nan)
    out.put(stencil.interior.flat, lap)
    return out


def apply_inf_lap(u, node, s):
    """Discrete infinity Laplacian at a single interior node.

    Parameters
    ----------
    u : ScalarField
    node : index tuple
    s : Stencil
    """
    node = tuple(node)
    if u.domain.mask[node] != 2:
        raise ValueError("apply_inf_lap needs an interior node")
    with np.errstate(invalid="ignore"):
        S, phat = _steepest(s, u.values, s.gather(node))
        return float(S[0] * phat[0] ** 2)


def residual_field(u, f, s):
    """Residual Delta_inf u - f(x, u) at interior nodes, 0 on the boundary."""
    dom = s.domain
    lap = inf_lap_field(u.values, s)
    with np.errstate(invalid="ignore"):
        fx = f.eval_grid(dom, u.values)
    res = np.full(dom.dims, np.nan)
    res[dom.interior] = (lap - fx)[dom.interior]
    res[dom.boundary] = 0.0
    return ScalarField(dom, res)
