"""Wide-stencil discretization of the infinity Laplacian.

The non-normalized operator <D^2u Du, Du> is discretized per node as
(second difference along the steepest direction pair) times (centered
slope of that pair) squared.  The steepest pair is the one with the
largest centered difference quotient; ties break to the lexicographically
smallest offset.  The node update this gives is not monotone in the
neighbor values (see `inflap.solver.perron_solve`).

The stencil is one set of antipodal pairs: the coprime integer offsets v
with max-norm <= w, whose arms x +- v h lie on grid nodes.  The second
difference along a pair is (u(x + v h) + u(x - v h) - 2 u(x)) / eps^2,
eps = |v| h; a larger w resolves more directions.

Evaluation gathers.  `Stencil.gather` turns a node set into one
(2, n, K) table of flat indices into values.ravel(): the plus arm and
the minus arm of each pair, pairs minor, with a NaN slot appended that
the arms of a pair cut off at that node read.  The table also holds what
the pick needs at those nodes, the row offsets i K and the quotient
denominators 2 eps tiled to (n, K).  `Stencil.pair_arrays` reads a table
in one fancy-index gather, touching only the requested nodes, into
C-ordered (n, K) arrays, and returns them as (K, n) views.  `_select`
picks the steepest pair from the gathered arms along the contiguous pair
axis, and `_pick` (one gather, one pick and the picked arms, with the
pair index k and its flat indices) serves every caller: the solver's
local update and residual (one pass per update group; see
`inflap.solver`), `inf_lap_field` and `apply_inf_lap`.  Each caller
reads the arm length it needs at k; `_second_diff` is the one copy of
the second difference S they share.  A part of a table (`_Table.part`,
one update group of the solver) is a contiguous copy.  The kernel opens
no `np.errstate`: each solve opens one for all its sweeps (see
`inflap.solver`), and the public `inf_lap_field`, `apply_inf_lap` and
`residual_field` open their own.
"""

from dataclasses import dataclass
from math import gcd
import itertools

import numpy as np

from .core import EXTERIOR, INTERIOR, ScalarField


@dataclass(frozen=True)
class SchemeParams:
    """Scheme knob: the stencil width."""
    w: int = 2

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("stencil width w must be >= 1")


@dataclass(frozen=True)
class _Pair:
    """One antipodal direction pair: the arms x + v h and x - v h."""
    v: tuple
    eps: float           # physical arm length


def _integer_dirs(w, N):
    """Coprime integer offsets of max-norm <= w, one of each antipodal
    pair (the first nonzero entry positive), in lexicographic order."""
    vs = []
    for v in itertools.product(range(-w, w + 1), repeat=N):
        if any(v) and gcd(*[abs(c) for c in v] + [0, 0]) == 1 \
                and next(c for c in v if c) > 0:
            vs.append(v)
    return vs


@dataclass(frozen=True, eq=False)
class _Table:
    """Gather indices of every pair at a fixed node set (`Stencil.gather`).

    flat holds the nodes' indices into values.ravel().  idx[j, i, k]
    indexes values.ravel() with a NaN slot appended: the plus arm (j = 0)
    or the minus arm (j = 1) of pair k at node i, pairs minor, and the NaN
    slot where the pair is cut off at that node.  What the pick reads
    besides is fixed per table: rows holds the row offsets i K into an
    (n, K) array, and two_eps the denominators 2 eps of pair k, tiled to
    (n, K) so that the quotient is one flat division.
    """
    flat: np.ndarray     # (n,)
    idx: np.ndarray      # (2, n, K)
    rows: np.ndarray     # (n,)
    two_eps: np.ndarray  # (n, K)

    def part(self, lo, hi):
        """The table of nodes lo..hi-1, its indices copied to a
        contiguous array once (a strided view gathers about 3x slower)."""
        return _Table(self.flat[lo:hi],
                      np.ascontiguousarray(self.idx[:, lo:hi]),
                      self.rows[:hi - lo], self.two_eps[lo:hi])


class Stencil:
    """Per-domain direction pairs with boundary-truncation availability.

    A pair survives at a node only when both its arm nodes are
    non-exterior.  The axis pairs always survive at interior nodes; a
    node with fewer than N surviving pairs raises a degenerate-stencil
    error.  `interior` is the gather table of the interior nodes (see the
    module docstring).
    """

    def __init__(self, domain, params):
        self.domain = domain
        self.params = params
        self.pairs = [_Pair(v, domain.h * float(np.linalg.norm(v)))
                      for v in _integer_dirs(params.w, domain.N)]
        K, pad = len(self.pairs), params.w
        ok_pad = np.zeros(tuple(d + 2 * pad for d in domain.dims), dtype=bool)
        ok_pad[tuple(slice(pad, pad + d) for d in domain.dims)] = \
            domain.mask != EXTERIOR
        strides = np.cumprod((1,) + domain.dims[:0:-1])[::-1]
        delta = np.zeros((2, K), dtype=np.intp)
        self.avail = np.ones((K,) + domain.dims, dtype=bool)
        for k, p in enumerate(self.pairs):
            for j, off in enumerate((p.v, tuple(-c for c in p.v))):
                delta[j, k] = np.dot(off, strides)
                self.avail[k] &= ok_pad[tuple(
                    slice(pad + o, pad + o + d)
                    for o, d in zip(off, domain.dims))]
        counts = self.avail[:, domain.interior].sum(axis=0)
        if counts.size and counts.min() < domain.N:
            raise ValueError("degenerate stencil: an interior node kept "
                             "fewer than N direction pairs")
        self._delta = delta
        self._eps = np.array([p.eps for p in self.pairs])
        self._nan = np.array([np.nan])
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
        # the arms of a cut-off pair read the NaN slot
        idx = np.where(ok, flat[:, None] + self._delta[:, None],
                       self.domain.mask.size)
        return _Table(flat, idx, np.arange(flat.size) * K,
                      np.tile(2.0 * self._eps, (flat.size, 1)))

    def pair_arrays(self, values, nodes):
        """Arm values per pair at a node set.

        Parameters
        ----------
        values : array of shape domain.dims
        nodes : a table from `gather`, or anything `gather` accepts

        Returns
        -------
        arm_p, arm_m : (K, n) arrays, NaN where the pair is unavailable

        Columns follow the order of the node set (np.nonzero order for a
        mask).  The (K, n) arrays are transposed views of C-ordered
        (n, K) arrays, pairs minor, which `_pick` reads back with `.T`.
        """
        tab = nodes if isinstance(nodes, _Table) else self.gather(nodes)
        if values.shape != self.domain.dims:
            raise ValueError("values must have the shape of the grid")
        g = np.concatenate((values.ravel(), self._nan))[tab.idx]
        return g[0].T, g[1].T


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

    Returns (u, apm, k, pick, phat): the node values, the sum of the two
    arm values along the pair `_select` picks, the pair index, its flat
    indices into (n, K) arrays (`table.rows + k`) and the centered slope.
    The arm length of `_second_diff` is read at k by the caller.
    """
    arm_p, arm_m = stencil.pair_arrays(values, table)
    arm_p, arm_m = arm_p.T, arm_m.T
    k, pick, phat = _select(arm_p, arm_m, table)
    return (values.take(table.flat), arm_p.take(pick) + arm_m.take(pick),
            k, pick, phat)


def _second_diff(u, apm, eps_sq):
    """S = (apm - 2 u) / eps^2, the second difference along the picked
    pair, from its squared arm length eps_sq.  The centre term is u + 0.0,
    which turns -0.0 into 0.0: where apm and u are both -0.0, S is -0.0,
    the signed zero that the frozen kernels in the tests give (and with
    them `inf_lap_field`'s bytes)."""
    return (apm - 2.0 * (u + 0.0)) / eps_sq


def _steepest(stencil, values, table):
    """(S, phat) at the nodes of a table: the second difference along the
    picked pair and its centered slope."""
    u, apm, k, _, phat = _pick(stencil, values, table)
    return _second_diff(u, apm, stencil._eps.take(k) ** 2), phat


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
    if u.domain.mask[node] != INTERIOR:
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
