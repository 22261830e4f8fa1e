"""Grid domains, scalar fields, boundary traces, and right-hand sides.

Shared geometry and data types for the infinity-Laplacian laboratory.
Grids are axis aligned and uniform; curved boundaries are represented by a
node mask (exterior / boundary / interior), no cut cells.
"""

import math

import numpy as np

EXTERIOR = 0
BOUNDARY = 1
INTERIOR = 2

SATURATE = 1e300

# t lattice on which RhsSpec checks a declared sign or monotonicity
_PROBE_T = np.linspace(-10.0, 10.0, 257)

# 0, 1, ..., 4096: indices of rhs_range's t grid (see _t_grid)
_T_GRID = np.arange(4097.0)

# growth constant of the cone solution: Delta_inf (SIGMA |x|^(4/3)) = 1
SIGMA = 3.0 ** (4.0 / 3.0) / 4.0


class GridDomain:
    """Uniform grid with an interior/boundary/exterior node mask.

    Parameters
    ----------
    h : float
        Grid spacing, positive.
    origin : array_like
        Physical coordinates of the node with index (0, ..., 0).
    mask : ndarray of int8
        Per-node tag: 0 exterior, 1 boundary, 2 interior.
    shape_info : dict, optional
        Analytic geometry of the generating shape when known, e.g.
        {"kind": "ball", "center": c, "R": r} with exact in/out radii.
    """

    def __init__(self, h, origin, mask, shape_info=None):
        if h <= 0:
            raise ValueError("spacing h must be positive")
        self.h = float(h)
        self.origin = np.asarray(origin, dtype=float)
        self.mask = np.asarray(mask, dtype=np.int8)
        self.N = self.mask.ndim
        if self.origin.shape != (self.N,):
            raise ValueError("origin dimension does not match mask")
        self.dims = self.mask.shape
        self.shape_info = shape_info
        self._check_mask()
        self._radii = None

    def _check_mask(self):
        interior = self.mask == INTERIOR
        if interior.any():
            if not (self.mask == BOUNDARY).any():
                raise ValueError("interior nonempty but no boundary nodes")
            # no interior node may touch exterior (or the grid's edge)
            # along an axis: each must be interior by the candidate rule
            ok = _mask_from_candidates(self.mask != EXTERIOR) == INTERIOR
            if (interior & ~ok).any():
                raise ValueError(
                    "interior node adjacent to exterior (mask invalid)")

    # -- geometry -----------------------------------------------------------

    def grid_coords(self):
        """Coordinate arrays (one per axis) broadcastable to mask shape."""
        axes = [self.origin[k] + self.h * np.arange(self.dims[k])
                for k in range(self.N)]
        return np.meshgrid(*axes, indexing="ij")

    def points(self, nodes=None):
        """Physical coordinates, shape (n, N), of the nodes the boolean
        grid mask `nodes` selects, in C order; every node when None."""
        if nodes is None:
            nodes = np.ones(self.dims, dtype=bool)
        return np.argwhere(nodes) * self.h + self.origin

    @property
    def interior(self):
        return self.mask == INTERIOR

    @property
    def boundary(self):
        return self.mask == BOUNDARY

    @property
    def nonexterior(self):
        return self.mask != EXTERIOR

    def radii(self):
        """Discrete out/in radii of the domain.

        Returns
        -------
        (out_radius, out_center, in_radius, in_center)
            Out-radius from the max node distance to the centroid of
            non-exterior nodes, padded by h*sqrt(N) so it never
            underestimates the continuum shape.  In-radius from the
            distance transform of the interior mask, in grid units times h.
        """
        if self._radii is not None:
            return self._radii
        if not self.interior.any():
            raise ValueError("empty domain has no radii")
        pts = self.points(self.nonexterior)
        center = pts.mean(axis=0)
        out_r = np.linalg.norm(pts - center, axis=1).max() \
            + self.h * np.sqrt(self.N)
        from scipy import ndimage
        dist = ndimage.distance_transform_edt(self.interior) * self.h
        in_r = float(dist.max())
        # the first node in C order at the largest distance
        in_c = self.points(dist == in_r)[0]
        if in_r > out_r:
            raise ValueError("in_radius exceeded out_radius")
        self._radii = (float(out_r), center, in_r, in_c)
        return self._radii

    def out_in_radii(self):
        """(out_radius, in_radius): the analytic ones when the shape is
        known (ball or box), else the discrete ones of `radii()`."""
        si = self.shape_info or {}
        if si.get("kind") == "ball":
            return float(si["R"]), float(si["R"])
        if si.get("kind") == "box":
            half = (np.asarray(si["hi"], float) - np.asarray(si["lo"], float)) / 2
            return float(np.linalg.norm(half)), float(half.min())
        rr = self.radii()
        return rr[0], rr[2]


def build_domain(spec, h):
    """Build a GridDomain from a shape descriptor.

    Parameters
    ----------
    spec : dict
        One of {"kind": "ball", "center": c, "R": r},
        {"kind": "box", "lo": lo, "hi": hi}, or
        {"kind": "mask", "path": p}.
    h : float
        Grid spacing; a mask file carries its own, and h is not used.

    Notes
    -----
    Candidate nodes are those inside the shape (strictly for balls, closed
    for boxes).  Interior nodes are candidates whose axis neighbors are all
    candidates; the remaining candidates are boundary nodes.
    """
    kind = spec.get("kind")
    if kind == "mask":
        return load_mask(spec["path"])
    if h <= 0:
        raise ValueError("spacing h must be positive")
    if kind == "ball":
        center = np.atleast_1d(np.asarray(spec["center"], dtype=float))
        if center.ndim != 1 or not center.size:
            raise ValueError("ball center needs one coordinate per axis, "
                             "and at least one")
        R = float(spec["R"])
        if R <= 0:
            raise ValueError("ball radius must be positive")
        n = int(np.ceil(R / h))
        origin = center - n * h
        dims = (2 * n + 1,) * len(center)
        axes = [origin[k] + h * np.arange(dims[k]) for k in range(len(center))]
        grids = np.meshgrid(*axes, indexing="ij")
        r2 = sum((g - c) ** 2 for g, c in zip(grids, center))
        cand = r2 < R ** 2
        shape_info = {"kind": "ball", "center": center, "R": R}
    elif kind == "box":
        lo = np.atleast_1d(np.asarray(spec["lo"], dtype=float))
        hi = np.atleast_1d(np.asarray(spec["hi"], dtype=float))
        if lo.ndim != 1 or not lo.size or lo.shape != hi.shape:
            raise ValueError("box lo and hi need one coordinate per axis "
                             "each, and at least one")
        if not (hi > lo).all():
            raise ValueError("box needs hi > lo componentwise")
        origin = lo
        dims = tuple(int(np.floor((b - a) / h + 1e-12)) + 1
                     for a, b in zip(lo, hi))
        cand = np.ones(dims, dtype=bool)
        shape_info = {"kind": "box", "lo": lo, "hi": hi}
    else:
        raise ValueError("unknown shape kind: %r" % (kind,))

    mask = _mask_from_candidates(cand)
    if not (mask == INTERIOR).any():
        raise ValueError("empty interior: h=%g too coarse for the shape" % h)
    return GridDomain(h, origin, mask, shape_info=shape_info)


def _mask_from_candidates(cand):
    interior = cand.copy()
    for ax in range(cand.ndim):
        for step in (-1, 1):
            nb = np.roll(cand, -step, axis=ax)
            edge = [slice(None)] * cand.ndim
            edge[ax] = -1 if step == 1 else 0
            nb[tuple(edge)] = False
            interior &= nb
    mask = np.zeros(cand.shape, dtype=np.int8)
    mask[cand] = BOUNDARY
    mask[interior] = INTERIOR
    return mask


# -- mask file format -------------------------------------------------------

def save_mask(domain, path):
    """Write a GridDomain mask to a GRIDMASK v1 text file."""
    with open(path, "w") as fh:
        fh.write("GRIDMASK v1\n")
        fh.write("%d %.17g %s\n" % (domain.N, domain.h,
                                    " ".join(str(d) for d in domain.dims)))
        fh.write(" ".join("%.17g" % c for c in domain.origin) + "\n")
        chars = np.array(["E", "B", "I"])[domain.mask.ravel(order="C")]
        rows = domain.mask.reshape(domain.dims[0], -1)
        per_row = rows.shape[1]
        flat = "".join(chars)
        for i in range(domain.dims[0]):
            fh.write(flat[i * per_row:(i + 1) * per_row] + "\n")


def load_mask(path):
    """Read a GRIDMASK v1 file into a GridDomain."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != "GRIDMASK v1":
        raise ValueError("malformed mask file: missing GRIDMASK v1 header")
    try:
        head = lines[1].split()
        N = int(head[0])
        h = float(head[1])
        dims = tuple(int(x) for x in head[2:])
        origin = [float(x) for x in lines[2].split()]
    except (IndexError, ValueError) as exc:
        raise ValueError("malformed mask file header: %s" % exc)
    if N < 1 or len(dims) != N:
        raise ValueError("malformed mask file header %r: N=%d but %d dims "
                         "fields" % (lines[1], N, len(dims)))
    body = "".join(lines[3:3 + dims[0]])
    count = int(np.prod(dims))
    if len(body) != count:
        raise ValueError("malformed mask file: expected %d node tags" % count)
    lut = {"E": EXTERIOR, "B": BOUNDARY, "I": INTERIOR}
    try:
        vals = np.array([lut[c] for c in body], dtype=np.int8)
    except KeyError as exc:
        raise ValueError("malformed mask file: bad tag %s" % exc)
    return GridDomain(h, origin, vals.reshape(dims))


# -- fields -----------------------------------------------------------------

def _on_nodes(domain, nodes, vals):
    """A grid array holding `vals` on the nodes that the boolean mask
    `nodes` selects and NaN elsewhere."""
    out = np.full(domain.dims, np.nan)
    out[nodes] = vals
    return out


class ScalarField:
    """Real values on the non-exterior nodes of a grid domain.

    Values are stored as a full array over the grid; exterior entries are
    NaN and never read.
    """

    def __init__(self, domain, values):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.dims:
            raise ValueError("field shape does not match domain")
        if not np.isfinite(values[domain.nonexterior]).all():
            raise ValueError("field has non-finite values on the domain")
        self.domain = domain
        self.values = values

    @classmethod
    def constant(cls, domain, c):
        return cls(domain, _on_nodes(domain, domain.nonexterior, c))

    @classmethod
    def from_function(cls, domain, fn):
        """The field fn(points) on the non-exterior nodes, where `fn` maps
        coordinates (n, N) to n values."""
        ne = domain.nonexterior
        return cls(domain, _on_nodes(domain, ne, fn(domain.points(ne))))

    def sup(self):
        return float(np.max(self.values[self.domain.nonexterior]))

    def inf(self):
        return float(np.min(self.values[self.domain.nonexterior]))

    def same_domain(self, other):
        return self.domain is other.domain

    def copy(self):
        return ScalarField(self.domain, self.values.copy())


class BoundaryTrace:
    """Boundary data: one real value per boundary node."""

    def __init__(self, domain, values):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.dims:
            raise ValueError("trace shape does not match domain")
        bvals = values[domain.boundary]
        if bvals.size == 0:
            raise ValueError("domain has no boundary nodes")
        if not np.isfinite(bvals).all():
            raise ValueError("boundary values must be finite")
        self.domain = domain
        self.values = values
        self.ell = float(bvals.min())
        self.L = float(bvals.max())

    @classmethod
    def constant(cls, domain, c):
        return cls(domain, _on_nodes(domain, domain.boundary, c))

    @classmethod
    def from_function(cls, domain, fn):
        bd = domain.boundary
        return cls(domain, _on_nodes(domain, bd, fn(domain.points(bd))))


# -- CSV rows ---------------------------------------------------------------

# rows per string format in _write_rows: the whole table at once is no
# faster and holds every line in memory
_CSV_BLOCK = 512


def _write_rows(fh, table):
    """Write each row of a 2-D float array as a "%.12e,...,%.12e" line."""
    line = ",".join(["%.12e"] * table.shape[1]) + "\n"
    for i in range(0, len(table), _CSV_BLOCK):
        block = table[i:i + _CSV_BLOCK]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


# -- right-hand sides -------------------------------------------------------

# operator -> argument kinds: e an expression, t the variable t, n a
# numeric literal, c a coefficient name; add and mul take 2 or more e
_ARITY = {"const": "n", "coef": "c", "pow": "tn", "exp": "t", "cospow": "n",
          "neg": "e", "clip": "en", "add": "ee", "mul": "ee"}


def _parse_rhs(text):
    """The tuple tree of a prefix rhs expression (grammar: `RhsSpec`)."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    tree, pos = _parse_arg(tokens, 0, "e", "rhs")
    if pos != len(tokens):
        raise ValueError("trailing tokens in rhs expression")
    return tree


def _parse_arg(tokens, pos, kind, op):
    """Argument of `kind` (as in _ARITY) to `op` at tokens[pos].

    Returns (value, next position): the tree, or the number for kind n
    and the name for kind c.
    """
    if pos >= len(tokens):
        raise ValueError("unexpected end of rhs expression")
    tok = tokens[pos]
    if tok == ")":
        raise ValueError("unexpected ) in rhs expression")
    if tok == "(":
        tree, pos = _parse_call(tokens, pos + 1)
    elif tok == "t":
        tree, pos = ("t",), pos + 1
    else:
        try:
            tree = ("const", float(tok))
        except ValueError:
            tree = ("name", tok)
        else:
            if not np.isfinite(tree[1]):
                raise ValueError("non-finite literal %r in rhs expression"
                                 % tok)
        pos += 1
    if kind == "c":
        if tree[0] != "name" or tree[1] in _ARITY:
            raise ValueError("coef expects a coefficient name")
        return tree[1], pos
    if tree[0] == "name":
        raise ValueError("bare name %r in rhs expression; write (coef %s) "
                         "for a coefficient" % (tok, tok))
    if kind == "t" and tree != ("t",):
        raise ValueError("%s expects the t variable" % op)
    if kind == "n":
        if tree[0] != "const":
            raise ValueError("%s expects a numeric literal" % op)
        return tree[1], pos
    return tree, pos


def _parse_call(tokens, pos):
    """(op args...) from just after its ( : (tree, position after its ))."""
    if pos >= len(tokens):
        raise ValueError("unexpected end of rhs expression")
    op = tokens[pos]
    if op not in _ARITY:
        raise ValueError("unknown rhs operator: %r" % op)
    kinds = _ARITY[op]
    pos += 1
    args = []
    while pos < len(tokens) and tokens[pos] != ")":
        kind = kinds[len(args)] if len(args) < len(kinds) else "e"
        arg, pos = _parse_arg(tokens, pos, kind, op)
        args.append(arg)
    if pos >= len(tokens):
        raise ValueError("unexpected end of rhs expression")
    if op in ("add", "mul"):
        if len(args) < 2:
            raise ValueError("%s expects at least 2 arguments, got %d"
                             % (op, len(args)))
        return (op, args), pos + 1
    if len(args) != len(kinds):
        raise ValueError("%s expects %d arguments, got %d"
                         % (op, len(kinds), len(args)))
    return (op,) + tuple(a for a, k in zip(args, kinds) if k != "t"), pos + 1


def _nodes(tree):
    """Every node of an rhs tree, parents before children."""
    yield tree
    if tree[0] in ("add", "mul"):
        for child in tree[1]:
            yield from _nodes(child)
    elif tree[0] in ("neg", "clip"):
        yield from _nodes(tree[1])


class RhsSpec:
    """Right-hand side f(x, t) as an expression tree with attributes.

    Parameters
    ----------
    expression : str
        Prefix expression over {t, c, (const c), (coef name), (pow t g),
        (exp t), (cospow g), (add e e ...), (mul e e ...), (neg e),
        (clip e C)}, where c, g and C are finite numeric literals.
        (pow t g) means the odd power t|t|^(g-1); (cospow g) means
        (1 + cos t)^g.  A bare name is an error, found when parsing.
    coefs : dict, optional
        Coefficient name -> scalar, callable(points) or grid-shaped array.
    sign : {"nonneg", "nonpos", "mixed"}, optional
    monotone_in_t : {"nondecreasing", "nonincreasing", "none"}, optional
        Declared attributes are validated on a probe lattice; a declared
        but violated attribute raises ValueError.  A callable coefficient
        has no points to probe until a domain is known, so with one the
        check runs in `coef_grid`, on the domain's non-exterior nodes.

    Attributes
    ----------
    tree : tuple
        The parsed expression.
    coef_names : set of str
        Names of the (coef name) nodes; f depends on x iff it is nonempty.
    depends_on_t : bool
        Whether the tree has a t, pow, exp or cospow node.  The solver
        takes the closed-form local update when it is False.
    bound : float
        An upper bound on |f| from the tree alone (`_bound`; inf when
        there is none).  Where it is at most SATURATE, `eval_nodes` has
        nothing to clamp and skips the test.
    """

    def __init__(self, expression, coefs=None, sign=None, monotone_in_t=None):
        self.expression = expression
        self.tree = _parse_rhs(expression)
        self.coefs = dict(coefs or {})
        if sign not in (None, "nonneg", "nonpos", "mixed"):
            raise ValueError("sign must be 'nonneg', 'nonpos', or 'mixed'")
        self.sign = sign
        if monotone_in_t not in (None, "nondecreasing", "nonincreasing",
                                 "none"):
            raise ValueError("monotone_in_t must be 'nondecreasing', "
                             "'nonincreasing', or 'none'")
        self.monotone_in_t = monotone_in_t
        self.coef_names = {n[1] for n in _nodes(self.tree) if n[0] == "coef"}
        self.depends_on_t = any(n[0] in ("t", "pow", "exp", "cospow")
                                for n in _nodes(self.tree))
        self._separable = _split_separable(self.tree)
        self.bound = _bound(self.tree)
        for name in sorted(self.coef_names):
            if name not in self.coefs:
                raise ValueError("missing coefficient samples for %r" % name)
        self._probe = sign is not None or monotone_in_t is not None
        if self._probe and not any(callable(v) for v in self.coefs.values()):
            self._validate(self.coefs)

    def _validate(self, samples):
        """Check the declared attributes on the probe lattice.

        `samples` maps each coefficient to its values (scalar or array);
        t runs over the probe range, and each coefficient over its finite
        extremes and up to about 16 more of its values.
        """
        t = _PROBE_T
        coef_vals = {}
        for name, val in samples.items():
            arr = np.asarray(val, dtype=float).ravel()
            arr = arr[np.isfinite(arr)]
            coef_vals[name] = arr if arr.size else np.array([0.0])
        combos = [{}]
        for name, vals in coef_vals.items():
            sub = np.unique(np.concatenate(
                [[vals.min(), vals.max()], vals[:: max(1, len(vals) // 16)]]))
            combos = [dict(c, **{name: v}) for c in combos for v in sub]
        for combo in combos:
            y = _eval_tree(self.tree, combo, t)
            if self.sign == "nonneg" and (y < -1e-12).any():
                raise ValueError("declared nonneg but probe found f < 0")
            if self.sign == "nonpos" and (y > 1e-12).any():
                raise ValueError("declared nonpos but probe found f > 0")
            if self.monotone_in_t == "nondecreasing" \
                    and (np.diff(y) < -1e-9).any():
                raise ValueError("declared nondecreasing in t but probe "
                                 "found a decrease")
            if self.monotone_in_t == "nonincreasing" \
                    and (np.diff(y) > 1e-9).any():
                raise ValueError("declared nonincreasing in t but probe "
                                 "found an increase")

    def depends_on_x(self):
        return bool(self.coef_names)

    def coef_value_at(self, x):
        """Resolve coefficient values at a point (dict name -> float)."""
        out = {}
        for name, val in self.coefs.items():
            if callable(val):
                out[name] = float(np.asarray(
                    val(np.asarray(x, float)[None, :])).ravel()[0])
            elif np.isscalar(val):
                out[name] = float(val)
            else:
                raise ValueError(
                    "grid-sampled coefficient %r needs index evaluation"
                    % name)
        return out

    def coef_grid(self, domain):
        """Coefficient values on the grid: name -> float or grid array.

        Resolve once per solve and pass the result (indexed like t) to
        `eval_nodes`.
        """
        out = {}
        for name, val in self.coefs.items():
            if callable(val):
                out[name] = np.asarray(val(domain.points()),
                                       float).reshape(domain.dims)
            elif np.isscalar(val):
                out[name] = float(val)
            else:
                arr = np.asarray(val, dtype=float)
                if arr.shape != domain.dims:
                    raise ValueError("coefficient %r shape mismatch" % name)
                out[name] = arr
        if self._probe and any(callable(v) for v in self.coefs.values()):
            ne = domain.nonexterior
            self._validate({name: out[name][ne] if callable(val) else val
                            for name, val in self.coefs.items()})
        return out

    def eval_grid(self, domain, t):
        """Vectorized evaluation on all grid nodes.

        Parameters
        ----------
        domain : GridDomain
        t : float or ndarray broadcastable to domain.dims

        Returns
        -------
        ndarray of f(x, t) with the grid's shape (NaN where t is NaN), also
        when neither t nor any coefficient is an array.
        """
        return self.eval_nodes(np.broadcast_to(t, domain.dims),
                               self.coef_grid(domain))

    def eval_nodes(self, t, coefs, dt=False):
        """f(x, t) at nodes whose coefficient values are given.

        Parameters
        ----------
        t : ndarray
        coefs : dict
            Coefficient name -> float or array indexed like t, e.g.
            `coef_grid(domain)` or a selection of it.
        dt : bool
            Also return df/dt from the same tree walk.

        Returns
        -------
        f, or the pair (f, df/dt).  Values beyond +/-1e300 are clamped,
        and df/dt is 0 where f is clamped.  A tree whose `bound` is at
        most SATURATE cannot get there, and the clamp test is skipped.
        """
        out = _eval_tree(self.tree, coefs, np.asarray(t, dtype=float), dt)
        y, dy = out if dt else (out, None)
        y = np.asarray(y, dtype=float)
        if not self.bound <= SATURATE:      # NaN: no bound either
            big = np.abs(y) > SATURATE
            if np.count_nonzero(big):
                y = np.clip(y, -SATURATE, SATURATE)
                if dt:
                    dy = np.where(big, 0.0, dy)
        return (y, dy) if dt else y


def _eval_tree(tree, combo, t, dt=False):
    """f on the tree; with dt=True the pair (f, df/dt) from the same walk."""
    op = tree[0]
    if op == "const":
        y = np.broadcast_to(np.asarray(tree[1], float), np.shape(t)).copy() \
            if np.shape(t) else tree[1]
        return (y, 0.0 * y) if dt else y
    if op == "coef":
        val = combo[tree[1]]
        y = val * np.ones_like(t) if np.ndim(t) and np.ndim(val) == 0 \
            else val + 0 * t
        return (y, 0.0 * y) if dt else y
    if op == "t":
        return (t, np.ones_like(t)) if dt else t
    if op == "pow":
        g = tree[1]
        with np.errstate(over="ignore", divide="ignore"):
            y = np.sign(t) * np.abs(t) ** g
            return (y, g * np.abs(t) ** (g - 1.0)) if dt else y
    if op == "exp":
        # t is capped at 700 first, so exp cannot overflow; flat
        # (derivative 0) once saturated
        y = np.minimum(np.exp(np.minimum(t, 700.0)), SATURATE)
        return (y, np.where(y < SATURATE, y, 0.0)) if dt else y
    if op == "cospow":
        g = tree[1]
        c = 1.0 + np.cos(t)
        y = c ** g
        if not dt:
            return y
        with np.errstate(divide="ignore", invalid="ignore"):
            return y, -g * c ** (g - 1.0) * np.sin(t)
    if op == "add":
        parts = [_eval_tree(c, combo, t, dt) for c in tree[1]]
        if not dt:
            return sum(parts)
        return sum(p[0] for p in parts), sum(p[1] for p in parts)
    if op == "mul":
        out = _eval_tree(tree[1][0], combo, t, dt)
        for c in tree[1][1:]:
            nxt = _eval_tree(c, combo, t, dt)
            if dt:
                (y, dy), (z, dz) = out, nxt
                out = (y * z, dy * z + y * dz)
            else:
                out = out * nxt
        return out
    if op == "neg":
        out = _eval_tree(tree[1], combo, t, dt)
        return (-out[0], -out[1]) if dt else -out
    if op == "clip":
        C = tree[2]
        out = _eval_tree(tree[1], combo, t, dt)
        y, dy = out if dt else (out, None)
        yc = np.clip(y, -C, C)
        # flat (derivative 0) where clipped
        return (yc, np.where(np.abs(y) <= C, dy, 0.0)) if dt else yc
    raise ValueError("bad tree node %r" % (op,))


def _bound(tree):
    """An upper bound on |f| over every x and t, from the tree alone.

    exp is capped at SATURATE, const is |c|, neg passes its child's
    bound on and clip caps it at C (a negative C clips everything to
    +-C), cospow with 0 <= g < 996 is at most 2^g (below SATURATE), add
    sums its children's bounds and mul multiplies them; t, coef and pow
    have none (inf), nor has a product of inf and 0 (NaN).  Rounding is
    monotone, so the sums and products of the evaluation stay within the
    same sums and products of the bounds.
    """
    op = tree[0]
    if op == "exp":
        return SATURATE
    if op == "const":
        return abs(tree[1])
    if op == "cospow":
        return 2.0 ** tree[1] if 0 <= tree[1] < 996 else math.inf
    if op == "neg":
        return _bound(tree[1])
    if op == "clip":
        C = tree[2]
        return min(_bound(tree[1]), C) if C >= 0 else -C
    if op == "add":
        return sum(_bound(c) for c in tree[1])
    if op == "mul":
        return math.prod(_bound(c) for c in tree[1])
    return math.inf


def _finite_bound(tree):
    """`_bound`, where it also shows that f is finite at every finite t,
    else inf.

    clip passes NaN on, and a subtree without a bound can be NaN at a
    finite t ((pow t g) with g < 0 at t = 0, a NaN coefficient), so a
    clip of one may be NaN where `_bound` gives C.  Every other node of
    finite bound is finite at finite t, and so is a tree whose clips all
    have children of finite bound.
    """
    if any(n[0] == "clip" and not _bound(n[1]) < math.inf
           for n in _nodes(tree)):
        return math.inf
    return _bound(tree)


def eval_rhs(f, x, t):
    """Evaluate f(x, t) at a single point, clamped as `eval_nodes` clamps."""
    combo = f.coef_value_at(np.atleast_1d(x)) if f.coefs else {}
    return float(f.eval_nodes(float(t), combo))


def _split_separable(tree):
    """Split the tree as (x-part, t-part) when it is a pure product, else None.

    Returns (coef_tree_list, t_tree_list) where the full f is the product
    of all listed factors, each depending on x only or on t only.
    """
    xp, tp = [], []
    todo = [tree]
    while todo:
        fct = todo.pop()
        if fct[0] == "mul":
            todo.extend(reversed(fct[1]))
        elif fct[0] == "neg":
            todo.extend([fct[1], ("const", -1.0)])
        elif fct[0] == "coef":
            xp.append(fct)
        elif any(n[0] == "coef" for n in _nodes(fct)):
            return None
        else:
            tp.append(fct)
    return xp, tp


def _t_grid(out, lo, hi):
    """Write np.linspace(lo, hi, 4097) into out, by linspace's arithmetic."""
    n = _T_GRID.size
    step = (hi - lo) / (n - 1)
    if step == 0:
        np.divide(_T_GRID, n - 1, out=out)
        out *= hi - lo
    else:
        np.multiply(_T_GRID, step, out=out)
    out += lo
    out[-1] = hi


def _t_range(trees, combo, lo, hi):
    """Range of a product of t-only factors on [lo, hi] by candidate points.

    The samples are the 4097-point grid of `_t_grid` and the candidates
    (both ends, the multiples of pi where cospow has its extrema, and 0),
    in one buffer.  Constant factors multiply in as floats, in order.
    """
    cands = [lo, hi]
    k0 = math.ceil(lo / math.pi)
    k1 = math.floor(hi / math.pi)
    if k1 - k0 < 64:
        cands.extend(math.pi * k for k in range(k0, k1 + 1))
    cands.append(0.0) if lo <= 0.0 <= hi else None
    n = _T_GRID.size
    t = np.empty(n + len(cands))
    _t_grid(t[:n], lo, hi)
    t[n:] = cands
    np.clip(t, lo, hi, out=t)
    y = 1.0
    for tree in trees:
        y = y * (tree[1] if tree[0] == "const"
                 else _eval_tree(tree, combo, t))
    if isinstance(y, float):
        return y, y
    return float(y.min()), float(y.max())


def rhs_range(f, interval, domain=None):
    """Bounds of f over Omega x I.

    Parameters
    ----------
    f : RhsSpec
    interval : (lo, hi)
        Bounded t-interval.
    domain : GridDomain, optional
        Needed when f has coefficient factors.

    Returns
    -------
    (inf, sup)
        For separable specs (a product of x-only and t-only factors) the
        factor ranges combined by interval arithmetic, each t-only range
        sampled on np.linspace(lo, hi, 4097) plus the ends, 0 and the
        multiples of pi; otherwise sampled on a probe lattice.  Both are
        estimates: the t-samples can miss an interior extremum.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError("rhs_range needs a bounded interval")
    if f._separable is not None:
        xp, tp = f._separable
        glo, ghi = _t_range(tp, {}, lo, hi)
        alo, ahi = 1.0, 1.0
        for cf in xp:
            vals = f.coefs[cf[1]]
            if callable(vals):
                if domain is None:
                    raise ValueError("coefficient range needs a domain")
                arr = np.asarray(vals(domain.points(domain.nonexterior)),
                                 float)
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
    # non-separable: sampled estimate over a probe lattice
    t = np.linspace(lo, hi, 513)
    if domain is not None and f.depends_on_x():
        # coefficients resolved (and a declared sign checked) once, then
        # one t value at a time: a stack of all 513 is slower
        ne = domain.nonexterior
        coefs = {name: val[ne] if np.ndim(val) else val
                 for name, val in f.coef_grid(domain).items()}
        ys = (f.eval_nodes(np.broadcast_to(tv, ne.sum()), coefs) for tv in t)
        ext = np.array([(y.min(), y.max()) for y in ys])
        return float(ext[:, 0].min()), float(ext[:, 1].max())
    # scalar coefficients need no domain
    coefs = {name: f.coefs[name] for name in f.coef_names}
    if not all(np.isscalar(v) for v in coefs.values()):
        raise ValueError("coefficient range needs a domain")
    y = _eval_tree(f.tree, {k: float(v) for k, v in coefs.items()}, t)
    return float(np.min(y)), float(np.max(y))
