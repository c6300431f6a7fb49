"""Vectorized reverse-mode autodiff on numpy arrays.

A Tape is an append-only record of elementary array operations. Values are
wrapped in Var; building expressions from Vars records nodes, and
``backward(tape, scalar)`` walks the record once in reverse to produce exact
gradients for every named parameter slot. Ops are whole-array (numpy does the
inner loops), so graphs stay small: hundreds of nodes per training step, not
millions.

Conventions:
  * everything is float64,
  * ``maximum``/``minimum`` route the gradient to the *second* argument on
    ties, so hinges written ``maximum(expr, 0.0)`` have subgradient 0 at the
    kink,
  * fused ops are one node each, built with ``_node`` from plain numpy and
    hand-written VJPs that recompute what they need instead of saving it:
    ``lambert_quadrature`` (the clamped-cosine irradiance sum over rows of
    samples sorted by ray, in cache-sized blocks of whole rays, each padded
    to its largest row count; saves no cosines, and its VJPs share one pass
    that recomputes each block's cosines once for both adjoints; a cosine
    of exactly 0 gives its normal subgradient 0, the ``maximum(expr, 0.0)``
    convention);
    ``sum_by_ray`` (the per-ray sum of such rows, one ``np.bincount``; its
    gradient is a gather);
    ``fields.multilinear`` (every SDF and albedo lookup; saves its corner
    indices and per-axis fractions, no corner weights, and with coordinates
    on a tape its lerp tree's partials); ``visibility.ddf_eval`` (the DDF
    losses' depth lookup: cell coordinates, grid read and clamped-sigmoid
    depth in one node, whose VJPs use the corner indices and fractions of
    its read and, with s on a tape, its kept corner values, from which
    ``fields._lerp_tree`` gives the partials; a batch's depth and levelset
    terms share one); and ``visibility.soft_visibility``, the whole
    outside-in visibility query in one node, which saves adjoint
    coefficients (dv/dx, dv/draw, dv/deps) computed in the forward pass,
    the partials taken by the same tree from the read's kept corner
    values, plus the corner indices and fractions of that read, so that
    its gradients recompute nothing; it saves them only for queries whose
    value is neither exactly 0 nor exactly 1 (NaN included), and every
    other query passes exactly 0. Light directions are plain arrays (no
    direction gradient).
    Clamps in fused ops follow the tie rule above,
  * boolean masks (``where`` conditions, gather indices) are plain numpy
    arrays and carry no gradient,
  * the gathers, ``take_rows`` (integer rows), ``fields.multilinear``,
    ``visibility.ddf_eval`` and ``visibility.soft_visibility`` (grid
    corners), pass back a deferred scatter adjoint, flat indices plus
    values, and ``reshape`` passes it through. ``backward`` collects every
    such adjoint that reaches one Var and densifies it once, at the
    parameter or at the first other op that needs a dense array: each
    gather's values are added in place (``np.add.at``) into one zeroed
    buffer, with no concatenated copy. Sums across gathers therefore follow
    the order in which ``backward`` reaches the gathers. ``index`` takes no
    integer-array key,
  * an op whose inputs are all constants (Vars with no tape) records no node
    and keeps no parents; inference binds its fields with ``tape=None`` and
    relies on this to compute values without building a graph.
"""

from __future__ import annotations

import math
import weakref

import numpy as np


class TapeError(Exception):
    """Usage error: value not on this tape, non-scalar backward seed, etc."""


class GradientCheckError(Exception):
    """Non-finite loss encountered during a finite-difference probe."""

    def __init__(self, param, index, message=""):
        self.param = param
        self.index = index
        super().__init__(message or f"non-finite loss while perturbing {param}[{index}]")


class Var:
    """A value recorded on a tape (or a free constant when ``tape is None``)."""

    __slots__ = ("data", "_tape", "parents", "op")
    __array_ufunc__ = None  # numpy defers to our reflected operators

    def __init__(self, data, tape=None, parents=(), op="const"):
        self.data = data
        # A weak reference: the tape holds its nodes, so a strong one back
        # would make every graph a reference cycle that outlives its step
        # until the cyclic garbage collector happens to run.
        self._tape = None if tape is None else weakref.ref(tape)
        self.parents = parents
        self.op = op
        if tape is not None:
            tape.nodes.append(self)

    @property
    def tape(self):
        return None if self._tape is None else self._tape()

    @property
    def shape(self):
        return self.data.shape

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, key):
        return index(self, key)

    def __repr__(self):
        return f"Var(op={self.op}, shape={self.data.shape})"


class Tape:
    """Append-only op record plus named learnable parameter slots."""

    def __init__(self):
        self.nodes = []
        self.params = {}

    def parameter(self, name, value):
        """Register array ``value`` as learnable slot ``name``; returns its Var."""
        if name in self.params:
            raise TapeError(f"duplicate parameter slot {name!r}")
        v = Var(np.asarray(value, dtype=np.float64), tape=self, op=f"param:{name}")
        self.params[name] = v
        return v


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


def _lift(x):
    if isinstance(x, Var):
        return x
    return Var(_as_array(x), tape=None, op="const")


def _tape_of(*vals):
    for v in vals:
        if isinstance(v, Var) and v.tape is not None:
            return v.tape
    return None


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node(op, out, inputs, vjps):
    """Record one op. ``vjps[i]`` maps the output adjoint to input i's adjoint."""
    tape = _tape_of(*inputs)
    parents = tuple(
        (inp, vjp)
        for inp, vjp in zip(inputs, vjps)
        if inp.tape is not None or inp.parents
    )
    return Var(out, tape=tape, parents=parents, op=op)


# -- arithmetic ----------------------------------------------------------


def add(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data + b.data
    return _node("add", out, (a, b), (lambda g: g, lambda g: g))


def sub(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data - b.data
    return _node("sub", out, (a, b), (lambda g: g, lambda g: -g))


def mul(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data * b.data
    return _node("mul", out, (a, b),
                 (lambda g: g * b.data, lambda g: g * a.data))


def div(a, b):
    a, b = _lift(a), _lift(b)
    out = a.data / b.data
    return _node("div", out, (a, b),
                 (lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)))


def power(a, p):
    p = float(p)
    out = a.data ** p
    return _node("pow", out, (a,), (lambda g: g * p * a.data ** (p - 1.0),))


def exp(a):
    out = np.exp(a.data)
    return _node("exp", out, (a,), (lambda g: g * out,))


def log(a):
    out = np.log(a.data)
    return _node("log", out, (a,), (lambda g: g / a.data,))


def log1p(a):
    out = np.log1p(a.data)
    return _node("log1p", out, (a,), (lambda g: g / (1.0 + a.data),))


def sqrt(a):
    out = np.sqrt(a.data)

    def vjp(g):
        # subgradient 0 at exactly 0, like the other kinks
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(out > 0.0, g * 0.5 / out, 0.0)

    return _node("sqrt", out, (a,), (vjp,))


def sigmoid_np(x):
    """The logistic function of a numpy array, overflow-safe; ``sigmoid``'s
    value, for fused ops that apply it inside one node."""
    ex = np.exp(-np.abs(x))  # 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def sigmoid(a):
    out = sigmoid_np(a.data)
    return _node("sigmoid", out, (a,), (lambda g: g * out * (1.0 - out),))


def absolute(a):
    out = np.abs(a.data)
    sign = np.sign(a.data)
    return _node("abs", out, (a,), (lambda g: g * sign,))


def maximum(a, b):
    a, b = _lift(a), _lift(b)
    out = np.maximum(a.data, b.data)
    win_a = a.data > b.data  # ties go to b
    return _node("max", out, (a, b),
                 (lambda g: g * win_a, lambda g: g * ~win_a))


def minimum(a, b):
    a, b = _lift(a), _lift(b)
    out = np.minimum(a.data, b.data)
    win_a = a.data < b.data  # ties go to b
    return _node("min", out, (a, b),
                 (lambda g: g * win_a, lambda g: g * ~win_a))


def clip01_straight_through(a):
    """Clamp to [0,1] forward, identity gradient backward.

    A hard clamp would permanently silence pixels whose prediction sits
    outside [0,1]; passing the gradient through keeps a restoring force
    toward the valid range while leaving in-range behavior untouched.
    """
    out = np.clip(a.data, 0.0, 1.0)
    return _node("clip01_st", out, (a,), (lambda g: g,))


def where(mask, a, b):
    """Select per element from ``a``/``b`` by boolean array ``mask`` (no grad)."""
    a, b = _lift(a), _lift(b)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.data, b.data)
    return _node("where", out, (a, b),
                 (lambda g: g * mask, lambda g: g * ~mask))


def vsum(a, axis=None):
    out = a.data.sum(axis=axis)

    def vjp(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.data.shape).copy()

    return _node("sum", np.asarray(out, dtype=np.float64), (a,), (vjp,))


def vmean(a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]
    return vsum(a, axis=axis) * (1.0 / n)


def norm_last(a):
    return sqrt(vsum(mul(a, a), axis=-1))


class _Scatter:
    """Deferred adjoint of gathers: ``values`` summed at flat ``index`` into
    zeros of ``shape``, plus an optional ``dense`` term."""

    __slots__ = ("shape", "index", "values", "dense")

    def __init__(self, shape, index, values, dense=None):
        self.shape = shape
        self.index = index    # list of flat index arrays
        self.values = values  # list of matching value arrays
        self.dense = dense

    def reshape(self, shape):
        dense = None if self.dense is None else self.dense.reshape(shape)
        return _Scatter(shape, self.index, self.values, dense)

    def merge(self, other):
        """Add ``other`` (a _Scatter or an array of ``shape``) in place."""
        if isinstance(other, _Scatter):
            self.index = self.index + other.index
            self.values = self.values + other.values
            other = other.dense
        if other is not None:
            self.dense = other if self.dense is None else self.dense + other
        return self

    def to_dense(self):
        # each gather's values are added in place into float64 zeros, piece
        # by piece in list order and entry by entry within a piece: the adds
        # of one bincount over all pieces concatenated, with no concatenated
        # copy of the indices or values. Like bincount's, the adds are
        # silent: a sum that overflows stays inf (or NaN) for the optimiser's
        # finiteness check to reject
        buf = np.zeros(math.prod(self.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            for index, values in zip(self.index, self.values):
                np.add.at(buf, index, values)
        buf = buf.reshape(self.shape)
        if self.dense is not None:
            buf += self.dense
        return buf


def take_rows(a, row_index):
    """Gather along axis 0; row indices are non-negative integers."""
    idx = np.asarray(row_index)
    if idx.size == 0:  # np.asarray([]) is float64, which np.take rejects
        idx = idx.astype(np.intp)
    out = np.take(a.data, idx, axis=0)

    def vjp(g):
        # one flat index per gathered element: row * row size + offset
        row = math.prod(a.data.shape[1:])
        flat = idx[..., None] * row + np.arange(row)
        return _Scatter(a.data.shape, [flat.reshape(-1)], [np.asarray(g).reshape(-1)])

    return _node("take_rows", out, (a,), (vjp,))


def reshape(a, shape):
    """Reshape; a deferred scatter adjoint passes through it undensified."""
    out = a.data.reshape(shape)
    return _node("reshape", out, (a,), (lambda g: g.reshape(a.data.shape),))


def index(a, key):
    """Static slice/index: slices, Ellipsis, scalars and boolean masks, each
    selecting an element at most once (no Vars). Integer-array keys raise
    TapeError; ``take_rows`` is the integer gather."""
    parts = key if isinstance(key, tuple) else (key,)
    if any(np.ndim(k) > 0 and np.asarray(k).dtype.kind in "iu" for k in parts):
        raise TapeError("index takes no integer-array key; use take_rows")
    out = a.data[key]

    def vjp(g):
        buf = np.zeros(a.data.shape)
        buf[key] += g
        return buf

    return _node("index", np.asarray(out, dtype=np.float64), (a,), (vjp,))


def stack(vars_, axis):
    """Stack Vars of identical shape along a new axis ``axis``."""
    vs = [_lift(v) for v in vars_]
    out = np.stack([v.data for v in vs], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    vjps = tuple((lambda key: lambda g: g[key])(lead + (i,)) for i in range(len(vs)))
    return _node("stack", out, tuple(vs), vjps)


def concat(vars_, axis=0):
    vs = [_lift(v) for v in vars_]
    out = np.concatenate([v.data for v in vs], axis=axis)
    sizes = [v.data.shape[axis] for v in vs]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        return vjp

    return _node("concat", out, tuple(vs), tuple(make_vjp(i) for i in range(len(vs))))


def einsum2(subscripts, a, b):
    """Two-operand einsum; every input index must appear in the other operand
    or the output (no diagonals), which makes the reverse rule exact."""
    a, b = _lift(a), _lift(b)
    ins, out_sub = subscripts.split("->")
    a_sub, b_sub = ins.split(",")
    out = np.einsum(subscripts, a.data, b.data)
    return _node(
        "einsum", out, (a, b),
        (lambda g: np.einsum(f"{out_sub},{b_sub}->{a_sub}", g, b.data),
         lambda g: np.einsum(f"{out_sub},{a_sub}->{b_sub}", g, a.data)))


LAMBERT_BLOCK = 65536  # cosine entries per ray block of lambert_quadrature; 512 KiB


def lambert_quadrature(normals, dirs, radiance, ray):
    """Clamped-cosine quadrature ``irr[i, :] = sum_u max(n[i] . d[u], 0)
    * radiance[ray[i], u, :]``.

    ``normals`` is (N, 3), one row per shaded sample, ``dirs`` a constant
    (U, 3) array, ``radiance`` (R, U, C) and ``ray`` (N,) the ray of each
    row, non-decreasing, so each ray's rows are contiguous; the result is
    (N, C). The op runs over blocks of whole rays, each the longest run
    whose rays, padded with zero rows to the block's largest row count,
    hold at most ``LAMBERT_BLOCK`` cosines (at least one ray), so a block's
    cosines stay in cache; padded rows are discarded. It saves no cosines:
    backward recomputes each block's cosines and pads its adjoint once, in
    one pass that yields the adjoints of both inputs, or of the one on a
    tape. A cosine of exactly 0 passes no gradient to the normal, as
    ``maximum(expr, 0.0)`` would.
    """
    normals, radiance = _lift(normals), _lift(radiance)
    d = np.asarray(dirs, dtype=np.float64)
    n, rad = normals.data, radiance.data
    ray = np.asarray(ray, dtype=np.int64)
    n_rays, n_dirs = rad.shape[0], d.shape[0]
    counts = np.bincount(ray, minlength=n_rays)
    start = np.concatenate([[0], np.cumsum(counts)])
    slot = np.arange(ray.size) - start[ray]  # a row's place within its ray

    blocks = []  # (rays, rows, flat padded index of each row, padded shape)
    per_ray = counts.tolist()
    lo = 0
    while lo < n_rays:
        hi, m = lo + 1, per_ray[lo]
        while (hi < n_rays
               and (hi + 1 - lo) * max(m, per_ray[hi]) * n_dirs <= LAMBERT_BLOCK):
            m = max(m, per_ray[hi])
            hi += 1
        rows = slice(start[lo], start[hi])
        blocks.append((slice(lo, hi), rows, (ray[rows] - lo) * m + slot[rows],
                       (hi - lo, m)))
        lo = hi

    def pad(x, rows, flat, shape):
        buf = np.zeros(shape + x.shape[-1:])
        buf.reshape(-1, x.shape[-1])[flat] = x[rows]
        return buf

    def dots(rows, flat, shape):
        return pad(n, rows, flat, shape) @ d.T

    out = np.empty((ray.size, rad.shape[-1]))
    for b, rows, flat, shape in blocks:
        cos = dots(rows, flat, shape)
        np.maximum(cos, 0.0, out=cos)
        out[rows] = (cos @ rad[b]).reshape(-1, out.shape[-1])[flat]

    # backward asks for the normals' adjoint first, then the radiance's with
    # the same output adjoint; with both inputs on a tape the first pass
    # yields both, and the radiance's waits here until backward takes it
    both = radiance.tape is not None or bool(radiance.parents)
    pending = []

    def adjoints(g, want_n, want_r):
        g_n = np.empty(n.shape) if want_n else None
        g_r = np.empty(rad.shape) if want_r else None
        for b, rows, flat, shape in blocks:
            g_pad = pad(g, rows, flat, shape)
            cos = dots(rows, flat, shape)
            np.maximum(cos, 0.0, out=cos)
            if want_r:
                np.matmul(cos.transpose(0, 2, 1), g_pad, out=g_r[b])
            if want_n:
                g_cos = g_pad @ rad[b].transpose(0, 2, 1)
                g_cos *= cos > 0.0
                g_n[rows] = (g_cos @ d).reshape(-1, 3)[flat]
        return g_n, g_r

    def vjp_normals(g):
        g_n, g_r = adjoints(g, True, both)
        if both:
            pending.append(g_r)
        return g_n

    def vjp_radiance(g):
        return pending.pop() if pending else adjoints(g, False, True)[1]

    return _node("lambert", out, (normals, radiance), (vjp_normals, vjp_radiance))


def sum_by_ray(a, ray, n_rays):
    """Per-ray sums of the rows of ``a`` (N, C): ``out[r] = sum_{ray[i] = r}
    a[i]``, shape (n_rays, C). Each ray adds its rows in row order, as
    ``vsum`` along the sample axis adds samples in order; a ray with no
    rows sums to 0. The gradient gathers the output adjoint by ray."""
    ray = np.asarray(ray, dtype=np.int64)
    channels = a.data.shape[-1]
    flat = (ray[:, None] * channels + np.arange(channels)).reshape(-1)
    out = np.bincount(flat, weights=a.data.reshape(-1),
                      minlength=n_rays * channels).astype(np.float64, copy=False)
    return _node("sum_by_ray", out.reshape(n_rays, channels), (a,),
                 (lambda g: g[ray],))


def exclusive_cumprod_last(a):
    """out[..., j] = prod_{i<j} a[..., i]; exact gradient, zero-safe."""
    x = a.data
    out = np.ones_like(x)
    np.cumprod(x[..., :-1], axis=-1, out=out[..., 1:])

    def vjp(g):
        # grad_i = out_i * sum_{j>i} g_j * prod_{i<k<j} x_k, by the reverse
        # recurrence R_i = g_{i+1} + x_{i+1} * R_{i+1}; no divisions.
        n = x.shape[-1]
        r = np.zeros_like(x)
        for i in range(n - 2, -1, -1):
            r[..., i] = g[..., i + 1] + x[..., i + 1] * r[..., i + 1]
        return out * r

    return _node("excumprod", out, (a,), (vjp,))


def softplus(a):
    """log(1 + exp(a)), overflow-safe."""
    big = a.data > 30.0
    return where(big, a, log1p(exp(minimum(a, 30.0))))


def softplus_inverse(y):
    """Plain-float inverse of softplus for initializing raw parameters."""
    y = np.asarray(y, dtype=np.float64)
    return np.where(y > 30.0, y, np.log(np.expm1(np.maximum(y, 1e-12))))


# -- backward ------------------------------------------------------------


def backward(tape, output):
    """Exact reverse-mode gradients of scalar ``output`` for every parameter
    slot on ``tape``. Slots the output does not depend on get zero buffers."""
    if not isinstance(output, Var) or output.tape is not tape:
        raise TapeError("output is not recorded on this tape")
    if np.asarray(output.data).size != 1:
        raise TapeError("backward expects a scalar output")
    param_names = {id(p): name for name, p in tape.params.items()}
    grads = {}
    adj = {id(output): np.ones_like(output.data)}
    for node in reversed(tape.nodes):
        g = adj.pop(id(node), None)
        if g is None:
            continue
        if isinstance(g, _Scatter) and node.op != "reshape":
            g = g.to_dense()
        name = param_names.get(id(node))
        if name is not None:
            grads[name] = g
            continue
        for parent, vjp in node.parents:
            contrib = vjp(g)
            if not isinstance(contrib, _Scatter):
                contrib = _unbroadcast(np.asarray(contrib), parent.data.shape)
            key = id(parent)
            prev = adj.get(key)
            if prev is None:
                adj[key] = contrib
            elif isinstance(prev, _Scatter):
                adj[key] = prev.merge(contrib)
            elif isinstance(contrib, _Scatter):
                adj[key] = contrib.merge(prev)
            else:
                adj[key] = prev + contrib
    return {name: grads[name] if name in grads else np.zeros_like(p.data)
            for name, p in tape.params.items()}


def gradient_check(loss_fn, params, h=1e-4):
    """Max relative error between tape gradients and central differences.

    ``loss_fn(tape, vars) -> scalar Var`` builds the loss from parameter Vars;
    ``params`` maps slot name to its initial numpy value. Raises
    GradientCheckError naming the parameter element if any probe is NaN.
    """

    def run(values):
        t = Tape()
        pv = {k: t.parameter(k, v) for k, v in values.items()}
        out = loss_fn(t, pv)
        return t, pv, out

    tape0, _, out0 = run(params)
    if not np.isfinite(out0.data):
        raise GradientCheckError("<loss>", (), "loss is non-finite at the base point")
    analytic = backward(tape0, out0)

    worst = 0.0
    for name, base in params.items():
        base = _as_array(base)
        flat = base.reshape(-1)
        for i in range(flat.size):
            bumped = {k: (v.copy() if k == name else v) for k, v in params.items()}
            bflat = bumped[name].reshape(-1)
            bflat[i] = flat[i] + h
            _, _, up = run(bumped)
            bflat[i] = flat[i] - h
            _, _, dn = run(bumped)
            if not (np.isfinite(up.data) and np.isfinite(dn.data)):
                raise GradientCheckError(name, np.unravel_index(i, base.shape))
            numeric = (float(up.data) - float(dn.data)) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
