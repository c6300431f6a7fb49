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
  * ``lambert_quadrature`` fuses the clamped-cosine irradiance sum into one
    node with ``matmul`` VJPs; a cosine of exactly 0 gives its normal
    subgradient 0, the ``maximum(expr, 0.0)`` convention,
  * boolean masks (``where`` conditions, gather indices) are plain numpy
    arrays and carry no gradient,
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


def _lift(x, tape):
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
    t = _tape_of(a, b)
    a, b = _lift(a, t), _lift(b, t)
    out = a.data + b.data
    return _node("add", out, (a, b), (lambda g: g, lambda g: g))


def sub(a, b):
    t = _tape_of(a, b)
    a, b = _lift(a, t), _lift(b, t)
    out = a.data - b.data
    return _node("sub", out, (a, b), (lambda g: g, lambda g: -g))


def mul(a, b):
    t = _tape_of(a, b)
    a, b = _lift(a, t), _lift(b, t)
    out = a.data * b.data
    return _node("mul", out, (a, b),
                 (lambda g: g * b.data, lambda g: g * a.data))


def div(a, b):
    t = _tape_of(a, b)
    a, b = _lift(a, t), _lift(b, t)
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


def sigmoid(a):
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _node("sigmoid", out, (a,), (lambda g: g * out * (1.0 - out),))


def absolute(a):
    out = np.abs(a.data)
    sign = np.sign(a.data)
    return _node("abs", out, (a,), (lambda g: g * sign,))


def arccos(a):
    x = np.clip(a.data, -1.0, 1.0)
    out = np.arccos(x)
    denom = np.sqrt(np.maximum(1.0 - x * x, 1e-14))
    return _node("arccos", out, (a,), (lambda g: -g / denom,))


def arctan2(y, x):
    t = _tape_of(y, x)
    y, x = _lift(y, t), _lift(x, t)
    out = np.arctan2(y.data, x.data)
    r2 = np.maximum(y.data * y.data + x.data * x.data, 1e-14)
    return _node("atan2", out, (y, x),
                 (lambda g: g * x.data / r2, lambda g: -g * y.data / r2))


def maximum(a, b):
    t = _tape_of(a, b)
    a, b = _lift(a, t), _lift(b, t)
    out = np.maximum(a.data, b.data)
    win_a = a.data > b.data  # ties go to b
    return _node("max", out, (a, b),
                 (lambda g: g * win_a, lambda g: g * ~win_a))


def minimum(a, b):
    t = _tape_of(a, b)
    a, b = _lift(a, t), _lift(b, t)
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
    t = _tape_of(a, b)
    a, b = _lift(a, t), _lift(b, t)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.data, b.data)
    return _node("where", out, (a, b),
                 (lambda g: g * mask, lambda g: g * ~mask))


def vsum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape).copy()
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.data.shape).copy()

    return _node("sum", np.asarray(out, dtype=np.float64), (a,), (vjp,))


def vmean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.data.shape[axis]
    return vsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)



def norm_last(a, eps=0.0):
    sq = vsum(mul(a, a), axis=-1)
    if eps:
        sq = add(sq, eps)
    return sqrt(sq)


def take(a, flat_index):
    """Gather from the flattened array; output has ``flat_index``'s shape.
    Indices are non-negative."""
    idx = np.asarray(flat_index)
    out = a.data.reshape(-1)[idx]

    def vjp(g):
        # bincount sums repeated indices in order into zeros, as np.add.at
        # would, bit for bit
        buf = np.bincount(idx.reshape(-1), weights=np.asarray(g).reshape(-1),
                          minlength=a.data.size)
        return buf.reshape(a.data.shape)

    return _node("take", out, (a,), (vjp,))


def take_rows(a, row_index):
    """Gather along axis 0; row indices are non-negative."""
    idx = np.asarray(row_index)
    out = np.take(a.data, idx, axis=0)

    def vjp(g):
        # one flat index per gathered element: row * row size + offset
        row = math.prod(a.data.shape[1:])
        flat = idx[..., None] * row + np.arange(row)
        buf = np.bincount(flat.reshape(-1), weights=np.asarray(g).reshape(-1),
                          minlength=a.data.size)
        return buf.reshape(a.data.shape)

    return _node("take_rows", out, (a,), (vjp,))


def reshape(a, shape):
    out = a.data.reshape(shape)
    return _node("reshape", out, (a,), (lambda g: g.reshape(a.data.shape),))


def _has_int_array(key):
    parts = key if isinstance(key, tuple) else (key,)
    return any(np.ndim(k) > 0 and np.asarray(k).dtype.kind in "iu" for k in parts)


def index(a, key):
    """Static slice/index (key is plain numpy-style, no Vars)."""
    out = a.data[key]
    repeats = _has_int_array(key)

    def vjp(g):
        buf = np.zeros(a.data.shape)
        if repeats:
            np.add.at(buf, key, g)
        else:
            # slices, Ellipsis, scalars and masks select each element once
            buf[key] += g
        return buf

    return _node("index", np.asarray(out, dtype=np.float64), (a,), (vjp,))


def stack_last(vars_):
    """Stack Vars of identical shape along a new trailing axis."""
    t = _tape_of(*vars_)
    vs = [_lift(v, t) for v in vars_]
    out = np.stack([v.data for v in vs], axis=-1)
    vjps = tuple((lambda i: lambda g: g[..., i])(i) for i in range(len(vs)))
    return _node("stack", out, tuple(vs), vjps)


def concat(vars_, axis=0):
    t = _tape_of(*vars_)
    vs = [_lift(v, t) for v in vars_]
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
    t = _tape_of(a, b)
    a, b = _lift(a, t), _lift(b, t)
    ins, out_sub = subscripts.split("->")
    a_sub, b_sub = ins.split(",")
    out = np.einsum(subscripts, a.data, b.data)
    return _node(
        "einsum", out, (a, b),
        (lambda g: np.einsum(f"{out_sub},{b_sub}->{a_sub}", g, b.data),
         lambda g: np.einsum(f"{out_sub},{a_sub}->{b_sub}", g, a.data)))


def lambert_quadrature(normals, dirs, radiance):
    """Clamped-cosine quadrature ``irr[r, s, :] = sum_u max(n[r, s] . d[u], 0)
    * radiance[r, u, :]``.

    ``normals`` is (R, S, 3), ``dirs`` a constant (U, 3) array and
    ``radiance`` (R, U, C); the result is (R, S, C). Only the clamped cosines
    are saved for the gradient, and a cosine of exactly 0 passes no gradient
    to the normal, as ``maximum(expr, 0.0)`` would.
    """
    t = _tape_of(normals, radiance)
    normals, radiance = _lift(normals, t), _lift(radiance, t)
    d = np.asarray(dirs, dtype=np.float64)
    n_rays, n_samples, _ = normals.data.shape
    cos = (normals.data.reshape(-1, 3) @ d.T).reshape(n_rays, n_samples, -1)
    np.maximum(cos, 0.0, out=cos)
    out = cos @ radiance.data

    def vjp_normals(g):
        g_cos = g @ radiance.data.transpose(0, 2, 1)
        g_cos *= cos > 0.0
        return (g_cos.reshape(-1, d.shape[0]) @ d).reshape(normals.data.shape)

    return _node("lambert", out, (normals, radiance),
                 (vjp_normals, lambda g: cos.transpose(0, 2, 1) @ g))


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


def stop_gradient(a):
    """Forward value unchanged; contributes nothing to any gradient."""
    if not isinstance(a, Var):
        return _lift(a, None)
    return Var(a.data, tape=a.tape, parents=(), op="stopgrad")


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
        name = param_names.get(id(node))
        if name is not None:
            grads[name] = g
            continue
        for parent, vjp in node.parents:
            contrib = _unbroadcast(np.asarray(vjp(g)), parent.data.shape)
            key = id(parent)
            if key in adj:
                adj[key] = adj[key] + contrib
            else:
                adj[key] = contrib
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
