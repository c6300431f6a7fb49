import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from skylit import tape as tp
from tests.conftest import reference_lambert_quadrature, reference_to_dense, traced_peak


def test_square_gradient():
    t = tp.Tape()
    p = t.parameter("p", 3.0)
    g = tp.backward(t, p * p)
    assert g["p"] == pytest.approx(6.0)


def test_constant_gradient_zero():
    t = tp.Tape()
    p = t.parameter("p", np.array([1.0, 2.0]))
    out = tp.vsum(p * 0.0 + 5.0)
    g = tp.backward(t, out)
    assert np.all(g["p"] == 0.0)


def test_unused_parameter_gets_zero_buffer():
    t = tp.Tape()
    a = t.parameter("a", np.ones(4))
    b = t.parameter("b", np.ones((2, 2)))
    g = tp.backward(t, tp.vsum(a))
    assert g["b"].shape == (2, 2)
    assert np.all(g["b"] == 0.0)


def test_backward_rejects_foreign_and_nonscalar():
    t = tp.Tape()
    p = t.parameter("p", np.ones(3))
    with pytest.raises(tp.TapeError):
        tp.backward(t, tp._lift(np.ones(3)))
    with pytest.raises(tp.TapeError):
        tp.backward(t, p * 2.0)


def test_composite_matches_finite_differences():
    rng = np.random.default_rng(0)

    def loss(t, pv):
        a, b = pv["a"], pv["b"]
        z = tp.sigmoid(a * 1.7) * tp.exp(b * 0.5) + tp.log(tp.maximum(a + 2.0, 0.1))
        return tp.vsum(z * z)

    err = tp.gradient_check(
        loss, {"a": rng.normal(size=5) * 0.5, "b": rng.normal(size=5) * 0.5}
    )
    assert err < 1e-4


def test_gradient_of_sum_is_sum_of_gradients():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=6)

    def make(fn):
        t = tp.Tape()
        x = t.parameter("x", x0)
        return tp.backward(t, fn(x))["x"]

    g1 = make(lambda x: tp.vsum(x * x))
    g2 = make(lambda x: tp.vsum(tp.exp(x)))
    g12 = make(lambda x: tp.vsum(x * x) + tp.vsum(tp.exp(x)))
    assert np.allclose(g12, g1 + g2, atol=1e-12)


def test_two_backward_passes_identical():
    t = tp.Tape()
    x = t.parameter("x", np.array([0.3, -0.7, 1.2]))
    out = tp.vsum(tp.sigmoid(x) * tp.sqrt(tp.absolute(x) + 1.0))
    g1 = tp.backward(t, out)["x"]
    g2 = tp.backward(t, out)["x"]
    assert np.array_equal(g1, g2)


def test_graph_freed_without_cycle_collector():
    # a training step's graph holds hundreds of MB; it must go as soon as
    # its tape and outputs do, not when the cyclic collector next runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = tp.Tape()
        x = t.parameter("x", np.array([0.3, -0.7, 1.2]))
        out = tp.vsum(tp.exp(x) * tp.sigmoid(x))
        tp.backward(t, out)
        ref = weakref.ref(t)
        del t, x, out
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_relu_subgradient_zero_at_kink():
    t = tp.Tape()
    x = t.parameter("x", np.array([0.0, -1.0, 2.0]))
    out = tp.vsum(tp.maximum(x, 0.0))
    g = tp.backward(t, out)["x"]
    assert np.allclose(g, [0.0, 0.0, 1.0])


def test_max_kink_avoided_gradient_check():
    # inputs kept away from the kink by more than 10h
    def loss(t, pv):
        return tp.vsum(tp.maximum(pv["x"] - 0.3, 0.0) * 2.0)

    err = tp.gradient_check(loss, {"x": np.array([0.5, -0.4, 0.31, 0.1])}, h=1e-4)
    assert err < 1e-4


def test_gradient_check_reports_nan_with_index():
    def loss(t, pv):
        return tp.vsum(tp.log(pv["x"]))  # goes NaN when an element dips <= 0

    with pytest.raises(tp.GradientCheckError) as info, \
            pytest.warns(RuntimeWarning):
        tp.gradient_check(loss, {"x": np.array([1.0, 5e-5])}, h=1e-4)
    assert info.value.param == "x"
    assert info.value.index == (1,)


def test_broadcasting_gradients():
    rng = np.random.default_rng(2)

    def loss(t, pv):
        return tp.vsum(pv["row"] * pv["mat"] + pv["scalar"])

    err = tp.gradient_check(
        loss,
        {"row": rng.normal(size=4), "mat": rng.normal(size=(3, 4)),
         "scalar": np.array(0.7)},
    )
    assert err < 1e-6


def test_einsum_where_take_grads():
    rng = np.random.default_rng(3)
    idx = np.array([0, 2, 2, 5])
    mask = np.array([True, False, True, True])

    def loss(t, pv):
        g = tp.take_rows(tp.reshape(pv["grid"], (-1,)), idx)
        w = tp.where(mask, g, g * 3.0)
        e = tp.einsum2("i,ij->j", w, pv["mat"])
        return tp.vsum(e * e)

    err = tp.gradient_check(
        loss, {"grid": rng.normal(size=6), "mat": rng.normal(size=(4, 3))}
    )
    assert err < 1e-6


def test_exclusive_cumprod_values_and_zero_safety():
    t = tp.Tape()
    x = t.parameter("x", np.array([[0.5, 0.0, 0.25]]))
    out = tp.exclusive_cumprod_last(x)
    assert np.allclose(out.data, [[1.0, 0.5, 0.0]])

    def loss(t, pv):
        return tp.vsum(tp.exclusive_cumprod_last(pv["x"]) * np.array([1.0, 2.0, 3.0]))

    err = tp.gradient_check(loss, {"x": np.array([[0.5, 0.0, 0.25]])})
    assert err < 1e-6


def test_softplus_inverse_roundtrip():
    for v in (0.1, 1.0, 5.0, 40.0):
        raw = tp.softplus_inverse(v)
        t = tp.Tape()
        x = t.parameter("x", raw)
        assert float(tp.softplus(x).data) == pytest.approx(v, rel=1e-12)


def test_duplicate_parameter_slot_rejected():
    t = tp.Tape()
    t.parameter("p", 1.0)
    with pytest.raises(tp.TapeError):
        t.parameter("p", 2.0)


# -- op VJPs against central differences --------------------------------


def _signed(rng, size, lo, hi):
    """Values with lo <= |x| <= hi and a random sign, clear of 0."""
    return rng.uniform(lo, hi, size=size) * rng.choice([-1.0, 1.0], size=size)


def _normal(rng, size):
    return rng.normal(size=size)


def _quarters(rng, size, offset=0.0):
    """Multiples of 1/4 plus ``offset``: two draws with offsets 0 and 1/8
    never tie and differ by at least 1/8."""
    return rng.integers(-8, 9, size=size) / 4.0 + offset


def _assert_vjps_match_central_differences(fn, inputs, rng, h=1e-6):
    """Each input's gradient of ``sum(fn(*inputs) * upstream)`` from
    ``backward`` against central differences of the same sum."""
    t = tp.Tape()
    out = fn(*(t.parameter(f"x{i}", x) for i, x in enumerate(inputs)))
    upstream = rng.normal(size=out.data.shape)
    grads = tp.backward(t, tp.vsum(out * upstream))

    def loss(values):
        return float(np.sum(fn(*(tp._lift(v) for v in values)).data * upstream))

    for i, x in enumerate(inputs):
        numeric = np.empty(x.shape)
        for j in np.ndindex(x.shape):
            bumped = [v.copy() for v in inputs]
            bumped[i][j] = x[j] + h
            up = loss(bumped)
            bumped[i][j] = x[j] - h
            numeric[j] = (up - loss(bumped)) / (2.0 * h)
        got = grads[f"x{i}"]
        assert got.shape == x.shape
        scale = 1.0 + np.abs(numeric).max(initial=0.0)
        np.testing.assert_allclose(got, numeric, rtol=1e-6, atol=1e-6 * scale)


# each op with draws that keep clear of its kinks and domain edges
_BINARY_OPS = {
    "add": (tp.add, _normal, _normal),
    "sub": (tp.sub, _normal, _normal),
    "mul": (tp.mul, _normal, _normal),
    "div": (tp.div, _normal, lambda rng, size: _signed(rng, size, 0.5, 2.0)),
    "maximum": (tp.maximum, _quarters, lambda rng, size: _quarters(rng, size, 0.125)),
    "minimum": (tp.minimum, _quarters, lambda rng, size: _quarters(rng, size, 0.125)),
}

_UNARY_OPS = {
    "exp": (tp.exp, lambda rng, size: rng.uniform(-2.0, 2.0, size)),
    "log": (tp.log, lambda rng, size: rng.uniform(0.5, 3.0, size)),
    "log1p": (tp.log1p, lambda rng, size: rng.uniform(-0.5, 3.0, size)),
    "sqrt": (tp.sqrt, lambda rng, size: rng.uniform(0.5, 3.0, size)),
    "sigmoid": (tp.sigmoid, lambda rng, size: rng.uniform(-6.0, 6.0, size)),
    "absolute": (tp.absolute, lambda rng, size: _signed(rng, size, 0.1, 2.0)),
    # both branches, clear of the switch at 30
    "softplus": (tp.softplus, lambda rng, size: np.where(
        rng.random(size) < 0.75, rng.uniform(-6.0, 6.0, size),
        rng.uniform(31.0, 40.0, size))),
    "reshape": (lambda a: tp.reshape(a, (-1,)), _normal),
}

_SHAPES = npst.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3)


@pytest.mark.parametrize("name", sorted(_BINARY_OPS))
@settings(max_examples=25, deadline=None)
@given(shapes=npst.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
       seed=st.integers(0, 2**32 - 1))
def test_binary_op_vjps_match_central_differences(name, shapes, seed):
    op, draw_a, draw_b = _BINARY_OPS[name]
    rng = np.random.default_rng(seed)
    a_shape, b_shape = shapes.input_shapes
    inputs = [np.asarray(draw_a(rng, size=a_shape), dtype=np.float64),
              np.asarray(draw_b(rng, size=b_shape), dtype=np.float64)]
    _assert_vjps_match_central_differences(op, inputs, rng)


@settings(max_examples=25, deadline=None)
@given(shapes=npst.mutually_broadcastable_shapes(num_shapes=3, max_dims=3, max_side=3),
       seed=st.integers(0, 2**32 - 1))
def test_where_vjps_match_central_differences(shapes, seed):
    rng = np.random.default_rng(seed)
    mask_shape, a_shape, b_shape = shapes.input_shapes
    mask = rng.random(mask_shape) < 0.5
    inputs = [rng.normal(size=a_shape), rng.normal(size=b_shape)]
    _assert_vjps_match_central_differences(
        lambda a, b: tp.where(mask, a, b), inputs, rng)


@pytest.mark.parametrize("name", sorted(_UNARY_OPS))
@settings(max_examples=25, deadline=None)
@given(shape=_SHAPES, seed=st.integers(0, 2**32 - 1))
def test_unary_op_vjps_match_central_differences(name, shape, seed):
    op, draw = _UNARY_OPS[name]
    rng = np.random.default_rng(seed)
    inputs = [np.asarray(draw(rng, size=shape), dtype=np.float64)]
    _assert_vjps_match_central_differences(op, inputs, rng)


@settings(max_examples=25, deadline=None)
@given(shape=_SHAPES, p=st.sampled_from([-1.5, -1.0, 0.5, 2.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_power_vjp_matches_central_differences(shape, p, seed):
    rng = np.random.default_rng(seed)
    inputs = [rng.uniform(0.5, 2.0, size=shape)]
    _assert_vjps_match_central_differences(lambda a: tp.power(a, p), inputs, rng)


@settings(max_examples=25, deadline=None)
@given(shape=npst.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
       seed=st.integers(0, 2**32 - 1))
def test_exclusive_cumprod_last_vjp_matches_central_differences(shape, seed):
    rng = np.random.default_rng(seed)
    inputs = [rng.uniform(-2.0, 2.0, size=shape)]
    _assert_vjps_match_central_differences(tp.exclusive_cumprod_last, inputs, rng)


@settings(max_examples=25, deadline=None)
@given(shape=npst.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_vsum_vjp_matches_central_differences(shape, data, seed):
    axis = data.draw(st.one_of(st.none(), st.integers(-len(shape), len(shape) - 1)))
    rng = np.random.default_rng(seed)
    _assert_vjps_match_central_differences(
        lambda a: tp.vsum(a, axis=axis), [rng.normal(size=shape)], rng)


@pytest.mark.parametrize("key", [
    (slice(1, None), Ellipsis),                  # slice
    (Ellipsis, 0),                               # scalar index
    np.array([[True, False, True], [False, True, True], [True, True, False],
              [False, False, True]]),            # boolean mask
])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_index_vjp_matches_central_differences(key, seed):
    rng = np.random.default_rng(seed)
    _assert_vjps_match_central_differences(
        lambda a: tp.index(a, key), [rng.normal(size=(4, 3))], rng)


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       ndim=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_concat_vjp_matches_central_differences(sizes, ndim, data, seed):
    axis = data.draw(st.integers(-ndim, ndim - 1))
    rng = np.random.default_rng(seed)
    base = list(rng.integers(1, 4, size=ndim))
    shapes = [tuple(base[:axis % ndim] + [n] + base[axis % ndim + 1:]) for n in sizes]
    _assert_vjps_match_central_differences(
        lambda *vs: tp.concat(list(vs), axis=axis),
        [rng.normal(size=sh) for sh in shapes], rng)


@pytest.mark.parametrize("subscripts,a_shape,b_shape", [
    ("ij,jk->ik", (3, 4), (4, 2)),     # matrix product
    ("rsc,uc->rsu", (2, 3, 3), (4, 3)),  # the irradiance cosines
    ("ij,j->i", (3, 2), (2,)),         # matrix-vector
    ("ij,ij->i", (3, 2), (3, 2)),      # row-wise dot
    ("i,j->ij", (3,), (2,)),           # outer product
])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_einsum2_vjps_match_central_differences(subscripts, a_shape, b_shape, seed):
    rng = np.random.default_rng(seed)
    _assert_vjps_match_central_differences(
        lambda a, b: tp.einsum2(subscripts, a, b),
        [rng.normal(size=a_shape), rng.normal(size=b_shape)], rng)


@settings(max_examples=25, deadline=None)
@given(shape=npst.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3),
       seed=st.integers(0, 2**32 - 1))
def test_norm_last_vjp_matches_central_differences(shape, seed):
    rng = np.random.default_rng(seed)
    # rows clear of the zero vector, where the norm has its kink
    a = rng.normal(size=shape)
    a[..., :1] = _signed(rng, shape[:-1] + (1,), 0.5, 2.0)
    _assert_vjps_match_central_differences(tp.norm_last, [a], rng)


# -- fused irradiance quadrature -----------------------------------------


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _lambert_composition(normals, dirs, radiance, ray):
    """The generic-op reference: einsum, clamp, gather, einsum."""
    cos = tp.maximum(tp.einsum2("nc,uc->nu", normals, dirs), 0.0)
    return tp.einsum2("nu,nuc->nc", cos, tp.take_rows(radiance, ray))


def _value_and_grads(op, normals, dirs, radiance, ray, upstream, on_tape=("n", "r")):
    """The op's value and the gradients of the inputs named in ``on_tape``;
    the other input is bound as a constant."""
    t = tp.Tape()
    n = t.parameter("n", normals) if "n" in on_tape else tp._lift(normals)
    r = t.parameter("r", radiance) if "r" in on_tape else tp._lift(radiance)
    out = op(n, dirs, r, ray)
    grads = tp.backward(t, tp.vsum(out * upstream))
    return (out.data,) + tuple(grads[k] for k in on_tape)


def _lambert_case(rng, counts, n_dirs, channels=3):
    """Rows for rays with the given row counts, sorted by ray."""
    ray = np.repeat(np.arange(len(counts)), counts)
    normals = _unit(rng.normal(size=(ray.size, 3)))
    dirs = _unit(rng.normal(size=(n_dirs, 3)))
    radiance = rng.random((len(counts), n_dirs, channels))
    upstream = rng.normal(size=(ray.size, channels))
    return normals, dirs, radiance, ray, upstream


def _assert_matches_composition(rng, counts, n_dirs, channels=3,
                                on_tape=("n", "r")):
    case = _lambert_case(rng, counts, n_dirs, channels)
    fused = _value_and_grads(tp.lambert_quadrature, *case, on_tape=on_tape)
    ref = _value_and_grads(_lambert_composition, *case, on_tape=on_tape)
    for got, want in zip(fused, ref):
        assert got.shape == want.shape
        scale = max(np.abs(want).max(initial=0.0), 1e-300)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    return case, fused


def _dense_value(normals, dirs, radiance):
    """The quadrature of S rows per ray as one unblocked (R, S, U) matmul."""
    n_rays = radiance.shape[0]
    cos = np.maximum(normals @ dirs.T, 0.0).reshape(n_rays, -1, dirs.shape[0])
    return (cos @ radiance).reshape(normals.shape[0], -1)


def test_lambert_quadrature_gradient_check_with_perpendicular_direction():
    rng = np.random.default_rng(4)
    dirs = _unit(rng.normal(size=(5, 3)))
    dirs[0] = [1.0, 0.0, 0.0]
    # row 0 lies exactly on the kink of direction 0; it stays a constant
    # here because a central difference across a kink reads half the slope,
    # not the subgradient
    tie = np.array([[0.0, 0.6, 0.8]])
    free = _unit(rng.normal(size=(3, 3)))
    cos = np.concatenate([tie, free]) @ dirs.T
    assert cos[0, 0] == 0.0
    assert np.abs(cos[1:]).min() > 1e-2  # free rows keep clear of kinks
    radiance = rng.random((3, 5, 2))
    ray = np.array([0, 0, 2, 2])  # ray 1 has no rows
    upstream = rng.normal(size=(4, 2))

    def loss(t, pv):
        normals = tp.concat([tie, pv["n"]], axis=0)
        return tp.vsum(tp.lambert_quadrature(normals, dirs, pv["r"], ray) * upstream)

    err = tp.gradient_check(loss, {"n": free, "r": radiance})
    assert err < 1e-6


def test_lambert_quadrature_tie_gives_zero_normal_gradient():
    # direction 0 is exactly perpendicular to the normal and the others are
    # below its horizon, so every cosine is clamped and the subgradient is 0
    normals = np.array([[0.0, 0.0, 1.0]])
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.0, -1.0]])
    radiance = np.full((1, 3, 3), 2.0)
    ray = np.zeros(1, dtype=np.int64)
    upstream = np.ones((1, 3))
    value, g_n, g_r = _value_and_grads(
        tp.lambert_quadrature, normals, dirs, radiance, ray, upstream)
    assert np.all(value == 0.0)
    assert np.all(g_n == 0.0)
    assert np.all(g_r == 0.0)
    ref = _value_and_grads(_lambert_composition, normals, dirs, radiance, ray,
                           upstream)
    assert np.array_equal(g_n, ref[1])


def test_lambert_quadrature_matches_composition_at_default_size():
    # 128 rays x 48 rows x one hemisphere of the 642-direction set, in
    # blocks of LAMBERT_BLOCK // (48 * 321) = 4 rays: with every ray's rows
    # present nothing is padded, and the value is the unblocked matmul's
    (normals, dirs, radiance, _, _), (value, _, _) = _assert_matches_composition(
        np.random.default_rng(5), [48] * 128, 321)
    assert value.tobytes() == _dense_value(normals, dirs, radiance).tobytes()


@settings(max_examples=80, deadline=None)
@given(counts=st.lists(st.integers(0, 7), min_size=1, max_size=12),
       uniform=st.booleans(), n_dirs=st.integers(1, 20),
       channels=st.integers(1, 3), block=st.floats(0.0, 1.2),
       on_tape=st.sampled_from([("n", "r"), ("r",), ("n",)]),
       seed=st.integers(0, 2**32 - 1))
@example(counts=[1], uniform=True, n_dirs=1, channels=1, block=0.0,
         on_tape=("n", "r"), seed=0)
@example(counts=[5], uniform=True, n_dirs=1, channels=3, block=0.0,
         on_tape=("n", "r"), seed=1)
@example(counts=[4] * 11, uniform=True, n_dirs=9, channels=3, block=0.3,
         on_tape=("n", "r"), seed=2)  # blocks of 3, 3, 3, 2 rays
@example(counts=[3, 0, 5, 1, 0, 0, 2, 3, 1, 4], uniform=False, n_dirs=7,
         channels=2, block=0.4, on_tape=("r",), seed=3)  # the holdout fit's
@example(counts=[3, 0, 5, 1, 0, 0, 2, 3, 1, 4], uniform=False, n_dirs=7,
         channels=2, block=0.4, on_tape=("n",), seed=4)
@example(counts=[0, 0, 0], uniform=False, n_dirs=5, channels=3, block=1.0,
         on_tape=("n", "r"), seed=5)  # no rows at all
def test_lambert_quadrature_matches_composition_property(
        counts, uniform, n_dirs, channels, block, on_tape, seed):
    # ``block`` is LAMBERT_BLOCK as a share of all rays padded to the
    # largest count, so blocks run from one ray to every ray; rays with no
    # rows sit inside blocks, at their ends and alone
    if uniform:
        counts = [counts[0]] * len(counts)
    block_size = int(block * len(counts) * max(counts) * n_dirs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tp, "LAMBERT_BLOCK", block_size)
        (normals, dirs, radiance, ray, _), (value, *_) = _assert_matches_composition(
            np.random.default_rng(seed), counts, n_dirs, channels, on_tape)
    if uniform and counts[0] > 1:
        # every ray has S rows, the dense layout, so nothing is padded and
        # blocking changes no bit; numpy multiplies a one-row matrix with
        # gemv, which rounds apart from gemm
        assert value.tobytes() == _dense_value(normals, dirs, radiance).tobytes()
    else:
        # padding changes the matmuls' shapes and so, in the last bits, how
        # BLAS rounds them. Any evaluation order stays within the textbook
        # rounding bounds (Higham, Accuracy and Stability of Numerical
        # Algorithms, eq. 3.5) of the 3-term cosines of unit vectors,
        # 1.5 eps each, and of the n_dirs-term sums of non-negative
        # products, n_dirs * eps / 2 relative; two evaluations differ by at
        # most twice that
        rad = radiance[ray]
        ref = np.einsum("nu,nuc->nc", np.maximum(normals @ dirs.T, 0.0), rad)
        bound = np.finfo(float).eps * (n_dirs * ref + 3.0 * rad.sum(axis=1))
        assert np.all(np.abs(value - ref) <= 1.001 * bound)


@settings(max_examples=40, deadline=None)
@given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=6),
       channels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(counts=[0, 0], channels=2, seed=0)
def test_sum_by_ray_vjp_matches_central_differences(counts, channels, seed):
    rng = np.random.default_rng(seed)
    ray = np.repeat(np.arange(len(counts)), counts)
    a = rng.normal(size=(ray.size, channels))
    _assert_vjps_match_central_differences(
        lambda x: tp.sum_by_ray(x, ray, len(counts)), [a], rng)
    # the rows in the dense (rays, samples) layout, zeros in the free
    # slots: each ray adds its rows in order, as vsum along the samples does
    dense = np.zeros((len(counts), max(counts), channels))
    dense[ray, np.arange(ray.size) - np.repeat(np.cumsum(counts) - counts, counts)] = a
    got = tp.sum_by_ray(tp._lift(a), ray, len(counts)).data
    assert got.dtype == np.float64 and got.shape == (len(counts), channels)
    assert got.tobytes() == tp.vsum(tp._lift(dense), axis=1).data.tobytes()


def _reachable_arrays(x, found):
    """Every array reachable from ``x`` through Vars, lists, tuples and the
    closure cells of functions, nested functions included."""
    if isinstance(x, tp.Var):
        x = x.data
    if isinstance(x, np.ndarray):
        found.append(x)
    elif isinstance(x, (list, tuple)):
        for item in x:
            _reachable_arrays(item, found)
    elif callable(x):
        for cell in getattr(x, "__closure__", None) or ():
            _reachable_arrays(cell.cell_contents, found)
    return found


def test_lambert_quadrature_saves_no_cosines(monkeypatch):
    monkeypatch.setattr(tp, "LAMBERT_BLOCK", 2 * 5 * 11)  # 2 full rays per block
    counts, n_dirs = [5, 3, 0, 5, 4, 5, 2], 11
    normals, dirs, radiance, ray, _ = _lambert_case(
        np.random.default_rng(6), counts, n_dirs)
    t = tp.Tape()
    out = tp.lambert_quadrature(t.parameter("n", normals), dirs,
                                t.parameter("r", radiance), ray)
    assert [p.op for p, _ in out.parents] == ["param:n", "param:r"]
    for _, vjp in out.parents:
        arrays = _reachable_arrays(vjp, [])
        assert arrays  # the walk reaches the inputs it needs
        assert max(a.size for a in arrays) < ray.size * n_dirs


@pytest.mark.parametrize("on_tape", [("n", "r"), ("n",), ("r",)])
@pytest.mark.parametrize("block", [2 * 5 * 11, None])
def test_lambert_quadrature_backward_is_the_two_pass_vjps_bit_for_bit(
        monkeypatch, on_tape, block):
    # ("r",) is the holdout fit's case. Under a small LAMBERT_BLOCK the rays
    # fall into several blocks of at most two, with rays of no rows inside
    # and at the end; at the default size, one hemisphere of the train
    # step's 128 rays of up to 48 shaded samples
    rng = np.random.default_rng(8)
    if block is None:
        counts, n_dirs = rng.integers(0, 49, size=128).tolist(), 321
        counts[5] = 0
    else:
        monkeypatch.setattr(tp, "LAMBERT_BLOCK", block)
        counts, n_dirs = [5, 3, 0, 5, 4, 0, 5, 2, 0], 11
    normals, dirs, radiance, ray, upstream = _lambert_case(rng, counts, n_dirs)
    # a cosine of exactly 0: it passes its normal no gradient
    normals[0], dirs[0] = [0.0, 0.6, 0.8], [1.0, 0.0, 0.0]
    assert normals[0] @ dirs[0] == 0.0
    got = _value_and_grads(tp.lambert_quadrature, normals, dirs, radiance, ray,
                           upstream, on_tape)
    want = _value_and_grads(reference_lambert_quadrature, normals, dirs, radiance,
                            ray, upstream, on_tape)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_lambert_quadrature_with_no_rows_is_the_two_pass_vjps():
    case = _lambert_case(np.random.default_rng(9), [0, 0, 0], 5)
    got = _value_and_grads(tp.lambert_quadrature, *case)
    want = _value_and_grads(reference_lambert_quadrature, *case)
    assert got[0].shape == (0, 3) and not got[1].size and not got[2].any()
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_lambert_quadrature_keeps_no_adjoint_after_backward(monkeypatch):
    # the joint pass hands the radiance's adjoint on within one backward;
    # after it the closures reach the same arrays as before, and a second
    # backward of the same graph gives the same bits
    monkeypatch.setattr(tp, "LAMBERT_BLOCK", 2 * 5 * 11)
    normals, dirs, radiance, ray, upstream = _lambert_case(
        np.random.default_rng(10), [5, 3, 0, 5, 4], 11)
    t = tp.Tape()
    out = tp.lambert_quadrature(t.parameter("n", normals), dirs,
                                t.parameter("r", radiance), ray)
    loss = tp.vsum(out * upstream)
    vjps = [vjp for _, vjp in out.parents]
    before = sorted(id(a) for a in _reachable_arrays(vjps, []))
    first = tp.backward(t, loss)
    assert sorted(id(a) for a in _reachable_arrays(vjps, [])) == before
    second = tp.backward(t, loss)
    assert all(first[k].tobytes() == second[k].tobytes() for k in ("n", "r"))


def test_soft_visibility_keeps_no_corner_weights():
    # the train step's visibility query: 128 rays against 321 directions, a
    # trainable DDF and a differentiable termination point
    from skylit import visibility as vz
    from skylit.geometry import icosphere_directions

    rng = np.random.default_rng(7)
    dirs = icosphere_directions(3).directions
    d = dirs[dirs[:, 2] >= 0.0][None, :321]
    t = tp.Tape()
    bound = vz.BoundDdf(t, vz.DdfField(rng.normal(size=(8, 16, 6, 12))),
                        vz.VisibilityParams.default())
    x = t.parameter("x", rng.uniform(-0.5, 0.5, size=(128, 1, 3)))
    before = len(t.nodes)
    v = vz.soft_visibility(bound, x, d)
    nodes = t.nodes[before:]
    assert v.data.shape == (128, 321) and len(nodes) <= 5
    n_corner = 16 * v.data.size
    for node in nodes:
        arrays = _reachable_arrays([node.data] + [vjp for _, vjp in node.parents], [])
        assert all(a.size < n_corner for a in arrays if a.dtype.kind == "f"), node.op


# -- scatter VJPs against np.add.at ---------------------------------------


def _scatter_grad(op, shape, rng):
    """The VJP of ``op`` for a random upstream gradient, and that gradient."""
    t = tp.Tape()
    a = t.parameter("a", rng.normal(size=shape))
    out = op(a)
    upstream = rng.normal(size=out.data.shape)
    return tp.backward(t, tp.vsum(out * upstream))["a"], upstream


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_take_vjp_equals_add_at_bitwise():
    # a flat gather: take_rows of a 1-D reshape, its scatter passed through
    rng = np.random.default_rng(6)
    idx = rng.integers(0, 30, size=(8, 50))  # heavy repeats
    got, g = _scatter_grad(lambda a: tp.take_rows(tp.reshape(a, (-1,)), idx), (5, 6), rng)
    ref = np.zeros(30)
    np.add.at(ref, idx.reshape(-1), g.reshape(-1))
    assert _same_bits(got, ref.reshape(5, 6))


def test_take_rows_vjp_equals_add_at_bitwise():
    rng = np.random.default_rng(7)
    idx = rng.integers(0, 4, size=(3, 17))  # 2-D row index with repeats
    got, g = _scatter_grad(lambda a: tp.take_rows(a, idx), (4, 5, 3), rng)
    ref = np.zeros((4, 5, 3))
    np.add.at(ref, idx, g)
    assert _same_bits(got, ref)


@pytest.mark.parametrize("key", [
    (slice(1, 4), slice(None, None, 2)),
    (Ellipsis, 1),
    2,
    np.array([True, False, True, True, False]),
])
def test_index_vjp_equals_add_at_bitwise(key):
    rng = np.random.default_rng(8)
    got, g = _scatter_grad(lambda a: tp.index(a, key), (5, 4), rng)
    ref = np.zeros((5, 4))
    np.add.at(ref, key, g)
    assert _same_bits(got, ref)


@pytest.mark.parametrize("key", [
    (np.array([2, 0, 2, 2, 1]), slice(None)),   # repeated rows
    (np.array([0, 3, 3, 1, 0]), slice(2, None)),
    (Ellipsis, np.array([1, 2])),
    np.array([[1, 0], [3, 3]], dtype=np.uint8),
])
def test_index_rejects_integer_array_keys(key):
    # take_rows is the one integer gather
    t = tp.Tape()
    a = t.parameter("a", np.zeros((5, 4)))
    with pytest.raises(tp.TapeError, match="take_rows"):
        tp.index(a, key)
    assert len(t.nodes) == 1


def _dyadic(rng, shape):
    """Multiples of 1/8 in [-8, 8]: every partial sum of a few hundred of
    them is exact, so any summation order gives the same bits."""
    return rng.integers(-64, 65, size=shape) / 8.0


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
       kinds=st.lists(st.sampled_from(["flat", "take_rows", "rows_of_reshape",
                                       "flat_of_reshape"]), min_size=2, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(1, 1, 1), kinds=["flat", "take_rows"], seed=0)
@example(shape=(2, 3, 2), kinds=["rows_of_reshape", "flat", "rows_of_reshape"], seed=1)
def test_gathers_on_one_parameter_merge_into_one_scatter(shape, kinds, seed):
    # several gathers of one parameter, some through reshapes shared by more
    # than one gather ("flat" gathers rows of a 1-D reshape of the
    # parameter, "flat_of_reshape" of a 1-D reshape of a 2-D reshape), with
    # overlapping indices, plus two dense uses:
    # backward merges the gathers' adjoints into one densify per Var and
    # adds the dense terms
    rng = np.random.default_rng(seed)
    n0, n1, c = shape
    t = tp.Tape()
    a = t.parameter("a", rng.normal(size=shape))
    rows = tp.reshape(a, (n0 * n1, c))
    flat = tp.reshape(a, (-1,))
    flat2 = tp.reshape(tp.reshape(a, (n0, n1 * c)), (-1,))
    dense = [_dyadic(rng, shape), _dyadic(rng, shape)]
    loss = tp.vsum(a * dense[0])
    refs = list(dense)
    for kind in kinds:
        qshape = tuple(rng.integers(1, 6, size=rng.integers(1, 3)))
        ref = np.zeros(shape)
        if kind in ("flat", "flat_of_reshape"):
            idx = rng.integers(0, a.data.size, size=qshape)
            out = tp.take_rows(flat if kind == "flat" else flat2, idx)
            target, key = ref.reshape(-1), idx.reshape(-1)
        elif kind == "take_rows":
            idx = rng.integers(0, n0, size=qshape)
            out = tp.take_rows(a, idx)
            target, key = ref, idx
        else:
            idx = rng.integers(0, n0 * n1, size=qshape)
            out = tp.take_rows(rows, idx)
            target, key = ref.reshape(n0 * n1, c), idx
        upstream = _dyadic(rng, out.data.shape)
        np.add.at(target, key, upstream.reshape(key.shape + target.shape[1:]))
        refs.append(ref)
        loss = loss + tp.vsum(out * upstream)
    loss = loss + tp.vsum(a * dense[1])
    got = tp.backward(t, loss)["a"]
    want = np.sum(refs, axis=0)
    # exact inputs make the bound 1e-15 * max|g| an equality; with general
    # floats a reordered sum with cancellation moves by a few ulps of max|g|
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    assert np.array_equal(got, want)


_SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324])


@settings(max_examples=80, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 4)),
       pieces=st.lists(st.tuples(st.integers(0, 40), st.sampled_from([np.int32, np.intp]),
                                 st.booleans(), st.booleans()), min_size=1, max_size=5),
       dense=st.booleans(), special=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(shape=(1, 1), pieces=[(0, np.intp, False, False)], dense=False, special=False,
         seed=0)
@example(shape=(2, 3), pieces=[(7, np.int32, False, False), (0, np.intp, True, False),
                               (9, np.intp, True, True)], dense=True, special=True, seed=3)
def test_to_dense_matches_the_bincount_reference(shape, pieces, dense, special, seed):
    # pieces of int32 or intp indices that repeat within and across pieces,
    # empty pieces, some built on the transposed shape and merged through
    # ``reshape``, values with -0.0, NaN, +-inf and denormals, and an
    # optional dense term: the in-place adds and one bincount over the
    # concatenation must agree byte for byte
    rng = np.random.default_rng(seed)
    size = shape[0] * shape[1]
    out = tp._Scatter(shape, [np.zeros(0, dtype=np.intp)], [np.zeros(0)])
    for n, dtype, reshaped, strided in pieces:
        idx = rng.integers(0, min(size, 3) if n > 4 else size, size=2 * n).astype(dtype)
        vals = rng.normal(size=2 * n) * 10.0 ** rng.integers(-3, 4, size=2 * n)
        if special and n:
            vals[rng.integers(0, 2 * n, size=3)] = rng.choice(_SPECIAL, size=3)
        if strided:  # views, as the gathers' flattened adjoints can be
            idx, vals = idx[::2], vals[::2]
        else:
            idx, vals = idx[:n], vals[:n]
        piece = (tp._Scatter(shape[::-1], [idx], [vals]).reshape(shape) if reshaped
                 else tp._Scatter(shape, [idx], [vals]))
        out = out.merge(piece)
    if dense:
        out = out.merge(rng.normal(size=shape))
    got, want = out.to_dense(), reference_to_dense(out)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_to_dense_overflows_silently_as_bincount_does():
    # a RuntimeWarning is an error under the suite's filter; a sum that
    # overflows, or meets inf - inf, is left for Adam's finiteness check
    scatter = tp._Scatter((2,), [np.array([0, 0, 1, 1])],
                          [np.array([1e308, 1e308, np.inf, -np.inf])])
    got = scatter.to_dense()
    assert got.tobytes() == reference_to_dense(scatter).tobytes()
    assert got[0] == np.inf and np.isnan(got[1])


def test_backward_densifies_as_the_bincount_reference(tiny_dataset, two_sphere_scene,
                                                      monkeypatch):
    # every scatter that real train and fit steps densify, checked against
    # the reference as it is densified
    from skylit import train as tr
    from tests.conftest import tiny_train_config

    densify, checked = tp._Scatter.to_dense, []

    def checked_to_dense(scatter):
        got = densify(scatter)
        assert got.tobytes() == reference_to_dense(scatter).tobytes()
        checked.append(sum(i.size for i in scatter.index))
        return got

    monkeypatch.setattr(tp._Scatter, "to_dense", checked_to_dense)
    trainer = tr.Trainer(tiny_dataset[1], tiny_train_config(steps=4))
    for _ in range(3):
        trainer.train_step()
    tr.fit_ddf_to_scene(two_sphere_scene, steps=2, warmup=0, n_positions=4,
                        n_directions=16, multiview_pairs=8)
    assert len(checked) >= 10 and max(checked) > 1000


def test_to_dense_allocates_only_its_output():
    # 4 x 150k entries, int32 and intp, into 100k slots: the in-place adds
    # allocate the output and at most a ufunc buffer, where one bincount
    # over the concatenation copied every index and value first (9.6 MB)
    rng = np.random.default_rng(4)
    n_slots, n = 100_000, 150_000
    index = [rng.integers(0, n_slots, size=n).astype(dt)
             for dt in (np.int32, np.intp, np.int32, np.intp)]
    values = [rng.normal(size=n) for _ in index]
    scatter = tp._Scatter((n_slots,), index, values, dense=rng.normal(size=n_slots))
    out, peak = traced_peak(scatter.to_dense)
    assert out.tobytes() == reference_to_dense(scatter).tobytes()
    assert peak <= out.nbytes + 2**17, peak


@pytest.mark.parametrize("gather", ["take_rows", "multilinear"])
def test_empty_gather_densifies_to_float(gather):
    # a scatter of no indices densifies to float64 zeros, also when a dense
    # term joins it
    from skylit import fields as fd

    rng = np.random.default_rng(10)
    t = tp.Tape()
    a = t.parameter("a", rng.normal(size=(3, 4, 2)))
    if gather == "take_rows":
        out = tp.take_rows(a, np.zeros(0, dtype=np.int64))
    else:
        out = fd.multilinear(a, [np.zeros(0)] * 3, fd.CLAMPED_3D)
    assert out.data.size == 0
    grads = tp.backward(t, tp.vsum(out) + tp.vsum(a * a))
    assert grads["a"].dtype == np.float64
    assert np.array_equal(grads["a"], 2.0 * a.data)
    alone = tp.Tape()
    b = alone.parameter("b", a.data)
    g = tp.backward(alone, tp.vsum(tp.take_rows(b, np.zeros(0, dtype=np.int64))))
    assert g["b"].dtype == np.float64 and np.all(g["b"] == 0.0)


def test_take_rows_of_an_empty_list_gathers_no_rows():
    # np.asarray([]) is float64, which np.take rejects as an index
    t = tp.Tape()
    a = t.parameter("a", np.arange(6.0).reshape(3, 2))
    out = tp.take_rows(a, [])
    assert out.data.shape == (0, 2)
    g = tp.backward(t, tp.vsum(out))["a"]
    assert g.dtype == np.float64 and np.array_equal(g, np.zeros((3, 2)))
    # a non-empty float index is still refused, not truncated
    with pytest.raises(TypeError):
        tp.take_rows(a, [0.5])


def test_stack_on_any_axis_routes_each_slice_back():
    rng = np.random.default_rng(9)
    w0 = rng.normal(size=(2, 3, 4))
    w1 = rng.normal(size=(3, 4, 2))

    def loss(t, pv):
        s0 = tp.stack([pv["a"], pv["b"] * 2.0], axis=0)
        s1 = tp.stack([pv["a"], pv["b"]], axis=-1)
        return tp.vsum(s0 * s0 * w0) + tp.vsum(s1 * w1)

    err = tp.gradient_check(loss, {"a": rng.normal(size=(3, 4)),
                                   "b": rng.normal(size=(3, 4))})
    assert err < 1e-6


def test_clip01_straight_through_clamps_values_and_passes_gradients():
    rng = np.random.default_rng(10)
    a = rng.uniform(-1.0, 2.0, size=(4, 5))
    upstream = rng.normal(size=a.shape)
    t = tp.Tape()
    out = tp.clip01_straight_through(t.parameter("a", a))
    assert np.array_equal(out.data, np.clip(a, 0.0, 1.0))
    assert np.array_equal(tp.backward(t, tp.vsum(out * upstream))["a"], upstream)


# -- every op has a gradient test ----------------------------------------

# each op that src/skylit records with ``_node``, and the test that checks
# its VJP: against central differences, a gather bitwise against np.add.at,
# clip01_st as straight-through
_OP_GRADIENT_TESTS = {
    "add": "test_binary_op_vjps_match_central_differences",
    "sub": "test_binary_op_vjps_match_central_differences",
    "mul": "test_binary_op_vjps_match_central_differences",
    "div": "test_binary_op_vjps_match_central_differences",
    "max": "test_binary_op_vjps_match_central_differences",
    "min": "test_binary_op_vjps_match_central_differences",
    "pow": "test_power_vjp_matches_central_differences",
    "exp": "test_unary_op_vjps_match_central_differences",
    "log": "test_unary_op_vjps_match_central_differences",
    "log1p": "test_unary_op_vjps_match_central_differences",
    "sqrt": "test_unary_op_vjps_match_central_differences",
    "sigmoid": "test_unary_op_vjps_match_central_differences",
    "abs": "test_unary_op_vjps_match_central_differences",
    "reshape": "test_unary_op_vjps_match_central_differences",
    "clip01_st": "test_clip01_straight_through_clamps_values_and_passes_gradients",
    "where": "test_where_vjps_match_central_differences",
    "sum": "test_vsum_vjp_matches_central_differences",
    "take_rows": "test_take_rows_vjp_equals_add_at_bitwise",
    "index": "test_index_vjp_matches_central_differences",
    "stack": "test_stack_on_any_axis_routes_each_slice_back",
    "concat": "test_concat_vjp_matches_central_differences",
    "einsum": "test_einsum2_vjps_match_central_differences",
    "lambert": "test_lambert_quadrature_gradient_check_with_perpendicular_direction",
    "sum_by_ray": "test_sum_by_ray_vjp_matches_central_differences",
    "excumprod": "test_exclusive_cumprod_last_vjp_matches_central_differences",
    "multilinear": "test_multilinear_vjps_match_central_differences",
    "ddf_depth": "test_ddf_eval_vjps_match_central_differences",
    "soft_visibility": "test_soft_visibility_node_vjps_match_central_differences",
}


def test_every_tape_op_has_a_gradient_test():
    # the op names are read from the source, so a new op without an entry,
    # or an entry whose op or test is gone, fails here
    tests = Path(__file__).resolve().parent
    ops = set()
    for path in (tests.parent / "src" / "skylit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == "_node":
                assert isinstance(node.args[0], ast.Constant), f"{path.name}:{node.lineno}"
                ops.add(node.args[0].value)
    assert ops == set(_OP_GRADIENT_TESTS)
    defined = {f.name for path in tests.glob("test_*.py")
               for f in ast.parse(path.read_text()).body if isinstance(f, ast.FunctionDef)}
    assert set(_OP_GRADIENT_TESTS.values()) <= defined
