import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skylit import tape as tp


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
        tp.backward(t, tp._lift(np.ones(3), None))
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


def test_stop_gradient_forward_identity_backward_zero():
    t = tp.Tape()
    x = t.parameter("x", 4.0)
    y = tp.stop_gradient(x)
    assert y.data == x.data
    # d/dx [sg(x) * x] = x, not 2x
    g = tp.backward(t, y * x)
    assert g["x"] == pytest.approx(4.0)


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
        out = tp.vsum(tp.exp(x) * tp.stop_gradient(x))
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
        g = tp.take(pv["grid"], idx)
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


# -- fused irradiance quadrature -----------------------------------------


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _lambert_composition(normals, dirs, radiance):
    """The generic-op reference: einsum, clamp, einsum."""
    cos = tp.maximum(tp.einsum2("rsc,uc->rsu", normals, dirs), 0.0)
    return tp.einsum2("rsu,ruc->rsc", cos, radiance)


def _value_and_grads(op, normals, dirs, radiance, upstream):
    t = tp.Tape()
    n = t.parameter("n", normals)
    r = t.parameter("r", radiance)
    out = op(n, dirs, r)
    grads = tp.backward(t, tp.vsum(out * upstream))
    return out.data, grads["n"], grads["r"]


def _assert_matches_composition(rng, n_rays, n_samples, n_dirs, channels=3):
    normals = _unit(rng.normal(size=(n_rays, n_samples, 3)))
    dirs = _unit(rng.normal(size=(n_dirs, 3)))
    radiance = rng.random((n_rays, n_dirs, channels))
    upstream = rng.normal(size=(n_rays, n_samples, channels))
    fused = _value_and_grads(tp.lambert_quadrature, normals, dirs, radiance, upstream)
    ref = _value_and_grads(_lambert_composition, normals, dirs, radiance, upstream)
    for got, want in zip(fused, ref):
        assert got.shape == want.shape
        scale = max(np.abs(want).max(), 1e-300)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def test_lambert_quadrature_gradient_check_with_perpendicular_direction():
    rng = np.random.default_rng(4)
    dirs = _unit(rng.normal(size=(5, 3)))
    dirs[0] = [1.0, 0.0, 0.0]
    # sample (0, 0) lies exactly on the kink of direction 0; it stays a
    # constant here because a central difference across a kink reads half
    # the slope, not the subgradient
    tie = np.array([[[0.0, 0.6, 0.8]]])
    free = _unit(rng.normal(size=(2, 1, 3)))
    cos = np.concatenate([tie, free]) @ dirs.T
    assert cos[0, 0, 0] == 0.0
    assert np.abs(cos[1:]).min() > 1e-2  # free samples keep clear of kinks
    radiance = rng.random((3, 5, 2))
    upstream = rng.normal(size=(3, 1, 2))

    def loss(t, pv):
        normals = tp.concat([tie, pv["n"]], axis=0)
        return tp.vsum(tp.lambert_quadrature(normals, dirs, pv["r"]) * upstream)

    err = tp.gradient_check(loss, {"n": free, "r": radiance})
    assert err < 1e-6


def test_lambert_quadrature_tie_gives_zero_normal_gradient():
    # direction 0 is exactly perpendicular to the normal and the others are
    # below its horizon, so every cosine is clamped and the subgradient is 0
    normals = np.array([[[0.0, 0.0, 1.0]]])
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.0, -1.0]])
    radiance = np.full((1, 3, 3), 2.0)
    upstream = np.ones((1, 1, 3))
    value, g_n, g_r = _value_and_grads(
        tp.lambert_quadrature, normals, dirs, radiance, upstream)
    assert np.all(value == 0.0)
    assert np.all(g_n == 0.0)
    assert np.all(g_r == 0.0)
    ref = _value_and_grads(_lambert_composition, normals, dirs, radiance, upstream)
    assert np.array_equal(g_n, ref[1])


def test_lambert_quadrature_matches_composition_at_default_size():
    # 128 rays x 48 samples x one hemisphere of the 642-direction set
    _assert_matches_composition(np.random.default_rng(5), 128, 48, 321)


@settings(max_examples=40, deadline=None)
@given(n_rays=st.integers(1, 6), n_samples=st.integers(1, 7),
       n_dirs=st.integers(1, 20), channels=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(n_rays=1, n_samples=1, n_dirs=1, channels=1, seed=0)
@example(n_rays=1, n_samples=5, n_dirs=1, channels=3, seed=1)
def test_lambert_quadrature_matches_composition_property(
        n_rays, n_samples, n_dirs, channels, seed):
    _assert_matches_composition(np.random.default_rng(seed), n_rays, n_samples,
                                n_dirs, channels)


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
    rng = np.random.default_rng(6)
    idx = rng.integers(0, 30, size=(8, 50))  # heavy repeats
    got, g = _scatter_grad(lambda a: tp.take(a, idx), (5, 6), rng)
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
    (np.array([0, 3, 3, 1, 0]), slice(2, None)),
])
def test_index_vjp_equals_add_at_bitwise(key):
    rng = np.random.default_rng(8)
    got, g = _scatter_grad(lambda a: tp.index(a, key), (5, 4), rng)
    ref = np.zeros((5, 4))
    np.add.at(ref, key, g)
    assert _same_bits(got, ref)


def _dyadic(rng, shape):
    """Multiples of 1/8 in [-8, 8]: every partial sum of a few hundred of
    them is exact, so any summation order gives the same bits."""
    return rng.integers(-64, 65, size=shape) / 8.0


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
       kinds=st.lists(st.sampled_from(["take", "take_rows", "rows_of_reshape",
                                       "take_of_reshape"]), min_size=2, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(1, 1, 1), kinds=["take", "take_rows"], seed=0)
@example(shape=(2, 3, 2), kinds=["rows_of_reshape", "take", "rows_of_reshape"], seed=1)
def test_gathers_on_one_parameter_merge_into_one_scatter(shape, kinds, seed):
    # several gathers of one parameter, some through reshapes shared by more
    # than one gather, with overlapping indices, plus two dense uses:
    # backward merges the gathers' adjoints into one bincount per Var and
    # adds the dense terms
    rng = np.random.default_rng(seed)
    n0, n1, c = shape
    t = tp.Tape()
    a = t.parameter("a", rng.normal(size=shape))
    rows = tp.reshape(a, (n0 * n1, c))
    flat = tp.reshape(tp.reshape(a, (n0, n1 * c)), (-1,))
    dense = [_dyadic(rng, shape), _dyadic(rng, shape)]
    loss = tp.vsum(a * dense[0])
    refs = list(dense)
    for kind in kinds:
        qshape = tuple(rng.integers(1, 6, size=rng.integers(1, 3)))
        ref = np.zeros(shape)
        if kind == "take":
            idx = rng.integers(0, a.data.size, size=qshape)
            out = tp.take(a, idx)
            target, key = ref.reshape(-1), idx.reshape(-1)
        elif kind == "take_rows":
            idx = rng.integers(0, n0, size=qshape)
            out = tp.take_rows(a, idx)
            target, key = ref, idx
        elif kind == "rows_of_reshape":
            idx = rng.integers(0, n0 * n1, size=qshape)
            out = tp.take_rows(rows, idx)
            target, key = ref.reshape(n0 * n1, c), idx
        else:
            idx = rng.integers(0, a.data.size, size=qshape)
            out = tp.take(flat, idx)
            target, key = ref.reshape(-1), idx.reshape(-1)
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
