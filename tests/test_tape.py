import gc
import weakref

import numpy as np
import pytest

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

    with pytest.raises(tp.GradientCheckError) as info:
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
