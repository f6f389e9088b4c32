import numpy as np
import pytest

from gradcheck import check_gradients, tensor_sum

from tinydet.context import build_cem_params, cem_forward, global_context
from tinydet.tensor import ParamStore, Tensor

rng = np.random.default_rng(5)


def make_params(c_high, c_low, seed=0, dtype=np.float64):
    store = ParamStore(seed=seed)
    build_cem_params(store, c_high, c_low)
    for t in store.tensors():
        t.data = t.data.astype(dtype)
    return store


def rand(*shape, requires_grad=False):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def test_global_context_shape_and_nonnegative():
    p = make_params(6, 4)
    ctx = global_context(rand(6, 8, 8), p)
    assert ctx.data.shape == (4, 1, 1)  # broadcasts over P_l's [C_l,H,W]
    assert np.all(ctx.data >= 0)


def test_global_context_pool_is_max():
    # with identity-like 1x1 weights the context is relu of per-channel maxima
    p = make_params(3, 3)
    p["cem.proj.w"].data = np.eye(3).reshape(3, 3, 1, 1).astype(np.float64)
    p["cem.proj.b"].data = np.zeros(3)
    x = rand(3, 5, 5)
    ctx = global_context(x, p)
    np.testing.assert_allclose(ctx.data[:, 0, 0], np.maximum(x.data.max(axis=(1, 2)), 0),
                               rtol=1e-12)


def test_zero_projection_is_bitwise_identity():
    # zero weight and bias: context vector is 0, forward returns P_l exactly
    p = make_params(6, 4)
    for t in p.tensors():
        t.data = np.zeros_like(t.data)
    low = rand(4, 10, 10)
    high = rand(6, 10, 10)
    out = cem_forward(high, low, p)
    assert out.data.tobytes() == low.data.tobytes()


def test_forward_adds_constant_per_channel():
    p = make_params(6, 4)
    low = rand(4, 8, 8)
    high = rand(6, 8, 8)
    out = cem_forward(high, low, p)
    assert out.data.shape == low.data.shape
    shift = out.data - low.data
    # same scalar added at every spatial location of a channel
    for c in range(4):
        assert np.ptp(shift[c]) < 1e-12
    np.testing.assert_allclose(shift[:, :1, :1], global_context(high, p).data, rtol=1e-12)


def test_forward_rejects_spatial_mismatch():
    p = make_params(6, 4)
    with pytest.raises(ValueError, match="spatial"):
        cem_forward(rand(6, 8, 8), rand(4, 16, 16), p)


def test_forward_rejects_channel_mismatch():
    p = make_params(6, 4)
    with pytest.raises(ValueError, match="channels"):
        global_context(rand(5, 8, 8), p)
    with pytest.raises(ValueError, match="channels"):
        cem_forward(rand(6, 8, 8), rand(5, 8, 8), p)


def test_global_context_rejects_a_map_that_is_not_chw():
    with pytest.raises(ValueError, match=r"max_pool expects \[C,H,W\]"):
        global_context(rand(8, 8), make_params(6, 4))


def test_gradients_through_context_path():
    p = make_params(3, 2, seed=1)
    high = rand(3, 6, 6, requires_grad=True)
    low = rand(2, 6, 6, requires_grad=True)
    for t in p.tensors():
        t.requires_grad = True
    check_gradients(lambda: tensor_sum(cem_forward(high, low, p)),
                    [high, low, p["cem.proj.w"], p["cem.proj.b"]], tol=1e-4)
    # the low-level path is a pure residual: gradient there is exactly 1
    np.testing.assert_array_equal(low.grad, np.ones_like(low.data))


def test_create_is_deterministic():
    a = make_params(6, 4, seed=9)
    b = make_params(6, 4, seed=9)
    assert list(a.params) == ["cem.proj.w", "cem.proj.b"]
    assert a["cem.proj.w"].data.tobytes() == b["cem.proj.w"].data.tobytes()
    assert a["cem.proj.b"].data.tobytes() == b["cem.proj.b"].data.tobytes()
    assert not a["cem.proj.b"].data.any()  # biases start at zero
