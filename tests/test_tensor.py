import math
import os
import struct
import tempfile
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients, max_rel_err, tensor_sum
from oracles import bilinear_scalar, conv2d_scalar, conv2d_weight_grad_scalar, sigmoid_piecewise

from tinydet.tensor import (
    ParamStore,
    Tensor,
    _interp_matrix,
    _make,
    _windows,
    add,
    bilinear_upsample,
    concat_columns,
    conv2d,
    gather_columns,
    max_pool,
    mul,
    read_tensor_file,
    sigmoid,
    sigmoid_array,
    weighted_bce_with_logits,
    write_tensor_file,
)

rng = np.random.default_rng(42)


def t64(a, requires_grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad)


def rand64(*shape, requires_grad=False):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def relu_conv(x):
    """max(x, 0) of a [C,H,W] map through conv2d's folded ReLU: a 1x1 identity
    kernel and a zero bias give the map back exactly before the clamp."""
    c, dtype = x.data.shape[0], x.data.dtype
    eye = Tensor(np.eye(c, dtype=dtype).reshape(c, c, 1, 1))
    return conv2d(x, eye, Tensor(np.zeros(c, dtype)), relu=True)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    x = rand64(1, 5, 5)
    w = t64(np.ones((1, 1, 1, 1)))
    b = t64(np.zeros(1))
    out = conv2d(x, w, b)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_zero_weights_annihilate():
    x = rand64(3, 4, 4)
    out = conv2d(x, t64(np.zeros((2, 3, 3, 3))), t64(np.zeros(2)))
    assert not out.data.any()


def test_conv2d_matches_scalar_reference():
    x = rand64(3, 6, 5)
    w = rand64(4, 3, 3, 3)
    b = rand64(4)
    out = conv2d(x, w, b)
    ref = conv2d_scalar(x.data, w.data, b.data)
    assert max_rel_err(out.data, ref) < 1e-12


def test_conv2d_strided_matches_scalar_reference():
    # odd sizes, a 1x1 kernel and a 1x1 input probe the strided window view's
    # extent, which as_strided does not bounds-check
    for c_in, h, w, k in [(2, 8, 8, 3), (2, 7, 5, 3), (3, 5, 9, 3), (2, 7, 5, 1),
                          (3, 1, 1, 3), (3, 1, 1, 1)]:
        x = rand64(c_in, h, w)
        wt = rand64(3, c_in, k, k)
        b = rand64(3)
        out = conv2d(x, wt, b, stride=2)
        ref = conv2d_scalar(x.data, wt.data, b.data, stride=2)
        assert out.data.shape == (3, -(-h // 2), -(-w // 2))
        assert max_rel_err(out.data, ref) < 1e-12


def test_conv2d_gradient_finite_differences():
    for h, w, stride in [(5, 5, 1), (7, 5, 2)]:
        x = rand64(4, h, w, requires_grad=True)
        wt = rand64(2, 4, 3, 3, requires_grad=True)
        b = rand64(2, requires_grad=True)
        check_gradients(lambda: tensor_sum(conv2d(x, wt, b, stride=stride)), [x, wt, b],
                        tol=1e-5)


@pytest.mark.parametrize("k, stride", [(3, 1), (3, 2), (1, 1), (1, 2)])
def test_conv2d_leaves_input_unchanged(k, stride):
    x = rand64(3, 7, 5, requires_grad=True)
    before = x.data.copy()
    tensor_sum(conv2d(x, rand64(2, 3, k, k, requires_grad=True), rand64(2), stride)).backward()
    np.testing.assert_array_equal(x.data, before)


@pytest.mark.parametrize("h, w", [(5, 7), (1, 1)])
@pytest.mark.parametrize("c_in, c_out", [(4, 2), (2, 5)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_gradient_over_kernels_strides_and_channels(k, stride, c_in, c_out, h, w):
    # the input gradient is one GEMM over the dilated, padded output gradient:
    # probe every kernel size and stride, fewer and more output channels than
    # input ones, odd maps and 1x1 maps; a random output weighting keeps the
    # output gradient from being uniform
    r = np.random.default_rng(k * 1000 + stride * 100 + c_out * 10 + h)  # leaves `rng` alone
    x = t64(r.standard_normal((c_in, h, w)), requires_grad=True)
    wt = t64(r.standard_normal((c_out, c_in, k, k)), requires_grad=True)
    b = t64(r.standard_normal(c_out), requires_grad=True)
    probe = t64(r.standard_normal((c_out, -(-h // stride), -(-w // stride))))
    check_gradients(lambda: tensor_sum(mul(conv2d(x, wt, b, stride), probe)), [x, wt, b],
                    tol=1e-5)


@pytest.mark.parametrize("h, w", [(5, 7), (2, 3), (1, 1)])
@pytest.mark.parametrize("c_in", [1, 4])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_weight_gradient_matches_scalar_oracle(k, stride, c_in, h, w):
    # a 3x3 stride-1 conv reads its weight gradient off nine shifted views of
    # the padded input, against an output gradient whose two pad columns per
    # row must add exactly 0: the first and last input columns are large, so a
    # pad column that met them would show.  Small integers keep every sum
    # exact in float64, on both sides.
    r = np.random.default_rng(k * 1000 + stride * 100 + c_in * 10 + h)  # leaves `rng` alone
    xd = r.integers(-8, 9, (c_in, h, w)).astype(np.float64)
    xd[:, :, [0, -1]] *= 1e6
    probe = t64(r.integers(-8, 9, (3, -(-h // stride), -(-w // stride))))
    ref = conv2d_weight_grad_scalar(xd, probe.data, k, stride)
    for input_grad in (True, False):
        x = t64(xd, requires_grad=input_grad)
        wt = t64(r.integers(-8, 9, (3, c_in, k, k)), requires_grad=True)
        tensor_sum(mul(conv2d(x, wt, t64(np.zeros(3)), stride), probe)).backward()
        assert max_rel_err(wt.grad, ref) < 1e-12


@pytest.mark.parametrize("h", [5, 7])
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_input_gradient_in_row_chunks(monkeypatch, k, stride, rows, h):
    # the input gradient's windows are taken `rows` input rows at a time: one
    # row per chunk, and chunks of 2 and 3 rows, whose last chunk on 5 and 7
    # rows is partial
    c_in, c_out, w = 3, 2, 4
    monkeypatch.setattr("tinydet.tensor._CHUNK", rows * c_out * k * k * w)
    r = np.random.default_rng(k * 100 + stride * 10 + rows + h)  # leaves `rng` alone
    x = t64(r.standard_normal((c_in, h, w)), requires_grad=True)
    wt = t64(r.standard_normal((c_out, c_in, k, k)), requires_grad=True)
    b = t64(r.standard_normal(c_out), requires_grad=True)
    probe = t64(r.standard_normal((c_out, -(-h // stride), -(-w // stride))))
    check_gradients(lambda: tensor_sum(mul(conv2d(x, wt, b, stride), probe)), [x, wt, b],
                    tol=1e-5)
    chunks = []

    def spy(a, k, oh, ow, step=1, top=0):
        chunks.append((top, oh))
        return _windows(a, k, oh, ow, step, top)

    loss = tensor_sum(mul(conv2d(x, wt, b, stride), probe))
    monkeypatch.setattr("tinydet.tensor._windows", spy)
    loss.backward()
    assert chunks == [(top, min(rows, h - top)) for top in range(0, h, rows)]


def test_conv2d_channel_mismatch_rejected():
    with pytest.raises(ValueError, match="channels"):
        conv2d(rand64(3, 4, 4), t64(np.zeros((2, 4, 1, 1))), t64(np.zeros(2)))


def test_conv2d_kernel_size_rejected():
    # 1x3 and 3x1 are made of supported sizes, but only square kernels are
    for kh, kw in [(5, 5), (1, 3), (3, 1)]:
        with pytest.raises(ValueError, match=f"a {kh}x{kw} kernel"):
            conv2d(rand64(1, 4, 4), t64(np.zeros((1, 1, kh, kw))), t64(np.zeros(1)))


# ---------------------------------------------------------------------------
# elementwise


def test_sigmoid_symmetry_and_range():
    assert float(sigmoid(t64(0.0)).data) == 0.5
    x = rand64(100)
    s = sigmoid(x).data
    assert np.all((s > 0) & (s < 1))


def test_sigmoid_array_is_bitwise_the_piecewise_logistic():
    special = [0.0, -0.0, 1e-300, -1e-300, 30, -30, 40, -40, 745, -745,
               np.inf, -np.inf, np.nan, -np.nan]
    r = np.random.default_rng(135)
    for dtype, bits in ((np.float32, np.uint32), (np.float64, np.uint64)):
        # the special values alone, then shuffled among many normal draws so
        # that they also land in the vectorized loops' inner lanes
        values = np.array(special, dtype=dtype)
        many = r.permutation(np.concatenate([np.tile(values, 20),
                                             r.normal(0, 20, 3000).astype(dtype)]))
        for d in (values, many, many[:2046].reshape(3, 682), many[:1024].reshape(1, 32, 32)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = sigmoid_array(d)
            assert got.dtype == dtype and got.shape == d.shape
            np.testing.assert_array_equal(got.view(bits), sigmoid_piecewise(d).view(bits))


def test_relu_definition_and_idempotence():
    assert relu_conv(t64([[[-3.0]]])).data[0, 0, 0] == 0.0
    assert relu_conv(t64([[[3.0]]])).data[0, 0, 0] == 3.0
    x = Tensor(rand64(50).data.reshape(1, 5, 10))
    once = relu_conv(x).data
    np.testing.assert_array_equal(once, np.maximum(x.data, 0))
    np.testing.assert_array_equal(relu_conv(Tensor(once)).data, once)


def test_relu_keeps_nan():
    # a NaN map must stay NaN so that a diverged model fails loudly downstream
    x = Tensor(np.array([[[np.nan, -1.0, 0.0, 2.0]]], dtype=np.float32))
    out = relu_conv(x).data
    assert out.dtype == np.float32
    assert np.isnan(out[0, 0, 0]) and out[0, 0, 1:].tolist() == [0.0, 0.0, 2.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, stride", [(1, 1), (3, 1), (3, 2)])
def test_conv2d_relu_is_max_of_conv_bitwise(k, stride, dtype):
    r = np.random.default_rng(1712)
    x = r.standard_normal((3, 7, 6)).astype(dtype)
    x[1, 2, 3] = np.nan  # its windows' outputs are NaN, and stay NaN
    w = Tensor(r.standard_normal((4, 3, k, k)).astype(dtype))
    b = Tensor(r.standard_normal(4).astype(dtype))
    fused = conv2d(Tensor(x), w, b, stride=stride, relu=True).data
    plain = conv2d(Tensor(x), w, b, stride=stride).data
    assert fused.dtype == dtype and np.isnan(fused).any()
    np.testing.assert_array_equal(fused.view(f"u{fused.itemsize}"),
                                  np.maximum(plain, 0).view(f"u{fused.itemsize}"))


@pytest.mark.parametrize("k, stride", [(1, 1), (3, 1), (3, 2)])
def test_conv2d_relu_backward_masks_the_gradient(k, stride):
    # the fused backward equals the plain conv's backward under the masked
    # upstream gradient, bitwise; the held output's grad is that masked gradient
    r = np.random.default_rng(2018)
    x0 = r.standard_normal((3, 7, 6)).astype(np.float32)
    w0 = (r.standard_normal((4, 3, k, k)) * 0.5).astype(np.float32)
    b0 = (r.standard_normal(4) * 0.1).astype(np.float32)
    up = r.standard_normal((4, (7 - 1) // stride + 1, (6 - 1) // stride + 1)).astype(np.float32)

    def grads(fused):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        out = conv2d(x, w, b, stride=stride, relu=fused)
        masked = up * (out.data > 0)  # out.data is clamped only when fused
        tensor_sum(mul(out, Tensor(up if fused else masked))).backward()
        return out.grad, x.grad, w.grad, b.grad, masked

    fused, plain = grads(True), grads(False)
    for got, want in zip(fused[1:4], plain[1:4]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(fused[0], fused[4])


def test_add_shape_mismatch_rejected():
    for op in (add, mul):
        with pytest.raises(ValueError, match="shape"):
            op(rand64(2, 3), rand64(3, 2))
        with pytest.raises(ValueError, match="shape"):
            op(rand64(4, 3, 3), rand64(2, 1, 1))


def test_add_channel_vector_on_zero_map():
    v = rand64(3, 1, 1)
    out = add(t64(np.zeros((3, 4, 5))), v)
    for c in range(3):
        assert np.all(out.data[c] == v.data[c])


def test_elementwise_gradients():
    a = rand64(3, 4, 2, requires_grad=True)
    b = rand64(3, 4, 2, requires_grad=True)
    r = np.random.default_rng(217)
    w = Tensor(r.standard_normal((3, 3, 1, 1)), requires_grad=True)
    bias = Tensor(r.standard_normal(3) * 0.1, requires_grad=True)
    check_gradients(lambda: tensor_sum(mul(sigmoid(a), conv2d(add(a, b), w, bias, relu=True))),
                    [a, b, w, bias])


def test_mul_mask_broadcast_gradient():
    x = rand64(4, 3, 3, requires_grad=True)
    m = Tensor(rng.uniform(0.1, 0.9, (1, 3, 3)), requires_grad=True)
    check_gradients(lambda: tensor_sum(mul(x, m)), [x, m])


ELEMENTWISE = [pytest.param(add, np.add, id="add"), pytest.param(mul, np.multiply, id="mul")]


@pytest.mark.parametrize("op, np_op", ELEMENTWISE)
@pytest.mark.parametrize("a_shape, b_shape", [
    ((4, 3, 3), (1, 3, 3)),        # a spatial mask over every channel
    ((4, 3, 3), (4, 1, 1)),        # a channel vector over every position
    ((1, 3, 3), (4, 3, 3)),        # the left operand is the one broadcast
    ((2, 4, 3, 3), (1, 4, 1, 1)),  # a batch of maps and a per-channel vector
    ((3, 2), ()),                  # a 0-d operand
])
def test_broadcast_gradients(op, np_op, a_shape, b_shape):
    a = rand64(*a_shape, requires_grad=True)
    b = rand64(*b_shape, requires_grad=True)
    np.testing.assert_array_equal(op(a, b).data, np_op(a.data, b.data))
    check_gradients(lambda: tensor_sum(sigmoid(op(a, b))), [a, b])
    assert a.grad.shape == a_shape and b.grad.shape == b_shape


@pytest.mark.parametrize("op, np_op", ELEMENTWISE)
def test_number_operand_takes_the_tensor_dtype(op, np_op):
    x = rand64(3, 4, requires_grad=True)
    check_gradients(lambda: tensor_sum(sigmoid(op(x, -0.4))), [x])
    x32 = Tensor(np.linspace(-1, 1, 6, dtype=np.float32))
    out = op(x32, 0.1)
    assert out.data.dtype == np.float32
    np.testing.assert_array_equal(out.data, np_op(x32.data, np.float32(0.1)))


def test_broadcast_gradient_sums_in_float64():
    # float32 accumulation would lose the 1 against 1e8; float64 keeps it
    x = Tensor(np.array([1e8, 1.0, -1e8], np.float32).reshape(3, 1, 1))
    m = Tensor(np.ones((1, 1, 1), np.float32), requires_grad=True)
    tensor_sum(mul(x, m)).backward()
    assert m.grad.dtype == np.float32 and m.grad[0, 0, 0] == 1.0


# ---------------------------------------------------------------------------
# pooling and resampling


def test_adaptive_max_pool_constant_and_direct():
    # a window the size of the map pools [C,H,W] to [C,1,1]
    out = max_pool(t64(np.full((3, 4, 4), 2.5)), (4, 4))
    np.testing.assert_array_equal(out.data, np.full((3, 1, 1), 2.5))
    out = max_pool(t64([[[1.0, 2.0], [3.0, 4.0]]]), (2, 2))
    assert out.data.shape == (1, 1, 1) and float(out.data[0, 0, 0]) == 4.0


def test_adaptive_max_pool_gradient_one_hot():
    x = rand64(2, 3, 3, requires_grad=True)
    check_gradients(lambda: tensor_sum(max_pool(x, (3, 3))), [x])
    # exactly one nonzero cell per channel, value 1
    for c in range(2):
        g = x.grad[c]
        assert (g != 0).sum() == 1 and g.max() == 1.0
    # under ties, the first maximum in row-major order takes the gradient
    x = t64([[[1.0, 3.0, 0.0], [3.0, 2.0, 3.0]]], requires_grad=True)
    tensor_sum(max_pool(x, (2, 3))).backward()
    np.testing.assert_array_equal(x.grad, [[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]])


def naive_max_pool(x, kh, kw):
    c, h, w = x.shape
    out = np.empty((c, h // kh, w // kw))
    for ch in range(c):
        for i in range(h // kh):
            for j in range(w // kw):
                out[ch, i, j] = x[ch, kh * i:kh * i + kh, kw * j:kw * j + kw].max()
    return out


def test_max_pool_2x2_matches_naive():
    x = rand64(2, 6, 4)
    np.testing.assert_array_equal(max_pool(x, (2, 2)).data, naive_max_pool(x.data, 2, 2))


def test_max_pool_non_square_window_matches_naive():
    x = rand64(3, 9, 4, requires_grad=True)
    out = max_pool(x, (3, 2))
    assert out.data.shape == (3, 3, 2)
    np.testing.assert_array_equal(out.data, naive_max_pool(x.data, 3, 2))
    check_gradients(lambda: tensor_sum(max_pool(x, (3, 2))), [x])


def test_max_pool_rejects_a_window_that_does_not_tile_the_map():
    for size in ((2, 2), (3, 1), (1, 4), (0, 1)):
        with pytest.raises(ValueError, match="does not tile"):
            max_pool(rand64(2, 5, 6), size)
    with pytest.raises(ValueError, match=r"\[C,H,W\]"):
        max_pool(rand64(4, 4), (2, 2))


def test_max_pool_2x2_gradient():
    x = rand64(2, 4, 4, requires_grad=True)
    check_gradients(lambda: tensor_sum(max_pool(x, (2, 2))), [x])


def test_bilinear_constant_and_degenerate():
    out = bilinear_upsample(t64(np.full((2, 3, 3), 1.5)), (7, 9))
    assert out.data.shape == (2, 7, 9)
    np.testing.assert_allclose(out.data, 1.5)
    out = bilinear_upsample(t64([[[4.0]]]), (5, 5))
    np.testing.assert_array_equal(out.data, np.full((1, 5, 5), 4.0))


def test_bilinear_matches_scalar_reference():
    # includes the P5 -> P2 geometry (4 -> 32) and a 1x1 source; its own
    # generator, so tests added above it cannot change the draws it checks
    r = np.random.default_rng(290)
    for src, dst in [((2, 2), (4, 4)), ((4, 5), (9, 11)), ((4, 4), (32, 32)),
                     ((1, 1), (5, 7))]:
        x = t64(r.standard_normal((3, *src)))
        out = bilinear_upsample(x, dst)
        assert max_rel_err(out.data, bilinear_scalar(x.data, *dst)) < 1e-12


def test_bilinear_float32_matches_float64_reference():
    x = rng.standard_normal((4, 4, 4)).astype(np.float32)
    out = bilinear_upsample(Tensor(x), (32, 32))
    assert out.data.dtype == np.float32
    ref = bilinear_scalar(x.astype(np.float64), 32, 32)
    assert np.max(np.abs(out.data - ref)) < 1e-6


def test_interpolation_matrices_are_cached_read_only():
    r = _interp_matrix(4, 9, np.float32)
    assert r is _interp_matrix(4, 9, np.float32)
    assert _interp_matrix(4, 9, np.float64).dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        r[0, 0] = 2.0
    # a cached matrix serves the float32 forward and backward unchanged
    x = Tensor(np.random.default_rng(3).standard_normal((2, 3, 4)).astype(np.float32),
               requires_grad=True)
    ref = bilinear_scalar(x.data.astype(np.float64), 6, 9)
    for _ in range(2):
        x.zero_grad()
        out = bilinear_upsample(x, (6, 9))
        assert np.max(np.abs(out.data - ref)) < 1e-6
        tensor_sum(out).backward()
        np.testing.assert_allclose(x.grad.sum(), 54 * 2, rtol=1e-6)


def test_bilinear_range_preserved():
    for _ in range(10):
        x = rand64(2, 3, 4)
        out = bilinear_upsample(x, (8, 9))
        for c in range(2):
            assert out.data[c].min() >= x.data[c].min() - 1e-12
            assert out.data[c].max() <= x.data[c].max() + 1e-12


def test_bilinear_downsample_rejected():
    with pytest.raises(ValueError, match="smaller"):
        bilinear_upsample(rand64(1, 4, 4), (2, 8))


def test_bilinear_gradient():
    for src, dst in [((3, 3), (7, 8)), ((4, 4), (32, 32)), ((1, 1), (4, 5))]:
        x = rand64(2, *src, requires_grad=True)
        w = rand64(2, *dst)
        check_gradients(lambda: tensor_sum(mul(bilinear_upsample(x, dst), Tensor(w.data))), [x])


# ---------------------------------------------------------------------------
# backward plumbing


def test_backward_sum_gives_ones():
    x = rand64(3, 4, requires_grad=True)
    tensor_sum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_sigmoid_at_zero():
    x = t64(np.zeros(10), requires_grad=True)
    tensor_sum(sigmoid(x)).backward()
    np.testing.assert_allclose(x.grad, 0.25)


def test_backward_rejects_non_scalar():
    x = Tensor(rand64(3).data.reshape(1, 1, 3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        relu_conv(x).backward()


def test_backward_through_a_spent_graph_raises():
    x = t64(np.random.default_rng(4).standard_normal((1, 3, 4)), requires_grad=True)
    hidden = relu_conv(x)
    loss = tensor_sum(hidden)
    loss.backward()
    first = x.grad.copy()
    assert loss._parents == ()  # the graph is released once backward has run
    with pytest.raises(ValueError, match="already ran"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, first)
    # a new graph over a node of the spent one cannot reach its inputs either
    with pytest.raises(ValueError, match="already ran"):
        tensor_sum(hidden).backward()
    # a leaf is no graph: its backward may run again
    leaf = t64(2.0, requires_grad=True)
    leaf.backward()
    leaf.backward()
    assert float(leaf.grad) == 1.0


def test_backward_frees_each_spent_node_during_the_walk():
    x = t64(np.random.default_rng(5).standard_normal((1, 3, 4)), requires_grad=True)
    dead = []

    def probe_backward(g):
        # `hidden`'s backward has run; nothing but the walk referred to it
        dead.append(hidden_data() is None)
        x._accumulate(g)

    probe = _make(x.data.copy(), (x,), probe_backward)
    hidden = relu_conv(probe)
    hidden_data = weakref.ref(hidden.data)
    held = mul(hidden, 2.0)
    loss = tensor_sum(held)
    del hidden
    loss.backward()
    assert dead == [True]
    # a node the caller holds keeps its gradient
    np.testing.assert_array_equal(held.grad, np.ones((1, 3, 4)))
    np.testing.assert_array_equal(x.grad, 2.0 * (x.data > 0))


def test_gather_concat_bce_gradients():
    x = rand64(3, 16, requires_grad=True)
    y = rand64(3, 4, requires_grad=True)
    idx = np.array([0, 5, 9, 5])  # a repeated column accumulates its gradient
    targets = rng.integers(0, 2, (3, 8)).astype(float)
    weights = rng.uniform(0.1, 1.0, (3, 8))

    def build():
        cols = concat_columns([gather_columns(x, idx), gather_columns(y, np.arange(4))])
        return weighted_bce_with_logits(cols, targets, weights)

    check_gradients(build, [x, y])


def test_bce_gradient_is_exact_far_below_zero():
    # d/dz of the BCE at target 0 is sigmoid(z): at z = -30 that is ~9.4e-14,
    # which 1 - 1/(1 + e^30) misses by 1e-3 relative in float64
    for z in (-20.0, -30.0, -40.0):
        x = t64([[z]], requires_grad=True)
        weighted_bce_with_logits(x, [[0.0]], [[1.0]]).backward()
        expected = math.exp(z) / (1.0 + math.exp(z))
        assert x.grad[0, 0] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_gather_columns_rejects_bad_input():
    with pytest.raises(ValueError, match=r"\[C,N\]"):
        gather_columns(rand64(3, 4, 4), [0])
    for idx in ([4], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            gather_columns(rand64(3, 4), idx)


def test_concat_columns_flattens_maps_row_major():
    x = rand64(2, 3, 4, requires_grad=True)
    r = np.random.default_rng(496)
    y = Tensor(r.standard_normal((2, 5)), requires_grad=True)
    out = concat_columns([x, y])
    np.testing.assert_array_equal(out.data, np.concatenate([x.data.reshape(2, 12), y.data], axis=1))
    weights = t64(r.standard_normal((2, 17)))  # column-dependent, so the order shows
    check_gradients(lambda: tensor_sum(mul(concat_columns([x, y]), weights)), [x, y])
    for bad in ([x, Tensor(np.zeros((3, 5)))], [Tensor(np.zeros(2)), y], [y, Tensor(np.zeros(2))]):
        with pytest.raises(ValueError, match="equal C"):
            concat_columns(bad)


def test_randomized_op_gradient_suite():
    # randomized shapes across every differentiable primitive
    for trial in range(30):
        r = np.random.default_rng(trial)
        c, h, w = r.integers(1, 4), r.integers(2, 6), r.integers(2, 6)
        x = Tensor(r.standard_normal((c, h, w)), requires_grad=True)
        k = int(r.choice([1, 3]))
        co = int(r.integers(1, 4))
        wt = Tensor(r.standard_normal((co, c, k, k)) * 0.5, requires_grad=True)
        b = Tensor(r.standard_normal(co) * 0.1, requires_grad=True)
        v = Tensor(r.standard_normal((co, 1, 1)) * 0.5, requires_grad=True)

        def build():
            # no relu=True: finite differences break down at its kinks
            y = conv2d(x, wt, b)
            y = add(y, v)
            y = bilinear_upsample(sigmoid(y), (int(h) + 2, int(w) + 3))
            return tensor_sum(y)

        check_gradients(build, [x, wt, b, v], tol=1e-4)


# ---------------------------------------------------------------------------
# determinism and parameter store


def test_param_store_bitwise_determinism():
    def make():
        s = ParamStore(seed=7)
        s.register_conv("a", 4, 3, 3)
        s.register_conv("b", 5, 5, 1)
        return s

    s1, s2 = make(), make()
    for (n1, t1), (n2, t2) in zip(s1.items(), s2.items()):
        assert n1 == n2
        assert t1.data.tobytes() == t2.data.tobytes()


def test_forward_backward_repeatable_bitwise():
    def run():
        s = ParamStore(seed=3)
        w, b = s.register_conv("c", 2, 2, 3)
        x = Tensor(np.asarray(np.random.default_rng(0).standard_normal((2, 6, 6)), np.float32),
                   requires_grad=True)
        loss = tensor_sum(sigmoid(conv2d(x, w, b)))
        loss.backward()
        return loss.data.tobytes(), w.grad.tobytes(), x.grad.tobytes()

    assert run() == run()


def test_param_store_duplicate_name_rejected():
    s = ParamStore(seed=0)
    s.register_conv("p", 2, 2, 1)
    with pytest.raises(ValueError, match="'p.w' already registered"):
        s.register_conv("p", 2, 2, 1)


def test_checkpoint_roundtrip(tmp_path):
    s = ParamStore(seed=11)
    s.register_conv("layer", 3, 2, 3)
    s.save(str(tmp_path / "ckpt"), {"levels": ["P2"]})
    seed, arrays, config = ParamStore.load(str(tmp_path / "ckpt"))
    assert config == {"levels": ["P2"]} and seed == 11
    assert list(arrays) == list(s.params)
    for name, t in s.items():
        assert arrays[name].dtype == np.float32
        np.testing.assert_array_equal(arrays[name], t.data.astype(np.float32))


def test_checkpoint_load_rejects_bad_manifests(tmp_path):
    import json

    with pytest.raises(ValueError, match="manifest.json"):
        ParamStore.load(str(tmp_path / "missing"))
    s = ParamStore(seed=0)
    s.register_conv("layer", 3, 2, 1)
    s.save(str(tmp_path / "ckpt"), {})
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    (tmp_path / "outside.efbt").write_bytes(
        (tmp_path / "ckpt" / "params" / "p0000.efbt").read_bytes())
    entry = manifest["params"][0]
    bad = [
        ({"format": "x"}, "top level: missing key 'seed'"),
        ({**manifest, "format": "x"}, "top level: format must be 'tinydet-checkpoint-v1', got 'x'"),
        ({**manifest, "seed": 1.0}, "seed: expected int"),
        ({**manifest, "params": None}, "params: expected an array"),
        ({k: v for k, v in manifest.items() if k != "config"}, "top level: missing key 'config'"),
        ({**manifest, "extra": 1}, "unknown key 'extra'"),
        ({**manifest, "params": [5]}, r"params\[0\]: expected an object"),
        ({**manifest, "params": [{**entry, "name": 3}]}, r"params\[0\]\.name: expected str"),
        ({**manifest, "params": [{**entry, "shape": [3, 2]}]},
         r"params\[0\]: shape \[3, 2, 1, 1\] in params/p0000.efbt, the manifest declares \[3, 2\]"),
        ({**manifest, "params": [{**entry, "file": "../outside.efbt"}]}, "outside"),
        ({**manifest, "params": [{**entry, "file": "params/../../outside.efbt"}]}, "outside"),
        ({**manifest, "params": [{**entry, "file": str(tmp_path / "outside.efbt")}]},
         "outside"),
        ({**manifest, "params": [{**entry, "file": "params/p9999.efbt"}]}, "p9999.efbt"),
    ]
    for payload, match in bad:
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            ParamStore.load(str(tmp_path / "ckpt"))


# ---------------------------------------------------------------------------
# EFBT file format


def test_efbt_roundtrip(tmp_path):
    arr = rng.standard_normal((3, 4, 5)).astype(np.float32)
    path = str(tmp_path / "x.efbt")
    write_tensor_file(path, arr)
    back = read_tensor_file(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_efbt_header_layout(tmp_path):
    path = str(tmp_path / "x.efbt")
    write_tensor_file(path, np.zeros((2, 3), dtype=np.float32))
    raw = open(path, "rb").read()
    assert raw[:4] == b"EFBT"
    assert raw[4] == 1 and raw[5] == 0 and raw[6] == 2
    assert len(raw) == 7 + 8 + 4 * 6


def test_efbt_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "bad.efbt")
    with open(path, "wb") as f:
        f.write(b"NOPE" + bytes(16))
    with pytest.raises(ValueError, match="magic"):
        read_tensor_file(path)


def efbt_header(dims):
    return b"EFBT" + struct.pack(f"<BBB{len(dims)}I", 1, 0, len(dims), *dims)


@pytest.mark.parametrize("raw, match", [
    (b"EFBT\x01", "truncated header"),
    (efbt_header((2, 3))[:-2], "truncated header"),
    (efbt_header((2, 3)) + bytes(4 * 6 - 1), "truncated payload"),
    (efbt_header((2 ** 20, 2 ** 20, 2 ** 10)) + bytes(16), "truncated payload"),
    (efbt_header((2 ** 31, 2 ** 31, 3)) + bytes(16), "truncated payload"),
    (efbt_header((1,) * 65) + bytes(4), r"bad\.efbt: 65 dims"),
    (efbt_header((0, 2 ** 32 - 1, 2 ** 32 - 1)), r"bad\.efbt: shape .* too big"),
])
def test_efbt_header_the_file_cannot_back_rejected(tmp_path, raw, match):
    path = tmp_path / "bad.efbt"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=match):
        read_tensor_file(str(path))


@st.composite
def efbt_like(draw):
    """An EFBT header, mostly well formed but with any version, dtype code or
    ndim byte, and dims near the valid range and far beyond it; then a
    payload that may back the dims, and sometimes a cut at any point."""
    dims = draw(st.lists(st.integers(0, 3) | st.integers(0, 2 ** 32 - 1), max_size=6))
    ndim = draw(st.just(len(dims)) | st.integers(0, 255))
    version = draw(st.just(1) | st.integers(0, 255))
    code = draw(st.just(0) | st.integers(0, 255))
    payload = draw(st.binary(max_size=32))
    count = math.prod(dims)
    if count <= 1024 and draw(st.booleans()):
        payload = draw(st.binary(min_size=4 * count, max_size=4 * count)) + payload
    raw = b"EFBT" + struct.pack(f"<BBB{len(dims)}I", version, code, ndim, *dims) + payload
    return raw[:draw(st.none() | st.integers(0, len(raw)))]


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | efbt_like())
@example(b"EFBT\x01\x00\x00" + bytes(4))  # a 0-d tensor keeps its shape
def test_read_tensor_file_fuzz_loads_or_raises_value_error(raw):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.efbt")
        with open(path, "wb") as f:
            f.write(raw)
        try:
            arr = read_tensor_file(path)
        except ValueError:
            return
        # what loads is what the file's header and payload say, bit for bit
        write_tensor_file(path, arr)
        with open(path, "rb") as f:
            written = f.read()
    assert arr.dtype == np.float32
    assert raw[:len(written)] == written


def test_tensor_submodule_is_importable_by_name():
    import types

    import tinydet.tensor as T

    assert isinstance(T, types.ModuleType)
    assert T.Tensor is Tensor
