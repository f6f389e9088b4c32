import numpy as np
import pytest

from gradcheck import check_gradients, tensor_sum

from tinydet.gating import build_fbsm_params, fbsm_forward, fuse_gates, gate
from tinydet.tensor import ParamStore, Tensor

rng = np.random.default_rng(17)


def make_params(c_high, c_low, seed=0, dtype=np.float64):
    store = ParamStore(seed=seed)
    build_fbsm_params(store, c_high, c_low)
    for name, t in store.items():
        t.data = t.data.astype(dtype)
    return store


def gate_width(store):
    return store["fbsm.psi_h1.w"].data.shape[0]


def rand(*shape, requires_grad=False):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def test_default_gate_width_rule():
    assert gate_width(make_params(8, 16)) == 4      # 16 // 4
    assert gate_width(make_params(8, 64)) == 16
    assert gate_width(make_params(8, 8)) == 4       # floor of 4


def test_gate_outputs_open_unit_interval():
    p = make_params(6, 4)
    m = gate(rand(6, 8, 8), p, "psi_h")
    assert m.data.shape == (1, 8, 8)
    assert np.all((m.data > 0) & (m.data < 1))


def test_fused_mask_range_and_shape():
    p = make_params(6, 4)
    high, low = rand(6, 8, 8), rand(4, 8, 8)
    m_h = gate(high, p, "psi_h")
    m_l = gate(low, p, "psi_l")
    fused = fuse_gates(m_h, m_l, p)
    assert fused.data.shape == (1, 8, 8)
    assert np.all((fused.data > 0) & (fused.data < 1))
    with pytest.raises(ValueError, match="mismatch"):
        fuse_gates(m_h, gate(rand(4, 6, 6), p, "psi_l"), p)


def test_forward_shape_and_nonnegative():
    p = make_params(6, 4)
    out = fbsm_forward(rand(6, 8, 8), rand(4, 8, 8), p)
    assert out.data.shape == (4, 8, 8)
    assert np.all(out.data >= 0)


def test_zero_enhanced_input_gives_zero_output():
    # zero features: mask * 0 = 0, and refinement biases start at zero
    p = make_params(6, 4)
    out = fbsm_forward(rand(6, 8, 8), Tensor(np.zeros((4, 8, 8))), p)
    assert not out.data.any()


def test_forward_rejects_spatial_mismatch():
    p = make_params(6, 4)
    with pytest.raises(ValueError, match="spatial"):
        fbsm_forward(rand(6, 8, 8), rand(4, 4, 4), p)


def test_gradients_through_full_module():
    p = make_params(3, 2, seed=1)
    high = rand(3, 5, 5, requires_grad=True)
    low = rand(2, 5, 5, requires_grad=True)
    params = p.tensors()
    assert list(p.params) == [f"fbsm.{conv}.{wb}" for conv in
                              ("psi_h1", "psi_h2", "psi_l1", "psi_l2", "phi_f", "phi_r")
                              for wb in "wb"]
    for t in params:
        t.requires_grad = True
    check_gradients(lambda: tensor_sum(fbsm_forward(high, low, p)),
                    [high, low] + params, tol=5e-4)


def test_forward_is_deterministic():
    a = fbsm_forward(Tensor(np.full((6, 8, 8), 0.3)), Tensor(np.full((4, 8, 8), 0.7)),
                     make_params(6, 4, seed=2))
    b = fbsm_forward(Tensor(np.full((6, 8, 8), 0.3)), Tensor(np.full((4, 8, 8), 0.7)),
                     make_params(6, 4, seed=2))
    assert a.data.tobytes() == b.data.tobytes()
