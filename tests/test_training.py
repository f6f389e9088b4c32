import numpy as np
import pytest

from tinydet.detector import DetectorConfig, DetectorModel
from tinydet.scenes import SceneSpec, generate_scene
from tinydet.tensor import ParamStore, Tensor
from tinydet.training import (
    DivergenceError,
    SGDMomentum,
    TrainConfig,
    _epoch_lr,
    evaluate_model,
    train,
)

SMALL_DET = DetectorConfig()


def small_dataset(n=8, seed=0):
    spec = SceneSpec(seed=seed)
    return [generate_scene(spec, i) for i in range(n)]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(reg_loss="l2")
    with pytest.raises(ValueError):
        train([], SMALL_DET, TrainConfig())


def test_epoch_lr_schedule():
    cfg = TrainConfig(learning_rate=0.01, decay_epochs=(8, 11), decay_factor=0.1)
    assert _epoch_lr(cfg, 1) == 0.01
    assert _epoch_lr(cfg, 8) == 0.01
    assert _epoch_lr(cfg, 9) == pytest.approx(0.001)
    assert _epoch_lr(cfg, 11) == pytest.approx(0.001)
    assert _epoch_lr(cfg, 12) == pytest.approx(0.0001)


def test_sgd_momentum_update_rule():
    t = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    t.grad = np.array([0.5, 0.5])
    opt = SGDMomentum([t], momentum=0.9, weight_decay=0.1)
    opt.step(lr=0.1)
    # v = g + wd*p = [0.6, 0.3]; p -= 0.1*v
    np.testing.assert_allclose(t.data, [1.0 - 0.06, -2.0 - 0.03], rtol=1e-6)
    t.grad = np.zeros(2)
    opt.step(lr=0.1)
    # v = 0.9*v + wd*p; second step keeps moving from momentum
    v = 0.9 * np.array([0.6, 0.3]) + 0.1 * np.array([0.94, -2.03])
    np.testing.assert_allclose(t.data, np.array([0.94, -2.03]) - 0.1 * v, rtol=1e-5)


def test_sgd_skips_gradless_tensors():
    t = Tensor(np.ones(3, dtype=np.float32))
    opt = SGDMomentum([t], momentum=0.9, weight_decay=0.0)
    opt.step(lr=1.0)
    np.testing.assert_array_equal(t.data, np.ones(3))


def test_short_training_run_decreases_loss():
    scenes = small_dataset()
    cfg = TrainConfig(epochs=3, seed=0)
    result = train(scenes, SMALL_DET, cfg)
    assert len(result.loss_curve) == 3
    assert result.loss_curve[0]["epoch"] == 1
    for rec in result.loss_curve:
        assert set(rec) == {"epoch", "lr", "cls", "reg", "total"}
        assert np.isfinite(rec["total"])
    assert result.loss_curve[-1]["total"] < result.loss_curve[0]["total"]
    assert result.first_batch_components[0] > 0
    assert result.dc_params is None


def test_training_bitwise_deterministic():
    scenes = small_dataset()
    cfg = TrainConfig(epochs=2, seed=7)
    a = train(scenes, SMALL_DET, cfg)
    b = train(scenes, SMALL_DET, cfg)
    assert a.loss_curve == b.loss_curve
    for (na, ta), (nb, tb) in zip(a.model.store.items(), b.model.store.items()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes()


def test_training_seed_changes_result():
    scenes = small_dataset()
    a = train(scenes, SMALL_DET, TrainConfig(epochs=1, seed=0))
    b = train(scenes, SMALL_DET, TrainConfig(epochs=1, seed=1))
    assert a.loss_curve != b.loss_curve


def test_training_with_adaptive_loss_variants():
    scenes = small_dataset(4)
    result = train(scenes, SMALL_DET, TrainConfig(epochs=1, reg_loss="dcloss"))
    assert (result.dc_params.k, result.dc_params.delta) == (10.0, 0.15)  # fixed transition
    assert np.isfinite(result.loss_curve[0]["total"])


def test_training_learnable_transition_moves_params():
    scenes = small_dataset(4)
    cfg = TrainConfig(epochs=2, reg_loss="dcloss", dc_learnable=True,
                      learning_rate=0.16)
    result = train(scenes, SMALL_DET, cfg)
    assert (result.dc_params.k, result.dc_params.delta) != (10.0, 0.15)
    assert result.dc_params.k > 0 and result.dc_params.delta > 0
    assert result.dc_params.grad_k == result.dc_params.grad_delta == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_error_carries_snapshot():
    scenes = small_dataset(4)
    cfg = TrainConfig(epochs=4, learning_rate=1.6e13)  # guaranteed blow-up
    with pytest.raises(DivergenceError) as exc_info:
        train(scenes, SMALL_DET, cfg)
    state = exc_info.value.last_good_state
    assert isinstance(state, dict) and len(state) > 0
    assert all(np.isfinite(v).all() for v in state.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_in_the_last_step_is_caught():
    # one batch, one step: the loss before it is finite, the weights after it are not
    scenes = small_dataset(4)
    with pytest.raises(DivergenceError, match="non-finite parameters after epoch 1") as exc_info:
        train(scenes, SMALL_DET, TrainConfig(epochs=1, learning_rate=1e200))
    state = exc_info.value.last_good_state
    initial = DetectorModel(SMALL_DET, seed=0).store
    assert state.keys() == dict(initial.items()).keys()
    assert all(state[name].tobytes() == t.data.tobytes() for name, t in initial.items())


def test_evaluate_model_runs():
    scenes = small_dataset(4)
    model = DetectorModel(SMALL_DET, seed=0)
    res = evaluate_model(model, scenes)
    assert 0.0 <= res.ap50 <= 1.0
