"""Dense net: shapes, analytic gradients vs finite differences, optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from sagin_sfc.net import Adadelta, Adam, DenseNet, make_optimizer

from helpers import mse_loss_and_grads


def _net(sizes=(6, 16, 4), seed=0) -> DenseNet:
    return DenseNet(list(sizes), np.random.default_rng(seed))


def test_shapes_and_init():
    net = _net()
    assert [w.shape for w in net.weights] == [(6, 16), (16, 4)]
    assert [b.shape for b in net.biases] == [(16,), (4,)]
    assert all(np.all(b == 0) for b in net.biases)
    with pytest.raises(ValueError):
        DenseNet([5], np.random.default_rng(0))


def test_forward_single_vs_batch():
    net = _net()
    x = np.random.default_rng(1).normal(size=(5, 6))
    batch = net.forward(x)
    assert batch.shape == (5, 4)
    for i in range(5):
        one = net.forward(x[i])
        assert one.shape == (4,)
        # row-at-a-time and batched matmuls may take different BLAS paths
        assert one == pytest.approx(batch[i], rel=1e-12, abs=1e-12)


def test_output_layer_is_linear():
    # a large negative shift must pass through (no ReLU on the last layer)
    net = _net()
    x = np.zeros(6)
    net.biases[-1][:] = -100.0
    assert np.all(net.forward(x) <= -50.0)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(42)
    net = _net((5, 8, 7, 3), seed=3)
    x = rng.normal(size=(4, 5))
    y = rng.normal(size=(4, 3))
    _, grads = mse_loss_and_grads(net, x, y)
    params = net.parameters()
    assert len(grads) == len(params)
    h = 1e-6
    worst = 0.0
    for p, g in zip(params, grads):
        flat_p, flat_g = p.ravel(), g.ravel()
        for idx in range(0, flat_p.size, max(1, flat_p.size // 10)):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            plus, _ = mse_loss_and_grads(net, x, y)
            flat_p[idx] = orig - h
            minus, _ = mse_loss_and_grads(net, x, y)
            flat_p[idx] = orig
            numeric = (plus - minus) / (2 * h)
            denom = max(abs(numeric), abs(flat_g[idx]), 1e-8)
            worst = max(worst, abs(numeric - flat_g[idx]) / denom)
    assert worst < 1e-4


def test_loss_is_mean_over_all_outputs():
    net = _net()
    x = np.zeros((2, 6))
    out = net.forward(x)
    y = out + 1.0
    loss, _ = mse_loss_and_grads(net, x, y)
    assert loss == pytest.approx(1.0, rel=1e-12)


def test_clone_and_copy_from_are_detached():
    net = _net()
    twin = net.clone()
    x = np.ones(6)
    assert np.allclose(net.forward(x), twin.forward(x))
    net.weights[0][0, 0] += 1.0
    assert not np.allclose(net.forward(x), twin.forward(x))
    twin.copy_from(net)
    assert np.allclose(net.forward(x), twin.forward(x))


def _train_to_fit(opt_name: str) -> float:
    rng = np.random.default_rng(7)
    net = DenseNet([3, 32, 2], rng)
    x = rng.normal(size=(32, 3))
    y = np.stack([x[:, 0] + x[:, 1], x[:, 2] * 0.5], axis=1)
    opt = make_optimizer(opt_name, net.parameters(), lr=0.01 if opt_name == "adam" else 1.0)
    first = None
    for _ in range(400):
        loss, grads = mse_loss_and_grads(net, x, y)
        first = first if first is not None else loss
        opt.step(grads)
    final, _ = mse_loss_and_grads(net, x, y)
    assert final < first / 10
    return final


def test_adam_reduces_loss():
    assert _train_to_fit("adam") < 0.05


def test_adadelta_reduces_loss():
    _train_to_fit("adadelta")


def test_adam_state_advances():
    net = _net()
    opt = Adam(net.parameters(), lr=0.001)
    _, grads = mse_loss_and_grads(net, np.ones((1, 6)), np.zeros((1, 4)))
    opt.step(grads)
    assert opt.t == 1
    assert any(np.any(m != 0) for m in opt.m)


def test_make_optimizer_rejects_unknown():
    with pytest.raises(ValueError, match="unknown optimizer"):
        make_optimizer("sgd", [], 0.1)
    assert isinstance(make_optimizer("adadelta", [], 1.0), Adadelta)
