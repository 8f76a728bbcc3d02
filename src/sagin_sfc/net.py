"""Minimal dense value network: forward, manual backprop, Adam/Adadelta updates.

Own implementation because training must be bit-reproducible from a seed with
no framework dependency; float64 end to end. Hidden layers are ReLU, the
output layer is linear (one Q-value per action).
"""

from __future__ import annotations

import numpy as np


class DenseNet:
    """Fully connected net; `sizes` runs input, hidden..., output."""

    def __init__(self, sizes: list, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(sizes)
        self.weights = [
            rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
        ]
        self.biases = [np.zeros(fan_out) for fan_out in sizes[1:]]

    # -- inference ---------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a single observation or a batch (rows)."""
        out, _ = self.forward_cached(np.atleast_2d(x))
        return out[0] if x.ndim == 1 else out

    def forward_cached(self, x: np.ndarray) -> tuple:
        """Batch forward pass keeping pre/post activations for backprop."""
        a = np.atleast_2d(np.asarray(x, dtype=float))
        cache = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if i == last else np.maximum(z, 0.0)
            cache.append(a)
        return a, cache

    # -- training ----------------------------------------------------------

    def backward(self, cache: list, grad_out: np.ndarray) -> tuple:
        """Gradients of a scalar loss given d(loss)/d(output); returns (dW, db) lists."""
        grad_w = [None] * len(self.weights)
        grad_b = [None] * len(self.biases)
        delta = np.asarray(grad_out, dtype=float)
        for i in range(len(self.weights) - 1, -1, -1):
            grad_w[i] = cache[i].T @ delta
            grad_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (cache[i] > 0.0)
        return grad_w, grad_b

    def parameters(self) -> list:
        return self.weights + self.biases

    def copy_from(self, other: "DenseNet") -> None:
        for dst, src in zip(self.parameters(), other.parameters()):
            np.copyto(dst, src)

    def clone(self) -> "DenseNet":
        twin = DenseNet.__new__(DenseNet)
        twin.sizes = list(self.sizes)
        twin.weights = [w.copy() for w in self.weights]
        twin.biases = [b.copy() for b in self.biases]
        return twin


class Adam:
    """Adam with bias correction; one state slot per parameter array."""

    def __init__(self, params: list, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class Adadelta:
    """Adadelta: per-parameter step sizes from running gradient/update averages."""

    def __init__(self, params: list, lr: float = 1.0, rho: float = 0.9,
                 eps: float = 1e-6):
        self.params = params
        self.lr, self.rho, self.eps = lr, rho, eps
        self.sq_grad = [np.zeros_like(p) for p in params]
        self.sq_step = [np.zeros_like(p) for p in params]

    def step(self, grads: list) -> None:
        rho, eps = self.rho, self.eps
        for p, g, sg, ss in zip(self.params, grads, self.sq_grad, self.sq_step):
            sg *= rho
            sg += (1 - rho) * g * g
            update = np.sqrt((ss + eps) / (sg + eps)) * g
            ss *= rho
            ss += (1 - rho) * update * update
            p -= self.lr * update


def make_optimizer(name: str, params: list, lr: float):
    if name == "adam":
        return Adam(params, lr)
    if name == "adadelta":
        return Adadelta(params, lr)
    raise ValueError(f"unknown optimizer '{name}' (adam or adadelta)")
