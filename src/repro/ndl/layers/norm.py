"""Normalization and regularization layers."""

from __future__ import annotations

import numpy as np

from repro.ndl import functional as F
from repro.ndl.layers.base import Module, Parameter
from repro.ndl.tensor import Tensor, _bw_add


class BatchNorm2d(Module):
    """Batch normalization over (N, H, W) per channel.

    Training mode normalizes with batch statistics and updates running
    estimates; eval mode uses the running estimates.  The backward pass is
    the standard fused batch-norm gradient.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if num_features < 1:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        if x.data.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got {x.data.shape}")
        axes = (0, 2, 3)
        count = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        if self.training:
            # Mean and variance off one centred array, with the operations
            # of ``np.var`` itself, so the statistics keep their bits.
            mean = x.data.sum(axis=axes) / count
            centred = x.data - mean[None, :, None, None]
            var = (centred * centred).sum(axis=axes) / count
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(np.float32)
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            ).astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var
            centred = x.data - mean[None, :, None, None]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = centred * inv_std[None, :, None, None]
        out = (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )
        gamma, beta, training = self.gamma, self.beta, self.training

        def backward(grad: np.ndarray) -> None:
            sum_g = grad.sum(axis=axes)
            sum_gx = (grad * x_hat).sum(axis=axes)
            _bw_add(gamma, sum_gx)
            _bw_add(beta, sum_g)
            scale = (gamma.data * inv_std)[None, :, None, None]
            if training:
                # Fused batch-norm input gradient; the two reductions are
                # the gamma/beta gradients (sum(gamma*g) = gamma*sum(g)).
                dx = grad - (sum_g / count)[None, :, None, None]
                dx -= x_hat * (sum_gx / count)[None, :, None, None]
                dx *= scale
            else:
                dx = grad * scale
            _bw_add(x, dx)

        return Tensor._make(out, (x, gamma, beta), backward)


class Dropout(Module):
    """Inverted dropout."""

    def __init__(self, p: float = 0.5, seed: int = 0):
        super().__init__()
        if not 0 <= p < 1:
            raise ValueError(f"p must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        return F.dropout(x, self.p, rng=self._rng, training=self.training)
