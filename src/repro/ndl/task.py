"""Adapter between an ``ndl`` model and the GRACE distributed trainer.

:class:`ModelTask` implements the :class:`repro.core.trainer.DistributedTask`
protocol: ``forward_backward`` runs one mini-batch through the model and
returns the per-tensor gradients; ``apply_update`` pushes the aggregated
gradient through the optimizer (Algorithm 1 line 15).

The task also observes *when* each parameter's gradient materializes
during the backward pass (via :meth:`repro.ndl.tensor.Tensor.register_grad_hook`)
and exposes the resulting order through :meth:`gradient_ready_order` —
the signal the overlapping trainer uses to bucket tensors DDP-style in
approximately reverse layer order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ndl.layers.base import Module
from repro.ndl.optim import Optimizer
from repro.ndl.tensor import Tensor


class ModelTask:
    """Wrap (model, optimizer, loss_fn) for the distributed trainer.

    ``loss_fn(outputs, targets)`` must return a scalar :class:`Tensor`.
    ``forward_fn`` customizes how a batch flows through the model
    (defaults to ``model(inputs)``), which models with multiple inputs
    (e.g. NCF's user/item pairs) override.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Callable[[Tensor, np.ndarray], Tensor],
        forward_fn: Callable[[Module, np.ndarray], Tensor] | None = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.forward_fn = forward_fn
        # Gradient-ready observation: each hook firing overwrites the
        # parameter's sequence number, so after backward the surviving
        # value is the *last* accumulation — the point the gradient is
        # final.  Weight-tied/recurrent parameters accumulate many
        # times; last write wins.
        self._ready_seq: dict[str, int] = {}
        self._ready_tick = 0
        # Walked once: the hooks below already tie the task to these
        # Parameter objects for its lifetime.
        self._params = list(model.named_parameters())
        for name, param in self._params:
            param.register_grad_hook(self._ready_hook(name))

    def _ready_hook(self, name: str):
        def hook(tensor: Tensor, grad: np.ndarray) -> None:
            self._ready_seq[name] = self._ready_tick
            self._ready_tick += 1

        return hook

    def forward_backward(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Run one mini-batch and return (loss, per-tensor gradients)."""
        for _, param in self._params:
            param.grad = None
        self._ready_seq.clear()
        self._ready_tick = 0
        if self.forward_fn is not None:
            outputs = self.forward_fn(self.model, inputs)
        else:
            outputs = self.model(inputs)
        loss = self.loss_fn(outputs, targets)
        loss.backward()
        # ``.grad`` may be a view or shared with another tensor (see
        # ``Tensor._accumulate``); this copy is the only one a gradient
        # gets, and makes the returned arrays the caller's to mutate.
        grads = {
            name: (
                param.grad.copy()
                if param.grad is not None
                else np.zeros_like(param.data)
            )
            for name, param in self._params
        }
        return float(loss.item()), grads

    def gradient_ready_order(self) -> list[str] | None:
        """Parameter names ordered by when their gradient became final.

        Taken from the most recent backward pass; ``None`` before any
        backward has run.  Parameters that received no gradient (e.g.
        unused embedding rows' owners) are absent — callers should
        append them in declaration order.
        """
        if not self._ready_seq:
            return None
        return sorted(self._ready_seq, key=self._ready_seq.__getitem__)

    def apply_update(self, gradients: dict[str, np.ndarray]) -> None:
        """Push the aggregated gradient through the optimizer."""
        self.optimizer.step(gradients)
