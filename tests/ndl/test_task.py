"""ModelTask adapter between ndl models and the GRACE trainer."""

import numpy as np
import pytest

from repro.ndl import ModelTask, SGD, Tensor
from repro.ndl.losses import softmax_cross_entropy
from repro.ndl.models import MLP


def make_task(seed=0, lr=0.1):
    model = MLP(6, [8], 3, seed=seed)
    return model, ModelTask(
        model, SGD(model.named_parameters(), lr=lr), softmax_cross_entropy
    )


class TestForwardBackward:
    def test_returns_loss_and_all_gradients(self):
        model, task = make_task()
        x = np.random.default_rng(0).standard_normal((4, 6)).astype(np.float32)
        y = np.array([0, 1, 2, 0])
        loss, grads = task.forward_backward(x, y)
        assert loss > 0
        assert set(grads) == {name for name, _ in model.named_parameters()}
        assert all(np.any(g != 0) for g in grads.values())

    def test_gradients_are_copies(self):
        model, task = make_task()
        x = np.ones((2, 6), np.float32)
        y = np.array([0, 1])
        _, grads = task.forward_backward(x, y)
        name = next(iter(grads))
        grads[name][:] = 99.0
        param = dict(model.named_parameters())[name]
        assert not np.any(param.grad == 99.0)

    def test_zeroes_gradients_between_calls(self):
        model, task = make_task()
        x = np.ones((2, 6), np.float32)
        y = np.array([0, 1])
        _, first = task.forward_backward(x, y)
        _, second = task.forward_backward(x, y)
        name = next(iter(first))
        np.testing.assert_allclose(first[name], second[name], rtol=1e-5)

    def test_custom_forward_fn(self):
        model, _ = make_task()
        task = ModelTask(
            model,
            SGD(model.named_parameters(), lr=0.1),
            softmax_cross_entropy,
            forward_fn=lambda m, x: m(Tensor(2.0 * np.asarray(x))),
        )
        loss, _ = task.forward_backward(
            np.ones((2, 6), np.float32), np.array([0, 1])
        )
        assert loss > 0


class TestGradientHandOff:
    """What forward_backward returns belongs to the caller alone."""

    @staticmethod
    def _conv_task():
        from repro.ndl.models import ResNetCIFAR

        model = ResNetCIFAR(depth=8, base_width=4, num_classes=3, seed=0)
        return model, ModelTask(
            model, SGD(model.named_parameters(), lr=0.05),
            softmax_cross_entropy,
        )

    def test_mutating_returned_gradients_changes_nothing(self):
        rng = np.random.default_rng(0)
        batches = [
            (rng.standard_normal((4, 3, 8, 8)).astype(np.float32),
             rng.integers(0, 3, 4))
            for _ in range(2)
        ]
        outcomes = []
        for scribble in (False, True):
            _, task = self._conv_task()
            _, grads = task.forward_backward(*batches[0])
            if scribble:
                for grad in grads.values():
                    assert grad.flags.writeable and grad.flags.owndata
                    grad[...] = 99.0
            outcomes.append(task.forward_backward(*batches[1]))
        (loss, grads), (loss_scribbled, grads_scribbled) = outcomes
        assert loss == loss_scribbled
        for name in grads:
            np.testing.assert_array_equal(grads[name], grads_scribbled[name])

    def test_returned_gradients_share_no_memory(self):
        model, task = self._conv_task()
        x = np.ones((2, 3, 8, 8), np.float32)
        _, grads = task.forward_backward(x, np.array([0, 1]))
        arrays = list(grads.values())
        for i, first in enumerate(arrays):
            for second in arrays[i + 1:]:
                assert not np.shares_memory(first, second)
        for name, param in model.named_parameters():
            assert not np.shares_memory(grads[name], param.data)
            assert not np.shares_memory(grads[name], param.grad)

    def test_parameter_list_is_walked_once(self, monkeypatch):
        model, task = make_task()
        walks = []
        real = type(model).named_parameters

        def counting(self, prefix=""):
            walks.append(prefix)
            return real(self, prefix)

        monkeypatch.setattr(type(model), "named_parameters", counting)
        x = np.ones((2, 6), np.float32)
        task.forward_backward(x, np.array([0, 1]))
        task.forward_backward(x, np.array([0, 1]))
        assert walks == []

    def test_recurrent_weights_accumulate_over_time_steps(self):
        from collections import Counter

        from repro.ndl.models import LSTMLanguageModel

        model = LSTMLanguageModel(vocab_size=8, embed_dim=4, hidden_dim=6,
                                  seed=0)
        task = ModelTask(
            model, SGD(model.named_parameters(), lr=0.1),
            lambda logits, tgt: softmax_cross_entropy(logits, np.ravel(tgt)),
        )
        tokens = np.random.default_rng(1).integers(0, 8, (3, 5))
        fired = Counter()
        model.register_grad_ready_hook(
            lambda name, param, grad: fired.update([name])
        )
        _, grads = task.forward_backward(tokens, tokens)
        recurrent = [name for name, count in fired.items() if count == 5]
        assert recurrent, f"no parameter accumulated once per step: {fired}"
        # A finite difference through all five steps confirms the sum.
        name = recurrent[0]
        param = dict(model.named_parameters())[name]
        index = np.unravel_index(
            np.argmax(np.abs(grads[name])), param.data.shape
        )
        original, eps = float(param.data[index]), 1e-2

        def loss_at(value):
            param.data[index] = value
            return task.forward_backward(tokens, tokens)[0]

        numeric = (loss_at(original + eps) - loss_at(original - eps)) / (2 * eps)
        assert grads[name][index] == pytest.approx(numeric, rel=5e-2, abs=1e-3)


class TestApplyUpdate:
    def test_moves_parameters(self):
        model, task = make_task(lr=1.0)
        before = model.state_dict()
        gradients = {
            name: np.ones_like(param.data)
            for name, param in model.named_parameters()
        }
        task.apply_update(gradients)
        after = model.state_dict()
        for name in before:
            np.testing.assert_allclose(after[name], before[name] - 1.0)
