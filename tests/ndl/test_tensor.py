"""Autograd engine: per-op gradients against numerical differentiation."""

import numpy as np
import pytest

from repro.ndl import Tensor, no_grad


def check_grad(op, *shapes, seed=0, tol=2e-2):
    """Compare analytic and numerical gradients of sum(op(*inputs))."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    out.sum().backward()
    for i, array in enumerate(arrays):
        def scalar():
            fresh = [Tensor(a) for a in arrays]
            return float(op(*fresh).data.sum())

        grad_num = np.zeros_like(array, dtype=np.float64)
        eps = 1e-3
        it = np.nditer(array, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = array[idx]
            array[idx] = orig + eps
            up = scalar()
            array[idx] = orig - eps
            down = scalar()
            array[idx] = orig
            grad_num[idx] = (up - down) / (2 * eps)
            it.iternext()
        scale = max(np.abs(grad_num).max(), 1e-6)
        np.testing.assert_allclose(
            tensors[i].grad, grad_num, atol=tol * scale, rtol=tol,
            err_msg=f"input {i} of {op}",
        )


class TestElementwiseGrads:
    def test_add(self):
        check_grad(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_grad(lambda a, b: a + b, (3, 4), (4,))

    def test_sub(self):
        check_grad(lambda a, b: a - b, (5,), (5,))

    def test_mul(self):
        check_grad(lambda a, b: a * b, (2, 3), (2, 3))

    def test_mul_broadcast_scalar_tensor(self):
        check_grad(lambda a, b: a * b, (4,), (1,))

    def test_div(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal(6).astype(np.float32), requires_grad=True)
        b = Tensor((rng.random(6) + 1).astype(np.float32), requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1 / b.data, rtol=1e-5)
        np.testing.assert_allclose(b.grad, -a.data / b.data**2, rtol=1e-4)

    def test_neg(self):
        check_grad(lambda a: -a, (7,))

    def test_pow(self):
        check_grad(lambda a: a ** 3, (6,))

    def test_exp(self):
        check_grad(lambda a: a.exp(), (4,))

    def test_log(self):
        rng = np.random.default_rng(2)
        a = Tensor((rng.random(5) + 0.5).astype(np.float32), requires_grad=True)
        a.log().sum().backward()
        np.testing.assert_allclose(a.grad, 1 / a.data, rtol=1e-5)

    def test_sqrt(self):
        rng = np.random.default_rng(3)
        a = Tensor((rng.random(5) + 0.5).astype(np.float32), requires_grad=True)
        a.sqrt().sum().backward()
        np.testing.assert_allclose(a.grad, 0.5 / np.sqrt(a.data), rtol=1e-5)

    def test_relu(self):
        a = Tensor(np.array([-1.0, 2.0, -3.0, 4.0]), requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_array_equal(a.grad, [0, 1, 0, 1])

    def test_sigmoid(self):
        check_grad(lambda a: a.sigmoid(), (8,))

    def test_tanh(self):
        check_grad(lambda a: a.tanh(), (8,))


class TestReductionsAndShapes:
    def test_sum_axis(self):
        check_grad(lambda a: a.sum(axis=0), (3, 4))

    def test_sum_keepdims(self):
        check_grad(lambda a: a.sum(axis=1, keepdims=True), (3, 4))

    def test_mean(self):
        a = Tensor(np.ones((2, 5), np.float32), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, 0.1)

    def test_max_routes_gradient_to_argmax(self):
        a = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0, 1], [1, 0]])

    def test_max_splits_ties(self):
        a = Tensor(np.array([3.0, 3.0]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])

    def test_reshape(self):
        check_grad(lambda a: (a.reshape(6) * np.arange(6)).sum(), (2, 3))

    def test_transpose(self):
        check_grad(lambda a: a.transpose(1, 0) @ Tensor(np.ones((3, 2),
                                                        np.float32)), (3, 4))

    def test_getitem_slicing(self):
        a = Tensor(np.arange(10, dtype=np.float32), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1
        np.testing.assert_array_equal(a.grad, expected)

    def test_matmul_2d(self):
        check_grad(lambda a, b: a @ b, (3, 4), (4, 2))

    def test_matmul_batched(self):
        check_grad(lambda a, b: a @ b, (2, 3, 4), (2, 4, 2))


class TestEngine:
    def test_grad_accumulates_over_reuse(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        (a * a).backward()  # d(a^2)/da = 2a = 4
        np.testing.assert_allclose(a.grad, [4.0])

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = a * 2
        c = a * 5
        (b + c).backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_shared_contribution_is_not_written_through(self):
        # ``a + b`` hands one buffer to both operands; a second
        # accumulation into ``a`` must not show up in ``b``.
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        ((a + b) + a * 3.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [4.0, 4.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_tied_weight_sums_every_use(self):
        rng = np.random.default_rng(0)
        uses = [rng.standard_normal(5).astype(np.float32) for _ in range(4)]
        kept = [use.copy() for use in uses]
        w = Tensor(np.ones(5), requires_grad=True)
        seen = []
        w.register_grad_hook(lambda t, g: seen.append(g.copy()))
        total = (w * uses[0]).sum()
        for use in uses[1:]:
            total = total + (w * use).sum()
        total.backward()
        np.testing.assert_allclose(w.grad, np.sum(kept, axis=0), rtol=1e-6)
        # One firing per use, each seeing the running sum; no
        # contribution was modified on the way.
        assert len(seen) == 4
        np.testing.assert_array_equal(seen[-1], w.grad)
        assert any(np.array_equal(seen[0], use) for use in kept)
        for use, original in zip(uses, kept):
            np.testing.assert_array_equal(use, original)

    def test_seed_is_not_kept_by_reference(self):
        a = Tensor(np.ones(3), requires_grad=True)
        seed = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        a.backward(seed)
        seed[:] = 0.0
        np.testing.assert_array_equal(a.grad, [1.0, 2.0, 3.0])

    def test_deep_chain_does_not_recurse(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = a
        for _ in range(5000):
            out = out + 1.0
        out.backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_no_grad_blocks_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_backward_requires_scalar_or_seed(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="seed"):
            (a * 2).backward()

    def test_backward_rejects_non_grad_tensor(self):
        a = Tensor(np.ones(3))
        with pytest.raises(RuntimeError, match="require"):
            a.backward()

    def test_explicit_seed_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 2).backward(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        np.testing.assert_allclose(a.grad, [2.0, 4.0, 6.0])

    def test_zero_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * 3).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_data_is_float32(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float32

    def test_item_and_numpy(self):
        t = Tensor(np.array([4.5]))
        assert t.item() == pytest.approx(4.5)
        assert t.numpy() is t.data
