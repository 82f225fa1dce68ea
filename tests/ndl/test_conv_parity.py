"""Parity of the GEMM convolution and the fused BatchNorm with the
formulation they replaced.

The old code lives here, and only here, as the oracle: ``np.pad`` plus a
K*K loop for im2col/col2im, three ``np.einsum`` contractions for the
convolution, and BatchNorm through ``x.mean`` / ``x.var`` with separate
reductions for the parameter and input gradients.  GEMMs and reductions
may differ from it in the last ulp (rtol 1e-5); data movement may not
differ at all.
"""

import itertools

import numpy as np
import pytest

from repro.bench.suite import BENCHMARKS
from repro.ndl import Tensor
from repro.ndl import functional as F
from repro.ndl.layers import BatchNorm2d

RTOL = 1e-5

CONV_BENCHMARKS = (
    "resnet20-cifar10",
    "densenet40-cifar10",
    "resnet9-cifar10",
    "vgg16-cifar10",
    "resnet50-imagenet",
    "vgg19-imagenet",
    "unet-dagm",
)


# ---------------------------------------------------------------------------
# The oracle: the formulation before the compute pass
# ---------------------------------------------------------------------------


def _out_size(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


def loop_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = x[
                :, :, i:i + stride * oh:stride, j:j + stride * ow:stride
            ]
    return cols.reshape(n, c * kernel * kernel, oh * ow), (oh, ow)


def loop_col2im(cols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel, kernel, oh, ow)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            padded[
                :, :, i:i + stride * oh:stride, j:j + stride * ow:stride
            ] += cols[:, :, i, j]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def einsum_conv(x, weight, bias, stride, padding, grad_of_out):
    """(out, grad_x, grad_w, grad_bias) of the einsum convolution."""
    n = x.shape[0]
    f, _, kernel, _ = weight.shape
    cols, (oh, ow) = loop_im2col(x, kernel, stride, padding)
    w2d = weight.reshape(f, -1)
    out = np.einsum("fk,nkp->nfp", w2d, cols).reshape(n, f, oh, ow)
    if bias is not None:
        out = out + bias.reshape(1, f, 1, 1)
    grad = grad_of_out(out)
    grad3 = grad.reshape(n, f, oh * ow)
    grad_w = np.einsum("nfp,nkp->fk", grad3, cols).reshape(weight.shape)
    grad_cols = np.einsum("fk,nfp->nkp", w2d, grad3)
    grad_x = loop_col2im(grad_cols, x.shape, kernel, stride, padding)
    grad_bias = grad.sum(axis=(0, 2, 3)) if bias is not None else None
    return out, grad_x, grad_w, grad_bias


def same_gemms_loop_movement(x, weight, stride, padding, grad):
    """The new GEMM calls over columns moved by the *loop* im2col/col2im.

    Equal inputs to equal BLAS calls give equal bits, so any difference
    from ``conv2d`` is a difference in data movement.
    """
    n, c = x.shape[:2]
    f, _, kernel, _ = weight.shape
    cols, (oh, ow) = loop_im2col(x, kernel, stride, padding)
    cols2d = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(
        c * kernel * kernel, n * oh * ow
    )
    w2d = weight.reshape(f, -1)
    out = (w2d @ cols2d).reshape(f, n, oh, ow).transpose(1, 0, 2, 3)
    grad2d = np.ascontiguousarray(grad.transpose(1, 0, 2, 3)).reshape(f, -1)
    grad_w = (grad2d @ cols2d.T).reshape(weight.shape)
    grad_cols = (w2d.T @ grad2d).reshape(-1, n, oh * ow).transpose(1, 0, 2)
    grad_x = loop_col2im(
        np.ascontiguousarray(grad_cols), x.shape, kernel, stride, padding
    )
    return out, grad_x, grad_w


def old_batchnorm(x, gamma, beta, running_mean, running_var, training,
                  grad, eps=1e-5):
    """(out, dx, dgamma, dbeta, mean, var) by the previous formulas."""
    axes = (0, 2, 3)
    if training:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
    count = x.shape[0] * x.shape[2] * x.shape[3]
    dgamma = (grad * x_hat).sum(axis=axes)
    dbeta = grad.sum(axis=axes)
    g_hat = grad * gamma[None, :, None, None]
    if training:
        sum_g = g_hat.sum(axis=axes, keepdims=True)
        sum_gx = (g_hat * x_hat).sum(axis=axes, keepdims=True)
        dx = inv_std[None, :, None, None] * (
            g_hat - sum_g / count - x_hat * sum_gx / count
        )
    else:
        dx = g_hat * inv_std[None, :, None, None]
    return out, dx, dgamma, dbeta, mean, var


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def assert_close(actual, expected):
    """rtol 1e-5, with the same relative slack for entries that cancel."""
    scale = float(np.abs(expected).max()) or 1.0
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale)


def run_conv2d(x, weight, bias, stride, padding, grad_of_out):
    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(weight.copy(), requires_grad=True)
    bt = None if bias is None else Tensor(bias.copy(), requires_grad=True)
    out = F.conv2d(xt, wt, bt, stride=stride, padding=padding)
    out.backward(grad_of_out(out.data))
    return out.data, xt.grad, wt.grad, None if bt is None else bt.grad


def upstream_gradient(rng):
    """``out -> grad`` that draws once, so both sides get the same array."""
    drawn = []

    def grad_of_out(out):
        if not drawn:
            drawn.append(rng.standard_normal(out.shape).astype(np.float32))
        return drawn[0]

    return grad_of_out


def check_against_einsum(x_shape, w_shape, with_bias, stride, padding, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape).astype(np.float32)
    weight = rng.standard_normal(w_shape).astype(np.float32)
    bias = (
        rng.standard_normal(w_shape[0]).astype(np.float32) if with_bias
        else None
    )
    grad_of_out = upstream_gradient(rng)
    new = run_conv2d(x, weight, bias, stride, padding, grad_of_out)
    old = einsum_conv(x, weight, bias, stride, padding, grad_of_out)
    for actual, expected in zip(new, old):
        if expected is None:
            assert actual is None
        else:
            assert actual.shape == expected.shape
            assert_close(actual, expected)


def conv_layer_shapes(key):
    """Every distinct conv2d call of one lite benchmark's forward pass."""
    run = BENCHMARKS[key].build(n_workers=4, seed=0)
    inputs, _ = next(iter(run.loader))[0]
    seen = []
    real = F.conv2d

    def spy(x, weight, bias=None, stride=1, padding=0):
        call = (x.data.shape, weight.data.shape, bias is not None,
                stride, padding)
        if call not in seen:
            seen.append(call)
        return real(x, weight, bias, stride=stride, padding=padding)

    F.conv2d = spy
    try:
        run.model(Tensor(inputs))
    finally:
        F.conv2d = real
    return seen


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


GRID = list(itertools.product((1, 3), (1, 2), (0, 1), (True, False)))


class TestConvAgainstEinsum:
    @pytest.mark.parametrize("kernel,stride,padding,with_bias", GRID)
    def test_grid(self, kernel, stride, padding, with_bias):
        check_against_einsum(
            (3, 5, 7, 6), (4, 5, kernel, kernel), with_bias, stride, padding
        )

    @pytest.mark.parametrize("key", CONV_BENCHMARKS)
    def test_every_conv_layer_of_the_benchmark(self, key):
        shapes = conv_layer_shapes(key)
        assert shapes, f"{key} ran no convolution"
        for index, shape in enumerate(shapes):
            check_against_einsum(*shape, seed=index)

    def test_only_the_seven_listed_benchmarks_convolve(self):
        others = set(BENCHMARKS) - set(CONV_BENCHMARKS)
        assert others == {"ncf-movielens", "lstm-ptb"}


class TestDataMovementIsExact:
    @pytest.mark.parametrize(
        "kernel,stride,padding", itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2))
    )
    def test_im2col_equals_the_loop(self, kernel, stride, padding):
        x = np.random.default_rng(1).standard_normal((2, 3, 7, 6)).astype(
            np.float32
        )
        cols, size = F.im2col(x, kernel, stride, padding)
        expected, expected_size = loop_im2col(x, kernel, stride, padding)
        assert size == expected_size
        assert cols.flags.c_contiguous and cols.flags.writeable
        np.testing.assert_array_equal(cols, expected)

    def test_im2col_of_a_strided_input(self):
        base = np.random.default_rng(2).standard_normal((6, 7, 3, 2)).astype(
            np.float32
        )
        x = base.transpose(3, 2, 1, 0)[:, :, ::2]
        cols, _ = F.im2col(x, 3, 1, 1)
        np.testing.assert_array_equal(cols, loop_im2col(x, 3, 1, 1)[0])

    @pytest.mark.parametrize(
        "kernel,stride,padding", itertools.product((1, 3), (1, 2), (0, 1))
    )
    def test_col2im_equals_the_loop(self, kernel, stride, padding):
        x_shape = (2, 3, 7, 6)
        oh = _out_size(7, kernel, stride, padding)
        ow = _out_size(6, kernel, stride, padding)
        rows = 3 * kernel * kernel
        # conv2d hands col2im a transposed view of a (rows, N*P) product.
        flat = np.random.default_rng(3).standard_normal(
            (rows, 2 * oh * ow)
        ).astype(np.float32)
        view = flat.reshape(rows, 2, oh * ow).transpose(1, 0, 2)
        expected = loop_col2im(
            np.ascontiguousarray(view), x_shape, kernel, stride, padding
        )
        np.testing.assert_array_equal(
            F.col2im(view, x_shape, kernel, stride, padding), expected
        )

    @pytest.mark.parametrize(
        "kernel,stride,padding", itertools.product((1, 3), (1, 2), (0, 1))
    )
    def test_conv2d_moves_data_like_the_loop(self, kernel, stride, padding):
        # Covers the 1x1 / stride-1 / unpadded path, which never builds
        # columns, along with the strided-view gather.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5, 6, 6)).astype(np.float32)
        weight = rng.standard_normal((4, 5, kernel, kernel)).astype(np.float32)
        grad_of_out = upstream_gradient(rng)
        out, grad_x, grad_w, _ = run_conv2d(
            x, weight, None, stride, padding, grad_of_out
        )
        expected = same_gemms_loop_movement(
            x, weight, stride, padding, grad_of_out(out)
        )
        for actual, reference in zip((out, grad_x, grad_w), expected):
            np.testing.assert_array_equal(actual, reference)

    def test_pointwise_conv_builds_no_columns(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("1x1 conv went through im2col/col2im")

        monkeypatch.setattr(F, "_patches", fail)
        monkeypatch.setattr(F, "col2im", fail)
        x = Tensor(np.ones((2, 3, 4, 4), np.float32), requires_grad=True)
        w = Tensor(np.ones((5, 3, 1, 1), np.float32), requires_grad=True)
        F.conv2d(x, w).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3, 4, 4), 5.0))
        np.testing.assert_array_equal(w.grad, np.full((5, 3, 1, 1), 32.0))


class TestInputGradientIsSkipped:
    def _count_col2im(self, monkeypatch):
        calls = []
        real = F.col2im

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(F, "col2im", counting)
        return calls

    def test_input_without_grad_never_reaches_col2im(self, monkeypatch):
        calls = self._count_col2im(monkeypatch)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                   requires_grad=True)
        F.conv2d(x, w, padding=1).sum().backward()
        assert calls == []
        assert x.grad is None and w.grad is not None

    def test_input_with_grad_does(self, monkeypatch):
        calls = self._count_col2im(monkeypatch)
        x = Tensor(np.ones((2, 3, 6, 6), np.float32), requires_grad=True)
        w = Tensor(np.ones((4, 3, 3, 3), np.float32), requires_grad=True)
        F.conv2d(x, w, padding=1).sum().backward()
        assert calls == [1]

    def test_first_conv_of_a_model_skips_it(self, monkeypatch):
        calls = self._count_col2im(monkeypatch)
        needs_input_grad = []
        real = F.conv2d

        def spy(x, weight, bias=None, stride=1, padding=0):
            needs_input_grad.append(x.requires_grad)
            return real(x, weight, bias, stride=stride, padding=padding)

        monkeypatch.setattr(F, "conv2d", spy)
        run = BENCHMARKS["resnet20-cifar10"].build(n_workers=4, seed=0)
        inputs, targets = next(iter(run.loader))[0]
        run.task.forward_backward(inputs, targets)
        # Only the stem reads the data batch; resnet20 has no 1x1/stride-1
        # layer, so every other convolution scatters an input gradient.
        assert needs_input_grad.count(False) == 1
        assert len(calls) == len(needs_input_grad) - 1


# ---------------------------------------------------------------------------
# BatchNorm2d
# ---------------------------------------------------------------------------


class TestBatchNormAgainstOldFormulas:
    @pytest.mark.parametrize("training", (True, False))
    @pytest.mark.parametrize("shape", ((16, 8, 8, 8), (16, 32, 2, 2), (4, 3, 5, 7)))
    def test_forward_and_backward(self, training, shape):
        rng = np.random.default_rng(6)
        channels = shape[1]
        x = (2.0 + 3.0 * rng.standard_normal(shape)).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, channels).astype(np.float32)
        beta = rng.standard_normal(channels).astype(np.float32)
        running_mean = rng.standard_normal(channels).astype(np.float32)
        running_var = rng.uniform(0.5, 2.0, channels).astype(np.float32)
        grad = rng.standard_normal(shape).astype(np.float32)

        layer = BatchNorm2d(channels)
        layer.gamma.data, layer.beta.data = gamma.copy(), beta.copy()
        layer.running_mean = running_mean.copy()
        layer.running_var = running_var.copy()
        if not training:
            layer.eval()
        xt = Tensor(x.copy(), requires_grad=True)
        out = layer(xt)
        out.backward(grad)

        ref_out, ref_dx, ref_dgamma, ref_dbeta, mean, var = old_batchnorm(
            x, gamma, beta, running_mean, running_var, training, grad
        )
        assert_close(out.data, ref_out)
        assert_close(xt.grad, ref_dx)
        assert_close(layer.gamma.grad, ref_dgamma)
        assert_close(layer.beta.grad, ref_dbeta)
        if training:
            # The statistics are computed with np.var's own operations.
            np.testing.assert_array_equal(
                layer.running_mean,
                (0.9 * running_mean + 0.1 * mean).astype(np.float32),
            )
            np.testing.assert_array_equal(
                layer.running_var,
                (0.9 * running_var + 0.1 * var).astype(np.float32),
            )
            np.testing.assert_array_equal(out.data, ref_out)
        else:
            np.testing.assert_array_equal(layer.running_mean, running_mean)
            np.testing.assert_array_equal(layer.running_var, running_var)
