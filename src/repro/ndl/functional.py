"""Functional ops beyond the elementwise/linear-algebra core.

Convolution uses the im2col lowering (the standard GEMM formulation that
GPU libraries use), max/avg pooling support the stride==kernel case every
benchmark model needs, embedding is a row-gather with scatter-add
backward, and ``concat`` / ``pad`` / ``upsample_nearest`` serve U-Net's
encoder-decoder skips.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.ndl.tensor import Tensor, _as_tensor, _bw_add, grad_enabled

# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------


def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def _check_window(stride: int, padding: int) -> None:
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")


def _patches(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Read-only (N, C, K, K, OH, OW) window view of the zero-padded input.

    No patch is materialised here: reshaping the view is the one copy that
    lays the columns out, in whatever axis order the caller asks for.
    """
    _check_window(stride, padding)
    n, c, h, w = x.shape
    oh = _conv_output_size(h, kernel, stride, padding)
    ow = _conv_output_size(w, kernel, stride, padding)
    if padding:
        padded = np.zeros(
            (n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
        )
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    s_n, s_c, s_h, s_w = x.strides
    return as_strided(
        x,
        shape=(n, c, kernel, kernel, oh, ow),
        strides=(s_n, s_c, s_h, s_w, stride * s_h, stride * s_w),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower (N, C, H, W) into (N, C*K*K, OH*OW) patch columns."""
    patches = _patches(x, kernel, stride, padding)
    n, c, _, _, oh, ow = patches.shape
    # Filled in place so the result is a fresh, writable array even where
    # the view is already contiguous (1x1 / stride 1 / no padding).
    cols = np.empty((n, c * kernel * kernel, oh * ow), dtype=x.dtype)
    cols.reshape(patches.shape)[...] = patches
    return cols, (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add (N, C*K*K, OH*OW) patch columns into an (N, C, H, W) image.

    ``cols`` may be any strided view of that shape; it is never copied.
    """
    _check_window(stride, padding)
    n, c, h, w = x_shape
    oh = _conv_output_size(h, kernel, stride, padding)
    ow = _conv_output_size(w, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel, kernel, oh, ow)
    padded = np.zeros(
        (n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype
    )
    for i in range(kernel):
        i_end = i + stride * oh
        for j in range(kernel):
            j_end = j + stride * ow
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution of (N, C, H, W) with (F, C, K, K) filters.

    Forward, weight gradient and input gradient are one BLAS GEMM each over
    patch columns laid out ``(C*K*K, N*OH*OW)``, so the contraction axes of
    all three are contiguous whatever the feature-map size.  A 1x1 /
    stride-1 / unpadded filter reads its columns straight off the input,
    and an input that does not require grad gets no input gradient.
    """
    n, c, h, w = x.data.shape
    f, c_in, kernel, kernel2 = weight.data.shape
    if kernel != kernel2:
        raise ValueError("only square kernels are supported")
    if c != c_in:
        raise ValueError(f"input has {c} channels, filters expect {c_in}")
    pointwise = kernel == 1 and stride == 1 and padding == 0
    if pointwise:
        oh, ow = h, w
        cols = x.data.transpose(1, 0, 2, 3).reshape(c, n * h * w)
    else:
        patches = _patches(x.data, kernel, stride, padding)
        oh, ow = patches.shape[4:]
        cols = patches.transpose(1, 2, 3, 0, 4, 5).reshape(
            c * kernel * kernel, n * oh * ow
        )
    w2d = weight.data.reshape(f, -1)
    out2d = w2d @ cols
    if bias is not None:
        out2d += bias.data[:, None]
    out = np.ascontiguousarray(
        out2d.reshape(f, n, oh, ow).transpose(1, 0, 2, 3)
    )
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad2d = grad.transpose(1, 0, 2, 3).reshape(f, n * oh * ow)
        _bw_add(weight, (grad2d @ cols.T).reshape(weight.data.shape))
        if bias is not None:
            _bw_add(bias, grad.sum(axis=(0, 2, 3)))
        if not x.requires_grad:
            return
        grad_cols = w2d.T @ grad2d
        if pointwise:
            _bw_add(x, grad_cols.reshape(c, n, h, w).transpose(1, 0, 2, 3))
        else:
            _bw_add(
                x,
                col2im(
                    grad_cols.reshape(-1, n, oh * ow).transpose(1, 0, 2),
                    x.data.shape, kernel, stride, padding,
                ),
            )

    return Tensor._make(out, parents, backward)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _check_pool_shape(h: int, w: int, kernel: int) -> None:
    if h % kernel or w % kernel:
        raise ValueError(
            f"pooling requires spatial dims divisible by kernel, got "
            f"({h}, {w}) with kernel {kernel}"
        )


def max_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling (stride == kernel)."""
    n, c, h, w = x.data.shape
    _check_pool_shape(h, w, kernel)
    oh, ow = h // kernel, w // kernel
    windows = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out = windows.max(axis=(3, 5))
    mask = windows == out[:, :, :, None, :, None]
    # Break ties toward a single winner so the gradient is well-defined.
    counts = mask.sum(axis=(3, 5), keepdims=True)

    def backward(grad: np.ndarray) -> None:
        expanded = grad[:, :, :, None, :, None] * mask / counts
        _bw_add(x, expanded.reshape(n, c, h, w))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping average pooling (stride == kernel)."""
    n, c, h, w = x.data.shape
    _check_pool_shape(h, w, kernel)
    oh, ow = h // kernel, w // kernel
    windows = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out = windows.mean(axis=(3, 5))
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray) -> None:
        expanded = np.broadcast_to(
            grad[:, :, :, None, :, None] * scale, (n, c, oh, kernel, ow, kernel)
        )
        _bw_add(x, expanded.reshape(n, c, h, w))

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------------
# Embedding, concat, pad, upsample, dropout
# ---------------------------------------------------------------------------


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather: (V, D) table x integer index array -> (*idx, D)."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"embedding indices must be integers, got {idx.dtype}")
    out = weight.data[idx]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(weight.data)
        np.add.at(full, idx, grad)
        _bw_add(weight, full)

    return Tensor._make(out, (weight,), backward)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    """Concatenate along ``axis`` (U-Net skip connections)."""
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray) -> None:
        for tensor, piece in zip(tensors, np.split(grad, splits, axis=axis)):
            _bw_add(tensor, piece)

    return Tensor._make(out, tuple(tensors), backward)


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the two trailing spatial dims."""
    if padding < 0:
        raise ValueError("padding must be non-negative")
    if padding == 0:
        return x
    out = np.pad(
        x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))
    )

    def backward(grad: np.ndarray) -> None:
        _bw_add(x, grad[:, :, padding:-padding, padding:-padding])

    return Tensor._make(out, (x,), backward)


def upsample_nearest2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of (N, C, H, W) by an integer factor."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    out = x.data.repeat(scale, axis=2).repeat(scale, axis=3)
    n, c, h, w = x.data.shape

    def backward(grad: np.ndarray) -> None:
        folded = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        _bw_add(x, folded)

    return Tensor._make(out, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) at train time."""
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0:
        return x
    mask = (rng.random(size=x.data.shape) >= p) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        _bw_add(x, grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    softmax = np.exp(out)

    def backward(grad: np.ndarray) -> None:
        _bw_add(x, grad - softmax * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


def stack_rows(tensors: list[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis (LSTM outputs)."""
    tensors = [_as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors])

    def backward(grad: np.ndarray) -> None:
        for i, tensor in enumerate(tensors):
            _bw_add(tensor, grad[i])

    return Tensor._make(out, tuple(tensors), backward)


__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "embedding",
    "concat",
    "pad2d",
    "upsample_nearest2d",
    "dropout",
    "log_softmax",
    "stack_rows",
    "grad_enabled",
]
