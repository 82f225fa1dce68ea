"""Memory (error-feedback) implementations.

The paper's Eq. 4 default::

    φ(mᵏ, gᵏ)        = β mᵏ + γ gᵏ
    ψ(mᵏ, gᵏ, g̃ᵏ)   = φ(mᵏ, gᵏ) − g̃ᵏ

with β = γ = 1 unless noted (EFsignSGD sets γ to the initial learning
rate).  DGC's "momentum correction" is the special memory of §IV-C that
keeps a momentum buffer *and* an accumulation buffer and clears both at
the indices that were transmitted.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Memory


def _observe_residual_norm(memory: Memory, name: str,
                           residual: np.ndarray) -> None:
    """Record ‖residual‖₂ when telemetry is attached (see Memory base).

    Norms cost a pass over the tensor, so they are only computed when a
    registry has been attached via :meth:`Memory.attach_telemetry` —
    the untraced hot loop never pays for them.
    """
    registry = memory.telemetry
    if registry is None:
        return
    registry.histogram(
        "ef_residual_norm", {"tensor": name}, unit="l2",
        help="error-feedback residual L2 norm per update",
    ).observe(float(np.linalg.norm(residual)))


class NoneMemory(Memory):
    """No error feedback: φ is the identity, ψ discards the error."""

    fused_transmitted = "none"

    def compensate_fused(
        self, gradients: dict[str, np.ndarray], bucket, out: np.ndarray
    ) -> np.ndarray:
        """Identity φ: pack the raw gradients straight into the bucket."""
        for seg in bucket.segments:
            out[seg.offset:seg.end] = np.ravel(gradients[seg.name])
        return out

    def update_fused(
        self,
        compensated: np.ndarray,
        bucket,
        transmitted: np.ndarray | None,
    ) -> None:
        """ψ discards the error in the fused path too."""
        return None


class ResidualMemory(Memory):
    """Eq. 4 residual error feedback, keyed by tensor name."""

    def __init__(self, beta: float = 1.0, gamma: float = 1.0):
        if beta <= 0 or gamma <= 0:
            raise ValueError("beta and gamma must be positive")
        self.beta = float(beta)
        self.gamma = float(gamma)
        self._residuals: dict[str, np.ndarray] = {}
        # Flat residuals of buckets of several tensors, keyed by segment
        # layout; the name-keyed dict holds views into these, so both stay
        # in sync.  A one-tensor bucket keeps only its name-keyed entry,
        # as a tensor does.
        self._fused_residuals: dict[tuple, np.ndarray] = {}

    def compensate_fused(
        self, gradients: dict[str, np.ndarray], bucket, out: np.ndarray
    ) -> np.ndarray:
        """Eq. 4 φ over a whole bucket in two vectorized passes.

        When a flat residual for this exact segment layout exists (i.e.
        :meth:`update_fused` ran last iteration and no update over another
        layout replaced any segment's residual since), φ is ``γ·g + β·m``
        on the flat buffers — bitwise-identical to the per-segment
        computation, since elementwise ops on contiguous slices commute
        with packing and IEEE addition is commutative.  Otherwise (first
        iteration, plan change, mixed usage) it runs segment by segment
        on the name-keyed residuals.
        """
        flat = (
            self._fused_residuals.get(bucket.segments) if len(bucket) > 1
            else None
        )
        if flat is None or not all(
            self._residuals.get(seg.name) is not None
            and self._residuals[seg.name].base is flat
            for seg in bucket.segments
        ):
            for seg in bucket.segments:
                residual = self._residuals.get(seg.name)
                gradient = np.asarray(gradients[seg.name], dtype=np.float32)
                view = out[seg.offset:seg.end]
                np.multiply(gradient.reshape(-1), self.gamma, out=view)
                if residual is not None:
                    view += self.beta * residual.reshape(-1)
            return out
        for seg in bucket.segments:
            out[seg.offset:seg.end] = np.ravel(gradients[seg.name])
        np.multiply(out, self.gamma, out=out)
        out += self.beta * flat
        return out

    def update_fused(
        self,
        compensated: np.ndarray,
        bucket,
        transmitted: np.ndarray | None,
    ) -> None:
        """Eq. 4 ψ for a whole bucket: one subtraction, per-name views.

        The subtraction allocates a fresh flat residual (no view into the
        caller's reused scratch buffers is retained); the name-keyed
        residuals become views into it, so :meth:`compensate` and
        :meth:`residual` observe exactly the per-tensor state.
        """
        residual = np.asarray(compensated, dtype=np.float32) - np.asarray(
            transmitted, dtype=np.float32
        )
        if len(bucket) > 1:
            self._fused_residuals[bucket.segments] = residual
        residuals = self._residuals
        for seg in bucket.segments:
            residuals[seg.name] = residual[seg.offset:seg.end].reshape(
                seg.shape
            )
        if self.telemetry is not None:
            for seg in bucket.segments:
                _observe_residual_norm(self, seg.name, residuals[seg.name])

    def residual(self, name: str) -> np.ndarray | None:
        """Expose the stored residual (used by tests and diagnostics)."""
        return self._residuals.get(name)


class DgcMemory(Memory):
    """Deep-Gradient-Compression momentum correction (§III-B, §IV-C).

    Per tensor: ``u = β u + g`` (momentum), ``v = v + u`` (accumulation);
    ``v`` is what gets compressed.  After compression, both buffers are
    zeroed at the transmitted indices, which is the paper's masking rule.
    The compressor must expose the transmitted flat indices on its ctx via
    :meth:`transmitted_indices`.  On the fused path both buffers are one
    flat array per bucket, masked by the positions the kernel sent.
    """

    fused_transmitted = "indices"

    def __init__(self, momentum: float = 0.9):
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: dict[str, np.ndarray] = {}
        self._accumulated: dict[str, np.ndarray] = {}
        # Flat (velocity, accumulation) pairs of buckets of several tensors,
        # keyed by segment layout; the name-keyed dicts hold views into
        # these, so both stay in sync.
        self._fused_buffers: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _bucket_buffers(self, bucket) -> tuple[np.ndarray, np.ndarray]:
        """The bucket's flat ``(velocity, accumulation)``, views in place.

        A one-tensor bucket's are the tensor's own (flat) entries.  Where a
        tensor's entry is no longer a view of a larger bucket's (an update
        over another layout, a restored checkpoint) or never existed, both
        are first gathered from the per-tensor state.
        """
        if len(bucket) == 1:
            (seg,) = bucket.segments
            if seg.name not in self._velocity:
                self._velocity[seg.name] = np.zeros(seg.size, np.float32)
                self._accumulated[seg.name] = np.zeros(seg.size, np.float32)
            return self._velocity[seg.name], self._accumulated[seg.name]
        pair = self._fused_buffers.get(bucket.segments)
        if pair is not None and all(
            getattr(held.get(seg.name), "base", None) is flat
            for held, flat in zip((self._velocity, self._accumulated), pair)
            for seg in bucket.segments
        ):
            return pair
        pair = (
            np.zeros(bucket.numel, dtype=np.float32),
            np.zeros(bucket.numel, dtype=np.float32),
        )
        for held, flat in zip((self._velocity, self._accumulated), pair):
            for seg in bucket.segments:
                view = flat[seg.offset:seg.end]
                if seg.name in held:
                    view[:] = held[seg.name]
                held[seg.name] = view
        self._fused_buffers[bucket.segments] = pair
        return pair

    def compensate_fused(
        self, gradients: dict[str, np.ndarray], bucket, out: np.ndarray
    ) -> np.ndarray:
        """φ over a whole bucket: ``u = βu + g``, ``v = v + u``, in place.

        Elementwise on flat buffers, so bitwise the per-tensor φ on every
        slice; ``out`` receives a copy of the accumulation.
        """
        velocity, accumulated = self._bucket_buffers(bucket)
        bucket.pack(gradients, out)
        velocity *= self.momentum
        velocity += out
        accumulated += velocity
        out[:] = accumulated
        return out

    def update_fused(
        self,
        compensated: np.ndarray,
        bucket,
        transmitted: np.ndarray | None,
    ) -> None:
        """ψ for a whole bucket: clear both buffers where the kernel sent.

        ``transmitted`` holds the sent positions in the flat bucket
        (``fused_transmitted = "indices"``), from the compressor's
        ``transmitted_indices`` of the fused payload.
        """
        if transmitted is None:
            raise ValueError(
                "DgcMemory requires a compressor exposing transmitted_indices"
            )
        # ψ follows this bucket's φ, which left the flat buffers current.
        velocity, accumulated = self._bucket_buffers(bucket)
        velocity[transmitted] = 0.0
        accumulated[transmitted] = 0.0
        if self.telemetry is not None:
            for seg in bucket.segments:
                _observe_residual_norm(
                    self, seg.name, self._accumulated[seg.name]
                )


def make_memory(kind: str, **params) -> Memory:
    """Build a memory by name: ``"none"``, ``"residual"`` or ``"dgc"``."""
    factories = {
        "none": NoneMemory,
        "residual": ResidualMemory,
        "dgc": DgcMemory,
    }
    if kind not in factories:
        raise ValueError(
            f"unknown memory {kind!r}; expected one of {sorted(factories)}"
        )
    return factories[kind](**params)
