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


def _release(flats: dict, names) -> None:
    """Drop the cached bucket flats holding any of ``names``: their
    tensors are about to be bound to other storage."""
    names = set(names)
    for bucket in [b for b in flats if not names.isdisjoint(b.names)]:
        del flats[bucket]


class NoneMemory(Memory):
    """No error feedback: φ is the identity, ψ discards the error."""

    fused_transmitted = "none"
    concurrent_ranks = True

    def compensate_fused(
        self, gradients: dict[str, np.ndarray], bucket, out: np.ndarray
    ) -> np.ndarray:
        """Identity φ: a one-tensor bucket's contiguous float32 gradient
        is handed on as its flat view, uncopied; anything else is packed
        into ``out``."""
        if len(bucket) == 1:
            gradient = gradients[bucket.names[0]]
            if (
                isinstance(gradient, np.ndarray)
                and gradient.dtype == np.float32
                and gradient.flags.c_contiguous
            ):
                return gradient.reshape(-1)
        return bucket.pack(gradients, out)

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

    _views = ("_fused_residuals",)
    concurrent_ranks = True

    def __init__(self, beta: float = 1.0, gamma: float = 1.0):
        if beta <= 0 or gamma <= 0:
            raise ValueError("beta and gamma must be positive")
        self.beta = float(beta)
        self.gamma = float(gamma)
        self._residuals: dict[str, np.ndarray] = {}
        # Flat residuals of buckets of several tensors, keyed by bucket;
        # the name-keyed entries are views into them, made once when the
        # flat is, and ψ writes in place, so a flat stays current until a
        # bucket sharing one of its tensors binds that tensor anew.  A
        # one-tensor bucket keeps only its name-keyed entry, as a tensor
        # does.
        self._fused_residuals: dict = {}

    def _phi(self, gradient, residual, out: np.ndarray) -> None:
        """``out = γ·gradient + β·residual`` (``residual`` ``None``: 0),
        flat float32; with β = 1 the product is the residual itself."""
        gradient = np.asarray(gradient, dtype=np.float32).reshape(-1)
        if residual is None:
            np.multiply(gradient, self.gamma, out=out)
        elif self.gamma == 1 and self.beta == 1:
            np.add(gradient, residual.reshape(-1), out=out)
        else:
            np.multiply(gradient, self.gamma, out=out)
            residual = residual.reshape(-1)
            out += residual if self.beta == 1 else self.beta * residual

    def compensate_fused(
        self, gradients: dict[str, np.ndarray], bucket, out: np.ndarray
    ) -> np.ndarray:
        """Eq. 4 φ over a whole bucket, with no temporary for β = 1.

        Where the bucket's flat residual is current, φ runs once over the
        flat buffers — bitwise the per-segment computation, since
        elementwise ops on contiguous slices commute with packing.
        Otherwise (first iteration, plan change, restored checkpoint) it
        runs segment by segment on the name-keyed residuals.
        """
        flat = self._fused_residuals.get(bucket) if len(bucket) > 1 else None
        if flat is not None:
            self._phi(bucket.pack(gradients, out), flat, out)
            return out
        for seg in bucket.segments:
            self._phi(
                gradients[seg.name], self._residuals.get(seg.name),
                out[seg.offset:seg.end],
            )
        return out

    def update_fused(
        self,
        compensated: np.ndarray,
        bucket,
        transmitted: np.ndarray | None,
    ) -> None:
        """Eq. 4 ψ for a whole bucket: one subtraction into the memory's
        own residual — the tensor's array, or the bucket's flat, whose
        per-name views are made when it is — never into the caller's
        buffers, which are reused scratch."""
        residuals = self._residuals
        if len(bucket) == 1:
            (seg,) = bucket.segments
            target = residuals.get(seg.name)
            if target is None or target.size != seg.size:
                _release(self._fused_residuals, bucket.names)
                target = residuals[seg.name] = np.empty(
                    seg.shape, dtype=np.float32
                )
            target = target.reshape(-1)
        else:
            target = self._fused_residuals.get(bucket)
            if target is None:
                _release(self._fused_residuals, bucket.names)
                target = np.empty(bucket.numel, dtype=np.float32)
                self._fused_residuals[bucket] = target
                residuals.update(bucket.unpack(target))
        np.subtract(
            np.asarray(compensated, dtype=np.float32),
            np.asarray(transmitted, dtype=np.float32),
            out=target,
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
    _views = ("_fused_buffers",)
    concurrent_ranks = True

    def __init__(self, momentum: float = 0.9):
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: dict[str, np.ndarray] = {}
        self._accumulated: dict[str, np.ndarray] = {}
        # Flat (velocity, accumulation) pairs of buckets of several tensors,
        # keyed by bucket; the name-keyed dicts hold views into these,
        # updated in place, as in ResidualMemory.
        self._fused_buffers: dict = {}

    def _bucket_buffers(self, bucket) -> tuple[np.ndarray, np.ndarray]:
        """The bucket's flat ``(velocity, accumulation)``, views in place.

        A one-tensor bucket's are the tensor's own (flat) entries.  A
        bucket of several tensors met for the first time (a new plan, a
        restored checkpoint) first gathers them from the per-tensor state.
        """
        if len(bucket) == 1:
            (seg,) = bucket.segments
            if seg.name not in self._velocity:
                self._velocity[seg.name] = np.zeros(seg.size, np.float32)
                self._accumulated[seg.name] = np.zeros(seg.size, np.float32)
            return self._velocity[seg.name], self._accumulated[seg.name]
        pair = self._fused_buffers.get(bucket)
        if pair is not None:
            return pair
        _release(self._fused_buffers, bucket.names)
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
        self._fused_buffers[bucket] = pair
        return pair

    def compensate_fused(
        self, gradients: dict[str, np.ndarray], bucket, out: np.ndarray
    ) -> np.ndarray:
        """φ over a whole bucket: ``u = βu + g``, ``v = v + u``, in place.

        Elementwise on flat buffers, so bitwise the per-tensor φ on every
        slice; ``out`` receives a copy of the accumulation.
        """
        velocity, accumulated = self._bucket_buffers(bucket)
        velocity *= self.momentum
        velocity += bucket.pack(gradients, out)
        accumulated += velocity
        np.copyto(out, accumulated)
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


#: The memory kinds, by name.
MEMORIES = {"none": NoneMemory, "residual": ResidualMemory, "dgc": DgcMemory}


def make_memory(kind: str, **params) -> Memory:
    """Build a memory by name: ``"none"``, ``"residual"`` or ``"dgc"``."""
    if kind not in MEMORIES:
        raise ValueError(
            f"unknown memory {kind!r}; expected one of {sorted(MEMORIES)}"
        )
    return MEMORIES[kind](**params)
