"""GRACE core: the unified compressed-communication framework (§IV).

Public surface:

* :class:`~repro.core.api.Compressor` — ``compress`` (Q) / ``decompress``
  (Q⁻¹) / ``aggregate`` (Agg) with an opaque ``ctx``.
* :class:`~repro.core.api.Memory` — ``compensate`` (φ) / ``update`` (ψ),
  with the Eq. 4 residual memory and the DGC momentum-correction memory.
* :func:`~repro.core.registry.create` — instantiate any of the 16
  implemented compressors (plus the no-compression baseline) by name.
* :class:`~repro.core.trainer.DistributedTrainer` — Algorithm 1, the
  distributed training loop with compressed communication, configured
  by :class:`~repro.core.config.Resilience` and
  :class:`~repro.core.config.WorkerMode`.
"""

from repro.core.api import Compressor, Memory, CompressedTensor
from repro.core.config import Resilience, WorkerMode
from repro.core.fusion import (
    DEFAULT_FUSION_MB,
    BucketSegment,
    FusionBucket,
    FusionPlan,
    ScratchPool,
)
from repro.core.memory import NoneMemory, ResidualMemory, DgcMemory, make_memory
from repro.core.registry import (
    available_compressors,
    compressor_info,
    create,
    paper_compressors,
    register,
    CompressorInfo,
)
from repro.core.trainer import DistributedTrainer, TrainingReport
from repro.core.decentralized import DecentralizedTrainer
from repro.core.local_sgd import LocalSGDTrainer

__all__ = [
    "DecentralizedTrainer",
    "LocalSGDTrainer",
    "Compressor",
    "Memory",
    "CompressedTensor",
    "DEFAULT_FUSION_MB",
    "BucketSegment",
    "FusionBucket",
    "FusionPlan",
    "ScratchPool",
    "NoneMemory",
    "ResidualMemory",
    "DgcMemory",
    "make_memory",
    "available_compressors",
    "compressor_info",
    "create",
    "paper_compressors",
    "register",
    "CompressorInfo",
    "DistributedTrainer",
    "Resilience",
    "TrainingReport",
    "WorkerMode",
]
