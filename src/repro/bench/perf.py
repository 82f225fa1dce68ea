"""Analytical device & kernel-cost models.

The paper's §V-D profiles compress/decompress kernels and finds that the
cost depends on *which primitive operations* a compressor uses and where
they run: ``tf.random.shuffle`` (Random-k) and ``find_bins`` (8-bit) fall
back to the CPU and pay host transfers; threshold methods lean on
``tf.where``; DGC and Adaptive iterate a threshold-adjustment loop;
SketchML pays sketch updates.  :class:`KernelCostModel` encodes each
compressor as a recipe over those primitive rates, and
:class:`DeviceModel` supplies the rates (a V100-class GPU next to a
single-socket Xeon host by default).

Together with the network cost model this gives the simulated wall-clock
used for every throughput figure (Figs. 1b, 6, 9, 10) and the latency
micro-benchmark (Fig. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceModel:
    """Primitive-operation rates of the accelerator + host pair.

    Rates are elements/second unless noted.
    """

    name: str
    gpu_flops: float  # FLOP/s for dense math (conv/matmul/QR)
    gpu_elementwise: float  # simple elementwise kernels
    gpu_select: float  # sort/top-k/where-style selection kernels
    cpu_elementwise: float  # ops that fall back to the host
    host_transfer_bytes: float  # PCIe bytes/second (device<->host)
    kernel_launch_s: float  # fixed overhead per kernel launch


#: The paper's testbed accelerator: NVIDIA Tesla V100 beside a Xeon Silver.
V100 = DeviceModel(
    name="v100",
    gpu_flops=14e12,
    gpu_elementwise=2.0e10,
    gpu_select=1.5e9,
    cpu_elementwise=2.0e8,
    host_transfer_bytes=12e9,
    kernel_launch_s=10e-6,
)


@dataclass(frozen=True)
class KernelRecipe:
    """Primitive-op counts of one compressor's compress+decompress pair.

    Each field counts *passes over the tensor* by the corresponding
    primitive; ``flops_per_element`` covers dense-math methods
    (PowerSGD's factorization) and ``loop_iterations`` multiplies the
    selection passes (DGC/Adaptive threshold adjustment).

    ``async_cpu_passes`` and ``host_roundtrips`` are *data-independent*
    host work (e.g. Random-k's index shuffle): the runtime can schedule
    them concurrently with back-propagation, which is the paper's §V-D
    observation that this overhead "is at times mitigated".  They appear
    in full in the isolated micro-benchmark (Fig. 8) but can hide under
    compute+communication in the training-loop model.  ``cpu_passes``
    are data-dependent (find_bins, sketch build) and sit on the critical
    path.
    """

    gpu_passes: float = 0.0
    select_passes: float = 0.0
    cpu_passes: float = 0.0
    async_cpu_passes: float = 0.0
    host_roundtrips: int = 0  # device->host->device transfers of the tensor
    flops_per_element: float = 0.0
    loop_iterations: int = 1
    kernel_launches: int = 2


#: §V-D findings, encoded.  See the module docstring for the mapping.
_RECIPES: dict[str, KernelRecipe] = {
    "none": KernelRecipe(gpu_passes=0.0, kernel_launches=0),
    "signsgd": KernelRecipe(gpu_passes=2.0, kernel_launches=3),
    "signum": KernelRecipe(gpu_passes=3.0, kernel_launches=4),
    "efsignsgd": KernelRecipe(gpu_passes=3.0, kernel_launches=4),
    # 1-bit SGD needs two masked means plus a tf.where-style selection.
    "onebit": KernelRecipe(gpu_passes=3.0, select_passes=1.0, kernel_launches=6),
    "qsgd": KernelRecipe(gpu_passes=5.0, kernel_launches=7),
    # Natural compression's binade rounding uses a where-style criterion.
    "natural": KernelRecipe(gpu_passes=3.0, select_passes=1.0, kernel_launches=6),
    "terngrad": KernelRecipe(gpu_passes=4.0, select_passes=1.0, kernel_launches=7),
    # 8-bit: find_bins has no GPU kernel -> CPU pass + PCIe round trip.
    "eightbit": KernelRecipe(
        gpu_passes=2.0, cpu_passes=1.0, host_roundtrips=1, kernel_launches=5
    ),
    "inceptionn": KernelRecipe(
        gpu_passes=3.0, select_passes=1.0, cpu_passes=0.5, kernel_launches=8
    ),
    "topk": KernelRecipe(gpu_passes=1.0, select_passes=1.0, kernel_launches=4),
    # Random-k: tf.random.shuffle executes on the CPU (paper §V-D iii),
    # but index selection is data-independent, hence schedulable
    # concurrently with back-propagation (paper §V-D ii).
    "randomk": KernelRecipe(
        gpu_passes=1.0, async_cpu_passes=1.0, host_roundtrips=1,
        kernel_launches=4,
    ),
    "thresholdv": KernelRecipe(
        gpu_passes=1.0, select_passes=1.0, kernel_launches=4
    ),
    # DGC & Adaptive: threshold-adjustment loop over selection passes.
    "dgc": KernelRecipe(
        gpu_passes=2.0, select_passes=1.0, loop_iterations=4, kernel_launches=8
    ),
    "adaptive": KernelRecipe(
        gpu_passes=2.0, select_passes=2.0, loop_iterations=4, kernel_launches=8
    ),
    # SketchML: quantile-sketch build + encode are CPU-rate operations.
    "sketchml": KernelRecipe(
        gpu_passes=1.0, cpu_passes=2.0, host_roundtrips=1, kernel_launches=6
    ),
    # PowerSGD: two skinny GEMMs + one QR per tensor (rank-r).
    "powersgd": KernelRecipe(
        gpu_passes=1.0, flops_per_element=6.0, kernel_launches=5
    ),
    # -- extensions (not in the paper's release) --------------------------
    "lpcsvrg": KernelRecipe(gpu_passes=5.0, kernel_launches=7),
    "variance": KernelRecipe(
        gpu_passes=3.0, select_passes=1.0, kernel_launches=6
    ),
    # Sketched-SGD: scatter-add sketch updates + heavy-hitter recovery.
    "sketchsgd": KernelRecipe(
        gpu_passes=2.0, select_passes=2.0, kernel_launches=6
    ),
    "qsparse": KernelRecipe(
        gpu_passes=3.0, select_passes=1.0, kernel_launches=8
    ),
    # 3LC: ternary rounding on GPU, sequential RLE on the host.
    "threelc": KernelRecipe(
        gpu_passes=2.0, cpu_passes=1.0, host_roundtrips=1, kernel_launches=6
    ),
    # Full SVD dominates the spectral methods (~O(min(m,L)) flops/element)
    # as the paper's GPU implementation would run them.  The NumPy kernels
    # in core/compressors take their few triples from the short side's
    # Gram matrix instead (one GEMM, one eigh of min(m,L)²); the recipe
    # still prices the full SVD, because it models that implementation.
    "atomo": KernelRecipe(
        gpu_passes=1.0, flops_per_element=60.0, kernel_launches=5
    ),
    "gradiveq": KernelRecipe(
        gpu_passes=1.0, flops_per_element=60.0, kernel_launches=5
    ),
    # GradZip: a few rank-r GEMMs per ALS iteration.
    "gradzip": KernelRecipe(
        gpu_passes=1.0, flops_per_element=16.0, kernel_launches=6
    ),
}


class KernelCostModel:
    """Simulated compress+decompress latency per compressor."""

    def __init__(self, device: DeviceModel = V100):
        self.device = device

    def recipe(self, compressor_name: str) -> KernelRecipe:
        """The primitive-op recipe registered for a compressor."""
        if compressor_name not in _RECIPES:
            raise KeyError(
                f"no kernel recipe for {compressor_name!r}; known: "
                f"{sorted(_RECIPES)}"
            )
        return _RECIPES[compressor_name]

    def latency_breakdown(
        self, compressor_name: str, n_elements: int
    ) -> tuple[float, float]:
        """(critical_seconds, overlappable_seconds) for one tensor.

        The critical part must serialize with the training step; the
        overlappable part is data-independent host work the runtime can
        hide under back-propagation and communication.
        """
        if n_elements < 0:
            raise ValueError("n_elements must be non-negative")
        recipe = self.recipe(compressor_name)
        device = self.device
        critical = recipe.kernel_launches * device.kernel_launch_s
        critical += recipe.gpu_passes * n_elements / device.gpu_elementwise
        critical += (
            recipe.loop_iterations
            * recipe.select_passes
            * n_elements
            / device.gpu_select
        )
        critical += recipe.cpu_passes * n_elements / device.cpu_elementwise
        critical += recipe.flops_per_element * n_elements / device.gpu_flops
        overlappable = (
            recipe.async_cpu_passes * n_elements / device.cpu_elementwise
        )
        overlappable += (
            recipe.host_roundtrips * 2 * n_elements * 4
            / device.host_transfer_bytes
        )
        return critical, overlappable

    def latency_seconds(self, compressor_name: str, n_elements: int) -> float:
        """Isolated compress+decompress time (the Fig. 8 measurement).

        In isolation there is nothing to overlap with, so the full cost
        is visible — matching how the paper's micro-benchmark is run.
        """
        critical, overlappable = self.latency_breakdown(
            compressor_name, n_elements
        )
        return critical + overlappable


class PerfModel:
    """Simulated compute + kernel clock for the distributed trainer.

    Implements the :class:`repro.core.trainer.PerfModel` protocol.
    ``seconds_per_iteration`` is the *measured-class* forward+backward
    time for one mini-batch of ``batch_per_worker`` samples on the
    modeled device.  Calibrated constants are used instead of a FLOP
    model because small-kernel utilization on real GPUs varies by two
    orders of magnitude across these architectures, and the published
    throughputs pin the constants directly.

    ``backward_fraction`` is the share of an iteration spent in
    back-propagation (the window gradient-ready events fall in); the
    standard 1:2 forward:backward FLOP ratio gives 2/3.
    """

    #: Share of ``compute_seconds`` spent in the backward pass.
    backward_fraction = 2.0 / 3.0

    def __init__(
        self,
        seconds_per_iteration: float,
        batch_per_worker: int,
        device: DeviceModel = V100,
    ):
        if seconds_per_iteration < 0:
            raise ValueError("seconds_per_iteration must be non-negative")
        if batch_per_worker < 1:
            raise ValueError("batch_per_worker must be >= 1")
        self.seconds_per_iteration = float(seconds_per_iteration)
        self.batch_per_worker = int(batch_per_worker)
        self.device = device
        self.kernels = KernelCostModel(device)

    def compute_seconds(self, n_samples: int) -> float:
        """Simulated forward+backward time for a mini-batch."""
        return self.seconds_per_iteration * n_samples / self.batch_per_worker

    def compression_seconds(self, compressor_name: str, n_elements: int) -> float:
        """Simulated compress+decompress kernel time."""
        return self.kernels.latency_seconds(compressor_name, n_elements)


def synthesize_tensor_sizes(
    total_elements: int, n_tensors: int, dominance: float, seed=0
) -> list[int]:
    """Split ``total_elements`` into ``n_tensors`` sizes with realistic skew.

    ``dominance`` in [0, 1) is the fraction of all parameters held by the
    single largest tensor — near 0.8 for embedding/FC-heavy models (VGG,
    NCF, LSTM), near 0.2 for conv towers.  The remainder follows a
    geometric decay, which matches how layer widths grow through a DNN.
    ``seed`` is anything :func:`numpy.random.default_rng` accepts.
    """
    import numpy as np

    if total_elements < n_tensors:
        raise ValueError("need at least one element per tensor")
    if not 0 <= dominance < 1:
        raise ValueError("dominance must be in [0, 1)")
    if n_tensors == 1:
        return [total_elements]
    head = int(total_elements * dominance)
    rest = total_elements - head
    # Geometric profile over the remaining tensors.
    decay = 0.85
    weights = decay ** np.arange(n_tensors - 1)
    rng = np.random.default_rng(seed)
    weights = weights * rng.uniform(0.6, 1.4, size=weights.shape)
    weights /= weights.sum()
    sizes = np.maximum(1, (rest * weights).astype(np.int64))
    sizes[0] += rest - int(sizes.sum())  # exact total
    result = sorted([head] + sizes.tolist(), reverse=True)
    deficit = total_elements - sum(result)
    result[0] += deficit
    return result
