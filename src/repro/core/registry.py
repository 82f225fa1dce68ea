"""Compressor registry and Table I metadata.

``create(name, **params)`` instantiates any implemented method;
``compressor_info(name)`` returns the survey-classification row the
paper's Table I reports (family, compressed size ‖g̃‖₀, nature of Q,
error-feedback default); ``check_params(name, params)`` refuses an
unknown name or parameter without building anything.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.core.api import Compressor
from repro.core.compressors import (
    AdaptiveThresholdCompressor,
    AtomoCompressor,
    GradiVeQCompressor,
    GradZipCompressor,
    LPCSVRGCompressor,
    QsparseLocalSGDCompressor,
    SketchedSGDCompressor,
    ThreeLCCompressor,
    VarianceSparsifier,
    DgcCompressor,
    EFSignSGDCompressor,
    EightBitCompressor,
    InceptionnCompressor,
    NaturalCompressor,
    NoneCompressor,
    OneBitCompressor,
    PowerSGDCompressor,
    QSGDCompressor,
    RandomKCompressor,
    SignSGDCompressor,
    SignumCompressor,
    SketchMLCompressor,
    TernGradCompressor,
    ThresholdCompressor,
    TopKCompressor,
)


@dataclass(frozen=True)
class CompressorInfo:
    """One row of Table I.

    ``in_paper`` distinguishes the 16 methods the paper's GRACE release
    implements (plus the baseline) from the further surveyed methods this
    reproduction adds as extensions.
    """

    name: str
    reference: str
    family: str
    compressed_size: str  # the ‖g̃‖₀ column
    nature: str  # "Det" or "Rand"
    error_feedback: bool  # the EF-On column
    cls: type[Compressor]
    in_paper: bool = True


_REGISTRY: dict[str, CompressorInfo] = {}


def register(info: CompressorInfo) -> None:
    """Add a compressor to the registry (also used by downstream methods)."""
    if info.name in _REGISTRY:
        raise ValueError(f"compressor {info.name!r} already registered")
    _REGISTRY[info.name] = info


def _builtin(
    name: str,
    reference: str,
    family: str,
    compressed_size: str,
    nature: str,
    error_feedback: bool,
    cls: type[Compressor],
    in_paper: bool = True,
) -> None:
    register(
        CompressorInfo(
            name=name,
            reference=reference,
            family=family,
            compressed_size=compressed_size,
            nature=nature,
            error_feedback=error_feedback,
            cls=cls,
            in_paper=in_paper,
        )
    )


_builtin("none", "baseline", "none", "||g||_0", "Det", False, NoneCompressor)
_builtin("eightbit", "Dettmers 2016", "quantization", "||g||_0", "Det", True,
         EightBitCompressor)
_builtin("onebit", "Seide et al. 2014", "quantization", "||g||_0", "Det", True,
         OneBitCompressor)
_builtin("signsgd", "Bernstein et al. 2018", "quantization", "||g||_0", "Det",
         False, SignSGDCompressor)
_builtin("signum", "Bernstein et al. 2019", "quantization", "||g||_0", "Det",
         False, SignumCompressor)
_builtin("qsgd", "Alistarh et al. 2017", "quantization", "||g||_0", "Rand",
         False, QSGDCompressor)
_builtin("natural", "Horvath et al. 2019", "quantization", "||g||_0", "Rand",
         True, NaturalCompressor)
_builtin("terngrad", "Wen et al. 2017", "quantization", "||g||_0", "Rand",
         False, TernGradCompressor)
_builtin("efsignsgd", "Karimireddy et al. 2019", "quantization", "||g||_0",
         "Det", True, EFSignSGDCompressor)
_builtin("inceptionn", "Li et al. 2018", "quantization", "||g||_0", "Det",
         False, InceptionnCompressor)
_builtin("randomk", "Stich et al. 2018", "sparsification", "k", "Rand", True,
         RandomKCompressor)
_builtin("topk", "Aji & Heafield 2017", "sparsification", "k", "Det", True,
         TopKCompressor)
_builtin("thresholdv", "Dutta et al. 2020", "sparsification", "Adaptive",
         "Det", True, ThresholdCompressor)
_builtin("dgc", "Lin et al. 2018", "sparsification", "Adaptive", "Det", True,
         DgcCompressor)
_builtin("adaptive", "Dryden et al. 2016", "hybrid", "Adaptive", "Det", True,
         AdaptiveThresholdCompressor)
_builtin("sketchml", "Jiang et al. 2018", "hybrid", "Adaptive", "Rand", True,
         SketchMLCompressor)
_builtin("powersgd", "Vogels et al. 2019", "low-rank", "(m+L)r", "Det", True,
         PowerSGDCompressor)

# -- extensions: surveyed methods the paper's release does not implement --
_builtin("lpcsvrg", "Yu et al. 2019", "quantization", "||g||_0", "Rand",
         False, LPCSVRGCompressor, in_paper=False)
_builtin("variance", "Wangni et al. 2018", "sparsification", "Adaptive",
         "Rand", False, VarianceSparsifier, in_paper=False)
_builtin("sketchsgd", "Ivkin et al. 2019", "sparsification", "k", "Det",
         True, SketchedSGDCompressor, in_paper=False)
_builtin("qsparse", "Basu et al. 2019", "hybrid", "Adaptive", "Rand", True,
         QsparseLocalSGDCompressor, in_paper=False)
_builtin("threelc", "Lim et al. 2019", "hybrid", "Adaptive", "Det", True,
         ThreeLCCompressor, in_paper=False)
_builtin("atomo", "Wang et al. 2018", "low-rank", "sparsity budget", "Rand",
         False, AtomoCompressor, in_paper=False)
_builtin("gradiveq", "Yu et al. 2018", "low-rank", "(m+L)r", "Det", True,
         GradiVeQCompressor, in_paper=False)
_builtin("gradzip", "Cho et al. 2019", "low-rank", "(m+L)r", "Det", True,
         GradZipCompressor, in_paper=False)


def available_compressors(include_extensions: bool = True) -> list[str]:
    """Names of registered compressors, baseline first.

    ``include_extensions=False`` restricts to the paper's Table I
    "Implementation" column (16 methods + the baseline).
    """
    names = sorted(
        name
        for name, info in _REGISTRY.items()
        if include_extensions or info.in_paper
    )
    names.remove("none")
    return ["none"] + names


def paper_compressors() -> list[str]:
    """The 16 methods the paper's GRACE release implements, plus baseline."""
    return available_compressors(include_extensions=False)


def compressor_info(name: str) -> CompressorInfo:
    """Table I row for ``name``."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown compressor {name!r}; available: {available_compressors()}"
        )
    return _REGISTRY[name]


def check_params(name: str, params: dict) -> None:
    """Refuse, with a one-line ValueError, an unknown compressor ``name``
    or a key of ``params`` its constructor does not take; builds nothing.

    ``seed`` is not a parameter: :func:`create` passes it.
    """
    try:
        info = compressor_info(name)
    except KeyError as error:
        raise ValueError(error.args[0]) from None
    parameters = inspect.signature(info.cls).parameters
    if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
        return
    accepted = [key for key in parameters if key != "seed"]
    for key in params:
        if key not in accepted:
            raise ValueError(f"unknown parameter {key!r} for compressor "
                             f"{name!r}; available: {accepted}")


def aggregation_kind(name: str) -> str:
    """Compressed-domain aggregation capability of a registered scheme.

    One of :data:`repro.core.api.AGGREGATION_KINDS` — ``"none"`` when
    the scheme only supports decompress-then-sum.  Callers (parameter
    server, hierarchical reducer, benches) probe this instead of calling
    :meth:`~repro.core.api.Compressor.aggregate_compressed` and catching
    the typed error.
    """
    return compressor_info(name).cls.aggregation


def supports_compressed_aggregation(name: str) -> bool:
    """Whether ``name`` can sum payloads without decompressing."""
    return aggregation_kind(name) != "none"


def create(name: str, seed: int = 0, **params) -> Compressor:
    """Instantiate a compressor by registry name."""
    info = compressor_info(name)
    return info.cls(seed=seed, **params)
