"""Counters, gauges and histograms for the training/comm pipeline.

A :class:`MetricsRegistry` is the single place quantitative telemetry is
counted: bytes on the wire per collective, per-compressor kernel
latency, error-feedback residual norms, per-layer gradient magnitudes,
framing overhead.  Producers get-or-create instruments by
``(name, labels)`` and mutate them; consumers (exporters, the trainer's
:class:`~repro.core.trainer.TrainingReport`, the ``repro report`` CLI)
read them back.  Instruments are plain in-process objects — no
background threads, no sampling.

The null registry (:data:`NULL_REGISTRY`) backs the disabled telemetry
path: every instrument request returns one shared no-op instrument, so
instrumented code can mutate metrics unconditionally without allocating
anything when telemetry is off.
"""

from __future__ import annotations

import math
from typing import Iterator

Labels = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str] | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing total (resettable by the owner)."""

    __slots__ = ("name", "labels", "unit", "help", "_value")

    kind = "counter"

    def __init__(self, name: str, labels: Labels = (), unit: str = "",
                 help: str = ""):
        self.name = name
        self.labels = labels
        self.unit = unit
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def set(self, value: float) -> None:
        """Write-through used by registry-backed report fields."""
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot be negative")
        self._value = float(value)

    def reset(self) -> None:
        """Zero the counter."""
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value


class Gauge:
    """Last-written value (e.g. current residual norm)."""

    __slots__ = ("name", "labels", "unit", "help", "_value")

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = (), unit: str = "",
                 help: str = ""):
        self.name = name
        self.labels = labels
        self.unit = unit
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._value = float(value)

    def reset(self) -> None:
        """Zero the gauge."""
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Histogram:
    """Exact-sample histogram with percentile queries.

    The simulator records thousands (not billions) of observations per
    run, so keeping raw samples is affordable and makes percentiles
    exact rather than bucket-approximated.
    """

    __slots__ = ("name", "labels", "unit", "help", "_values")

    kind = "histogram"

    def __init__(self, name: str, labels: Labels = (), unit: str = "",
                 help: str = ""):
        self.name = name
        self.labels = labels
        self.unit = unit
        self.help = help
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self._values.append(float(value))

    def reset(self) -> None:
        """Drop all samples."""
        self._values.clear()

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return len(self._values)

    @property
    def sum(self) -> float:
        """Sum of all samples."""
        return math.fsum(self._values)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        if not self._values:
            return 0.0
        return self.sum / len(self._values)

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        return max(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile via linear interpolation (0 <= p <= 100)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create home for every instrument of one run."""

    def __init__(self):
        self._instruments: dict[tuple[str, Labels], Instrument] = {}

    # -- instrument constructors -------------------------------------------

    def counter(self, name: str, labels: dict[str, str] | None = None,
                unit: str = "", help: str = "") -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._get(Counter, name, labels, unit, help)

    def gauge(self, name: str, labels: dict[str, str] | None = None,
              unit: str = "", help: str = "") -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._get(Gauge, name, labels, unit, help)

    def histogram(self, name: str, labels: dict[str, str] | None = None,
                  unit: str = "", help: str = "") -> Histogram:
        """Get or create the histogram ``name{labels}``."""
        return self._get(Histogram, name, labels, unit, help)

    def _get(self, cls, name, labels, unit, help):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], unit=unit, help=help)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, requested {cls.__name__}"
            )
        return instrument

    # -- reads --------------------------------------------------------------

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self, name: str | None = None) -> list[Instrument]:
        """All instruments, optionally filtered by metric name."""
        if name is None:
            return list(self._instruments.values())
        return [i for i in self._instruments.values() if i.name == name]

    def value(self, name: str, labels: dict[str, str] | None = None,
              default: float = 0.0) -> float:
        """Scalar value of a counter/gauge, or ``default`` if absent."""
        instrument = self._instruments.get((name, _label_key(labels)))
        if instrument is None or isinstance(instrument, Histogram):
            return default
        return instrument.value

    def reset(self) -> None:
        """Zero every registered instrument (instruments stay registered)."""
        for instrument in self._instruments.values():
            instrument.reset()


def snapshot_registry(registry: MetricsRegistry) -> list[dict]:
    """Dump every instrument as a picklable list of plain dicts.

    Parallel workers live in separate processes, so their registries
    cannot be shared; each worker ships a snapshot through the result
    queue and the parent replays them with :func:`load_snapshot`.
    Counters/gauges carry ``value``; histograms carry raw ``values`` so
    percentiles stay exact after the merge.
    """
    out: list[dict] = []
    for instrument in registry:
        entry: dict = {
            "name": instrument.name,
            "labels": dict(instrument.labels),
            "kind": instrument.kind,
            "unit": instrument.unit,
            "help": instrument.help,
        }
        if isinstance(instrument, Histogram):
            entry["values"] = list(instrument._values)
        else:
            entry["value"] = instrument.value
        out.append(entry)
    return out


def load_snapshot(
    registry: MetricsRegistry,
    snapshot: list[dict],
    extra_labels: dict[str, str] | None = None,
) -> None:
    """Replay a :func:`snapshot_registry` dump into ``registry``.

    ``extra_labels`` (e.g. ``{"rank": "2"}``) are merged into each
    instrument's labels so per-worker series stay distinguishable.
    Counters accumulate, gauges overwrite and histogram samples append,
    so loading several snapshots into one registry merges them.
    """
    for entry in snapshot:
        labels = dict(entry.get("labels") or {})
        if extra_labels:
            labels.update(
                {str(k): str(v) for k, v in extra_labels.items()}
            )
        name = entry["name"]
        kind = entry.get("kind")
        unit = entry.get("unit", "")
        help_text = entry.get("help", "")
        if kind == "counter":
            registry.counter(name, labels, unit=unit, help=help_text).inc(
                float(entry.get("value", 0.0))
            )
        elif kind == "gauge":
            registry.gauge(name, labels, unit=unit, help=help_text).set(
                float(entry.get("value", 0.0))
            )
        elif kind == "histogram":
            histogram = registry.histogram(
                name, labels, unit=unit, help=help_text
            )
            for value in entry.get("values", ()):
                histogram.observe(float(value))
        else:
            raise ValueError(
                f"snapshot entry {name!r} has unknown kind {kind!r}"
            )


#: Metrics a rank records for its own share of the work — φ → Q → ψ on
#: its own gradients, its own arena waits — so the cohort's value is the
#: sum over ranks.  Each rank records every other metric for the whole
#: cohort (the collectives, the fusion plan, the training report).
PER_RANK_METRICS = (
    "compress_", "wire_", "grad_l2", "ef_residual_norm", "arena_",
)


def fold_ranks(registry: MetricsRegistry) -> MetricsRegistry:
    """A ``rank``-labelled registry as the simulator counts one run.

    A parallel run's merged registry keeps each rank's instruments under
    a ``rank`` label.  Folding drops that label: a
    :data:`PER_RANK_METRICS` instrument sums over the ranks (histogram
    samples pool), any other is the lowest rank's.  So a trace reads the
    same totals on both backends.  A registry without ``rank`` labels is
    returned as it is.
    """
    entries = snapshot_registry(registry)
    ranks = [int(e["labels"]["rank"]) for e in entries
             if "rank" in e["labels"]]
    if not ranks:
        return registry
    leader = str(min(ranks))
    folded = MetricsRegistry()
    for entry in entries:
        rank = entry["labels"].pop("rank", leader)
        if rank == leader or entry["name"].startswith(PER_RANK_METRICS):
            load_snapshot(folded, [entry])
    return folded


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for disabled telemetry."""

    __slots__ = ()

    name = "null"
    labels: Labels = ()
    unit = ""
    help = ""
    kind = "null"
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def reset(self) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Registry whose instruments all discard their updates.

    Every request returns one shared instrument, so the disabled path
    allocates nothing per call site.
    """

    def counter(self, name=None, labels=None, unit="", help=""):
        return _NULL_INSTRUMENT

    def gauge(self, name=None, labels=None, unit="", help=""):
        return _NULL_INSTRUMENT

    def histogram(self, name=None, labels=None, unit="", help=""):
        return _NULL_INSTRUMENT

    def instruments(self, name=None):
        return []

    def value(self, name, labels=None, default=0.0):
        return default

    def reset(self) -> None:
        pass

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullMetricsRegistry()
