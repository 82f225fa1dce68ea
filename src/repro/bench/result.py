"""One record per `repro bench` run: :class:`RunResult` and its JSON.

Every harness returns a :class:`RunResult` it builds itself:

* **metrics** — flat, named :class:`Metric` values with a unit, an
  optimization *direction* (``lower``/``higher``/``info``) and the
  tolerance band the regression gate applies (see
  :mod:`repro.bench.history`);
* **failures** — the harness's own acceptance criteria that did not
  hold (empty = pass);
* **text** — the table the CLI prints, serialized verbatim;
* **meta** — the shared :func:`repro.bench.metadata.run_metadata`
  stamp (git SHA + dirty flag, NumPy version, platform, seed).

:func:`write_result` and :func:`read_result` are the one writer and
the one reader of the ``BENCH_<suite>.json`` artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.metadata import run_metadata

#: Bumped when RunResult's serialized shape changes (2: ``text``
#: replaced the harness-native ``raw`` payload).
SCHEMA_VERSION = 2

#: Valid metric directions.  ``lower``/``higher`` say which way is
#: better (and arm the regression gate); ``info`` metrics are recorded
#: but never gated.
DIRECTIONS = ("lower", "higher", "info")


@dataclass(frozen=True)
class Metric:
    """One named benchmark measurement.

    ``tolerance`` is the relative band the regression gate allows
    around the rolling baseline; ``floor`` is the absolute slack added
    on top, so metrics whose baseline sits near zero (loss gaps,
    recovery seconds) don't fail on noise-scale wiggle.
    """

    name: str
    value: float
    unit: str
    direction: str = "info"
    tolerance: float = 0.1
    floor: float = 0.0

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"metric {self.name!r}: direction must be one of "
                f"{DIRECTIONS}, got {self.direction!r}"
            )
        if self.tolerance < 0 or self.floor < 0:
            raise ValueError(
                f"metric {self.name!r}: tolerance and floor must be >= 0"
            )

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "tolerance": self.tolerance,
            "floor": self.floor,
        }

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "Metric":
        return cls(
            name=name,
            value=float(payload["value"]),
            unit=str(payload.get("unit", "")),
            direction=str(payload.get("direction", "info")),
            tolerance=float(payload.get("tolerance", 0.1)),
            floor=float(payload.get("floor", 0.0)),
        )


@dataclass
class RunResult:
    """One `repro bench` run in the versioned schema."""

    suite: str
    benchmark: str
    params: dict
    metrics: dict[str, Metric]
    meta: dict
    text: str
    failures: list[str] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def new(cls, suite: str, benchmark: str, params: dict,
            metrics: list[Metric], text: str,
            failures: list[str]) -> "RunResult":
        """A fresh run, stamped with this process's metadata."""
        return cls(
            suite=suite,
            benchmark=benchmark,
            params=params,
            metrics={metric.name: metric for metric in metrics},
            meta=run_metadata(seed=params.get("seed")),
            text=text,
            failures=failures,
        )

    def metric(self, name: str) -> Metric:
        """Look up one metric by name."""
        if name not in self.metrics:
            raise KeyError(
                f"{self.suite}/{self.benchmark} has no metric {name!r}; "
                f"known: {sorted(self.metrics)}"
            )
        return self.metrics[name]

    def value(self, name: str) -> float:
        """Shorthand for ``metric(name).value``."""
        return self.metric(name).value

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "benchmark": self.benchmark,
            "params": self.params,
            "metrics": {
                name: metric.to_dict()
                for name, metric in self.metrics.items()
            },
            "meta": self.meta,
            "text": self.text,
            "failures": self.failures,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunResult":
        version = int(payload.get("schema_version", 0))
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunResult schema_version {version} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        return cls(
            suite=str(payload["suite"]),
            benchmark=str(payload["benchmark"]),
            params=dict(payload.get("params") or {}),
            metrics={
                name: Metric.from_dict(name, value)
                for name, value in (payload.get("metrics") or {}).items()
            },
            meta=dict(payload.get("meta") or {}),
            text=str(payload.get("text", "")),
            failures=list(payload.get("failures") or []),
            schema_version=version,
        )


def write_result(path: str | Path, result: RunResult) -> None:
    """Serialize one RunResult to JSON (parent dirs created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_result(path: str | Path) -> RunResult:
    """Parse a RunResult JSON back (raises ValueError on bad shape)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from error
    if not isinstance(payload, dict) or "suite" not in payload:
        raise ValueError(f"{path}: not a RunResult JSON (no 'suite' key)")
    return RunResult.from_dict(payload)
