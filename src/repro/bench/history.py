"""Cross-PR perf history and the regression gate.

Every recorded `repro bench` run appends one JSON line to an append-only
history file (``benchmarks/results/PERF_HISTORY.jsonl`` by default),
keyed by commit and carrying the full metric set with units, directions
and tolerance bands.  On top of the log:

* :func:`rolling_baseline` — the median of the last
  :data:`DEFAULT_WINDOW` recorded values of one metric from runs of the
  same invocation (:func:`run_key`), robust to a single noisy entry;
* :func:`check_against_history` — the regression gate ``repro bench
  --check`` runs: each gated metric (direction ``lower``/``higher``)
  must stay inside ``baseline ± (tolerance·|baseline| + floor)``.  A
  metric the reviewed bench contract (:data:`DEFAULT_CONTRACT_PATH`)
  freezes for the run's invocation takes the contract's value as its
  baseline; every other metric (wall clock, runs the contract does not
  freeze) takes the rolling median;
* :func:`compare_entries` / :func:`diff_table` — run-vs-run diffs for
  ``repro bench compare A B``.

The file is append-only by construction (``append_history`` opens with
``"a"``) and readers skip nothing silently: a corrupt line raises with
its line number so a truncated history is noticed, not averaged over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from repro.bench.result import Metric, RunResult

#: Bumped when the history line shape changes.
HISTORY_SCHEMA_VERSION = 1

#: Where the bench CLIs record and check by default (repo-relative).
DEFAULT_HISTORY_PATH = "benchmarks/results/PERF_HISTORY.jsonl"

#: The reviewed record of CI's frozen ``repro bench`` invocations: per
#: invocation its suite, benchmark, params, failures and every metric's
#: spec and value (``null`` for wall clock).  Regenerated only in a
#: commit that means to move a number (repo-relative).
DEFAULT_CONTRACT_PATH = "benchmarks/results/bench_contract.json"

#: How many recent entries the rolling baseline aggregates.
DEFAULT_WINDOW = 5


def history_entry(result: RunResult) -> dict:
    """One RunResult as a history line (commit-keyed, self-describing)."""
    meta = result.meta or {}
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "suite": result.suite,
        "benchmark": result.benchmark,
        "commit": meta.get("git_sha", "unknown"),
        "dirty": bool(meta.get("git_dirty", False)),
        "meta": meta,
        "params": result.params,
        "metrics": {
            name: metric.to_dict()
            for name, metric in result.metrics.items()
        },
    }


def append_history(path: str | Path, result: RunResult) -> dict:
    """Append one run to the history file; returns the written entry."""
    entry = history_entry(result)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def read_history(path: str | Path) -> list[dict]:
    """Parse the history JSONL (oldest first; missing file = empty)."""
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{lineno}: corrupt history line ({error})"
                ) from error
            if not isinstance(entry, dict):
                raise ValueError(
                    f"{path}:{lineno}: history line is not an object"
                )
            entries.append(entry)
    return entries


def run_key(record: dict | RunResult) -> tuple[str, str, str]:
    """What tells two invocations apart: suite, benchmark and
    JSON-serialized params of a run, a history line or a contract
    invocation."""
    if isinstance(record, RunResult):
        record = {"suite": record.suite, "benchmark": record.benchmark,
                  "params": record.params}
    return (record.get("suite"), record.get("benchmark"),
            json.dumps(record.get("params"), sort_keys=True))


def metric_series(history: list[dict], result: RunResult,
                  metric: str) -> list[float]:
    """All recorded values of one metric from runs of ``result``'s
    invocation, oldest first."""
    key = run_key(result)
    series = []
    for entry in history:
        payload = (entry.get("metrics") or {}).get(metric)
        if payload is not None and run_key(entry) == key:
            series.append(float(payload["value"]))
    return series


def rolling_baseline(history: list[dict], result: RunResult,
                     metric: str) -> float | None:
    """Median of the last :data:`DEFAULT_WINDOW` recorded values
    (None = no data)."""
    series = metric_series(history, result, metric)
    if not series:
        return None
    return float(median(series[-DEFAULT_WINDOW:]))


def read_contract(path: str | Path) -> dict:
    """Parse the bench contract (missing file = no frozen values)."""
    path = Path(path)
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def contract_values(contract: dict, result: RunResult) -> dict[str, float]:
    """The values ``contract`` freezes for ``result``'s invocation
    (:func:`run_key`); for any other run, and for wall clock (frozen as
    ``null``), nothing is frozen."""
    key = run_key(result)
    for invocation in contract.values():
        if run_key(invocation) == key:
            return {
                name: float(metric["value"])
                for name, metric in invocation["metrics"].items()
                if metric["value"] is not None
            }
    return {}


@dataclass(frozen=True)
class Regression:
    """One gated metric outside its tolerance band."""

    suite: str
    benchmark: str
    metric: str
    value: float
    baseline: float
    band: float
    direction: str
    source: str = "history"  # where the baseline came from, or "contract"

    def __str__(self) -> str:
        sign = ">" if self.direction == "lower" else "<"
        return (
            f"{self.suite}/{self.benchmark}: {self.metric} = "
            f"{self.value:g} {sign} {self.source} baseline "
            f"{self.baseline:g} ± {self.band:g} ({self.direction} is better)"
        )


def metric_band(metric: Metric, baseline: float) -> float:
    """The absolute slack the gate allows around ``baseline``."""
    return metric.tolerance * abs(baseline) + metric.floor


def check_against_history(result: RunResult, history: list[dict],
                          contract: dict | None = None) -> list[Regression]:
    """Regressions of ``result`` vs its baselines (empty = pass).

    A metric ``contract`` freezes for this invocation is checked against
    the frozen value; any other against the rolling history median.
    Metrics with direction ``info`` and metrics with neither baseline
    are skipped — a brand-new metric cannot regress.
    """
    frozen = contract_values(contract or {}, result)
    regressions = []
    for name, metric in result.metrics.items():
        if metric.direction == "info":
            continue
        if name in frozen:
            baseline, source = frozen[name], "contract"
        else:
            baseline = rolling_baseline(history, result, name)
            source = "history"
        if baseline is None:
            continue
        band = metric_band(metric, baseline)
        if metric.direction == "lower":
            failed = metric.value > baseline + band
        else:
            failed = metric.value < baseline - band
        if failed:
            regressions.append(Regression(
                suite=result.suite,
                benchmark=result.benchmark,
                metric=name,
                value=metric.value,
                baseline=baseline,
                band=band,
                direction=metric.direction,
                source=source,
            ))
    return regressions


def find_entry(history: list[dict], ref: str) -> dict:
    """The newest history entry whose commit starts with ``ref``."""
    if not ref:
        raise ValueError("empty commit ref")
    for entry in reversed(history):
        if str(entry.get("commit", "")).startswith(ref):
            return entry
    raise KeyError(f"no history entry for commit ref {ref!r}")


def entry_metrics(entry: dict) -> dict[str, dict]:
    """The metric payloads of one history entry (or RunResult dict)."""
    return dict(entry.get("metrics") or {})


def compare_entries(a: dict, b: dict) -> list[dict]:
    """Metric-by-metric diff of two entries (union of their metrics).

    Each row reports both values, the relative delta (signed, B vs A)
    and a verdict: ``better`` / ``worse`` (gated directions only, beyond
    the metric's tolerance band around A), ``~`` for inside the band,
    and ``?`` for info metrics or one-sided values.
    """
    metrics_a = entry_metrics(a)
    metrics_b = entry_metrics(b)
    rows = []
    for name in sorted(set(metrics_a) | set(metrics_b)):
        pa, pb = metrics_a.get(name), metrics_b.get(name)
        spec = pb or pa or {}
        value_a = float(pa["value"]) if pa else None
        value_b = float(pb["value"]) if pb else None
        direction = spec.get("direction", "info")
        delta = None
        verdict = "?"
        if value_a is not None and value_b is not None:
            scale = abs(value_a)
            delta = (value_b - value_a) / scale if scale > 0 else 0.0
            if direction in ("lower", "higher"):
                band = (float(spec.get("tolerance", 0.1)) * scale
                        + float(spec.get("floor", 0.0)))
                if abs(value_b - value_a) <= band:
                    verdict = "~"
                elif (value_b < value_a) == (direction == "lower"):
                    verdict = "better"
                else:
                    verdict = "worse"
        rows.append({
            "metric": name,
            "a": value_a,
            "b": value_b,
            "unit": spec.get("unit", ""),
            "direction": direction,
            "delta": delta,
            "verdict": verdict,
        })
    return rows


def diff_table(rows: list[dict]) -> str:
    """Render compare_entries rows as an aligned text table."""
    from repro.bench.report import format_table

    def fmt(value):
        return "-" if value is None else f"{value:g}"

    table_rows = []
    for row in rows:
        delta = ("-" if row["delta"] is None
                 else f"{100 * row['delta']:+.1f}%")
        table_rows.append([
            row["metric"], fmt(row["a"]), fmt(row["b"]), delta,
            row["direction"], row["verdict"],
        ])
    return format_table(
        ["metric", "A", "B", "delta", "direction", "verdict"], table_rows
    )
