"""BENCHMARK.json and perfbench.metrics describe the same ladder."""

import json
import os
import re

from perfbench import metrics as M

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_has_exactly_the_contract_keys():
    spec = _benchmark()
    assert sorted(spec) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds",
        "workloads",
    ]
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_benchmark_json_matches_the_code():
    spec = _benchmark()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(
        M.WORKLOADS.items())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(M.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(M.PER_LAYER)


def test_names_units_and_counts_stay_within_the_limits():
    assert 2 <= len(M.WORKLOADS) <= 8
    assert 1 <= len(M.END_TO_END) <= 16
    assert len(M.PER_LAYER) == 89 <= 128
    names = (
        list(M.WORKLOADS)
        + [name for name, *_ in M.END_TO_END]
        + [name for name, *_ in M.PER_LAYER]
    )
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for _, unit, *_ in M.END_TO_END + M.PER_LAYER:
        assert UNIT.match(unit), unit
    for why in M.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


def test_bounds():
    bounds = {name: bound for name, _, _, bound in M.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = [m for m in M.END_TO_END if m[0] == "setup_s"]
    assert setup == [("setup_s", "s", "lower", bounds["setup_s"])]
    assert all(better in ("lower", "higher") for _, _, better, _ in M.END_TO_END)


def test_compressor_list_is_the_registry():
    from repro.core import available_compressors

    assert list(M.COMPRESSORS) == available_compressors()
