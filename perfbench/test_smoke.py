"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every metric BENCHMARK.json declares is emitted with its unit, every
output checks out, the span file parses, and metrics of functions that no
longer exist are reported absent.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    report = run.measure(workload, seed=3, seconds=0, trace=bool(trace), tiny=True)
    result = report["result"]
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert report["absent"] == []
    if trace:
        with open(report["spans"]) as handle:
            spans = [json.loads(line) for line in handle]
        assert spans
        roots = [s for s in spans if s["parent"] is None]
        assert roots and all(s["name"] == "main" and s["layer"] == "cli" for s in roots)
        for s in spans:
            assert s["start_ns"] <= s["end_ns"] and 0 <= s["self_ns"]


def test_missing_functions_are_absent_not_zero():
    assert tracer._resolve("motzkin._speedups", "no_such_function") is None
    assert tracer._resolve("motzkin.no_such_module", "poly_acc") is None
    present = {attr for _, attr, *_ in tracer.TARGETS} - {"poly_acc", "poly_mul"}
    totals = {"present": sorted(present), "self_ns": {}, "calls": {},
              "errors": {}, "counters": {}}
    values, absent = tracer.layer_metrics(totals, requests=1)
    speedups = {name for name in tracer.METRICS if name.startswith("speedups.")}
    assert speedups and speedups == set(absent)
    assert not speedups & set(values)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-enum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
