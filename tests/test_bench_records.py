"""Committed benchmark records (``BENCH_*.json`` at the repository root).

A record holds paired parent/change runs of ``bench/run.py``.  These checks
keep every record comparable with the benchmark it claims to measure: one
BLAS thread, only workloads and metrics that ``BENCHMARK.json`` defines, and
a parent and a change median for each of them.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_usable(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["warmup_excluded"] is True

    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for workload, metrics in record["workloads"].items():
        assert metrics and set(metrics) <= end_to_end, workload
        for name, entry in metrics.items():
            for side in ("parent", "change"):
                median = entry[side]["median"]
                assert isinstance(median, (int, float)) and math.isfinite(median), (
                    workload, name, side)

    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload, metrics in record.get("trace", {}).get("workloads", {}).items():
        assert workload in workloads
        assert set(metrics) <= per_layer, workload
