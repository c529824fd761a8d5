"""Smoke test of the benchmark itself: a few jobs per workload on fixed seeds.

Run it explicitly (the file name keeps it out of the library's test suite):

    python3 -m pytest bench/smoke.py -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_all(seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "all",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.fixture(scope="module")
def runs():
    return {(seed, trace): run_all(seed, trace) for seed, trace in ((7, 0), (7, 1), (8, 1))}


def test_every_check_passes(runs):
    for (seed, trace), (results, _) in runs.items():
        assert sorted(results) == sorted(WORKLOADS)
        for name, res in results.items():
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, \
                (seed, trace, name, res)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_prints_with_its_unit(runs, trace, kind):
    results, table = runs[(7, trace)]
    printed = {(row.split()[0], row.split()[-1]) for row in table.splitlines() if row.strip()}
    for metric in SPEC[kind]:
        assert (metric["name"], metric["unit"]) in printed, metric
        for res in results.values():
            assert res["metrics"][metric["name"]]["unit"] == metric["unit"]
    for res in results.values():
        assert set(res["metrics"]) == {m["name"] for m in SPEC[kind]}


def test_seeds_give_different_jobs_of_the_same_cost(runs):
    sys.path.insert(0, BENCH_DIR)
    import workloads

    def first_jobs(cls, seed):
        w = cls(seed, "unused")
        return [w.draw(w.rng) for _ in range(5)]

    for cls in workloads.WORKLOADS.values():
        assert first_jobs(cls, 7) == first_jobs(cls, 7) != first_jobs(cls, 8)
    exact_units = {"count/job", "GFLOP/job"}
    for name in WORKLOADS:
        m7 = runs[(7, 1)][0][name]["metrics"]
        m8 = runs[(8, 1)][0][name]["metrics"]
        for metric, value in m7.items():
            if value["unit"] in exact_units:
                assert m8[metric]["value"] == pytest.approx(value["value"], rel=1e-12), \
                    (name, metric)
