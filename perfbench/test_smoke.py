"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks, for every workload, that the untraced run prints every end-to-end
metric and the traced run every per-layer metric with the units that
BENCHMARK.json declares, that derived ratios lie in [0, 1], that tracing
leaves every output hash unchanged (the traced fingerprint path is
``assemble`` with its callees wrapped), and that the benchmark refuses to run
without the moltop sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

TINY = run.Sizes(fingerprint_molecules=6, train_molecules=16, train_iterations=2,
                 pipeline_molecules=12, pipeline_iterations=2)
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# Layers each workload runs in the benchmark process, by a count that must be > 0.
EXERCISED = {"fingerprint": ("homology.triangles", "filtration.rows", "molgraph.atoms"),
             "train": ("sglb.trees", "sglb.features_varying", "sglb.bin_calls"),
             "pipeline": ("harness.fingerprint_s", "cli.startup_s")}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    run.RESULTS = tmp_path_factory.mktemp("results")
    return {(w, t): run.execute(w, seed=3, seconds=0.1, trace=t, sizes=TINY)
            for w in run.WORKLOADS for t in (0, 1)}


def test_declared_metrics_match_the_benchmark():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(d["name"], d["unit"], d["better"]) for d in DECLARED[key]] == list(table)
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(runs, workload, trace):
    _, result = runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {name: unit for name, unit, _ in table}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
        if metric["unit"] == "ratio":
            assert 0.0 <= metric["value"] <= 1.0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_leaves_outputs_unchanged(runs, workload):
    untraced, _ = runs[(workload, 0)]
    traced, result = runs[(workload, 1)]
    assert untraced["hashes"] and traced["hashes"] == untraced["hashes"]
    for name in EXERCISED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    trace_file = run.RESULTS / f"trace-{workload}-seed3.json"
    doc = json.loads(trace_file.read_text(encoding="utf-8"))
    assert all(t["self_seconds"] <= t["seconds"] + 1e-9 for t in doc["totals"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run(DECLARED["command"] + ["--workload", "fingerprint", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
