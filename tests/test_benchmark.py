"""The benchmark's workloads, run once each at the benchmark's own sizes, give
the output hashes recorded in ``perfbench/reference.json``.

``perfbench/run.py`` calls library names (``build_sequence``, ``assemble``,
``fit_ensemble`` and others) and hashes what they compute; this runs every
workload for seed 1 with a pass budget too small for a second pass, so a
change that breaks a name the benchmark calls, or an output it checks, fails
here rather than in a benchmark run.  The tracer wraps some names by attribute
(``sglb.fit``, ``sglb._Binned``) and reads others (``quantile_bin_edges``,
``Tree.n_nodes``), and skips a wrapped name the library lacks, so the traced
``train`` run must also count the work it saw.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_matches_its_reference_hashes(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    detail, result = run.execute(workload, seed=1, seconds=0.01, trace=0)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert detail["reference_checked"], detail["hashes"]


def test_traced_train_run_counts_its_work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    detail, result = run.execute("train", seed=1, seconds=0.01, trace=1)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert detail["reference_checked"], detail["hashes"]
    for name in ("sglb.trees", "sglb.nodes", "sglb.features_varying", "sglb.bin_calls"):
        assert result["metrics"][name]["value"] > 0, name
