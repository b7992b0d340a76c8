import json

import numpy as np
import pytest

from moltop.cli import main
from moltop.errors import InternalInvariantError
from moltop.homology import PersistenceDiagram
from moltop.vectorize import betti_curve, read_fingerprints_csv


@pytest.fixture()
def config_path(tiny_dataset_path, tmp_path):
    doc = {
        "dataset": {"path": str(tiny_dataset_path)},
        "task": "regression",
        "k_grid": 8,
        "threads": 1,
        "seed": 0,
        "repeats": 1,
        "out_dir": str(tmp_path / "out"),
        "sglb": {"iterations": 15, "max_depth": 3, "ensemble_size": 2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_fingerprint_then_train_then_predict_then_evaluate(config_path, tmp_path,
                                                           capsys):
    out = tmp_path / "out"
    assert main(["fingerprint", "--config", str(config_path),
                 "--dump-diagrams"]) == 0
    assert (out / "fingerprints.csv").exists()
    assert (out / "errors.json").exists()
    assert (out / "diagrams.jsonl").exists()
    first = json.loads((out / "diagrams.jsonl").read_text().splitlines()[0])
    assert {"molecule", "param", "row", "dim", "pairs", "essentials"} <= set(first)

    assert main(["train", "--config", str(config_path),
                 "--fingerprints", str(out / "fingerprints.csv")]) == 0
    assert (out / "model.json").exists()

    assert main(["predict", "--model", str(out / "model.json"),
                 "--fingerprints", str(out / "fingerprints.csv"),
                 "--out", str(out)]) == 0
    assert (out / "predictions.csv").exists()

    assert main(["evaluate", "--config", str(config_path),
                 "--predictions", str(out / "predictions.csv"),
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "rmse" in metrics

    assert main(["rank-uncertainty", "--model", str(out / "model.json"),
                 "--fingerprints", str(out / "fingerprints.csv"),
                 "--criterion", "KNOWLEDGE", "--k", "3",
                 "--out", str(out)]) == 0
    ranked = json.loads((out / "ranked.json").read_text())
    assert len(ranked) == 3
    capsys.readouterr()


def test_global_decile_dump_matches_fingerprints(config_path, tmp_path, capsys):
    # In global decile mode the dumped partial-charge diagrams must be the
    # ones the fingerprint was built from.
    doc = json.loads(config_path.read_text())
    doc["decile_mode"] = "global"
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["fingerprint", "--config", str(config_path), "--dump-diagrams"]) == 0
    table = read_fingerprints_csv(out / "fingerprints.csv")
    curves = {}
    for line in (out / "diagrams.jsonl").read_text().splitlines():
        entry = json.loads(line)
        if entry["param"] == "PARTIAL_CHARGE":
            pd = PersistenceDiagram(entry["dim"], tuple(map(tuple, entry["pairs"])),
                                    tuple(entry["essentials"]), table.layout.k_grid)
            curves.setdefault((entry["molecule"], entry["dim"]), []).append(
                (entry["row"], betti_curve(pd, table.layout.k_grid)))
    blocks = table.layout.block_slices()
    assert len(table.fingerprints) > 10
    for fp in table.fingerprints:
        for dim in (0, 1):
            rows = [curve for _, curve in sorted(curves[(fp.record_id, dim)],
                                                 key=lambda rc: rc[0])]
            assert np.array_equal(np.concatenate(rows),
                                  fp.vector[blocks[("PARTIAL_CHARGE", dim)]])
    capsys.readouterr()


def test_internal_invariant_error_exits_4(config_path, monkeypatch, capsys):
    from moltop import vectorize

    def broken(cx, validate=True):
        raise InternalInvariantError("reducer bookkeeping broken")

    monkeypatch.setattr(vectorize, "reduce_complex", broken)
    assert main(["fingerprint", "--config", str(config_path)]) == 4
    assert "internal invariant" in capsys.readouterr().err


def test_bench_command(config_path, tmp_path, capsys):
    assert main(["bench", "--config", str(config_path), "--ablation"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report["runs"]) == {"AM", "PC", "BT", "CH", "ALL"}
    capsys.readouterr()


def test_distance_command(tmp_path, capsys):
    pairs = [{"a": "N[C@@H](C)C(=O)O", "b": "N[C@H](C)C(=O)O"},
             {"a": "CCO", "b": "CCO"}]
    pairs_path = tmp_path / "pairs.json"
    pairs_path.write_text(json.dumps(pairs))
    assert main(["distance", "--pairs", str(pairs_path),
                 "--kinds", "ATOMIC_MASS", "BOND_TYPE", "CHIRALITY",
                 "--k-grid", "8", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "distances.jsonl").read_text().splitlines()
    assert len(lines) == 3  # two pairs plus the stability summary
    first = json.loads(lines[0])
    assert first["vector_distance"] > 0  # enantiomers differ
    second = json.loads(lines[1])
    assert second["vector_distance"] == 0.0
    summary = json.loads(lines[2])["summary"]
    assert summary["pairs"] == 2
    assert summary["max_ratio"] == pytest.approx(first["ratio"])
    capsys.readouterr()


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": "regression"}))  # no dataset
    assert main(["bench", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_exit_code_data_error(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("id,smiles,target\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"path": str(data)},
                               "task": "regression",
                               "out_dir": str(tmp_path / "out")}))
    assert main(["fingerprint", "--config", str(cfg)]) == 3
    capsys.readouterr()


def test_datagen_module_cli(tmp_path, capsys):
    from moltop.datagen import main as datagen_main
    out = tmp_path / "mini.jsonl"
    assert datagen_main(["--out", str(out), "--count", "5", "--seed", "3"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert {"record_id", "target", "graph"} <= set(first)
    capsys.readouterr()


def test_cli_overrides_change_seed(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["bench", "--config", str(config_path), "--seed", "42"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 42
    assert report["config"]["sglb"]["seed"] == 42
    capsys.readouterr()
