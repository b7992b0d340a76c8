import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import moltop
from moltop import harness, molgraph, vectorize
from moltop.cli import main
from moltop.errors import InternalInvariantError
from moltop.filtration import FILTRATION_KINDS, make_spec
from moltop.homology import PersistenceDiagram
from moltop.molgraph import DatasetRecord
from moltop.vectorize import diagram_records, read_fingerprints_csv, row_diagrams

from oracles import betti_curve, graph_diameter


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


@pytest.mark.parametrize("decile_mode", ["per_molecule", "global"])
def test_diagram_dump_is_independent_of_threads(tiny_dataset_path, tmp_path, capsys,
                                                decile_mode):
    # One record has no partial charges: it fails and is left out of the dump.
    data = tmp_path / "data.jsonl"
    data.write_text(tiny_dataset_path.read_text()
                    + json.dumps({"record_id": "nocharge", "target": 1.0, "smiles": "C"})
                    + "\n")
    dumps = []
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        cfg = tmp_path / f"cfg{threads}.json"
        cfg.write_text(json.dumps({"dataset": {"path": str(data)}, "task": "regression",
                                   "k_grid": 8, "decile_mode": decile_mode,
                                   "threads": threads, "out_dir": str(out)}))
        assert main(["fingerprint", "--config", str(cfg), "--dump-diagrams"]) == 0
        errors = json.loads((out / "errors.json").read_text())["fingerprint_errors"]
        assert [e["record_id"] for e in errors] == ["nocharge"]
        dumps.append((out / "diagrams.jsonl").read_bytes())
    assert dumps[0] == dumps[1]
    molecules = {json.loads(line)["molecule"] for line in dumps[0].splitlines()}
    assert len(molecules) == 40 and "nocharge" not in molecules
    capsys.readouterr()


def open_k_grid_config(dataset_path, tmp_path, **overrides):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"dataset": {"path": str(dataset_path)}, "task": "regression",
                                "k_grid": None, "threads": 1, "repeats": 1,
                                "out_dir": str(tmp_path / "out"),
                                "sglb": {"iterations": 5, "max_depth": 2, "ensemble_size": 2},
                                **overrides}))
    return path


SMILES_CSV = "id,smiles,target\n" + "".join(
    f"m{i},{smiles},{i}\n" for i, smiles in enumerate([
        "C", "CC", "CCO", "c1ccccc1", "N[C@@H](C)C(=O)O", "CC(C)=O", "C1CC1", "OCC(O)CO",
        "CC#N", "ClCCl"]))


@pytest.mark.parametrize("command", [["fingerprint", "--dump-diagrams"], ["bench"], ["train"]])
def test_one_parse_and_one_walk_per_record(tiny_dataset_path, tmp_path, monkeypatch,
                                           capsys, command):
    # Every JSON graph and every SMILES string is parsed through these two
    # functions, so each counts once per record; the fingerprint stage then
    # picks the open k_grid, fingerprints and dumps from one walk per record.
    parsed, walked = [], []
    real_json, real_smiles = molgraph.graph_from_json_dict, molgraph._finish_parse
    real_walk = vectorize.geodesic_distances

    def parse_json(doc):
        parsed.append(doc["name"])  # the generated graphs are named by record
        return real_json(doc)

    def parse_smiles(atoms, bonds, name):
        parsed.append(name)
        return real_smiles(atoms, bonds, name)

    def walk(graph, rows=None):
        walked.append(graph.name)
        return real_walk(graph, rows)

    monkeypatch.setattr(molgraph, "graph_from_json_dict", parse_json)
    monkeypatch.setattr(molgraph, "_finish_parse", parse_smiles)
    monkeypatch.setattr(vectorize, "geodesic_distances", walk)
    smiles = tmp_path / "data.csv"
    smiles.write_text(SMILES_CSV)
    datasets = [(tiny_dataset_path, {}, [json.loads(line)["record_id"] for line in
                                         tiny_dataset_path.read_text().splitlines()]),
                # SMILES carry no partial charges
                (smiles, {"kinds": ["ATOMIC_MASS", "BOND_TYPE", "CHIRALITY"]},
                 [f"m{i}" for i in range(10)])]
    for (data, overrides, ids), decile_mode in itertools.product(datasets,
                                                                 ["per_molecule", "global"]):
        parsed.clear()
        walked.clear()
        cfg = open_k_grid_config(data, tmp_path, decile_mode=decile_mode, **overrides)
        code = main(command + ["--config", str(cfg)])
        assert sorted(parsed) == sorted(ids), (data, decile_mode)
        if data == smiles and decile_mode == "global":
            assert code == 3 and walked == []
            assert capsys.readouterr().err == ("data error: global decile mode needs a "
                                               "molecule with partial charges on every atom\n")
        else:
            assert code == 0 and sorted(walked) == sorted(ids), (data, decile_mode)
    capsys.readouterr()


@pytest.mark.parametrize("command,kept", [(["fingerprint", "--dump-diagrams"], True),
                                          (["fingerprint"], False), (["train"], False),
                                          (["bench"], False)])
def test_only_the_diagram_dump_keeps_row_diagrams(tiny_dataset_path, tmp_path, monkeypatch,
                                                  capsys, command, kept):
    # Training and a run without a dump hold the fingerprints, not the diagrams.
    tables = []
    real = harness.fingerprint_dataset

    def spy(*args, **kwargs):
        tables.append(real(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(harness, "fingerprint_dataset", spy)
    cfg = open_k_grid_config(tiny_dataset_path, tmp_path)
    assert main(command + ["--config", str(cfg)]) == 0
    assert len(tables) == 1 and len(tables[0].fingerprints) > 0
    assert bool(tables[0].diagrams) == kept
    capsys.readouterr()


@pytest.mark.parametrize("threads", [1, 2])
def test_fingerprints_never_expand_row_diagrams(tiny_dataset_path, tmp_path, monkeypatch,
                                                capsys, threads):
    # A fingerprint comes from the collapsed cores: only a diagram dump
    # expands them into the diagrams of every row.
    def expand(*args, **kwargs):
        raise AssertionError("row diagrams expanded for a fingerprint")

    monkeypatch.setattr(vectorize, "expand_cores", expand)
    records = [DatasetRecord(doc["record_id"], 0.0, graph=doc["graph"])
               for doc in map(json.loads, tiny_dataset_path.read_text().splitlines())]
    specs = [make_spec(k) for k in FILTRATION_KINDS]
    for record in records[:5]:
        vectorize.assemble(vectorize.graph_from_record(record), specs, 8)
    table = vectorize.fingerprint_dataset(records, FILTRATION_KINDS, None, threads=threads)
    assert len(table.fingerprints) == len(records) and table.diagrams == ()
    cfg = open_k_grid_config(tiny_dataset_path, tmp_path, threads=threads)
    assert main(["fingerprint", "--config", str(cfg)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["full_graph", "induced_subgraph"])
def test_dump_with_open_k_grid_is_row_diagrams_at_the_largest_diameter(
        tiny_dataset_path, tmp_path, capsys, mode):
    cfg = open_k_grid_config(tiny_dataset_path, tmp_path, distance_mode=mode)
    assert main(["fingerprint", "--config", str(cfg), "--dump-diagrams"]) == 0
    graphs = []
    for line in tiny_dataset_path.read_text().splitlines():
        doc = json.loads(line)
        graphs.append(vectorize.graph_from_record(
            DatasetRecord(doc["record_id"], 0.0, graph=doc["graph"])))
    k_grid = min(vectorize.K_GRID_CAP, max(map(graph_diameter, graphs)))
    assert read_fingerprints_csv(tmp_path / "out" / "fingerprints.csv").layout.k_grid == k_grid
    specs = [make_spec(k) for k in FILTRATION_KINDS]
    want = [doc for graph in graphs
            for doc in diagram_records(row_diagrams(graph, specs, k_grid, mode)[0], graph.name)]
    dump = (tmp_path / "out" / "diagrams.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in dump] == want
    capsys.readouterr()


def test_error_entries_name_the_error_class(tiny_dataset_path, tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text(tiny_dataset_path.read_text() + "{not json\n"
                    + json.dumps({"record_id": "nocharge", "target": 1.0, "smiles": "C"})
                    + "\n")
    assert main(["fingerprint", "--config", str(open_k_grid_config(data, tmp_path))]) == 0
    errors = json.loads((tmp_path / "out" / "errors.json").read_text())
    assert errors == {
        "load_errors": [{"record_id": "row40", "error": errors["load_errors"][0]["error"],
                         "error_class": "DataError"}],
        "fingerprint_errors": [{"record_id": "nocharge",
                                "error": errors["fingerprint_errors"][0]["error"],
                                "error_class": "ChargesRequiredError"}]}
    capsys.readouterr()


def fault_dataset(tiny_dataset_path, tmp_path, fmt):
    """Good records mixed with one of each fault a run reports, as JSONL
    (inline graphs, a graph file and SMILES) or as a SMILES CSV.  A repeated
    id whose second copy is malformed is only a load error: the repeated-id
    check notes only rows that load."""
    docs = [json.loads(line) for line in tiny_dataset_path.read_text().splitlines()[:4]]
    if fmt == "csv":
        path = tmp_path / "faults.csv"
        path.write_text("id,smiles,target\na,CCO,1.5\nbad,C1CC,0.0\nt,CCN,high\n"
                        "b,c1ccccc1,2.0\na,C(,1.0\nc,N[C@@H](C)C(=O)O,0.5\n")
        return path
    (tmp_path / "mol.json").write_text(json.dumps(docs[3]["graph"]))
    lines = [json.dumps(docs[0]), "{not json",
             json.dumps({"record_id": "schema", "target": 1.0,
                         "graph": {"atoms": [{"element": "Xx"}]}}),
             json.dumps({"record_id": "target", "target": "high", "graph": docs[1]["graph"]}),
             json.dumps({"record_id": "smiles", "target": 1.0, "smiles": "C1CC"}),
             json.dumps({"record_id": "nocharge", "target": 1.0, "smiles": "CCO"}),
             json.dumps({"record_id": "file", "target": 2.0, "graph_path": "mol.json"}),
             json.dumps({"record_id": "gone", "target": 1.0, "graph_path": "gone.json"}),
             json.dumps(docs[1]),
             json.dumps({"record_id": docs[0]["record_id"], "target": 1.0, "smiles": "C("}),
             json.dumps(docs[2])]
    path = tmp_path / "faults.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.mark.parametrize("threads", [1, 2])
def test_error_report_of_every_dataset_fault(tiny_dataset_path, tmp_path, capsys, threads):
    # Every entry, message, error class and the order of both lists.
    data = fault_dataset(tiny_dataset_path, tmp_path, "jsonl")
    cfg = open_k_grid_config(data, tmp_path, threads=threads)
    assert main(["fingerprint", "--config", str(cfg)]) == 0
    errors = json.loads((tmp_path / "out" / "errors.json").read_text())
    gone = tmp_path / "gone.json"
    assert errors == {
        "load_errors": [
            {"record_id": "row1", "error_class": "DataError",
             "error": "invalid JSON: Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1)"},
            {"record_id": "schema", "error_class": "SchemaError",
             "error": "unsupported element 'Xx' (at $.atoms[0].element)"},
            {"record_id": "target", "error_class": "DataError",
             "error": "missing or non-numeric target 'high'"},
            {"record_id": "smiles", "error_class": "SmilesParseError",
             "error": "unmatched ring closure 1 (at offset 1)"},
            {"record_id": "gone", "error_class": "SchemaError",
             "error": f"{gone}: cannot read molecule file ([Errno 2] No such file or "
                      f"directory: '{gone}') (at $)"},
            {"record_id": "mol00000", "error_class": "SmilesParseError",
             "error": "unbalanced parentheses (at offset 1)"}],
        "fingerprint_errors": [
            {"record_id": "nocharge", "error_class": "ChargesRequiredError",
             "error": "atom 0 has no partial charge; the partial-charge filtration "
                      "needs charges on every atom"}]}
    fingerprinted = read_fingerprints_csv(tmp_path / "out" / "fingerprints.csv").ids()
    assert fingerprinted == ["mol00000", "file", "mol00001", "mol00002"]
    capsys.readouterr()


@pytest.mark.parametrize("threads", [1, 2])
def test_error_report_of_every_csv_fault(tiny_dataset_path, tmp_path, capsys, threads):
    # SMILES carry no partial charges: with PARTIAL_CHARGE every record
    # fails, and without it only the load errors remain.
    data = fault_dataset(tiny_dataset_path, tmp_path, "csv")
    cfg = open_k_grid_config(data, tmp_path, threads=threads)
    assert main(["fingerprint", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "data error: all 3 records failed; first error: atom 0 has no partial charge; "
        "the partial-charge filtration needs charges on every atom\n")
    cfg = open_k_grid_config(data, tmp_path, threads=threads,
                             kinds=["ATOMIC_MASS", "BOND_TYPE", "CHIRALITY"])
    assert main(["fingerprint", "--config", str(cfg)]) == 0
    errors = json.loads((tmp_path / "out" / "errors.json").read_text())
    assert errors == {
        "load_errors": [
            {"record_id": "bad", "error_class": "SmilesParseError",
             "error": "unmatched ring closure 1 (at offset 1)"},
            {"record_id": "t", "error_class": "DataError",
             "error": "missing or non-numeric target 'high'"},
            {"record_id": "a", "error_class": "SmilesParseError",
             "error": "unbalanced parentheses (at offset 1)"}],
        "fingerprint_errors": []}
    fingerprinted = read_fingerprints_csv(tmp_path / "out" / "fingerprints.csv").ids()
    assert fingerprinted == ["a", "b", "c"]
    capsys.readouterr()


def test_internal_invariant_error_exits_4(config_path, monkeypatch, capsys):
    from moltop import vectorize

    def broken(stack, validate=True):
        raise InternalInvariantError("reducer bookkeeping broken")

    monkeypatch.setattr(vectorize, "reduce_rows", broken)
    assert main(["fingerprint", "--config", str(config_path)]) == 4
    assert "internal invariant" in capsys.readouterr().err


def test_a_vector_off_the_layout_exits_4_not_3(config_path, monkeypatch, capsys):
    # Only a bug can make the assembled vector miss a layout column.
    real = vectorize.layout_curves
    monkeypatch.setattr(vectorize, "layout_curves", lambda *args: real(*args)[:, :-1])
    assert main(["fingerprint", "--config", str(config_path)]) == 4
    assert "does not match the layout length" in capsys.readouterr().err


def test_internal_invariant_error_at_load_exits_4(tmp_path, monkeypatch, capsys):
    # A bug in the parser must fail the run, not be skipped as a bad row.
    from moltop import harness

    def broken(text, name=""):
        raise InternalInvariantError("parser bookkeeping broken")

    data = tmp_path / "data.csv"
    data.write_text("id,smiles,target\na,CCO,1.0\nb,CCN,2.0\n")
    monkeypatch.setattr(harness, "parse_smiles", broken)
    with pytest.raises(InternalInvariantError):
        harness.load_dataset(data)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"path": str(data)}, "task": "regression",
                               "out_dir": str(tmp_path / "out")}))
    assert main(["bench", "--config", str(cfg)]) == 4
    assert "internal invariant" in capsys.readouterr().err


def test_bench_matches_fingerprint_then_train(config_path, tmp_path, capsys):
    # With sglb.seed set apart from the run seed, `bench` trains its first
    # repeat exactly like `train`, and both paths write the same artifacts.
    doc = json.loads(config_path.read_text())
    doc["sglb"]["seed"] = 5
    config_path.write_text(json.dumps(doc))
    steps = tmp_path / "steps"
    assert main(["fingerprint", "--config", str(config_path), "--out", str(steps)]) == 0
    assert main(["train", "--config", str(config_path), "--out", str(steps),
                 "--fingerprints", str(steps / "fingerprints.csv")]) == 0
    direct = tmp_path / "direct"
    assert main(["train", "--config", str(config_path), "--out", str(direct)]) == 0
    bench = tmp_path / "bench"
    assert main(["bench", "--config", str(config_path), "--out", str(bench),
                 "--repeats", "1"]) == 0
    for name in ("fingerprints.csv", "errors.json", "model.json"):
        assert (bench / name).read_bytes() == (steps / name).read_bytes(), name
    assert (direct / "model.json").read_bytes() == (bench / "model.json").read_bytes()
    report = json.loads((bench / "report.json").read_text())
    assert json.loads((bench / "model.json").read_text())["config"]["seed"] == 5
    assert report["config"]["sglb"]["seed"] == 5
    capsys.readouterr()


def test_bench_command(config_path, tmp_path, capsys):
    assert main(["bench", "--config", str(config_path), "--ablation"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report["runs"]) == {"AM", "PC", "BT", "CH", "ALL"}
    capsys.readouterr()


def test_bench_outputs_are_independent_of_threads(config_path, tmp_path, capsys):
    # Ten ensembles (five kind subsets, two repeats) share one fan-out at
    # --threads 2; the artifacts equal the serial run's byte for byte, apart
    # from the report's echo of the thread count and output directory.
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main(["bench", "--config", str(config_path), "--ablation", "--repeats", "2",
                     "--threads", str(threads), "--out", str(out)]) == 0
        report = (out / "report.json").read_bytes()
        echo = f'"threads": {threads}\n'.encode()
        assert report.count(echo) == 1
        report = report.replace(echo, b"THREADS").replace(str(out).encode(), b"OUT")
        outputs.append([report] + [(out / name).read_bytes()
                                   for name in ("model.json", "predictions.csv")])
        timing = json.loads((out / "timing.json").read_text())
        assert all(len(v) == 2 for v in timing["train_seconds"].values())
        assert timing["train_wall_seconds"] > 0
    assert outputs[0] == outputs[1]
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


def test_csv_field_past_the_csv_limit_exits_3_naming_file_and_line(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(f"id,smiles,target\na,CCO,1.0\nb,{'C' * 140_000},2.0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"path": str(data)}, "task": "regression",
                               "out_dir": str(tmp_path / "out")}))
    assert main(["fingerprint", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{data} line 3: cannot read dataset" in err


@pytest.mark.parametrize("header,prediction,named", [
    ("record_id,prediction", "abc", "line 2"),
    ("id,prediction", "1.0", "'record_id' column"),
    ("record_id,score", "1.0", "no 'prediction' column"),
    ("record_id,prediction", "nan", "line 2: non-finite prediction 'nan'"),
    ("record_id,prediction", "-inf", "line 2: non-finite prediction '-inf'"),
])
def test_evaluate_bad_predictions_exit_3(config_path, tiny_dataset_path, tmp_path,
                                         capsys, header, prediction, named):
    rid = json.loads(tiny_dataset_path.read_text().splitlines()[0])["record_id"]
    predictions = tmp_path / "predictions.csv"
    predictions.write_text(f"{header}\n{rid},{prediction}\n")
    assert main(["evaluate", "--config", str(config_path),
                 "--predictions", str(predictions)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and named in err


def test_evaluate_reads_headers_in_any_case(config_path, tiny_dataset_path, tmp_path,
                                            capsys):
    ids = [json.loads(line)["record_id"]
           for line in tiny_dataset_path.read_text().splitlines()[:4]]
    rows = "".join(f"{rid},{i * 0.5},{'VALID' if i % 2 else 'TEST'}\n"
                   for i, rid in enumerate(ids))
    metrics = []
    for header in ("record_id,prediction,split", " Record_ID ,PREDICTION, Split "):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text(f"{header}\n{rows}")
        assert main(["evaluate", "--config", str(config_path),
                     "--predictions", str(predictions)]) == 0
        metrics.append(json.loads(capsys.readouterr().out))
    assert set(metrics[0]) == {"TEST", "VALID"}
    assert metrics[1] == metrics[0]


def test_nan_split_ratio_config_exits_2(config_path, capsys):
    doc = json.loads(config_path.read_text())
    # NaN fails every comparison: `r < 0` and `abs(sum - 1) > 1e-9` let it through
    doc["split"] = {"mode": "random", "ratios": [math.nan, 0.1, 0.1]}
    config_path.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "split.ratios" in err


def test_evaluate_repeated_record_id_exits_3(config_path, tiny_dataset_path, tmp_path,
                                             capsys):
    # a repeated prediction row must not count twice in the metrics
    ids = [json.loads(line)["record_id"]
           for line in tiny_dataset_path.read_text().splitlines()[:3]]
    predictions = tmp_path / "predictions.csv"
    rows = [f"{rid},0.0" for rid in ids + ids[1:2]]
    predictions.write_text("record_id,prediction\n" + "\n".join(rows) + "\n")
    assert main(["evaluate", "--config", str(config_path),
                 "--predictions", str(predictions)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert f"line 5: repeated record id {ids[1]!r} (first on line 3)" in err


@pytest.fixture(scope="module")
def trained(tiny_dataset_path, tmp_path_factory):
    """A run config, its fingerprints.csv and a model.json trained from them."""
    out = tmp_path_factory.mktemp("trained")
    config = out / "cfg.json"
    config.write_text(json.dumps({
        "dataset": {"path": str(tiny_dataset_path)}, "task": "regression",
        "k_grid": 8, "threads": 1, "out_dir": str(out),
        "sglb": {"iterations": 5, "max_depth": 2, "ensemble_size": 2}}))
    assert main(["fingerprint", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config),
                 "--fingerprints", str(out / "fingerprints.csv")]) == 0
    return {"--config": config, "--fingerprints": out / "fingerprints.csv",
            "--model": out / "model.json"}


def test_fingerprint_entry_outside_int64_exits_3_naming_file_and_line(trained, tmp_path,
                                                                     capsys):
    lines = trained["--fingerprints"].read_text().splitlines()
    record_id, first, rest = lines[3].split(",", 2)
    lines[3] = ",".join((record_id, "99999999999999999999", rest))
    bad = tmp_path / "fingerprints.csv"
    bad.write_text("\n".join(lines) + "\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**json.loads(trained["--config"].read_text()),
                                  "out_dir": str(tmp_path / "out")}))
    assert main(["train", "--config", str(config), "--fingerprints", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{bad} line 4: entry outside int64" in err


def _bad_model(kind, good_model):
    """A JSON document that is not an ensemble, made from a good model.json."""
    if kind == "not-object":
        return []
    if kind == "no-config":
        return {"format_version": "1"}
    doc = json.loads(good_model.read_text())
    member, tree = doc["members"][0], doc["members"][0]["trees"][0]
    if kind == "no-members":
        doc["members"] = []
    elif kind == "member-no-keys":
        doc["members"][0] = {"format_version": "1"}
    elif kind == "member-not-object":
        doc["members"][0] = 5
    elif kind == "tree-not-object":
        doc["members"][0]["trees"][0] = 5
    elif kind == "config-unknown-key":
        doc["config"]["colour"] = "red"
    elif kind == "iterations-not-int":
        doc["config"]["iterations"] = "x"
    elif kind == "feature-not-int":
        tree["feature"] = "x"
    elif kind == "feature-count-not-int":
        member["feature_count"] = "x"
    elif kind == "base-not-number":
        member["base"] = "x"
    elif kind == "layout-no-kinds":
        del member["layout"]["kinds"]
    elif kind == "left-short":
        tree["left"] = tree["left"][:-1]
    elif kind == "max-depth-zero":
        member["config"]["max_depth"] = 0
    elif kind == "seed-negative":
        member["config"]["seed"] = -1
    elif kind == "min-samples-split-zero":
        member["config"]["min_samples_split"] = 0
    elif kind == "min-samples-split-negative":
        doc["config"]["min_samples_split"] = -5
    elif kind == "threshold-nan":  # json writes the NaN literal, which json reads back
        tree["threshold"][0] = math.nan
    elif kind == "base-infinity":
        member["base"][0] = math.inf
    elif kind == "value-infinity":
        tree["value"][0][0] = -math.inf
    elif kind == "member-other-layout":
        doc["members"][1]["layout"]["k_grid"] += 1
    elif kind == "member-other-feature-count":
        doc["members"][1]["feature_count"] += 1
    elif kind == "layout-version-7":
        member["layout"]["version"] = "7"
    return doc


_BAD_MODELS = ("not-object", "no-config", "no-members", "member-no-keys",
               "member-not-object", "tree-not-object", "config-unknown-key",
               "iterations-not-int", "feature-not-int", "feature-count-not-int",
               "base-not-number", "layout-no-kinds", "left-short", "max-depth-zero",
               "seed-negative", "min-samples-split-zero", "min-samples-split-negative",
               "threshold-nan", "base-infinity", "value-infinity",
               "member-other-layout", "member-other-feature-count", "layout-version-7")


def _bad_file(kind, trained, path):
    good_csv = trained["--fingerprints"]
    if kind in _BAD_MODELS:
        path.write_text(json.dumps(_bad_model(kind, trained["--model"])))
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe\xfa not text\n")
    elif kind == "bad-json":
        path.write_text('{"format_version": ')
    elif kind == "bad-magic":
        path.write_text("#moltop-fingerprints version=1 kinds=XX k_grid=8\nrecord_id\n")
    elif kind == "non-integer":
        lines = good_csv.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",x"
        path.write_text("\n".join(lines) + "\n")
    elif kind == "blank-line":
        lines = good_csv.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
    elif kind == "no-rows":
        path.write_text("\n".join(good_csv.read_text().splitlines()[:2]) + "\n")
    elif kind == "repeated-id":
        lines = good_csv.read_text().splitlines()
        path.write_text("\n".join(lines + lines[2:3]) + "\n")
    elif kind == "layout-version-9":
        path.write_text(good_csv.read_text().replace("version=1 ", "version=9 ", 1))
    return path  # "missing": never written


@pytest.mark.parametrize("command,flag,kind", [
    ("predict", "--model", "missing"),
    ("predict", "--model", "not-utf8"),
    ("predict", "--model", "bad-json"),
    ("rank-uncertainty", "--model", "bad-json"),
    *[(command, "--model", kind)
      for command in ("predict", "rank-uncertainty") for kind in _BAD_MODELS],
    *[(command, "--fingerprints", kind)
      for command in ("train", "predict", "rank-uncertainty")
      for kind in ("missing", "not-utf8", "bad-magic", "non-integer", "blank-line",
                   "no-rows", "repeated-id", "layout-version-9")],
    ("evaluate", "--predictions", "missing"),
    ("evaluate", "--predictions", "not-utf8"),
    ("distance", "--pairs", "missing"),
    ("distance", "--pairs", "not-utf8"),
    ("distance", "--pairs", "bad-json"),
])
def test_unreadable_input_file_exits_3(trained, tmp_path, capsys, command, flag, kind):
    flags = {"train": ["--config", "--fingerprints"],
             "predict": ["--model", "--fingerprints"],
             "rank-uncertainty": ["--model", "--fingerprints"],
             "evaluate": ["--config", "--predictions"],
             "distance": ["--pairs"]}[command]
    bad = _bad_file(kind, trained, tmp_path / f"bad-{kind}")
    argv = [command, "--out", str(tmp_path / "out")]
    for name in flags:
        argv += [name, str(bad if name == flag else trained[name])]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(bad) in err


@pytest.mark.parametrize("command,flag,version", [("train", "--fingerprints", "9"),
                                                  ("predict", "--model", "7")])
def test_other_layout_version_exits_3_naming_it(trained, tmp_path, capsys, command, flag,
                                                version):
    # only layout version 1 exists; a file that declares another is not read as one
    bad = _bad_file(f"layout-version-{version}", trained, tmp_path / "bad")
    argv = [command, "--out", str(tmp_path / "out")]
    for name in {"train": ("--config", "--fingerprints"),
                 "predict": ("--model", "--fingerprints")}[command]:
        argv += [name, str(bad if name == flag else trained[name])]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"{bad}: invalid fingerprint layout: layout version '{version}' is not '1'" in err


@pytest.mark.parametrize("flag,value", [("--k-grid", "0"), ("--p", "0.5"), ("--p", "nan"),
                                        ("--p", "inf"), ("--kinds", "MASS")])
def test_distance_bad_flag_exits_2(tmp_path, capsys, flag, value):
    # The pair's first molecule does not parse: flags are checked before it.
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([{"a": "C(", "b": "C"}]))
    assert main(["distance", "--pairs", str(pairs), flag, value]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("kind,code", [("config-not-utf8", 2), ("dataset-is-directory", 3)])
def test_unreadable_run_input_exit_code(config_path, tmp_path, capsys, kind, code):
    # The run config is a config error to read, the dataset it names a data error.
    if kind == "config-not-utf8":
        named = config_path
        config_path.write_bytes(b'{"task": "\xff"}')
    else:
        named = tmp_path / "data.jsonl"
        named.mkdir()
        doc = json.loads(config_path.read_text())
        doc["dataset"]["path"] = str(named)
        config_path.write_text(json.dumps(doc))
    assert main(["fingerprint", "--config", str(config_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "data error:")
    assert str(named) in err


def test_wrongly_typed_config_field_exits_2(config_path, capsys):
    doc = json.loads(config_path.read_text())
    doc["threads"] = "x"
    config_path.write_text(json.dumps(doc))
    assert main(["fingerprint", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "threads" in err


def test_nan_gamma_config_exits_2(config_path, capsys):
    doc = json.loads(config_path.read_text())
    doc["sglb"]["gamma"] = math.nan  # json writes the NaN literal, which json reads back
    config_path.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gamma" in err


@pytest.mark.parametrize("key,value", [("repeats", 0), ("threads", 0), ("threads", -3),
                                       ("seed", -1)])
def test_out_of_range_run_value_exits_2(config_path, tmp_path, capsys, key, value):
    # A command-line flag goes through the same check as the config key.
    assert main(["bench", "--config", str(config_path), f"--{key}", str(value)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    doc = json.loads(config_path.read_text())
    doc[key] = value
    config_path.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "out").exists()


def test_negative_sglb_seed_exits_2(config_path, tmp_path, capsys):
    doc = json.loads(config_path.read_text())
    doc["sglb"]["seed"] = -2
    config_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [0, -5])
def test_min_samples_split_below_one_exits_2(config_path, tmp_path, capsys, value):
    doc = json.loads(config_path.read_text())
    doc["sglb"]["min_samples_split"] = value
    config_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "min_samples_split" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kinds", [["BOND_TYPE", "ATOMIC_MASS"],
                                   ["ATOMIC_MASS", "BOND_TYPE", "ATOMIC_MASS"]])
def test_distance_kinds_in_any_order(tmp_path, capsys, kinds):
    # Kinds are put in the fixed AM, PC, BT, CH order, as in a run config.
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([{"a": "N[C@@H](C)C(=O)O", "b": "CCO"}]))
    argv = ["distance", "--pairs", str(pairs), "--k-grid", "6", "--kinds"]
    assert main(argv + ["ATOMIC_MASS", "BOND_TYPE"]) == 0
    canonical = capsys.readouterr().out
    assert main(argv + kinds) == 0
    assert capsys.readouterr().out == canonical


def test_cli_import_loads_no_scipy():
    # scipy is imported inside the two functions that need it, so the
    # regression commands do not pay for loading it.
    src = os.path.dirname(os.path.dirname(moltop.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, moltop.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


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
