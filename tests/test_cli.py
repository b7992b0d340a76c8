import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import moltop
from moltop.cli import main
from moltop.errors import InternalInvariantError
from moltop.homology import PersistenceDiagram
from moltop.vectorize import read_fingerprints_csv

from oracles import betti_curve


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


def test_internal_invariant_error_exits_4(config_path, monkeypatch, capsys):
    from moltop import vectorize

    def broken(stack, validate=True):
        raise InternalInvariantError("reducer bookkeeping broken")

    monkeypatch.setattr(vectorize, "reduce_rows", broken)
    assert main(["fingerprint", "--config", str(config_path)]) == 4
    assert "internal invariant" in capsys.readouterr().err


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


@pytest.mark.parametrize("header,prediction,named", [
    ("record_id,prediction", "abc", "line 2"),
    ("id,prediction", "1.0", "'record_id' column"),
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
    return doc


_BAD_MODELS = ("not-object", "no-config", "no-members", "member-no-keys",
               "member-not-object", "tree-not-object", "config-unknown-key",
               "iterations-not-int", "feature-not-int", "feature-count-not-int",
               "base-not-number", "layout-no-kinds", "left-short", "max-depth-zero",
               "seed-negative", "threshold-nan", "base-infinity", "value-infinity",
               "member-other-layout", "member-other-feature-count")


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
                   "no-rows", "repeated-id")],
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
