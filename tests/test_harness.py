import csv
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from moltop import vectorize
from moltop.errors import ConfigError, DataError
from moltop.harness import (
    apply_split,
    evaluate,
    f1_score,
    load_dataset,
    load_run_config,
    prc_auc,
    prediction_rows,
    prepare_run,
    RunConfig,
    rmse,
    roc_auc,
    run_benchmark,
    run_config_from_dict,
)
from moltop.filtration import FILTRATION_KINDS
from moltop.molgraph import DatasetRecord, load_graph_json, parse_smiles
from moltop.sglb import (TASK_CLASSIFICATION, TASK_REGRESSION, SglbConfig, decompose,
                         load_ensemble)
from moltop.vectorize import (
    DISTANCE_MODES,
    fingerprint_dataset,
    graph_from_record,
    read_fingerprints_csv,
)

from oracles import graph_diameter, naive_f1, naive_prc_auc, naive_roc_auc, random_split_tags


def write_csv_dataset(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "smiles", "target"])
        writer.writerows(rows)


class TestLoadDataset:
    def test_csv_counts_and_errors(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv_dataset(path, [
            ["a", "CCO", "1.5"],
            ["b", "C1CC1", "-0.25"],
            ["c", "C1CC", "0.0"],        # unmatched ring closure
            ["d", "CCN", "not-a-number"],
            ["e", "c1ccccc1", "2.0"],
        ])
        records, errors = load_dataset(path)
        assert [r.record_id for r in records] == ["a", "b", "e"]
        assert {e["record_id"] for e in errors} == {"c", "d"}

    def test_duplicate_record_id_names_the_id_and_line(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv_dataset(path, [["a", "CCO", "1.5"], ["b", "CCN", "0.5"],
                                 ["c", "C1CC", "0.0"], ["b", "CCC", "2.0"],
                                 ["a", "CO", "1.0"]])
        with pytest.raises(DataError, match=r"data.csv line 5: repeated record id 'b' "
                                            r"\(first on line 3\)"):
            load_dataset(path)
        path = tmp_path / "data.jsonl"
        docs = [{"record_id": rid, "target": 1.0, "smiles": "CC"} for rid in "xyx"]
        path.write_text("\n".join(map(json.dumps, docs[:2])) + "\n\n"
                        + json.dumps(docs[2]) + "\n")
        with pytest.raises(DataError, match=r"data.jsonl line 4: repeated record id 'x' "
                                            r"\(first on line 1\)"):
            load_dataset(path)

    def test_jsonl_with_inline_graphs(self, small_dataset_path, small_records):
        records, errors = load_dataset(small_dataset_path)
        assert len(records) == len(small_records)
        assert errors == []
        assert records[0].graph is not None

    def test_jsonl_graph_path_reference(self, tmp_path):
        mol = {"name": "h2", "atoms": [{"element": "H"}, {"element": "H"}],
               "bonds": [{"a": 0, "b": 1, "order": "SINGLE"}]}
        (tmp_path / "h2.json").write_text(json.dumps(mol))
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"record_id": "x", "target": 1.0,
                                    "graph_path": "h2.json"}) + "\n")
        records, errors = load_dataset(data)
        assert errors == []
        assert records[0].graph == load_graph_json(tmp_path / "h2.json")  # beside the data

    def test_jsonl_missing_graph_path_is_a_load_error(self, tmp_path):
        data = tmp_path / "d.jsonl"
        lines = [{"record_id": "ok", "target": 1.0, "smiles": "CCO"},
                 {"record_id": "x", "target": 1.0, "graph_path": "gone.json"}]
        data.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
        records, errors = load_dataset(data)
        assert [r.record_id for r in records] == ["ok"]
        assert [e["record_id"] for e in errors] == ["x"]
        assert "cannot read molecule file" in errors[0]["error"]
        assert "gone.json" in errors[0]["error"]

    def test_jsonl_malformed_lines_are_load_errors(self, tmp_path):
        good = {"record_id": "ok", "target": 1.0, "smiles": "CCO"}
        lines = [json.dumps(good), "{not json", "[1, 2]",
                 json.dumps({**good, "record_id": "t", "target": "high"}),
                 json.dumps({"record_id": "m", "smiles": "CCO"}),
                 json.dumps({**good, "record_id": "s", "split": "train"}),
                 json.dumps({"record_id": "p", "target": 1.0, "graph_path": 7}),
                 json.dumps({"record_id": "g", "target": 1.0, "graph": 0})]
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        records, errors = load_dataset(path)
        assert [r.record_id for r in records] == ["ok"]
        assert [e["record_id"] for e in errors] == ["row1", "row2", "t", "m", "s",
                                                    "p", "g"]

    def test_jsonl_splits_lines_at_any_newline(self, tmp_path):
        # Lines end at \n, \r or \r\n, so unnamed records keep their row ids.
        good = json.dumps({"target": 1.0, "smiles": "CCO"})
        path = tmp_path / "d.jsonl"
        path.write_bytes(f"{good}\r\n{good}\r{{bad\n{good}\n".encode())
        records, errors = load_dataset(path)
        assert [r.record_id for r in records] == ["row0", "row1", "row3"]
        assert [e["record_id"] for e in errors] == ["row2"]

    def test_csv_header_names_match_in_any_case_and_spacing(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(" ID ,SMILES, Target \na,CCO,1.5\nb,CCN,0.5\n")
        records, errors = load_dataset(path)
        assert errors == []
        assert [(r.record_id, r.graph, r.target) for r in records] == [
            ("a", parse_smiles("CCO", name="a"), 1.5),
            ("b", parse_smiles("CCN", name="b"), 0.5)]

    @pytest.mark.parametrize("header,missing", [("id,smiles", "target"),
                                                ("id,target", "smiles"), ("", "smiles")],
                             ids=["no-target", "no-smiles", "blank-header"])
    def test_missing_csv_column_names_file_and_column(self, tmp_path, header, missing):
        path = tmp_path / "data.csv"
        path.write_text(f"{header}\na,CCO\n")
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: no {missing!r} column"

    @pytest.mark.parametrize("name", ["data.csv", "data.jsonl"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, name):
        # The mark must neither rename the first column nor spoil the first line.
        rows = [("a", "CCO", 1.5), ("b", "CCN", 0.5)]
        if name.endswith(".csv"):
            text = "id,smiles,target\n" + "".join(f"{r},{s},{t}\n" for r, s, t in rows)
        else:
            text = "".join(json.dumps({"record_id": r, "smiles": s, "target": t}) + "\n"
                           for r, s, t in rows)
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        records, errors = load_dataset(path)
        assert errors == []
        assert [(r.record_id, r.graph, r.target) for r in records] == [
            (r, parse_smiles(s, name=r), t) for r, s, t in rows]

    @pytest.mark.parametrize("name,target,error", [
        ("data.csv", "nan", None), ("data.csv", "inf", None), ("data.csv", "-Infinity", None),
        ("data.jsonl", math.nan, None), ("data.jsonl", math.inf, None),
        ("data.jsonl", "nan", None),
        # a JSONL target must be a JSON number, where a CSV one is text
        ("data.jsonl", True, "target has the wrong type: True"),
        ("data.jsonl", "1.5", "target has the wrong type: '1.5'"),
    ], ids=["csv-nan", "csv-inf", "csv-neg-infinity", "jsonl-NaN", "jsonl-Infinity",
            "jsonl-nan-text", "jsonl-true", "jsonl-number-text"])
    def test_non_finite_target_is_a_load_error_naming_the_record(self, tmp_path, name,
                                                                 target, error):
        rows = [("a", "CCO", 1.5), ("x", "CCN", target), ("b", "CO", 0.5)]
        path = tmp_path / name
        if name.endswith(".csv"):
            write_csv_dataset(path, rows)
        else:  # json writes math.nan and math.inf as NaN and Infinity
            path.write_text("".join(json.dumps({"record_id": r, "smiles": s, "target": t})
                                    + "\n" for r, s, t in rows))
        records, errors = load_dataset(path)
        assert [r.record_id for r in records] == ["a", "b"]
        assert errors == [{"record_id": "x", "error": error or f"non-finite target {target!r}",
                           "error_class": "DataError"}]

    def test_non_utf8_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"id,smiles,target\na,CCO,1.0\nb,C\xff\xfeC,2.0\n")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_empty_after_skips_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv_dataset(path, [["a", "C1CC", "1.0"]])
        with pytest.raises(DataError):
            load_dataset(path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "data.parquet"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_dataset(path)


class TestApplySplit:
    def make_records(self, n):
        return [DatasetRecord(f"r{i}", float(i), parse_smiles("C", name=f"r{i}"))
                for i in range(n)]

    def test_split_file_exact(self, tmp_path):
        records = self.make_records(4)
        split = tmp_path / "split.csv"
        split.write_text("record_id,split\nr0,TRAIN\nr1,TRAIN\nr2,VALID\nr3,TEST\n")
        tagged = apply_split(records, "file", split)
        assert [r.split for r in tagged] == ["TRAIN", "TRAIN", "VALID", "TEST"]

    def test_uncovered_ids_listed(self, tmp_path):
        records = self.make_records(3)
        split = tmp_path / "split.csv"
        split.write_text("record_id,split\nr0,TRAIN\n")
        with pytest.raises(DataError) as err:
            apply_split(records, "file", split)
        assert "r1" in str(err.value) and "r2" in str(err.value)

    @pytest.mark.parametrize("content,line", [
        (b"record_id,split\nr0,TRAIN\nr1,\xff\n", 3),
        (b"record_id,split\nr0,TRAIN\nr1\n", 3),
        # the bad byte is within a mark's length of its line's start
        (b"\xef\xbb\xbfrecord_id,split\nr0,TRAIN\n\xff,TEST\n", 3),
    ], ids=["not-utf8", "short-row", "not-utf8-after-byte-order-mark"])
    def test_bad_split_file_names_file_and_line(self, tmp_path, content, line):
        split = tmp_path / "split.csv"
        split.write_bytes(content)
        with pytest.raises(DataError) as err:
            apply_split(self.make_records(2), "file", split)
        assert f"{split} line {line}:" in str(err.value)

    def test_split_file_header_names_match_in_any_case_and_spacing(self, tmp_path):
        split = tmp_path / "split.csv"
        split.write_bytes(b"\xef\xbb\xbf Record_ID ,SPLIT\nr1,TEST\nr0,train\n")
        tagged = apply_split(self.make_records(2), "file", split)
        assert [r.split for r in tagged] == ["TRAIN", "TEST"]

    def test_missing_split_column_names_file_and_column(self, tmp_path):
        split = tmp_path / "split.csv"
        split.write_text("record_id,tag\nr0,TRAIN\nr1,TEST\n")
        with pytest.raises(DataError) as err:
            apply_split(self.make_records(2), "file", split)
        assert str(err.value) == f"{split}: no 'split' column"

    def test_repeated_id_names_id_and_line(self, tmp_path):
        split = tmp_path / "split.csv"
        split.write_text("record_id,split\nr0,TRAIN\nr1,TEST\nr0,TEST\n")
        with pytest.raises(DataError) as err:
            apply_split(self.make_records(2), "file", split)
        assert f"{split} line 4: repeated record id 'r0' (first on line 2)" in str(err.value)

    def test_random_sizes_80_10_10(self):
        tagged = apply_split(self.make_records(100), "random", seed=0)
        counts = {tag: sum(1 for r in tagged if r.split == tag)
                  for tag in ("TRAIN", "VALID", "TEST")}
        assert counts == {"TRAIN": 80, "VALID": 10, "TEST": 10}

    def test_random_deterministic(self):
        records = self.make_records(57)
        a = apply_split(records, "random", seed=11)
        b = apply_split(records, "random", seed=11)
        assert [r.split for r in a] == [r.split for r in b]
        c = apply_split(records, "random", seed=12)
        assert [r.split for r in a] != [r.split for r in c]

    @pytest.mark.parametrize("ratios", [(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (0.0, 0.3, 0.7)])
    def test_random_tags_equal_the_per_position_oracle(self, ratios):
        records = self.make_records(30)
        for n in range(31):
            for seed in range(5):
                tagged = apply_split(records[:n], "random", ratios=ratios, seed=seed)
                assert [r.split for r in tagged] == random_split_tags(n, ratios, seed)


class TestMetrics:
    def test_perfect_ranking_roc(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_f1_harmonic_mean(self):
        # precision 0.5, recall 1.0 -> F1 = 2/3
        scores = [0.9, 0.9, 0.9, 0.9]
        labels = [1, 1, 0, 0]
        assert f1_score(scores, labels) == pytest.approx(2.0 / 3.0)

    def test_prc_threshold_zero_sorts_among_negative_scores(self):
        # q = 0 lies between the positive and the negative scores, not last.
        assert prc_auc([0.5, -0.2, -0.5], [1, 1, 0]) == naive_prc_auc(
            [0.5, -0.2, -0.5], [1, 1, 0]) == 1.0

    def test_prc_toy_matches_naive_sweep(self):
        scores = [0.9, 0.7, 0.7, 0.4, 0.2, 0.1]
        labels = [1, 0, 1, 1, 0, 0]
        assert prc_auc(scores, labels) == pytest.approx(
            naive_prc_auc(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        # the trainer's rule and message (sglb.binary_labels)
        with pytest.raises(DataError, match="^classification needs both classes present$"):
            roc_auc([0.5, 0.6], [1, 1])
        with pytest.raises(DataError, match="^classification needs both classes present$"):
            evaluate([0.5, 0.6], [0, 0], "classification")
        with pytest.raises(DataError, match="^classification targets must be 0/1$"):
            prc_auc([0.5, 0.6], [0, 2])

    def test_rmse(self):
        assert rmse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(np.sqrt(2.0))

    def test_metric_oracle_equivalence_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(3, 13))
            labels = rng.integers(0, 2, n).astype(float)
            if labels.min() == labels.max():
                labels[0] = 1.0 - labels[0]
            scores = rng.choice([-0.4, -0.1, 0.0, 0.1, 0.25, 0.5, 0.5, 0.8, 0.9], n)
            assert roc_auc(scores, labels) == pytest.approx(
                naive_roc_auc(scores, labels), abs=1e-12)
            assert prc_auc(scores, labels) == pytest.approx(
                naive_prc_auc(scores, labels), abs=1e-12)
            assert f1_score(scores, labels) == pytest.approx(
                naive_f1(scores, labels), abs=1e-12)

    def test_evaluate_dispatch(self):
        out = evaluate([1.0, 2.0], [1.5, 2.5], "regression")
        assert set(out) == {"rmse"}
        out = evaluate([0.9, 0.1], [1, 0], "classification")
        assert set(out) == {"roc_auc", "prc_auc", "f1"}


class TestRunConfig:
    def base_doc(self, dataset):
        return {"dataset": {"path": str(dataset)}, "task": "regression"}

    def test_minimal_config(self, small_dataset_path):
        cfg = run_config_from_dict(self.base_doc(small_dataset_path))
        assert cfg.task == "REGRESSION_WITH_UNCERTAINTY"
        assert cfg.kinds == ("ATOMIC_MASS", "PARTIAL_CHARGE", "BOND_TYPE", "CHIRALITY")
        assert cfg.repeats == 3

    def test_unknown_keys_rejected(self, small_dataset_path):
        doc = self.base_doc(small_dataset_path)
        doc["dataste"] = "typo"
        with pytest.raises(ConfigError):
            run_config_from_dict(doc)

    def test_dataset_and_task_alone_take_the_defaults(self, tmp_path):
        (tmp_path / "data.jsonl").write_text("", encoding="utf-8")
        cfg = run_config_from_dict({"dataset": "data.jsonl", "task": "regression"},
                                   str(tmp_path))
        assert cfg == RunConfig(dataset_path=str(tmp_path / "data.jsonl"),
                                task=TASK_REGRESSION, out_dir=str(tmp_path / "out"))

    def test_ratio_validation(self, small_dataset_path):
        doc = self.base_doc(small_dataset_path)
        doc["split"] = {"mode": "random", "ratios": [0.8, 0.1, 0.2]}
        with pytest.raises(ConfigError):
            run_config_from_dict(doc)

    @pytest.mark.parametrize("key,value,named", [
        ("threads", "x", "threads"),
        ("seed", "x", "seed"),
        ("repeats", None, "repeats"),
        ("sglb", [1], "sglb"),
        ("split", "random", "split"),
        ("split", {"mode": "random", "ratios": [0.5, "a", 0.5]}, "split.ratios"),
        ("out_dir", 5, "out_dir"),
        ("dataset", {"path": 5}, "dataset.path"),
        ("kinds", 5, "kinds"),
        ("task", [], "task"),
        ("dataset", {"format": ["csv"]}, "dataset.format"),
    ])
    def test_wrongly_typed_field_rejected(self, small_dataset_path, key, value, named):
        doc = self.base_doc(small_dataset_path)
        doc[key] = {**doc[key], **value} if key == "dataset" else value
        with pytest.raises(ConfigError) as err:
            run_config_from_dict(doc)
        assert named in str(err.value)

    def test_byte_order_mark_before_config_is_ignored(self, tmp_path, small_dataset_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(
            {"dataset": str(small_dataset_path), "task": "regression", "seed": 3}).encode())
        assert load_run_config(cfg_path).seed == 3

    def test_missing_dataset_file(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"dataset": {"path": "nope.jsonl"},
                                  "task": "regression"})

    @pytest.mark.parametrize("key,value,message", [
        ("task", "regression", "task must be regression or classification, got 'regression'"),
        ("task", "REGRESSION", "task must be regression or classification, got 'REGRESSION'"),
        ("decile_mode", "globl", "invalid decile_mode 'globl'"),
        ("distance_mode", "induced", "invalid distance_mode 'induced'"),
        ("split_mode", "files", "invalid split mode 'files'"),
        ("split_ratios", (0.5, 0.5), "split.ratios must be three non-negative numbers"),
        ("split_ratios", (0.5, math.nan, 0.5), "split.ratios must be three non-negative"),
        ("split_ratios", (0.5, 0.5, 0.5), "split.ratios must sum to 1"),
        ("k_grid", 0, "k_grid must be a positive integer or null"),
        ("kinds", ("CHIRALITY", "ATOMIC_MASS"), "kinds must be distinct, in the order"),
        ("kinds", ("ATOMIC_MASS", "ATOMIC_MASS"), "kinds must be distinct, in the order"),
        ("kinds", ("MASS",), "unknown filtration kinds ['MASS']"),
        ("kinds", (), "at least one filtration kind is required"),
        ("sglb", SglbConfig(task=TASK_CLASSIFICATION), "sglb.task must match the run task"),
    ])
    def test_run_config_checks_its_own_fields(self, small_dataset_path, key, value, message):
        # built directly, through a CLI override (replace) or from JSON: one set of rules
        fields = {"dataset_path": str(small_dataset_path), "task": TASK_REGRESSION}
        for build in (lambda: RunConfig(**{**fields, key: value}),
                      lambda: replace(RunConfig(**fields), **{key: value})):
            with pytest.raises(ConfigError) as err:
                build()
            assert message in str(err.value)

    @pytest.mark.parametrize("key,value,message", [
        ("task", "regresion", "task must be regression or classification, got 'regresion'"),
        ("task", None, "task must be regression or classification, got None"),
        ("decile_mode", "globl", "invalid decile_mode 'globl'"),
        ("distance_mode", "induced", "invalid distance_mode 'induced'"),
        ("split", {"mode": "files"}, "invalid split mode 'files'"),
        ("k_grid", 0, "k_grid must be a positive integer or null"),
        ("sglb", {"task": "BINARY_CLASSIFICATION"}, "sglb.task must match the run task"),
        # a misspelt key in a section
        ("split", {"mode": "random", "ratio": [0.5, 0.25, 0.25]}, "unknown split keys ['ratio']"),
        ("dataset", {"fromat": "csv"}, "unknown dataset keys ['fromat']"),
        # a key of the other split mode
        ("split", {"mode": "file", "path": "split.csv", "ratios": [0.5, 0.5, 0.5]},
         "split.ratios does not apply to a file split"),
        ("split", {"mode": "random", "path": "nope.csv"},
         "split.path does not apply to a random split"),
    ])
    def test_json_config_rules(self, small_dataset_path, key, value, message):
        doc = self.base_doc(small_dataset_path)
        doc[key] = {**doc[key], **value} if key == "dataset" else value
        with pytest.raises(ConfigError) as err:
            run_config_from_dict(doc)
        assert str(err.value) == message

    def test_load_from_file_resolves_paths(self, tmp_path, small_dataset_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"path": str(small_dataset_path)},
            "task": "regression", "seed": 3}))
        cfg = load_run_config(cfg_path)
        assert cfg.seed == 3
        assert cfg.sglb.seed == 3


class TestPrepareRun:
    def test_open_k_grid_is_the_largest_diameter_capped(self, tmp_path, monkeypatch):
        data = tmp_path / "data.csv"
        smiles = ["C", "CCO", "CCCCCC", "C1CC1"]
        write_csv_dataset(data, [[f"m{i}", s, "1.0"] for i, s in enumerate(smiles)])
        cfg = run_config_from_dict({"dataset": {"path": str(data)}, "task": "regression",
                                    "kinds": ["ATOMIC_MASS"]})
        diameters = [graph_diameter(parse_smiles(s)) for s in smiles]
        assert max(diameters) == 7  # hexane, hydrogen to hydrogen
        prep = prepare_run(cfg)
        assert prep.table.layout.k_grid == 7
        monkeypatch.setattr(vectorize, "K_GRID_CAP", 5)
        prep = prepare_run(cfg)
        assert prep.table.layout.k_grid == 5

    @pytest.mark.parametrize("mode", DISTANCE_MODES)
    def test_open_k_grid_equals_fingerprinting_at_the_largest_diameter(
            self, tiny_dataset_path, mode):
        # Reducing at the cap and truncating to the largest diameter gives the
        # fingerprints and diagrams of a run at that k_grid; in induced mode
        # some rows have distances past it.
        cfg = run_config_from_dict({"dataset": {"path": str(tiny_dataset_path)},
                                    "task": "regression", "distance_mode": mode})
        prep = prepare_run(cfg, diagrams=True)
        graphs = [graph_from_record(r) for r in prep.records]
        k_grid = min(vectorize.K_GRID_CAP, max(map(graph_diameter, graphs)))
        assert k_grid < vectorize.K_GRID_CAP
        want = fingerprint_dataset(prep.records, FILTRATION_KINDS, k_grid, distance_mode=mode,
                                   diagrams=True)
        assert prep.table == want
        assert prep.table.diagrams == want.diagrams

    def test_a_record_that_fails_does_not_set_the_open_k_grid(self, tiny_dataset_path,
                                                               tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(tiny_dataset_path.read_text() + json.dumps(
            {"record_id": "chain", "target": 1.0, "smiles": "C" * 24}) + "\n")
        prep = prepare_run(run_config_from_dict({"dataset": {"path": str(data)},
                                                 "task": "regression"}))
        assert [e["record_id"] for e in prep.table.errors] == ["chain"]  # no charges
        assert prep.table.layout.k_grid == max(
            graph_diameter(graph_from_record(r)) for r in prep.records[:-1])

    def test_global_deciles_pool_only_fully_charged_molecules(self, tiny_dataset_path,
                                                              tmp_path):
        # A partly charged molecule fails, so its charges must not move the
        # thresholds every other record's partial-charge rows are cut at.
        docs = [json.loads(line) for line in tiny_dataset_path.read_text().splitlines()]
        partial = json.loads(json.dumps(docs[0]))
        partial["record_id"] = "partial"
        for i, atom in enumerate(partial["graph"]["atoms"]):
            if i % 2:
                del atom["partial_charge"]
            else:
                atom["partial_charge"] = 50.0 if i % 4 else -50.0
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps(d) + "\n" for d in docs + [partial]))
        runs = [prepare_run(run_config_from_dict(
                    {"dataset": {"path": str(path)}, "task": "regression", "k_grid": 8,
                     "decile_mode": "global"}))
                for path in (tiny_dataset_path, data)]
        assert [e["record_id"] for e in runs[1].table.errors] == ["partial"]
        assert runs[1].table.fingerprints == runs[0].table.fingerprints


def bench_config(dataset_path, out_dir, **overrides):
    doc = {
        "dataset": {"path": str(dataset_path)},
        "task": "regression",
        "k_grid": 10,
        "threads": 1,
        "seed": 0,
        "repeats": 1,
        "out_dir": str(out_dir),
        "sglb": {"iterations": 30, "max_depth": 3, "ensemble_size": 2},
    }
    doc.update(overrides)
    return run_config_from_dict(doc)


class TestRunBenchmark:
    def test_artifacts_and_metrics(self, tiny_dataset_path, tmp_path):
        cfg = bench_config(tiny_dataset_path, tmp_path / "out")
        report = run_benchmark(cfg)
        for name in ("fingerprints.csv", "errors.json", "model.json",
                     "predictions.csv", "report.json", "timing.json"):
            assert os.path.exists(os.path.join(cfg.out_dir, name)), name
        assert "ALL" in report.metrics
        test_metrics = report.metrics["ALL"]["metrics"]["TEST"]
        assert "rmse" in test_metrics
        assert test_metrics["rmse"]["mean"] > 0

    def test_rerun_reproduces_report_byte_identically(self, tiny_dataset_path,
                                                      tmp_path):
        cfg_a = bench_config(tiny_dataset_path, tmp_path / "a")
        cfg_b = bench_config(tiny_dataset_path, tmp_path / "b")
        run_benchmark(cfg_a)
        run_benchmark(cfg_b)
        report_a = open(os.path.join(cfg_a.out_dir, "report.json"), "rb").read()
        report_b = open(os.path.join(cfg_b.out_dir, "report.json"), "rb").read()
        # out_dir is part of the config echo; normalize it before comparing
        report_a = report_a.replace(str(cfg_a.out_dir).encode(), b"OUT")
        report_b = report_b.replace(str(cfg_b.out_dir).encode(), b"OUT")
        assert report_a == report_b

    def test_ablation_produces_five_runs(self, tiny_dataset_path, tmp_path):
        cfg = bench_config(tiny_dataset_path, tmp_path / "out")
        report = run_benchmark(cfg, ablation=True)
        assert set(report.metrics) == {"AM", "PC", "BT", "CH", "ALL"}

    def test_crash_isolation(self, tiny_dataset_path, tmp_path):
        # append a record whose graph cannot be fingerprinted with charges
        data = tmp_path / "with_bad.jsonl"
        lines = open(tiny_dataset_path).read().splitlines()
        lines.append(json.dumps({"record_id": "nocharges", "target": 0.0,
                                 "smiles": "CCO"}))
        data.write_text("\n".join(lines) + "\n")
        cfg = bench_config(data, tmp_path / "out")
        run_benchmark(cfg)
        errors = json.load(open(os.path.join(cfg.out_dir, "errors.json")))
        assert [e["record_id"] for e in errors["fingerprint_errors"]] == ["nocharges"]

    def test_plots_emitted(self, tiny_dataset_path, tmp_path):
        cfg = bench_config(tiny_dataset_path, tmp_path / "out")
        run_benchmark(cfg, plots=True)
        svg = open(os.path.join(cfg.out_dir, "uncertainty_band.svg")).read()
        assert svg.startswith("<svg")

    def test_global_decile_mode_runs(self, tiny_dataset_path, tmp_path):
        cfg = bench_config(tiny_dataset_path, tmp_path / "out",
                           decile_mode="global")
        report = run_benchmark(cfg)
        assert report.metrics["ALL"]["metrics"]["TEST"]["rmse"]["mean"] > 0

    def test_induced_distance_mode_changes_fingerprints(self, tiny_dataset_path,
                                                        tmp_path):
        cfg_full = bench_config(tiny_dataset_path, tmp_path / "full")
        cfg_ind = bench_config(tiny_dataset_path, tmp_path / "ind",
                               distance_mode="induced_subgraph")
        run_benchmark(cfg_full)
        run_benchmark(cfg_ind)
        full = open(os.path.join(cfg_full.out_dir, "fingerprints.csv")).readlines()
        ind = open(os.path.join(cfg_ind.out_dir, "fingerprints.csv")).readlines()
        assert full[1] == ind[1]      # same layout header
        assert full[2:] != ind[2:]    # re-walked distances change some rows

    def test_bench_with_split_file(self, tiny_dataset_path, tmp_path):
        records, _ = load_dataset(tiny_dataset_path)
        split = tmp_path / "split.csv"
        with open(split, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["record_id", "split"])
            for i, r in enumerate(records):
                tag = "TRAIN" if i % 5 else ("TEST" if i % 10 else "VALID")
                writer.writerow([r.record_id, tag])
        cfg = bench_config(tiny_dataset_path, tmp_path / "out",
                           split={"mode": "file", "path": str(split)})
        report = run_benchmark(cfg)
        sizes = json.load(open(os.path.join(cfg.out_dir, "report.json")))
        assert sizes["dataset"]["split_sizes"]["TRAIN"] == 32
        assert "TEST" in report.metrics["ALL"]["metrics"]

    def test_predictions_are_the_saved_models_on_every_row(self, tiny_dataset_path,
                                                           tmp_path):
        # A one-record split and eight members: numpy sums a lone column of
        # member predictions pairwise, so predicting that split alone differs.
        records, _ = load_dataset(tiny_dataset_path)
        split = tmp_path / "split.csv"
        split.write_text("record_id,split\n" + "".join(
            f"{r.record_id},{'VALID' if i == 0 else 'TEST' if i % 4 == 0 else 'TRAIN'}\n"
            for i, r in enumerate(records)), encoding="utf-8")
        cfg = bench_config(tiny_dataset_path, tmp_path / "out",
                           split={"mode": "file", "path": str(split)},
                           sglb={"iterations": 10, "max_depth": 3, "ensemble_size": 8})
        report = run_benchmark(cfg)
        ensemble = load_ensemble(os.path.join(cfg.out_dir, "model.json"))
        table = read_fingerprints_csv(os.path.join(cfg.out_dir, "fingerprints.csv"))
        expected = prediction_rows(table.ids(), decompose(
            ensemble, table.matrix().astype(np.float64)))
        got = [{k: row[k] for k in expected[0]} for row in report.predictions]
        assert [row["split"] for row in report.predictions].count("VALID") == 1
        assert got == sorted(expected, key=lambda row: row["record_id"])

    def test_classification_bench(self, small_records, tmp_path):
        targets = np.array([r["target"] for r in small_records])
        median = float(np.median(targets))
        data = tmp_path / "cls.jsonl"
        with open(data, "w", encoding="utf-8") as fh:
            for r in small_records:
                fh.write(json.dumps({"record_id": r["record_id"],
                                     "target": int(r["target"] > median),
                                     "graph": r["graph"]}) + "\n")
        cfg = bench_config(data, tmp_path / "out", task="classification",
                           sglb={"iterations": 40, "max_depth": 3,
                                 "ensemble_size": 3})
        report = run_benchmark(cfg)
        test_metrics = report.metrics["ALL"]["metrics"]["TEST"]
        assert set(test_metrics) == {"roc_auc", "prc_auc", "f1"}
        assert test_metrics["roc_auc"]["mean"] > 0.7
