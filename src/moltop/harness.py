"""Run configuration, dataset ingestion, splits, evaluation metrics, and the
benchmark orchestrator behind the CLI."""

from dataclasses import dataclass, field, replace

import csv
import io
import json
import math
import os
import time

import numpy as np

from .errors import (ConfigError, DataError, finite_number, note_line, read_csv, read_json,
                     read_text, typed)
from .filtration import FILTRATION_KINDS, canonical_kinds, decile_boundaries
from .molgraph import SPLIT_TAGS, DatasetRecord, parse_smiles, load_graph_json
from .sglb import (
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    SglbConfig,
    decompose,
    fit_ensembles,
    save_ensemble,
)
from .vectorize import (
    KIND_ABBREV,
    FingerprintTable,
    fingerprint_dataset,
    map_records,
    slice_table,
    write_fingerprints_csv,
)

_TASK_ALIASES = {
    "regression": TASK_REGRESSION,
    TASK_REGRESSION: TASK_REGRESSION,
    "classification": TASK_CLASSIFICATION,
    TASK_CLASSIFICATION: TASK_CLASSIFICATION,
}

PREDICTION_COLUMNS = ("prediction", "total_uncertainty", "knowledge_uncertainty",
                      "data_uncertainty")


@dataclass(frozen=True)
class RunConfig:
    dataset_path: str
    task: str
    dataset_format: str | None = None      # csv | jsonl; inferred when None
    kinds: tuple[str, ...] = FILTRATION_KINDS
    k_grid: int | None = None              # None: max diameter, capped
    decile_mode: str = "per_molecule"      # or "global"
    distance_mode: str = "full_graph"      # or "induced_subgraph"
    split_mode: str = "random"             # or "file"
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    split_path: str | None = None
    sglb: SglbConfig = field(default_factory=SglbConfig)
    threads: int = 1
    seed: int = 0
    repeats: int = 3
    out_dir: str = "out"

    def __post_init__(self):  # checked here, so CLI overrides are checked too
        for key, low in (("threads", 1), ("repeats", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")

    def to_dict(self) -> dict:
        return {
            "dataset": {"path": self.dataset_path, "format": self.dataset_format},
            "task": self.task,
            "kinds": list(self.kinds),
            "k_grid": self.k_grid,
            "decile_mode": self.decile_mode,
            "distance_mode": self.distance_mode,
            "split": ({"mode": "file", "path": self.split_path}
                      if self.split_mode == "file"
                      else {"mode": "random", "ratios": list(self.split_ratios)}),
            "sglb": self.sglb.to_dict(),
            "threads": self.threads,
            "seed": self.seed,
            "repeats": self.repeats,
            "out_dir": self.out_dir,
        }


_CONFIG_KEYS = {"dataset", "task", "kinds", "k_grid", "decile_mode",
                "distance_mode", "split", "sglb", "threads", "seed",
                "repeats", "out_dir"}


def run_config_from_dict(doc: dict, base_dir: str = ".") -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    dataset = doc.get("dataset")
    if isinstance(dataset, str):
        dataset = {"path": dataset}
    if not isinstance(dataset, dict) or "path" not in dataset:
        raise ConfigError("config needs dataset.path")
    dataset_path = os.path.join(base_dir, typed(dataset["path"], str, "dataset.path"))
    if not os.path.exists(dataset_path):
        raise ConfigError(f"dataset file not found: {dataset_path}")
    dataset_format = typed(dataset.get("format"), (str, type(None)), "dataset.format")

    task = doc.get("task")
    task = _TASK_ALIASES.get(task) if isinstance(task, str) else None
    if task is None:
        raise ConfigError(f"task must be regression or classification, got {doc.get('task')!r}")

    kinds = canonical_kinds(typed(doc.get("kinds", list(FILTRATION_KINDS)), list, "kinds"))

    k_grid = doc.get("k_grid")
    if k_grid is not None and typed(k_grid, int, "k_grid") < 1:
        raise ConfigError("k_grid must be a positive integer or null")

    decile_mode = doc.get("decile_mode", "per_molecule")
    if decile_mode not in ("per_molecule", "global"):
        raise ConfigError(f"invalid decile_mode {decile_mode!r}")
    distance_mode = doc.get("distance_mode", "full_graph")
    if distance_mode not in ("full_graph", "induced_subgraph"):
        raise ConfigError(f"invalid distance_mode {distance_mode!r}")

    split = typed(doc.get("split", {"mode": "random"}), dict, "split")
    split_mode = split.get("mode", "random")
    split_path = None
    ratios = (0.8, 0.1, 0.1)
    if split_mode == "file":
        split_path = split.get("path")
        if split_path is None:
            raise ConfigError("file split needs split.path")
        split_path = os.path.join(base_dir, typed(split_path, str, "split.path"))
        if not os.path.exists(split_path):
            raise ConfigError(f"split file not found: {split_path}")
    elif split_mode == "random":
        ratios = typed(split.get("ratios", [0.8, 0.1, 0.1]), list, "split.ratios")
        ratios = tuple(typed(r, (int, float), "split.ratios") for r in ratios)
        if len(ratios) != 3 or any(not r >= 0 for r in ratios):  # not: also NaN
            raise ConfigError("split.ratios must be three non-negative numbers")
        if not abs(sum(ratios) - 1.0) <= 1e-9:
            raise ConfigError("split.ratios must sum to 1")
    else:
        raise ConfigError(f"invalid split mode {split_mode!r}")

    seed = typed(doc.get("seed", 0), int, "seed")
    sglb_doc = dict(typed(doc.get("sglb", {}), dict, "sglb"))
    sglb_doc.setdefault("task", task)
    sglb_doc.setdefault("seed", seed)
    sglb = SglbConfig.from_dict(sglb_doc, ConfigError)
    if sglb.task != task:
        raise ConfigError("sglb.task must match the run task")

    threads = typed(doc.get("threads", 1), int, "threads")
    repeats = typed(doc.get("repeats", 3), int, "repeats")
    out_dir = typed(doc.get("out_dir", "out"), str, "out_dir")

    return RunConfig(dataset_path=dataset_path, task=task,
                     dataset_format=dataset_format, kinds=kinds,
                     k_grid=k_grid, decile_mode=decile_mode,
                     distance_mode=distance_mode, split_mode=split_mode,
                     split_ratios=ratios, split_path=split_path, sglb=sglb,
                     threads=threads, seed=seed, repeats=repeats,
                     out_dir=os.path.join(base_dir, out_dir))


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(read_json(path, "run config", ConfigError),
                                base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Dataset ingestion

def load_dataset(path, dataset_format: str | None = None):
    """Records plus an error report of malformed rows (logged, skipped)."""
    if dataset_format is None:
        ext = os.path.splitext(str(path))[1].lower()
        dataset_format = {".csv": "csv", ".jsonl": "jsonl", ".ndjson": "jsonl"}.get(ext)
        if dataset_format is None:
            raise ConfigError(f"cannot infer dataset format from {path!r}")
    if dataset_format == "csv":  # (line, record id, document) for each row
        table = read_csv(path, "dataset", ("smiles", "target"), ("id", "record_id"))
        rows = [(line, row.get("id", row.get("record_id")) or f"row{i}",
                 {"target": row["target"], "smiles": (row["smiles"] or "").strip()})
                for i, (line, row) in enumerate(table)]
    elif dataset_format == "jsonl":  # (line, default id, JSON text) for each line
        # newline=None splits at \n, \r and \r\n, as reading the file as text does
        lines = io.StringIO(read_text(path, "dataset"), newline=None)
        rows = [(i + 1, f"row{i}", text) for i, text in enumerate(lines) if text.strip()]
    else:
        raise ConfigError(f"unknown dataset format {dataset_format!r}")
    base_dir = os.path.dirname(os.path.abspath(str(path)))
    records, errors, first_line = [], [], {}
    for line, record_id, doc in rows:
        target_type = str if isinstance(doc, dict) else (int, float)  # CSV text, JSON number
        try:
            if isinstance(doc, str):
                doc = _json_object(doc)
            record_id = str(doc.get("record_id", record_id))
            record = _record(doc, record_id, base_dir, target_type)
        except DataError as exc:
            errors.append(exc.entry(record_id))
            continue
        note_line(first_line, record_id, line, path)
        records.append(record)
    if not records:
        raise DataError(f"{path}: no usable records"
                        + (f" ({len(errors)} rows failed)" if errors else ""))
    return records, errors


def _json_object(text) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError("record must be a JSON object")
    return doc


def _record(doc, record_id, base_dir, target_type) -> DatasetRecord:
    """The record of a dataset document: a JSONL object, or a CSV row's target and
    SMILES.  The target must be a finite number of ``target_type``."""
    target = finite_number(doc.get("target"), "missing or non-numeric target",
                           "non-finite target")
    typed(doc["target"], target_type, "target", DataError)
    key = next((k for k in ("graph", "graph_path", "smiles") if k in doc), None)
    if key is None:
        raise DataError("record needs graph, graph_path, or smiles")
    value = doc[key]
    if not isinstance(value, dict if key == "graph" else str):
        raise DataError(f"{key} must be " + ("an object" if key == "graph" else "a string"))
    if key == "graph_path":
        value = os.path.join(base_dir, value)
    if key == "smiles":
        parse_smiles(value)  # validate up front
    else:
        load_graph_json(value)
    return DatasetRecord(record_id, target, split=doc.get("split"), **{key: value})


def apply_split(records, split_mode: str = "random", split_path=None,
                ratios=(0.8, 0.1, 0.1), seed: int = 0):
    """Tag every record with exactly one of TRAIN/VALID/TEST."""
    records = list(records)
    if split_mode == "file":
        assignment, first_line = {}, {}
        for line, row in read_csv(split_path, "split file", ("record_id", "split")):
            tag = (row["split"] or "").strip().upper()  # None: the row is short
            if tag not in SPLIT_TAGS:
                raise DataError(f"{split_path} line {line}: invalid split tag {tag!r}")
            note_line(first_line, row["record_id"], line, split_path)
            assignment[row["record_id"]] = tag
        missing = [r.record_id for r in records if r.record_id not in assignment]
        if missing:
            shown = ", ".join(missing[:20])
            more = "" if len(missing) <= 20 else f" (+{len(missing) - 20} more)"
            raise DataError(f"split file does not cover record ids: {shown}{more}")
        return [replace(r, split=assignment[r.record_id]) for r in records]

    if split_mode != "random":
        raise ConfigError(f"invalid split mode {split_mode!r}")
    n = len(records)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(n * ratios[0])
    n_valid = int(n * ratios[1])
    tags = [""] * n
    for pos, rec_idx in enumerate(order):
        if pos < n_train:
            tags[rec_idx] = "TRAIN"
        elif pos < n_train + n_valid:
            tags[rec_idx] = "VALID"
        else:
            tags[rec_idx] = "TEST"
    return [replace(r, split=tags[i]) for i, r in enumerate(records)]


# ---------------------------------------------------------------------------
# Evaluation metrics

def rmse(predictions, labels) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.sqrt(np.mean((predictions - labels) ** 2)))


def _check_binary(labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.float64)
    if not np.isin(np.unique(labels), (0.0, 1.0)).all():
        raise DataError("classification labels must be 0/1")
    if np.unique(labels).size < 2:
        raise DataError("AUC is undefined for a single-class label vector")
    return labels


def _score_sweep(scores, labels):
    """The distinct scores in descending order, with the positives and the
    samples scoring at least each one (cumulative counts over the sorted
    scores; the test oracles recount every threshold naively)."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    ends = np.concatenate([np.nonzero(np.diff(s))[0], [len(s) - 1]])  # last of each group
    return s[ends], np.cumsum(labels[order])[ends], (ends + 1).astype(np.float64)


def roc_auc(scores, labels) -> float:
    """Trapezoidal area under TPR vs FPR over all distinct score thresholds."""
    _, cum_tp, cum_called = _score_sweep(scores, _check_binary(labels))
    cum_fp = cum_called - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / cum_tp[-1]])
    fpr = np.concatenate([[0.0], cum_fp / cum_fp[-1]])
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def prc_auc(scores, labels) -> float:
    """Step-rule area under precision vs recall, swept over q in the distinct
    scores and q = 0 in descending order.  A sample is called positive at q
    when its score exceeds q; thresholds that call no sample are skipped."""
    values, cum_tp, cum_called = _score_sweep(scores, _check_binary(labels))
    qs = np.union1d(values, [0.0])[::-1]
    above = np.searchsorted(-values, -qs, side="left")  # groups scoring above each q
    tp_gt = np.concatenate([[0.0], cum_tp])[above]
    called_gt = np.concatenate([[0.0], cum_called])[above]
    keep = called_gt > 0
    area = 0.0
    prev_recall = 0.0
    for recall, precision in zip((tp_gt[keep] / cum_tp[-1]).tolist(),
                                 (tp_gt[keep] / called_gt[keep]).tolist()):
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return float(area)


def f1_score(scores, labels, threshold: float = 0.5) -> float:
    labels = np.asarray(labels, dtype=np.float64)
    called = np.asarray(scores, dtype=np.float64) > threshold
    tp = float(labels[called].sum())
    fp = float(called.sum() - tp)
    fn = float(labels.sum() - tp)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate(predictions, labels, task: str) -> dict:
    """Metric dict for aligned prediction/label vectors."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if predictions.shape != labels.shape:
        raise DataError("predictions and labels must align")
    task = _TASK_ALIASES.get(task, task)
    if task == TASK_REGRESSION:
        return {"rmse": rmse(predictions, labels)}
    if task == TASK_CLASSIFICATION:
        return {"roc_auc": roc_auc(predictions, labels),
                "prc_auc": prc_auc(predictions, labels),
                "f1": f1_score(predictions, labels)}
    raise ConfigError(f"unknown task {task!r}")


@dataclass(frozen=True)
class EvaluationReport:
    task: str
    metrics: dict          # split -> metric -> {"mean", "std", "values"}
    predictions: list      # per-sample rows (repeat 0)
    timing: dict           # stage -> seconds (not part of report.json determinism)


# ---------------------------------------------------------------------------
# Benchmark orchestration

def load_records(cfg: RunConfig):
    """Split-tagged records plus the load error report; the file's own tags
    are kept unless the config splits by file or a record has none."""
    records, load_errors = load_dataset(cfg.dataset_path, cfg.dataset_format)
    if cfg.split_mode == "file" or not all(r.split for r in records):
        records = apply_split(records, cfg.split_mode, cfg.split_path,
                              cfg.split_ratios, cfg.seed)
    return records, load_errors


@dataclass(frozen=True)
class PreparedRun:
    records: list
    load_errors: list
    table: FingerprintTable  # its layout holds the run's k_grid
    fingerprint_seconds: float


def prepare_run(cfg: RunConfig, diagrams: bool = False) -> PreparedRun:
    """Load and split the dataset and fingerprint every record, in the one
    pass over the records that also picks an open k_grid (see
    ``fingerprint_dataset``; the table keeps the row diagrams if
    ``diagrams``).  Global deciles first pool the partial charges of every
    molecule that has one on every atom; the others fail anyway.
    """
    records, load_errors = load_records(cfg)
    charge_thresholds = None
    if cfg.decile_mode == "global":
        # records that fail are left to the fingerprint stage's error report
        pools, _ = map_records(_full_charges, records)
        charges = [c for _, pool in pools for c in pool]
        if not charges:
            raise DataError("global decile mode needs a molecule with partial "
                            "charges on every atom")
        charge_thresholds = decile_boundaries(charges)
    t0 = time.perf_counter()
    table = fingerprint_dataset(records, cfg.kinds, cfg.k_grid, threads=cfg.threads,
                                distance_mode=cfg.distance_mode,
                                charge_thresholds=charge_thresholds, diagrams=diagrams)
    return PreparedRun(records, load_errors, table, time.perf_counter() - t0)


def _full_charges(graph):
    """The graph's partial charges if every atom has one, else none."""
    charges = [a.partial_charge for a in graph.atoms]
    return [] if None in charges else charges


def training_matrix(records, table: FingerprintTable):
    """Float feature matrix, targets and the table rows of each split tag."""
    by_id = {r.record_id: r for r in records}
    missing = [fp.record_id for fp in table.fingerprints if fp.record_id not in by_id]
    if missing:
        raise DataError(f"fingerprints reference unknown records: {missing[:10]}")
    split_rows: dict[str, list[int]] = {tag: [] for tag in SPLIT_TAGS}
    for row, fp in enumerate(table.fingerprints):
        split_rows[by_id[fp.record_id].split].append(row)
    targets = np.array([by_id[fp.record_id].target for fp in table.fingerprints],
                       dtype=np.float64)
    return table.matrix().astype(np.float64), targets, split_rows


def write_fingerprint_artifacts(out_dir, table: FingerprintTable, load_errors):
    """``fingerprints.csv`` and ``errors.json`` (load and fingerprint errors)."""
    os.makedirs(out_dir, exist_ok=True)
    write_fingerprints_csv(table, os.path.join(out_dir, "fingerprints.csv"))
    _write_json(os.path.join(out_dir, "errors.json"),
                {"load_errors": list(load_errors), "fingerprint_errors": list(table.errors)})


def _metric_summary(values_by_metric):
    out = {}
    for metric, values in values_by_metric.items():
        arr = np.asarray(values, dtype=np.float64)
        out[metric] = {"mean": float(arr.mean()),
                       "std": float(arr.std()),
                       "values": [float(v) for v in values]}
    return out


def _ensemble_label(kinds, full_kinds) -> str:
    if tuple(kinds) == tuple(full_kinds):
        return "ALL"
    return "+".join(KIND_ABBREV[k] for k in kinds)


def run_benchmark(cfg: RunConfig, ablation: bool = False, plots: bool = False) -> EvaluationReport:
    """Fingerprint, train, evaluate; write all artifacts under cfg.out_dir."""
    timing = {}
    t_start = time.perf_counter()
    prep = prepare_run(cfg)
    records, table = prep.records, prep.table
    timing["fingerprint_seconds"] = prep.fingerprint_seconds
    matrix, targets, split_rows = training_matrix(records, table)
    if not split_rows["TRAIN"] or not split_rows["TEST"]:
        raise DataError("TRAIN and TEST splits must both be non-empty after "
                        "fingerprinting")
    write_fingerprint_artifacts(cfg.out_dir, table, prep.load_errors)

    singles = [(k,) for k in cfg.kinds] if ablation and len(cfg.kinds) > 1 else []
    subsets = singles + [tuple(cfg.kinds)]

    runs = {}
    first_predictions = []
    timing["train_seconds"] = {}
    timing["predict_seconds"] = {}
    main_label = _ensemble_label(cfg.kinds, cfg.kinds)
    train_rows = split_rows["TRAIN"]
    y_train = targets[train_rows]
    jobs, matrices = [], []  # one job per (kind subset, repeat) ensemble, in report order
    for kinds in subsets:
        sub = slice_table(table, kinds)
        matrices.append(matrix if kinds == tuple(cfg.kinds) else sub.matrix().astype(np.float64))
        X_train = matrices[-1][train_rows]
        jobs += [(X_train, y_train, replace(cfg.sglb, seed=cfg.sglb.seed + 7919 * repeat),
                  sub.layout) for repeat in range(cfg.repeats)]
    t0 = time.perf_counter()
    ensembles = iter(fit_ensembles(jobs, cfg.threads))
    timing["train_wall_seconds"] = time.perf_counter() - t0

    for kinds, sub_matrix in zip(subsets, matrices):
        label = _ensemble_label(kinds, cfg.kinds)
        per_split_values: dict[str, dict[str, list[float]]] = {}
        train_times, predict_times = [], []

        for repeat in range(cfg.repeats):
            ensemble = next(ensembles)
            train_times.append(ensemble.train_seconds)
            t0 = time.perf_counter()
            every_row = decompose(ensemble, sub_matrix)
            for tag in SPLIT_TAGS:
                rows = split_rows[tag]
                if not rows:
                    continue
                report = every_row.take(rows)
                metrics = evaluate(report.prediction, targets[rows], cfg.task)
                if cfg.task == TASK_REGRESSION:
                    const = float(np.mean(y_train))
                    metrics["constant_mean_rmse"] = rmse(
                        np.full(len(rows), const), targets[rows])
                bucket = per_split_values.setdefault(tag, {})
                for name, value in metrics.items():
                    bucket.setdefault(name, []).append(value)
                if repeat == 0 and label == main_label:
                    ids = [table.fingerprints[row].record_id for row in rows]
                    for row, entry in zip(rows, prediction_rows(ids, report)):
                        first_predictions.append(
                            {**entry, "split": tag, "target": float(targets[row])})
            predict_times.append(time.perf_counter() - t0)

            if repeat == 0 and label == main_label:
                save_ensemble(ensemble, os.path.join(cfg.out_dir, "model.json"))

        runs[label] = {"kinds": list(kinds),
                       "metrics": {tag: _metric_summary(vals)
                                   for tag, vals in sorted(per_split_values.items())}}
        timing["train_seconds"][label] = train_times
        timing["predict_seconds"][label] = predict_times

    first_predictions.sort(key=lambda row: row["record_id"])
    write_predictions_csv(os.path.join(cfg.out_dir, "predictions.csv"),
                          first_predictions, ("record_id", "split", "target"))

    report = {
        "format_version": "1",
        "config": cfg.to_dict(),
        "k_grid": table.layout.k_grid,
        "dataset": {
            "records": len(records),
            "fingerprinted": len(table.fingerprints),
            "load_errors": len(prep.load_errors),
            "fingerprint_errors": len(table.errors),
            "split_sizes": {tag: len(rows) for tag, rows in split_rows.items()},
        },
        "ablation": ablation,
        "runs": runs,
    }
    _write_json(os.path.join(cfg.out_dir, "report.json"), report)

    timing["total_seconds"] = time.perf_counter() - t_start
    _write_json(os.path.join(cfg.out_dir, "timing.json"), timing)

    if plots:
        _write_plots(cfg, first_predictions)

    return EvaluationReport(cfg.task, runs, first_predictions, timing)


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def prediction_rows(record_ids, report) -> list[dict]:
    """One row per record: its id, the prediction and the uncertainty parts."""
    parts = (report.prediction, report.total, report.knowledge, report.data)
    return [{"record_id": rid, **{c: float(p[j]) for c, p in zip(PREDICTION_COLUMNS, parts)}}
            for j, rid in enumerate(record_ids)]


def write_predictions_csv(path, rows, id_columns=("record_id",)):
    """Prediction rows as CSV, numbers to 10 significant digits."""
    columns = tuple(id_columns) + PREDICTION_COLUMNS
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] if isinstance(row[c], str) else f"{row[c]:.10g}"
                             for c in columns])


# ---------------------------------------------------------------------------
# Static SVG plots (prediction vs uncertainty bands)

def _write_plots(cfg: RunConfig, predictions):
    rows = [r for r in predictions if r["split"] == "TEST"]
    if not rows:
        return
    rows = sorted(rows, key=lambda r: (r["prediction"], r["record_id"]))
    xs = list(range(len(rows)))
    mean = [r["prediction"] for r in rows]
    if cfg.task == TASK_REGRESSION:
        half = [math.sqrt(max(r["total_uncertainty"], 0.0)) for r in rows]
    else:
        half = [r["total_uncertainty"] for r in rows]
    lo = [m - h for m, h in zip(mean, half)]
    hi = [m + h for m, h in zip(mean, half)]
    targets = [r["target"] for r in rows]
    path = os.path.join(cfg.out_dir, "uncertainty_band.svg")
    _svg_band(path, xs, mean, lo, hi, targets,
              title=f"{cfg.task}: prediction with total-uncertainty band")


def _svg_band(path, xs, mean, lo, hi, targets, title, width=720, height=420):
    pad = 48
    x_min, x_max = min(xs), max(xs)
    y_min = min(min(lo), min(targets))
    y_max = max(max(hi), max(targets))
    if y_max == y_min:
        y_max = y_min + 1.0
    if x_max == x_min:
        x_max = x_min + 1

    def sx(x):
        return pad + (x - x_min) / (x_max - x_min) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_min) / (y_max - y_min) * (height - 2 * pad)

    band = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, hi))
    band += " " + " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                           for x, y in zip(reversed(xs), reversed(lo)))
    line = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, mean))
    dots = "".join(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1.6" '
                   f'fill="#444455" fill-opacity="0.55"/>'
                   for x, y in zip(xs, targets))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<polygon points="{band}" fill="#7aa6d8" fill-opacity="0.35"/>'
        f'<polyline points="{line}" fill="none" stroke="#c03a3a" stroke-width="1.6"/>'
        f"{dots}"
        f'<text x="{pad}" y="24" font-family="monospace" font-size="13">{title}</text>'
        f"</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
