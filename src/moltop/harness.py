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
from .filtration import FILTRATION_KINDS, PARTIAL_CHARGE_KIND, canonical_kinds, decile_boundaries
from .molgraph import SPLIT_TAGS, DatasetRecord, load_graph_json, parse_smiles
from .sglb import (
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    TASKS,
    SglbConfig,
    binary_labels,
    decompose,
    fit_ensembles,
    save_ensemble,
)
from .vectorize import (
    DISTANCE_MODES,
    KIND_ABBREV,
    FingerprintTable,
    fingerprint_dataset,
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
        if self.task not in TASKS:
            raise ConfigError(f"task must be regression or classification, got {self.task!r}")
        if canonical_kinds(self.kinds) != tuple(self.kinds):
            raise ConfigError(f"kinds must be distinct, in the order {FILTRATION_KINDS}")
        if self.k_grid is not None and self.k_grid < 1:
            raise ConfigError("k_grid must be a positive integer or null")
        for name, value, allowed in (
                ("decile_mode", self.decile_mode, ("per_molecule", "global")),
                ("distance_mode", self.distance_mode, DISTANCE_MODES),
                ("split mode", self.split_mode, ("random", "file"))):
            if value not in allowed:
                raise ConfigError(f"invalid {name} {value!r}")
        ratios = self.split_ratios
        if len(ratios) != 3 or any(not r >= 0 for r in ratios):  # `not >=` also rejects NaN
            raise ConfigError("split.ratios must be three non-negative numbers")
        if not abs(sum(ratios) - 1.0) <= 1e-9:
            raise ConfigError("split.ratios must sum to 1")
        if self.sglb.task != self.task:
            raise ConfigError("sglb.task must match the run task")
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


def _check_keys(section: dict, keys, name: str):
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys {sorted(unknown)}")


def _config_path(base_dir, section: dict, name: str) -> str:
    """``section["path"]`` joined to the config's directory; the file must exist."""
    path = os.path.join(base_dir, typed(section["path"], str, f"{name}.path"))
    if not os.path.exists(path):
        raise ConfigError(f"{name} file not found: {path}")
    return path


def run_config_from_dict(doc: dict, base_dir: str = ".") -> RunConfig:
    """The run config of a JSON document whose paths are relative to
    ``base_dir``.  A key the document leaves out takes ``RunConfig``'s
    default, and the sglb seed defaults to the run seed."""
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    _check_keys(doc, _CONFIG_KEYS, "config")
    dataset = doc.get("dataset")
    if isinstance(dataset, str):
        dataset = {"path": dataset}
    if not isinstance(dataset, dict) or "path" not in dataset:
        raise ConfigError("config needs dataset.path")
    _check_keys(dataset, ("path", "format"), "dataset")
    task = doc.get("task")
    fields = {"dataset_path": _config_path(base_dir, dataset, "dataset"),
              "dataset_format": typed(dataset.get("format"), (str, type(None)),
                                      "dataset.format"),
              "task": _TASK_ALIASES.get(task, task) if isinstance(task, str) else task}
    if "kinds" in doc:
        fields["kinds"] = canonical_kinds(typed(doc["kinds"], list, "kinds"))
    fields.update((key, typed(doc[key], kind, key)) for key, kind in (
        ("k_grid", (int, type(None))), ("seed", int), ("threads", int), ("repeats", int))
        if key in doc)
    fields.update((key, doc[key]) for key in ("decile_mode", "distance_mode") if key in doc)

    split = typed(doc.get("split", {}), dict, "split")
    _check_keys(split, ("mode", "ratios", "path"), "split")
    fields["split_mode"] = split.get("mode", RunConfig.split_mode)
    for key, wrong in (("ratios", "file"), ("path", "random")):
        if key in split and fields["split_mode"] == wrong:
            raise ConfigError(f"split.{key} does not apply to a {wrong} split")
    if fields["split_mode"] == "file":
        if split.get("path") is None:
            raise ConfigError("file split needs split.path")
        fields["split_path"] = _config_path(base_dir, split, "split")
    elif fields["split_mode"] == "random" and "ratios" in split:
        fields["split_ratios"] = tuple(typed(r, (int, float), "split.ratios")
                                       for r in typed(split["ratios"], list, "split.ratios"))

    sglb = dict(typed(doc.get("sglb", {}), dict, "sglb"))
    if fields["task"] in TASKS:  # else the run config names the bad task
        sglb.setdefault("task", fields["task"])
    sglb.setdefault("seed", fields.get("seed", RunConfig.seed))
    out_dir = typed(doc.get("out_dir", RunConfig.out_dir), str, "out_dir")
    return RunConfig(**fields, sglb=SglbConfig.from_dict(sglb, ConfigError),
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
    """The record of a dataset document, a JSONL object or a CSV row's target
    and SMILES, with its molecule parsed.  The target must be a finite number
    of ``target_type``."""
    target = finite_number(doc.get("target"), "missing or non-numeric target",
                           "non-finite target")
    typed(doc["target"], target_type, "target", DataError)
    key = next((k for k in ("graph", "graph_path", "smiles") if k in doc), None)
    if key is None:
        raise DataError("record needs graph, graph_path, or smiles")
    value = doc[key]
    if not isinstance(value, dict if key == "graph" else str):
        raise DataError(f"{key} must be " + ("an object" if key == "graph" else "a string"))
    if key == "smiles":
        graph = parse_smiles(value, name=record_id)
    else:
        graph = load_graph_json(os.path.join(base_dir, value) if key == "graph_path" else value)
    return DatasetRecord(record_id, target, graph, split=doc.get("split"))


def apply_split(records, split_mode: str = RunConfig.split_mode, split_path=None,
                ratios=RunConfig.split_ratios, seed: int = RunConfig.seed):
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
    n_train, n_valid = int(n * ratios[0]), int(n * ratios[1])
    tags = np.empty(n, dtype=object)  # the records at the permutation's positions
    tags[np.random.default_rng(seed).permutation(n)] = (
        ["TRAIN"] * n_train + ["VALID"] * n_valid + ["TEST"] * n)[:n]
    return [replace(r, split=tag) for r, tag in zip(records, tags)]


# ---------------------------------------------------------------------------
# Evaluation metrics

def rmse(predictions, labels) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.sqrt(np.mean((predictions - labels) ** 2)))


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
    _, cum_tp, cum_called = _score_sweep(scores, binary_labels(labels))
    cum_fp = cum_called - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / cum_tp[-1]])
    fpr = np.concatenate([[0.0], cum_fp / cum_fp[-1]])
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def prc_auc(scores, labels) -> float:
    """Step-rule area under precision vs recall, swept over q in the distinct
    scores and q = 0 in descending order.  A sample is called positive at q
    when its score exceeds q; thresholds that call no sample are skipped."""
    values, cum_tp, cum_called = _score_sweep(scores, binary_labels(labels))
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
    metrics: dict          # run label -> kinds, and split -> metric -> {"mean", "std", "values"}
    predictions: list      # per-record rows of the ALL ensemble of repeat 0


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
    molecule that has one on every atom, if the run has a partial-charge
    filtration; the others fail anyway.
    """
    records, load_errors = load_records(cfg)
    charge_thresholds = None
    if cfg.decile_mode == "global" and PARTIAL_CHARGE_KIND in cfg.kinds:
        # records that fail are left to the fingerprint stage's error report
        charges = [c for r in records for c in _full_charges(r.graph)]
        if not charges:
            raise DataError("global decile mode needs a molecule with partial "
                            "charges on every atom")
        charge_thresholds = decile_boundaries(charges)
    table, seconds = _timed(fingerprint_dataset, records, cfg.kinds, cfg.k_grid,
                            threads=cfg.threads, distance_mode=cfg.distance_mode,
                            charge_thresholds=charge_thresholds, diagrams=diagrams)
    return PreparedRun(records, load_errors, table, seconds)


def _full_charges(graph):
    """The graph's partial charges if every atom has one, else none."""
    charges = [a.partial_charge for a in graph.atoms]
    return [] if None in charges else charges


def training_matrix(records, table: FingerprintTable):
    """Float feature matrix, targets and the table rows of each split tag."""
    by_id = {r.record_id: r for r in records}
    missing = [rid for rid in table.record_ids if rid not in by_id]
    if missing:
        raise DataError(f"fingerprints reference unknown records: {missing[:10]}")
    split_rows: dict[str, list[int]] = {tag: [] for tag in SPLIT_TAGS}
    for row, rid in enumerate(table.record_ids):
        split_rows[by_id[rid].split].append(row)
    targets = np.array([by_id[rid].target for rid in table.record_ids], dtype=np.float64)
    return table.matrix().astype(np.float64), targets, split_rows


def write_fingerprint_artifacts(out_dir, table: FingerprintTable, load_errors):
    """``fingerprints.csv`` and ``errors.json`` (load and fingerprint errors)."""
    os.makedirs(out_dir, exist_ok=True)
    write_fingerprints_csv(table, os.path.join(out_dir, "fingerprints.csv"))
    _write_json(os.path.join(out_dir, "errors.json"),
                {"load_errors": list(load_errors), "fingerprint_errors": list(table.errors)})


def _metric_summary(per_repeat: list[dict]) -> dict:
    """Each metric's mean, std and values over the repeats."""
    out = {}
    for metric in per_repeat[0]:
        values = [float(m[metric]) for m in per_repeat]
        arr = np.asarray(values, dtype=np.float64)
        out[metric] = {"mean": float(arr.mean()), "std": float(arr.std()), "values": values}
    return out


def _timed(fn, *args, **kwargs):
    """``fn``'s result and its wall seconds."""
    t0 = time.perf_counter()
    return fn(*args, **kwargs), time.perf_counter() - t0


def run_benchmark(cfg: RunConfig, ablation: bool = False, plots: bool = False) -> EvaluationReport:
    """Fingerprint, train, evaluate; write all artifacts under cfg.out_dir."""
    t_start = time.perf_counter()
    prep = prepare_run(cfg)
    table = prep.table
    matrix, targets, split_rows = training_matrix(prep.records, table)
    if not split_rows["TRAIN"] or not split_rows["TEST"]:
        raise DataError("TRAIN and TEST splits must both be non-empty after "
                        "fingerprinting")
    write_fingerprint_artifacts(cfg.out_dir, table, prep.load_errors)

    kinds = tuple(cfg.kinds)
    subsets = ([(k,) for k in kinds] if ablation and len(kinds) > 1 else []) + [kinds]
    matrices = [matrix if subset == kinds else
                slice_table(table, subset).matrix().astype(np.float64) for subset in subsets]
    train_rows = split_rows["TRAIN"]
    y_train = targets[train_rows]
    # one job per (kind subset, repeat) ensemble, in report order; the
    # repeats of a subset share its training rows
    jobs = [(X_train, y_train, replace(cfg.sglb, seed=cfg.sglb.seed + 7919 * repeat),
             replace(table.layout, kinds=subset))
            for subset, X_train in ((s, X[train_rows]) for s, X in zip(subsets, matrices))
            for repeat in range(cfg.repeats)]
    fitted, train_wall_seconds = _timed(fit_ensembles, jobs, cfg.threads)
    ensembles = iter(fitted)
    # regression runs report, per split, the RMSE of predicting the TRAIN mean
    baseline = {tag: {"constant_mean_rmse": rmse(np.full(len(rows), float(np.mean(y_train))),
                                                 targets[rows])}
                if cfg.task == TASK_REGRESSION else {} for tag, rows in split_rows.items() if rows}

    runs, train_seconds, predict_seconds = {}, {}, {}
    for subset, X in zip(subsets, matrices):
        label = "ALL" if subset == kinds else KIND_ABBREV[subset[0]]
        group = [next(ensembles) for _ in range(cfg.repeats)]
        reports, predict_seconds[label] = zip(*(_timed(decompose, e, X) for e in group))
        train_seconds[label] = [e.train_seconds for e in group]
        runs[label] = {"kinds": list(subset), "metrics": {
            tag: _metric_summary([{**evaluate(r.prediction[rows], targets[rows], cfg.task),
                                   **baseline[tag]} for r in reports])
            for tag, rows in sorted(split_rows.items()) if rows}}

    # the loop ends on ALL, whose first repeat gives the model and the predictions
    save_ensemble(group[0], os.path.join(cfg.out_dir, "model.json"))
    tag_of = {row: tag for tag, rows in split_rows.items() for row in rows}
    predictions = sorted(({**entry, "split": tag_of[row], "target": float(targets[row])}
                          for row, entry in enumerate(prediction_rows(table.ids(), reports[0]))),
                         key=lambda entry: entry["record_id"])
    write_predictions_csv(os.path.join(cfg.out_dir, "predictions.csv"), predictions,
                          ("record_id", "split", "target"))
    _write_json(os.path.join(cfg.out_dir, "report.json"), {
        "format_version": "1",
        "config": cfg.to_dict(),
        "k_grid": table.layout.k_grid,
        "dataset": {
            "records": len(prep.records),
            "fingerprinted": len(table.record_ids),
            "load_errors": len(prep.load_errors),
            "fingerprint_errors": len(table.errors),
            "split_sizes": {tag: len(rows) for tag, rows in split_rows.items()},
        },
        "ablation": ablation,
        "runs": runs,
    })
    _write_json(os.path.join(cfg.out_dir, "timing.json"), {
        "fingerprint_seconds": prep.fingerprint_seconds,
        "train_wall_seconds": train_wall_seconds,
        "train_seconds": train_seconds,
        "predict_seconds": predict_seconds,
        "total_seconds": time.perf_counter() - t_start})
    if plots:
        _write_plots(cfg, predictions)
    return EvaluationReport(runs, predictions)


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
    """``uncertainty_band.svg``: the TEST predictions in rising order within
    their total-uncertainty band (one standard deviation for regression), and
    the targets as dots."""
    width, height, pad = 720, 420, 48
    rows = sorted((r for r in predictions if r["split"] == "TEST"),
                  key=lambda r: (r["prediction"], r["record_id"]))
    mean = [r["prediction"] for r in rows]
    half = [math.sqrt(max(r["total_uncertainty"], 0.0)) if cfg.task == TASK_REGRESSION
            else r["total_uncertainty"] for r in rows]
    lo = [m - h for m, h in zip(mean, half)]
    hi = [m + h for m, h in zip(mean, half)]
    targets = [r["target"] for r in rows]
    x_max = max(len(rows) - 1, 1)
    y_min = min(min(lo), min(targets))
    y_max = max(max(hi), max(targets))
    if y_max == y_min:
        y_max = y_min + 1.0

    def sx(x):
        return pad + x / x_max * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_min) / (y_max - y_min) * (height - 2 * pad)

    def points(xs, ys):
        return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))

    xs = range(len(rows))
    band = points(xs, hi) + " " + points(reversed(xs), reversed(lo))
    line = points(xs, mean)
    dots = "".join(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1.6" '
                   f'fill="#444455" fill-opacity="0.55"/>' for x, y in zip(xs, targets))
    title = f"{cfg.task}: prediction with total-uncertainty band"
    with open(os.path.join(cfg.out_dir, "uncertainty_band.svg"), "w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            f'<rect width="{width}" height="{height}" fill="white"/>'
            f'<polygon points="{band}" fill="#7aa6d8" fill-opacity="0.35"/>'
            f'<polyline points="{line}" fill="none" stroke="#c03a3a" stroke-width="1.6"/>'
            f"{dots}"
            f'<text x="{pad}" y="24" font-family="monospace" font-size="13">{title}</text>'
            f"</svg>\n")
