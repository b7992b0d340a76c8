"""Command-line interface.

Subcommands: fingerprint, train, predict, evaluate, rank-uncertainty,
distance, bench.  Exit codes: 0 ok, 2 config error, 3 data error,
4 internal invariant / unexpected failure.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    InternalInvariantError,
    MoltopError,
    finite_number,
    note_line,
    read_csv,
    read_json,
)
from .filtration import FILTRATION_KINDS, canonical_kinds
from .harness import (
    evaluate,
    load_dataset,
    load_records,
    load_run_config,
    prediction_rows,
    prepare_run,
    run_benchmark,
    training_matrix,
    write_fingerprint_artifacts,
    write_predictions_csv,
)
from .metrics import matching_report
from .molgraph import load_graph_json, parse_smiles
from .sglb import (
    RANK_CRITERIA,
    decompose,
    fit_ensemble,
    load_ensemble,
    rank_by_uncertainty,
    save_ensemble,
)
from .vectorize import diagram_records, kind_specs, read_fingerprints_csv


def _apply_overrides(cfg, args):
    updates = {}
    if args.threads is not None:
        updates["threads"] = args.threads
    if args.seed is not None:
        updates["seed"] = args.seed
        updates["sglb"] = replace(cfg.sglb, seed=args.seed)
    if args.out is not None:
        updates["out_dir"] = args.out
    if getattr(args, "repeats", None) is not None:
        updates["repeats"] = args.repeats
    return replace(cfg, **updates) if updates else cfg


def _emit(text, out_dir, name) -> int:
    """Print ``text``; with an output directory, also save it there as ``name``."""
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_fingerprint(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    prep = prepare_run(cfg, diagrams=args.dump_diagrams)
    write_fingerprint_artifacts(cfg.out_dir, prep.table, prep.load_errors)
    if args.dump_diagrams:  # a failed record is already in the error report
        with open(os.path.join(cfg.out_dir, "diagrams.jsonl"), "w", encoding="utf-8") as fh:
            for fp, rows in zip(prep.table.fingerprints, prep.table.diagrams):
                fh.writelines(json.dumps(doc, sort_keys=True) + "\n"
                              for doc in diagram_records(rows, fp.record_id))
    print(f"fingerprinted {len(prep.table.fingerprints)} of {len(prep.records)} "
          f"records (k_grid={prep.table.layout.k_grid}) -> {cfg.out_dir}")
    return 0


def _cmd_train(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    if args.fingerprints:
        table = read_fingerprints_csv(args.fingerprints)
        records, _ = load_records(cfg)
    else:
        prep = prepare_run(cfg)
        records, table = prep.records, prep.table
    matrix, targets, split_rows = training_matrix(records, table)
    rows = split_rows["TRAIN"]
    if not rows:
        raise DataError("no TRAIN rows to fit on")
    ensemble = fit_ensemble(matrix[rows], targets[rows], cfg.sglb,
                            layout=table.layout, threads=cfg.threads)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "model.json")
    save_ensemble(ensemble, path)
    print(f"trained {cfg.sglb.ensemble_size} members on {len(rows)} rows -> {path}")
    return 0


def _model_and_fingerprints(args):
    """The --model ensemble, the --fingerprints table and its feature matrix."""
    ensemble = load_ensemble(args.model)
    table = read_fingerprints_csv(args.fingerprints)
    ensemble.require_layout(table.layout)
    return ensemble, table, table.matrix().astype(np.float64)


def _cmd_predict(args) -> int:
    ensemble, table, X = _model_and_fingerprints(args)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "predictions.csv")
    write_predictions_csv(path, prediction_rows(table.ids(), decompose(ensemble, X)))
    print(f"wrote predictions for {len(table.fingerprints)} records -> {path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = load_run_config(args.config)
    records, _ = load_dataset(cfg.dataset_path, cfg.dataset_format)
    targets = {r.record_id: r.target for r in records}
    groups: dict[str, tuple[list, list]] = {}
    first_line = {}
    for line, row in read_csv(args.predictions, "predictions", ("record_id", "prediction"),
                              ("split",)):
        rid = row["record_id"]
        if rid not in targets:
            raise DataError(f"prediction for unknown record {rid!r}")
        note_line(first_line, rid, line, args.predictions)
        where = f"{args.predictions} line {line}: "
        prediction = finite_number(row["prediction"], where + "non-numeric prediction",
                                   where + "non-finite prediction")
        bucket = groups.setdefault(row.get("split") or "ALL", ([], []))
        bucket[0].append(prediction)
        bucket[1].append(float(targets[rid]))
    if not groups:
        raise DataError(f"{args.predictions}: no prediction rows")
    metrics = {tag: evaluate(preds, labels, cfg.task)
               for tag, (preds, labels) in sorted(groups.items())}
    if set(metrics) == {"ALL"}:
        metrics = metrics["ALL"]
    text = json.dumps(metrics, indent=2, sort_keys=True)
    return _emit(text, args.out, "metrics.json")


def _cmd_rank(args) -> int:
    ensemble, table, X = _model_and_fingerprints(args)
    ranked = rank_by_uncertainty(ensemble, table.ids(), X, args.criterion, args.k)
    return _emit(json.dumps(ranked, indent=2), args.out, "ranked.json")


def _molecule_from_doc(doc):
    if isinstance(doc, str):
        return parse_smiles(doc)
    if isinstance(doc, dict):
        return load_graph_json(doc)
    raise DataError("pair entries must be SMILES strings or molecule objects")


def _cmd_distance(args) -> int:
    kinds = canonical_kinds(args.kinds or FILTRATION_KINDS)
    if args.k_grid < 1 or not 1 <= args.p < math.inf:  # also rejects NaN
        raise ConfigError("--k-grid must be positive and --p finite and at least 1")
    docs = read_json(args.pairs, "pairs")
    if not isinstance(docs, list):
        raise DataError(f"{args.pairs}: pairs file must hold a JSON array")
    specs = kind_specs(kinds)
    lines = []
    ratios = []
    for i, doc in enumerate(docs):
        if not isinstance(doc, dict) or "a" not in doc or "b" not in doc:
            raise DataError(f"pair {i} needs 'a' and 'b' molecules")
        graph_a = _molecule_from_doc(doc["a"])
        graph_b = _molecule_from_doc(doc["b"])
        report = matching_report(graph_a, graph_b, specs, args.k_grid, args.p)
        if report.ratio is not None:
            ratios.append(report.ratio)
        entry = {"pair": i, **report.to_dict()}
        lines.append(json.dumps(entry, sort_keys=True))
    lines.append(json.dumps({"summary": {"pairs": len(docs),
                                         "max_ratio": max(ratios) if ratios else None}},
                            sort_keys=True))
    text = "\n".join(lines)
    return _emit(text, args.out, "distances.jsonl")


def _cmd_bench(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    report = run_benchmark(cfg, ablation=args.ablation, plots=args.plots)
    summary = {label: run["metrics"].get("TEST", {})
               for label, run in report.metrics.items()}
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"artifacts in {cfg.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moltop",
        description="Topological molecular fingerprints with uncertainty-aware "
                    "boosted-tree ensembles")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, config=True, runs=True):
        if config:
            p.add_argument("--config", required=True, help="run-config JSON path")
        if runs:  # only the commands that fingerprint or train read these
            p.add_argument("--threads", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("fingerprint", help="compute fingerprints for a dataset")
    shared(p)
    p.add_argument("--dump-diagrams", action="store_true",
                   help="also write per-row persistence diagrams as JSONL")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("train", help="train an ensemble on the TRAIN split")
    shared(p)
    p.add_argument("--fingerprints", default=None,
                   help="reuse a fingerprints.csv instead of recomputing")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict with uncertainty decomposition")
    shared(p, config=False, runs=False)
    p.add_argument("--model", required=True)
    p.add_argument("--fingerprints", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions file against targets")
    shared(p, runs=False)
    p.add_argument("--predictions", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rank-uncertainty", help="top-k pool records by uncertainty")
    shared(p, config=False, runs=False)
    p.add_argument("--model", required=True)
    p.add_argument("--fingerprints", required=True)
    p.add_argument("--criterion", choices=RANK_CRITERIA, default="KNOWLEDGE")
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("distance", help="diagram/fingerprint distances for molecule pairs")
    shared(p, config=False, runs=False)
    p.add_argument("--pairs", required=True, help="JSON array of {a, b} molecules")
    p.add_argument("--kinds", nargs="*", default=None)
    p.add_argument("--k-grid", type=int, default=10)
    p.add_argument("--p", type=float, default=1.0)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("bench", help="full benchmark: fingerprint, train, evaluate")
    shared(p)
    p.add_argument("--ablation", action="store_true",
                   help="one run per single filtration kind plus the combined set")
    p.add_argument("--plots", action="store_true", help="emit SVG plots")
    p.add_argument("--repeats", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except MoltopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
