"""Command-line interface.

Subcommands: fingerprint, train, predict, evaluate, rank-uncertainty,
distance, bench.  Exit codes: 0 ok, 2 config error, 3 data error,
4 internal invariant / unexpected failure.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, DataError, InternalInvariantError, MoltopError
from .filtration import FILTRATION_KINDS
from .harness import (
    apply_split,
    evaluate,
    load_dataset,
    load_run_config,
    run_benchmark,
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
from .vectorize import (
    diagram_records,
    fingerprint_dataset,
    graph_from_record,
    kind_specs,
    prepare_graph,
    read_fingerprints_csv,
    write_fingerprints_csv,
)
from .filtration import decile_boundaries, make_spec
from .harness import K_GRID_CAP, _prescan


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


def _prepare_table(cfg):
    records, load_errors = load_dataset(cfg.dataset_path, cfg.dataset_format)
    if cfg.split_mode == "file" or not all(r.split for r in records):
        records = apply_split(records, cfg.split_mode, cfg.split_path,
                              cfg.split_ratios, cfg.seed)
    k_grid = cfg.k_grid
    charge_thresholds = None
    if k_grid is None or cfg.decile_mode == "global":
        diameters, charges = _prescan(records)
        if k_grid is None:
            if not diameters:
                raise DataError("no graphs available to choose k_grid from")
            k_grid = min(K_GRID_CAP, max(max(diameters), 1))
        if cfg.decile_mode == "global":
            if not charges:
                raise DataError("global decile mode needs partial charges")
            charge_thresholds = decile_boundaries(charges)
    table = fingerprint_dataset(records, cfg.kinds, k_grid, threads=cfg.threads,
                                distance_mode=cfg.distance_mode,
                                charge_thresholds=charge_thresholds)
    return records, load_errors, table, k_grid, charge_thresholds


def _cmd_fingerprint(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    records, load_errors, table, k_grid, charge_thresholds = _prepare_table(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_fingerprints_csv(table, os.path.join(cfg.out_dir, "fingerprints.csv"))
    with open(os.path.join(cfg.out_dir, "errors.json"), "w", encoding="utf-8") as fh:
        json.dump({"load_errors": list(load_errors),
                   "fingerprint_errors": list(table.errors)},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.dump_diagrams:
        path = os.path.join(cfg.out_dir, "diagrams.jsonl")
        specs = kind_specs(cfg.kinds, charge_thresholds)
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                try:
                    graph = graph_from_record(record)
                    for doc in diagram_records(graph, specs, k_grid,
                                               cfg.distance_mode, record.record_id):
                        fh.write(json.dumps(doc, sort_keys=True) + "\n")
                except MoltopError:
                    continue  # already in the error report
    print(f"fingerprinted {len(table.fingerprints)} of {len(records)} records "
          f"(k_grid={k_grid}) -> {cfg.out_dir}")
    return 0


def _split_matrix(records, table):
    by_id = {r.record_id: r for r in records}
    matrix = table.matrix().astype(np.float64)
    targets = np.array([by_id[fp.record_id].target for fp in table.fingerprints],
                       dtype=np.float64)
    splits = [by_id[fp.record_id].split for fp in table.fingerprints]
    return matrix, targets, splits


def _cmd_train(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    if args.fingerprints:
        table = read_fingerprints_csv(args.fingerprints)
        records, _ = load_dataset(cfg.dataset_path, cfg.dataset_format)
        if cfg.split_mode == "file" or not all(r.split for r in records):
            records = apply_split(records, cfg.split_mode, cfg.split_path,
                                  cfg.split_ratios, cfg.seed)
        known = {r.record_id for r in records}
        missing = [fp.record_id for fp in table.fingerprints if fp.record_id not in known]
        if missing:
            raise DataError(f"fingerprints reference unknown records: {missing[:10]}")
    else:
        records, _, table, _, _ = _prepare_table(cfg)
    matrix, targets, splits = _split_matrix(records, table)
    train_mask = [s == "TRAIN" for s in splits]
    if not any(train_mask):
        raise DataError("no TRAIN rows to fit on")
    rows = np.nonzero(train_mask)[0]
    ensemble = fit_ensemble(matrix[rows], targets[rows], cfg.sglb,
                            layout=table.layout, threads=cfg.threads)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "model.json")
    save_ensemble(ensemble, path)
    print(f"trained {cfg.sglb.ensemble_size} members on {len(rows)} rows -> {path}")
    return 0


def _cmd_predict(args) -> int:
    ensemble = load_ensemble(args.model)
    table = read_fingerprints_csv(args.fingerprints)
    ensemble.require_layout(table.layout)
    report = decompose(ensemble, table.matrix().astype(np.float64))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "predictions.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_id", "prediction", "total_uncertainty",
                         "knowledge_uncertainty", "data_uncertainty"])
        for i, fp in enumerate(table.fingerprints):
            writer.writerow([fp.record_id, f"{report.prediction[i]:.10g}",
                             f"{report.total[i]:.10g}",
                             f"{report.knowledge[i]:.10g}",
                             f"{report.data[i]:.10g}"])
    print(f"wrote predictions for {len(table.fingerprints)} records -> {path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    records, _ = load_dataset(cfg.dataset_path, cfg.dataset_format)
    targets = {r.record_id: r.target for r in records}
    groups: dict[str, tuple[list, list]] = {}
    with open(args.predictions, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rid = row["record_id"]
            if rid not in targets:
                raise DataError(f"prediction for unknown record {rid!r}")
            bucket = groups.setdefault(row.get("split") or "ALL", ([], []))
            bucket[0].append(float(row["prediction"]))
            bucket[1].append(float(targets[rid]))
    if not groups:
        raise DataError(f"{args.predictions}: no prediction rows")
    metrics = {tag: evaluate(preds, labels, cfg.task)
               for tag, (preds, labels) in sorted(groups.items())}
    if set(metrics) == {"ALL"}:
        metrics = metrics["ALL"]
    text = json.dumps(metrics, indent=2, sort_keys=True)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_rank(args) -> int:
    ensemble = load_ensemble(args.model)
    table = read_fingerprints_csv(args.fingerprints)
    ensemble.require_layout(table.layout)
    ranked = rank_by_uncertainty(ensemble, table.ids(),
                                 table.matrix().astype(np.float64),
                                 args.criterion, args.k)
    text = json.dumps(ranked, indent=2)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "ranked.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _molecule_from_doc(doc):
    if isinstance(doc, str):
        return prepare_graph(parse_smiles(doc))
    if isinstance(doc, dict):
        return prepare_graph(load_graph_json(doc))
    raise DataError("pair entries must be SMILES strings or molecule objects")


def _cmd_distance(args) -> int:
    with open(args.pairs, "r", encoding="utf-8") as fh:
        docs = json.load(fh)
    if not isinstance(docs, list):
        raise DataError("pairs file must hold a JSON array")
    kinds = args.kinds or list(FILTRATION_KINDS)
    bad = [k for k in kinds if k not in FILTRATION_KINDS]
    if bad:
        raise ConfigError(f"unknown filtration kinds {bad}")
    specs = [make_spec(k) for k in kinds]
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
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "distances.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


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

    def shared(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="run-config JSON path")
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
    shared(p, config=False)
    p.add_argument("--model", required=True)
    p.add_argument("--fingerprints", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions file against targets")
    shared(p)
    p.add_argument("--predictions", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rank-uncertainty", help="top-k pool records by uncertainty")
    shared(p, config=False)
    p.add_argument("--model", required=True)
    p.add_argument("--fingerprints", required=True)
    p.add_argument("--criterion", choices=RANK_CRITERIA, default="KNOWLEDGE")
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("distance", help="diagram/fingerprint distances for molecule pairs")
    shared(p, config=False)
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
