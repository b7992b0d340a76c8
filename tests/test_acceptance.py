"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The throughput/trend criteria run on the bundled 1128-molecule
benchmark dataset (see moltop.datagen); fingerprinting is done once per
session and shared.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from moltop.filtration import FILTRATION_KINDS, make_spec
from moltop.harness import apply_split, f1_score, prc_auc, rmse, roc_auc, \
    run_config_from_dict, run_benchmark
from moltop.homology import PersistenceDiagram, geodesic_distances
from moltop.metrics import wasserstein
from moltop.molgraph import DatasetRecord, load_graph_json, parse_smiles
from moltop.sglb import (
    SglbConfig,
    classification_uncertainty,
    decompose,
    fit,
    fit_ensemble,
    fit_ensembles,
    regression_uncertainty,
)
from moltop.vectorize import (
    assemble,
    fingerprint_dataset,
    graph_from_record,
    slice_table,
)

from oracles import (
    assign_reference_charges_by_replace,
    betti_at,
    betti_numbers_at,
    exhaustive_wasserstein,
    fit_classical_reference,
    hop_distances,
    load_graph6_file,
    mirror,
    naive_f1,
    naive_persistence,
    naive_prc_auc,
    naive_roc_auc,
    relabel,
)
from rows import reduce_row

ALL_SPECS = [make_spec(k) for k in FILTRATION_KINDS]
BENCH_K_GRID = 14
TREND_CONFIG = SglbConfig(iterations=300, max_depth=4, learning_rate=0.05,
                          ensemble_size=3, seed=0)


@pytest.fixture(scope="module")
def pipeline(bench_records):
    """Split + timed single/8-thread fingerprinting of the full dataset."""
    records = [DatasetRecord(r["record_id"], r["target"], graph=r["graph"])
               for r in bench_records]
    records = apply_split(records, "random", seed=0)

    t0 = time.perf_counter()
    table_serial = fingerprint_dataset(records, FILTRATION_KINDS, BENCH_K_GRID,
                                       threads=1)
    seconds_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    table_parallel = fingerprint_dataset(records, FILTRATION_KINDS, BENCH_K_GRID,
                                         threads=8)
    seconds_parallel = time.perf_counter() - t0

    by_id = {r.record_id: r for r in records}
    splits = [by_id[rid].split for rid in table_parallel.record_ids]
    targets = np.array([by_id[rid].target for rid in table_parallel.record_ids])
    return {
        "records": records,
        "table_serial": table_serial,
        "table": table_parallel,
        "seconds_serial": seconds_serial,
        "seconds_parallel": seconds_parallel,
        "train_rows": [i for i, s in enumerate(splits) if s == "TRAIN"],
        "test_rows": [i for i, s in enumerate(splits) if s == "TEST"],
        "targets": targets,
    }


def test_c01_homology_oracle_suite_connected_graphs_le7():
    t0 = time.perf_counter()
    path = Path(__file__).parent / "data" / "connected_graphs_le7.g6"
    graphs = load_graph6_file(str(path))
    by_order = {}
    for adj in graphs:
        by_order[len(adj)] = by_order.get(len(adj), 0) + 1
    assert by_order == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

    for adj in graphs:
        n = len(adj)
        hops = hop_distances(adj)
        k = int(hops.max())
        pd0, pd1 = reduce_row(set(range(n)), hops, max(k, 0))
        for eps in range(k + 1):
            beta0, beta1, _ = betti_numbers_at(range(n), hops, eps)
            assert betti_at(pd0, eps) == beta0
            assert betti_at(pd1, eps) == beta1
        oracle = naive_persistence(range(n), hops, max(k, 0))
        assert sorted(pd0.pairs) == oracle[0][0]
        assert sorted(pd0.essentials) == oracle[0][1]
        assert sorted(pd1.pairs) == oracle[1][0]
        assert sorted(pd1.essentials) == oracle[1][1]

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 01 PASS — engine matches GF(2) rank + naive reduction "
          f"oracles on all {len(graphs)} connected graphs <= 7 vertices "
          f"({elapsed:.1f}s < 120s)")


def test_c02_cytosine_diagram_counts():
    g = load_graph_json(Path(__file__).parent / "data" / "cytosine.json")
    assert g.n_atoms == 13
    hops = geodesic_distances(g)
    pd0, pd1 = reduce_row(set(range(g.n_atoms)), hops, hops.max())
    assert len(pd0.pairs) == 12
    assert len(pd0.essentials) == 1
    assert len(pd1.pairs) == 1
    print("\nACCEPTANCE 02 PASS — bundled cytosine: 12 finite dim-0 pairs "
          "+ 1 essential, exactly 1 dim-1 pair")


SINGLE_STEREOCENTER = [
    "N[C@@H](C)C(=O)O",        # alanine
    "C[C@H](O)C(=O)O",         # lactic acid
    "C[C@@H](O)CC",            # 2-butanol
    "F[C@H](Cl)Br",            # bromochlorofluoromethane
    "C[C@H](Cl)CC",            # 2-chlorobutane
    "OC[C@@H](O)C=O",          # glyceraldehyde
    "C[C@H](N)CO",             # alaninol
    "C[C@@H](N)CC",            # 2-aminobutane
    "c1ccccc1[C@H](C)O",       # 1-phenylethanol
    "N[C@@H](CO)C(=O)O",       # serine
]


def test_c03_enantiomer_separation_and_relabeling_invariance(pipeline):
    for smiles in SINGLE_STEREOCENTER:
        g = assign_reference_charges_by_replace(parse_smiles(smiles))
        assert sum(a.chirality != "NONE" for a in g.atoms) == 1, smiles
        fp = assemble(g, ALL_SPECS, 10)
        fp_m = assemble(mirror(g), ALL_SPECS, 10)
        blocks = fp.layout.block_slices()
        for kind in ("ATOMIC_MASS", "PARTIAL_CHARGE", "BOND_TYPE"):
            for dim in (0, 1):
                sl = blocks[(kind, dim)]
                assert np.array_equal(fp.vector[sl], fp_m.vector[sl]), (smiles, kind)
        ch = np.concatenate([fp.vector[blocks[("CHIRALITY", 0)]],
                             fp.vector[blocks[("CHIRALITY", 1)]]])
        ch_m = np.concatenate([fp_m.vector[blocks[("CHIRALITY", 0)]],
                               fp_m.vector[blocks[("CHIRALITY", 1)]]])
        assert not np.array_equal(ch, ch_m), smiles

    rng = np.random.default_rng(2024)
    molecules = [graph_from_record(r) for r in pipeline["records"][:50]]
    baselines = [assemble(g, ALL_SPECS, BENCH_K_GRID) for g in molecules]
    relabelings = 0
    for g, base in zip(molecules, baselines):
        for _ in range(20):
            perm = list(rng.permutation(g.n_atoms).astype(int))
            fp = assemble(relabel(g, perm), ALL_SPECS, BENCH_K_GRID)
            assert np.array_equal(fp.vector, base.vector)
            relabelings += 1
    assert relabelings == 1000
    print("\nACCEPTANCE 03 PASS — 10 enantiomer pairs split only in the "
          "chirality block; 1000 relabelings across 50 molecules left "
          "fingerprints bit-identical")


def _random_diagram(rng, eps_max=12):
    points = []
    for _ in range(int(rng.integers(0, 5))):
        b = int(rng.integers(0, eps_max - 1))
        d = int(rng.integers(b + 1, eps_max + 1))
        points.append((b, d))
    return PersistenceDiagram(0, tuple(sorted(points)), (), eps_max)


def test_c04_wasserstein_oracle_and_pseudometric():
    rng = np.random.default_rng(404)
    for _ in range(500):
        a, b = _random_diagram(rng), _random_diagram(rng)
        p = float(rng.choice([1.0, 2.0]))
        assert wasserstein(a, b, p) == exhaustive_wasserstein(a.pairs, b.pairs, p)

    for _ in range(500):
        a, b, c = (_random_diagram(rng) for _ in range(3))
        dab, dba = wasserstein(a, b, 1.0), wasserstein(b, a, 1.0)
        assert dab == dba
        assert dab <= wasserstein(a, c, 1.0) + wasserstein(c, b, 1.0) + 1e-9
    print("\nACCEPTANCE 04 PASS — assignment solver equals exhaustive matching "
          "on 500 pairs; pseudometric axioms hold on 500 triples (1e-9)")


def test_c05_sglb_reduction_to_classical_boosting():
    rng = np.random.default_rng(55)
    X = rng.normal(size=(240, 12))
    y = X[:, 0] - 2.0 * X[:, 1] + 0.5 * X[:, 2] ** 2 + 0.1 * rng.normal(size=240)
    cfg = SglbConfig(iterations=80, max_depth=4, gamma=0.0, beta=math.inf, seed=5)
    ours = fit(X, y, cfg)
    reference = fit_classical_reference(X, y, cfg)
    assert len(ours.trees) == len(reference.trees) == 80
    for tree_ours, tree_ref in zip(ours.trees, reference.trees):
        assert tree_ours == tree_ref
    assert np.max(np.abs(ours.raw_predict(X) - reference.raw_predict(X))[:, 0]) <= 1e-12
    print("\nACCEPTANCE 05 PASS — with gamma=0 and noise disabled the trainer "
          "reproduces vanilla boosting tree-by-tree; predictions within 1e-12")


def test_c06_uncertainty_identities_and_ood():
    rng = np.random.default_rng(66)
    for _ in range(1000):
        members = int(rng.integers(2, 12))
        probs = rng.uniform(0.0, 1.0, size=(members, 8))
        report = classification_uncertainty(probs)
        assert np.all(np.abs(report.total - (report.knowledge + report.data)) <= 1e-12)
        assert np.all(report.knowledge >= -1e-12)
        assert np.all(report.data >= -1e-12)

        means = rng.normal(size=(members, 8))
        variances = rng.uniform(0.01, 4.0, size=(members, 8))
        report = regression_uncertainty(means, variances)
        assert np.all(np.abs(report.total - (report.knowledge + report.data)) <= 1e-12)
        assert np.all(report.knowledge >= -1e-12)

    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, 400)
    y = 1.0 / (1.05 - x) + 0.05 * rng.normal(size=400)
    ens = fit_ensemble(x[:, None], y,
                       SglbConfig(iterations=150, max_depth=3, ensemble_size=8,
                                  seed=0))
    on = decompose(ens, np.linspace(0, 1, 50)[:, None])
    off = decompose(ens, np.linspace(3, 4, 50)[:, None])
    assert np.median(off.knowledge) > np.median(on.knowledge)
    print("\nACCEPTANCE 06 PASS — entropy and total-variance identities hold to "
          "1e-12 on 1000 synthetic ensembles; off-support knowledge "
          f"median {np.median(off.knowledge):.4f} > on-support "
          f"{np.median(on.knowledge):.4f}")


def test_c07_classification_metric_formulas():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, n).astype(float)
        if labels.min() == labels.max():
            continue
        scores = rng.choice([0.05, 0.2, 0.2, 0.5, 0.5, 0.8, 0.95], n)
        assert abs(roc_auc(scores, labels) - naive_roc_auc(scores, labels)) <= 1e-12
        assert abs(prc_auc(scores, labels) - naive_prc_auc(scores, labels)) <= 1e-12
        assert abs(f1_score(scores, labels) - naive_f1(scores, labels)) <= 1e-12
        checked += 1
    print("\nACCEPTANCE 07 PASS — ROC-AUC/PRC-AUC/F1 equal brute-force "
          "threshold sweeps on 200 random sets (1e-12)")


def test_c08_ablation_trend(pipeline):
    table = pipeline["table"]
    targets = pipeline["targets"]
    train, test = pipeline["train_rows"], pipeline["test_rows"]
    subsets = [("ATOMIC_MASS",), ("PARTIAL_CHARGE",), ("BOND_TYPE",), ("CHIRALITY",),
               FILTRATION_KINDS]
    matrices = [slice_table(table, kinds).matrix().astype(np.float64) for kinds in subsets]
    ensembles = fit_ensembles([(X[train], targets[train], TREND_CONFIG, None)
                               for X in matrices], threads=2)
    results = {kinds: rmse(decompose(ens, X[test]).prediction, targets[test])
               for kinds, X, ens in zip(subsets, matrices, ensembles)}
    from moltop.vectorize import KIND_ABBREV
    all_rmse = results[FILTRATION_KINDS]
    best_single = min(v for k, v in results.items() if len(k) == 1)
    assert all_rmse <= 1.02 * best_single, (all_rmse, best_single)
    print(f"\nACCEPTANCE 08 PASS — all-parameter test RMSE {all_rmse:.4f} <= "
          f"1.02 x best single {best_single:.4f} "
          f"(singles: " + ", ".join(f"{KIND_ABBREV[k[0]]}={v:.3f}"
                                    for k, v in results.items() if len(k) == 1) + ")")


def test_c09_baseline_beating_floor(pipeline):
    table = pipeline["table"]
    targets = pipeline["targets"]
    train, test = pipeline["train_rows"], pipeline["test_rows"]
    X = table.matrix().astype(np.float64)
    ens = fit_ensemble(X[train], targets[train], TREND_CONFIG, threads=2)
    model_rmse = rmse(decompose(ens, X[test]).prediction, targets[test])
    constant_rmse = rmse(np.full(len(test), targets[train].mean()), targets[test])
    improvement = 1.0 - model_rmse / constant_rmse
    assert improvement >= 0.25, (model_rmse, constant_rmse)
    print(f"\nACCEPTANCE 09 PASS — model RMSE {model_rmse:.4f} beats "
          f"constant-mean {constant_rmse:.4f} by {improvement * 100:.1f}% (>= 25%)")


def test_c10_throughput_and_thread_invariance(pipeline):
    seconds_serial = pipeline["seconds_serial"]
    seconds_parallel = pipeline["seconds_parallel"]
    assert len(pipeline["table"].record_ids) == 1128
    assert seconds_parallel <= 120.0
    assert seconds_serial <= 300.0
    assert pipeline["table_serial"].ids() == pipeline["table"].ids()
    assert np.array_equal(pipeline["table_serial"].matrix(),
                          pipeline["table"].matrix())
    print(f"\nACCEPTANCE 10 PASS — 1128-molecule all-parameter fingerprints in "
          f"{seconds_parallel:.1f}s on 8 threads (<=120s) and "
          f"{seconds_serial:.1f}s single-threaded (<=300s); outputs identical")


def test_c11_bench_determinism(tiny_dataset_path, tmp_path):
    doc = {
        "dataset": {"path": str(tiny_dataset_path)},
        "task": "regression",
        "k_grid": 8,
        "threads": 1,
        "seed": 7,
        "repeats": 1,
        "out_dir": str(tmp_path / "out"),
        "sglb": {"iterations": 25, "max_depth": 3, "ensemble_size": 2},
    }
    cfg = run_config_from_dict(doc)
    run_benchmark(cfg)
    report_path = os.path.join(cfg.out_dir, "report.json")
    first = open(report_path, "rb").read()
    run_benchmark(cfg)  # identical config and seed, same out_dir
    second = open(report_path, "rb").read()
    assert first == second
    assert b'"seconds"' not in first  # timing lives in timing.json only
    print("\nACCEPTANCE 11 PASS — bench re-run reproduced report.json "
          "byte-identically (timing kept out of the report)")
