"""moltop benchmark: fingerprint, train and pipeline workloads.

    python3 perfbench/run.py --workload fingerprint --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is always ``src/`` of the checkout
that holds this file, imported from source.  The last line of standard output
is the result object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a separate,
traced run with ``--trace 1``.  The line before it is a detail object with
the machine facts, the output hashes, the operation accounting and the
workload's own figures.  See README.md next to this file for what each
workload and metric is for.
"""

import os

# Pin native thread pools before numpy loads; the pipeline child inherits them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import hashlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "_work"

WORKLOADS = ("fingerprint", "train", "pipeline")
K_GRID = 14
REFERENCE_SEED = 7  # the ROADMAP's datagen seed
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

# name, unit, better: the gated end-to-end metrics, printed for every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# name, unit, better: printed by the traced run, per pass of the workload.
# A layer a workload does not run reads 0.
PER_LAYER = (
    ("molgraph.load_s", "s", "lower"),
    ("molgraph.prepare_s", "s", "lower"),
    ("molgraph.atoms", "count", "lower"),
    ("molgraph.bonds", "count", "lower"),
    ("filtration.sequence_s", "s", "lower"),
    ("filtration.rows", "count", "lower"),
    ("filtration.rows_distinct", "count", "lower"),
    ("vectorize.row_cache_hit_ratio", "ratio", "higher"),
    ("homology.bfs_s", "s", "lower"),
    ("homology.vr_build_s", "s", "lower"),
    ("homology.reduce_s", "s", "lower"),
    ("homology.edges", "count", "lower"),
    ("homology.triangles", "count", "lower"),
    ("homology.tri_bytes_computed", "B", "lower"),
    ("homology.pd0_pairs", "count", "lower"),
    ("homology.pd1_pairs", "count", "lower"),
    ("homology.pd1_essentials", "count", "lower"),
    ("homology.killing_triangle_ratio", "ratio", "higher"),
    ("vectorize.betti_s", "s", "lower"),
    ("vectorize.read_csv_s", "s", "lower"),
    ("sglb.bin_s", "s", "lower"),
    ("sglb.fit_s", "s", "lower"),
    ("sglb.raw_predict_s", "s", "lower"),
    ("sglb.decompose_s", "s", "lower"),
    ("sglb.bin_calls", "count", "lower"),
    ("sglb.raw_predict_calls", "count", "lower"),
    ("sglb.trees", "count", "lower"),
    ("sglb.nodes", "count", "lower"),
    ("sglb.features", "count", "lower"),
    ("sglb.features_varying", "count", "lower"),
    ("sglb.features_distinct", "count", "lower"),
    ("sglb.split_searches_computed", "count", "lower"),
    ("sglb.hist_slots_computed", "count", "lower"),
    ("sglb.slot_fill_ratio", "ratio", "higher"),
    ("harness.load_s", "s", "lower"),
    ("harness.fingerprint_s", "s", "lower"),
    ("harness.train_s", "s", "lower"),
    ("harness.predict_s", "s", "lower"),
    ("harness.other_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
)


@dataclass(frozen=True)
class Sizes:
    """Work per pass.  The smoke test shrinks these; the benchmark never does."""
    fingerprint_molecules: int = 100
    train_molecules: int = 128
    train_iterations: int = 20
    pipeline_molecules: int = 60
    pipeline_iterations: int = 20


SIZES = Sizes()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cpu_ticks():
    """(steal, total) jiffies from the aggregate line of /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "loadavg_start": list(os.getloadavg())}


class Run:
    """State of one benchmark run: accounting, hashes, figures and tracing."""

    def __init__(self, workload, seed, seconds, trace, sizes, reference, tracer):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.hashes = {}
        self.figures = {}
        self.layers = {}
        self.calibration = []
        self.warming = True
        self.scaled_passes = []
        self.work = WORK / f"{workload}-{os.getpid()}"

    def fail(self, reason: str, ops: int = 1):
        self.failed += ops
        self.reasons[reason] += ops

    def check(self, name: str, value, ops: int = 1):
        """Record an output digest and fail ``ops`` operations on a mismatch."""
        self.hashes[name] = value
        expected = self.reference.get(name)
        if expected is not None and expected != value:
            self.fail(f"{name} differs from the reference", ops)

    def figure(self, name, value, unit):
        self.figures[name] = {"value": value, "unit": unit}

    def calibrate(self, times: int = 1):
        """Time the workload's calibration kernels ``times`` times."""
        kernels = CALIBRATION[self.workload][0]
        for _ in range(times if kernels else 0):
            t0 = time.perf_counter()
            for kernel in kernels:
                kernel()
            self.calibration.append(time.perf_counter() - t0)

    def speed_factor(self) -> float:
        """Reference kernel time over the median kernel time sampled since the
        last call, or 1 without kernels.  The first 5 samples of a process
        are warm-up and dropped: ``setup`` starts with 5 extra samples."""
        samples = self.calibration[5:] if self.warming else self.calibration
        self.warming = False
        self.calibration = []
        if not samples:
            return 1.0
        return CALIBRATION[self.workload][1] / statistics.median(samples)

    def setup(self, make):
        """Run ``make`` SETUP_REPEATS times; every repeat must agree.

        ``make`` returns (payload, digest).  Returns the last payload and the
        median set-up time in reference seconds.
        """
        times, digests = [], []
        self.calibrate(5)
        for _ in range(SETUP_REPEATS):
            self.calibrate(5)
            t0 = time.perf_counter()
            payload, digest = make()
            times.append(time.perf_counter() - t0)
            digests.append(digest)
        self.calibrate(5)
        if len(set(digests)) != 1:
            self.fail("set-up repeats disagree")
        return payload, statistics.median(times) * self.speed_factor()

    def passes(self, one_pass):
        """Closed loop of whole passes for about ``seconds``; returns the raw
        and the scaled pass times.

        A pass is the workload's fixed unit of work and ``one_pass(index)``
        returns its timed duration, calling ``calibrate`` between its timed
        steps.  Each pass is scaled by the kernel samples taken just before,
        during and just after it, because the drift shows even between the
        passes of one run.  Another pass starts while at least half a median
        pass fits in the time left; there is always one.
        """
        times, scaled = [], []
        start = time.perf_counter()
        while True:
            self.calibrate(10)
            times.append(one_pass(len(times)))
            self.calibrate(10)
            scaled.append(times[-1] * self.speed_factor())
            left = self.seconds - (time.perf_counter() - start)
            if left < 0.5 * statistics.median(times):
                return times, scaled


def python_kernel():
    """About 7 ms of interpreter-bound work: dict updates in a Python loop and
    sorts of a small integer array, the mix of fingerprinting."""
    totals = {}
    for i in range(20000):
        totals[i % 977] = totals.get(i % 977, 0) + i
    a = np.arange(400, dtype=np.int64)
    for _ in range(300):
        a = np.sort((a * 7 + 3) % 1009)
    return totals, a


def numpy_kernel():
    """About 7 ms of the trainer's array work at its real sizes, in its own
    code: bin codes of 96 rows x 250 features, weighted bincounts into a
    (3, 250, 256) histogram, cumulative sums and a gain argmax.  Its working
    set, a few MB, shares the last-level cache with other tenants as
    training does."""
    rows, feats = 96, 250
    codes = (np.arange(rows * feats, dtype=np.intp) * 7919 % 37).reshape(rows, feats)
    flat = (codes + np.arange(feats, dtype=np.intp)[None, :] * 256).ravel()
    targets = (np.arange(rows * 2) % 13 / 13.0).reshape(rows, 2)
    for _ in range(2):
        hist = np.zeros((3, feats * 256))
        hist[0] = np.bincount(flat, minlength=feats * 256)
        for d in range(2):
            hist[1 + d] = np.bincount(flat, weights=np.repeat(targets[:, d], feats),
                                      minlength=feats * 256)
        hist = hist.reshape(3, feats, 256)
        left = np.cumsum(hist[0], axis=1)[:, :-1]
        right = left[0, -1] + hist[0, 0, -1] - left
        gain = np.zeros_like(left)
        with np.errstate(divide="ignore", invalid="ignore"):
            for d in (1, 2):
                sums = np.cumsum(hist[d], axis=1)
                part, total = sums[:, :-1], sums[0, -1]
                gain += np.where((left > 0) & (right > 0),
                                 part * part / left + (total - part) ** 2 / right, -np.inf)
        best = int(np.argmax(gain))
    return best


# The host's speed drifts by up to a quarter over minutes (other tenants), so
# set-up and pass times are scaled by calibration kernels sampled around and
# within them and reported in reference seconds: seconds on a host where the
# kernels take their reference time.  Per workload: the kernels that share
# its instruction mix, and their summed reference time.  ``pipeline`` has
# none: no kernel timed in the parent tracked its two-process child (over 5
# seeds, scaling raised its spread from 9.7% to 29%), so it reports wall
# seconds.
CALIBRATION = {"fingerprint": ((python_kernel,), 0.0073),
               "train": ((numpy_kernel,), 0.0073),
               "pipeline": ((), None)}


def row_work(m, doc: dict) -> int:
    """Edges plus triangles of the full Vietoris-Rips complexes of a molecule's
    distinct sublevel rows: the work the fingerprint of ``doc`` implies."""
    graph = m["vectorize"].graph_from_record(m["DatasetRecord"]("w", 0.0, graph=doc["graph"]))
    filtration = m["filtration"]
    rows = set()
    for kind in filtration.FILTRATION_KINDS:
        rows.update(filtration.build_sequence(graph, filtration.make_spec(kind)).subsets)
    return sum(math.comb(len(r), 3) + math.comb(len(r), 2) for r in rows)


def select_molecules(m, seed: int, count: int) -> list[dict]:
    """``count`` datagen records of seed ``seed`` whose row work matches, one
    for one, that of the reference seed's records, in generation order.

    Fingerprint cost follows row work closely, and row work is heavy-tailed
    (cubic in the row size), so a plain draw of ``count`` molecules makes the
    work of a run depend on the seed through its few largest molecules.  Each
    seed instead draws a pool four times as large and picks, from the largest
    target down, the molecule closest to each of ``count`` targets: the
    evenly spaced rank quantiles of the same-sized pool of REFERENCE_SEED.  The
    seed decides the molecules; the work profile, tail included, stays that
    of the datagen distribution.
    """
    def pool(s):
        docs = m["datagen"].generate_dataset(4 * count, s)
        return docs, [row_work(m, d) for d in docs]

    targets = sorted(pool(REFERENCE_SEED)[1])[2::4]
    docs, work = pool(seed)
    order = sorted(range(len(docs)), key=lambda i: (work[i], i))
    values = [work[i] for i in order]
    chosen = []
    for target in reversed(targets):
        j = bisect.bisect_left(values, target)
        best = min((k for k in (j - 1, j) if 0 <= k < len(values)),
                   key=lambda k: abs(values[k] - target))
        chosen.append(order.pop(best))
        values.pop(best)
    return [docs[i] for i in sorted(chosen)]


# ---------------------------------------------------------------------------
# fingerprint: one molecule per call, homology dominates

def instrument_fingerprint(tracer, vectorize):
    counts = tracer.counts
    rows = []  # vertex sets of the molecule in progress

    def new_molecule(graph, *args, **kwargs):
        rows.clear()
        counts["molgraph.atoms"] += graph.n_atoms
        counts["molgraph.bonds"] += len(graph.bonds)

    def sequence(seq, *args, **kwargs):
        rows.extend(seq.subsets)

    def diagrams(out, *args, **kwargs):
        counts["filtration.rows"] += len(rows)
        counts["filtration.rows_distinct"] += len(set(rows))

    def built(cx, *args, **kwargs):
        # getattr: a reworked complex without these arrays counts as none built
        tri = [getattr(cx, a, np.empty(0)) for a in ("tri_eps", "tri_verts", "tri_edge_pos")]
        counts["homology.edges"] += len(getattr(cx, "edge_eps", ()))
        counts["homology.triangles"] += len(tri[0])
        counts["homology.tri_bytes_computed"] += sum(a.nbytes for a in tri)

    def reduced(diagrams_pair, *args, **kwargs):
        pd0, pd1 = diagrams_pair
        counts["homology.pd0_pairs"] += len(pd0.pairs)
        counts["homology.pd1_pairs"] += len(pd1.pairs)
        counts["homology.pd1_essentials"] += len(pd1.essentials)

    for attr, name, after in (
            ("graph_from_record", "vectorize.graph_from_record", new_molecule),
            ("assemble", "vectorize.assemble", None),
            ("row_diagrams", "vectorize.row_diagrams", diagrams),
            ("load_graph_json", "molgraph.load", None),
            ("parse_smiles", "molgraph.load", None),
            ("expand_hydrogens", "molgraph.prepare", None),
            ("detect_rings", "molgraph.prepare", None),
            ("geodesic_distances", "homology.bfs", None),
            ("build_sequence", "filtration.sequence", sequence),
            ("build_vr_row", "homology.vr_build", built),
            ("reduce_complex", "homology.reduce", reduced),
            ("betti_curve", "vectorize.betti", None)):
        tracer.wrap(vectorize, attr, name, after)


def fingerprint_layers(tracer, passes: int) -> dict:
    totals = tracer.totals()
    counts = tracer.counts
    out = {f"{name}_s": totals.get(name, (0, 0.0, 0.0))[1] / passes
           for name in ("molgraph.load", "molgraph.prepare", "filtration.sequence",
                        "homology.bfs", "homology.vr_build", "homology.reduce",
                        "vectorize.betti")}
    for name in ("molgraph.atoms", "molgraph.bonds", "filtration.rows",
                 "filtration.rows_distinct", "homology.edges", "homology.triangles",
                 "homology.tri_bytes_computed", "homology.pd0_pairs",
                 "homology.pd1_pairs", "homology.pd1_essentials"):
        out[name] = counts[name] // passes
    if counts["filtration.rows"]:
        out["vectorize.row_cache_hit_ratio"] = (
            1.0 - counts["filtration.rows_distinct"] / counts["filtration.rows"])
    if counts["homology.triangles"]:
        killed = (counts["homology.edges"] - counts["homology.pd0_pairs"]
                  - counts["homology.pd1_essentials"])
        out["homology.killing_triangle_ratio"] = killed / counts["homology.triangles"]
    return out


def run_fingerprint(run: Run, m):
    vectorize = m["vectorize"]
    specs = [m["filtration"].make_spec(k) for k in m["filtration"].FILTRATION_KINDS]

    def make():
        docs = select_molecules(m, run.seed, run.sizes.fingerprint_molecules)
        records = [m["DatasetRecord"](d["record_id"], d["target"], graph=d["graph"])
                   for d in docs]
        return records, _sha256(json.dumps(docs, sort_keys=True).encode())

    records, setup_s = run.setup(make)
    if run.trace:
        instrument_fingerprint(run.tracer, vectorize)

    first = {}
    latencies = []

    def one_pass(index):
        elapsed = 0.0
        for i, record in enumerate(records):
            if i % 5 == 4:
                run.calibrate()
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                graph = vectorize.graph_from_record(record)
                fp = vectorize.assemble(graph, specs, K_GRID, record_id=record.record_id)
            except Exception as exc:  # counted and reported, never skipped
                run.fail(f"fingerprint error {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            elapsed += dt
            latencies.append(dt)
            if index == 0:
                first[record.record_id] = fp.vector
            elif not np.array_equal(first.get(record.record_id), fp.vector):
                run.fail("fingerprint differs between passes")
        return elapsed

    pass_times, run.scaled_passes = run.passes(one_pass)
    run.tracer.restore()
    if len(first) == len(records):
        matrix = np.vstack([first[r.record_id] for r in records]).astype("<i8")
        run.check("matrix", _sha256(repr(matrix.shape).encode() + matrix.tobytes()),
                  ops=run.attempted)
    lat_ms = sorted(x * 1e3 for x in latencies)
    run.figure("fp_mol_per_s", len(latencies) / sum(pass_times), "mol/s")
    if len(lat_ms) >= 2:
        q = statistics.quantiles(lat_ms, n=20)
        run.figure("fp_mol_p50_ms", statistics.median(lat_ms), "ms")
        run.figure("fp_mol_p95_ms", q[18], "ms")
    run.figure("fp_samples", len(lat_ms), "count")
    if run.trace:
        run.layers.update(fingerprint_layers(run.tracer, len(pass_times)))
    return setup_s, pass_times, _peak_rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# train: fingerprint CSV -> five ablation ensembles -> uncertainty ranking

TRAIN_SPLIT = (0.75, 0.0, 0.25)


def instrument_train(tracer, sglb, vectorize):
    counts = tracer.counts
    matrix_stats = {}  # id(X) -> (X, varying, occupied bins); lives for one ensemble

    def stats(X, max_bins):
        key = id(X)
        if key not in matrix_stats:
            edges = sglb.quantile_bin_edges(X, max_bins)
            varying = [f for f, e in enumerate(edges) if e.size]
            occupied = sum(len(np.unique(np.searchsorted(edges[f], X[:, f], side="left")))
                           for f in varying)
            matrix_stats[key] = (X, len(varying), occupied)
        return matrix_stats[key][1:]

    def fitted(model, X, y, config, *args, **kwargs):
        counts["sglb.trees"] += len(model.trees)
        counts["sglb.nodes"] += sum(t.n_nodes for t in model.trees)
        ncand, _ = stats(X, config.max_bins)
        if not ncand:
            return
        min_split = max(2, config.min_samples_split)
        for tree in model.trees:
            searches, histograms = _tree_work(tree, X, config.max_depth, min_split)
            counts["sglb.split_searches_computed"] += searches * ncand * 255
            counts["sglb.hist_slots_computed"] += histograms * ncand * 256

    def ensemble_fitted(ensemble, X, y, config, *args, **kwargs):
        ncand, occupied = stats(X, config.max_bins)
        counts["sglb.features"] += X.shape[1]
        counts["sglb.features_varying"] += ncand
        counts["sglb.features_distinct"] += np.unique(X, axis=1).shape[1]
        counts["sglb.slots_occupied"] += occupied
        matrix_stats.clear()

    def bump(name):
        def after(*args, **kwargs):
            counts[name] += 1
        return after

    tracer.wrap(vectorize, "read_fingerprints_csv", "vectorize.read_csv")
    tracer.wrap(sglb, "fit_ensemble", "sglb.fit_ensemble", ensemble_fitted)
    tracer.wrap(sglb, "_Binned", "sglb.bin", bump("sglb.bin_calls"))
    tracer.wrap(sglb, "fit", "sglb.fit", fitted)
    tracer.wrap(sglb.SglbModel, "raw_predict", "sglb.raw_predict",
                bump("sglb.raw_predict_calls"))
    tracer.wrap(sglb, "decompose", "sglb.decompose", bump("sglb.decompose_calls"))
    tracer.wrap(sglb, "rank_by_uncertainty", "sglb.rank")


def _tree_work(tree, X, max_depth, min_split):
    """(split searches, histograms built) that growing ``tree`` on X took.

    Replays the grower's rules: every node below max_depth with at least
    min_split samples is searched, and the root plus the smaller child of
    each split get a histogram (the larger child's is a subtraction).
    """
    searches, histograms = 0, 1
    stack = [(0, np.arange(len(X)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        f = int(tree.feature[node])
        if f >= 0:
            searches += 1
            histograms += 1
            go = X[idx, f] <= tree.threshold[node]
            stack.append((int(tree.left[node]), idx[go], depth + 1))
            stack.append((int(tree.right[node]), idx[~go], depth + 1))
        elif depth < max_depth and len(idx) >= min_split:
            searches += 1
    return searches, histograms


def train_layers(tracer, passes: int) -> dict:
    totals = tracer.totals()
    counts = tracer.counts
    out = {f"{name}_s": totals.get(name, (0, 0.0, 0.0))[1] / passes
           for name in ("vectorize.read_csv", "sglb.bin", "sglb.fit",
                        "sglb.raw_predict", "sglb.decompose")}
    for name in ("sglb.bin_calls", "sglb.trees", "sglb.nodes", "sglb.features",
                 "sglb.features_varying", "sglb.features_distinct",
                 "sglb.split_searches_computed", "sglb.hist_slots_computed"):
        out[name] = counts[name] // passes
    if counts["sglb.decompose_calls"]:
        out["sglb.raw_predict_calls"] = (counts["sglb.raw_predict_calls"]
                                         / counts["sglb.decompose_calls"])
    if counts["sglb.features_varying"]:
        out["sglb.slot_fill_ratio"] = (counts["sglb.slots_occupied"]
                                       / (256 * counts["sglb.features_varying"]))
    return out


def run_train(run: Run, m):
    sglb, vectorize = m["sglb"], m["vectorize"]
    kinds = m["filtration"].FILTRATION_KINDS
    csv_path = run.work / "fingerprints.csv"
    config = sglb.SglbConfig(iterations=run.sizes.train_iterations, max_depth=4,
                             learning_rate=0.05, ensemble_size=3, seed=0)

    def make():
        # Training cost follows the varying columns of the matrix, which differ
        # by a quarter between molecule sets, so every seed trains on the same
        # molecules and draws its own TRAIN/TEST split of them.
        docs = select_molecules(m, REFERENCE_SEED, run.sizes.train_molecules)
        records = [m["DatasetRecord"](d["record_id"], d["target"], graph=d["graph"])
                   for d in docs]
        records = m["harness"].apply_split(records, "random", ratios=TRAIN_SPLIT,
                                           seed=run.seed)
        table = vectorize.fingerprint_dataset(records, kinds, K_GRID, threads=2)
        vectorize.write_fingerprints_csv(table, csv_path)
        return (records, table.errors), _sha256(csv_path.read_bytes())

    (records, errors), setup_s = run.setup(make)
    run.attempted += len(records)
    for error in errors:
        run.fail(f"set-up fingerprint error: {error['error']}")
    run.check("fingerprints_csv", _sha256(csv_path.read_bytes()))
    split = {r.record_id: r.split for r in records}
    target = {r.record_id: r.target for r in records}
    subsets = [(k,) for k in kinds] + [tuple(kinds)]
    if run.trace:
        instrument_train(run.tracer, sglb, vectorize)

    digests = []
    train_times, rank_times, rank_rows = [], [], []
    kept = {}

    def one_pass(index):
        ensembles = []
        t0 = time.perf_counter()
        table = vectorize.read_fingerprints_csv(csv_path)
        ids = table.ids()
        train = [i for i, rid in enumerate(ids) if split[rid] == "TRAIN"]
        pool = [i for i, rid in enumerate(ids) if split[rid] == "TEST"]
        y = np.array([target[rid] for rid in ids], dtype=np.float64)
        elapsed = time.perf_counter() - t0
        for sub_kinds in subsets:
            run.calibrate()
            t0 = time.perf_counter()
            sub = vectorize.slice_table(table, sub_kinds)
            ensembles.append(sglb.fit_ensemble(sub.matrix().astype(np.float64)[train],
                                               y[train], config, layout=sub.layout,
                                               threads=1))
            elapsed += time.perf_counter() - t0
        train_times.append(elapsed)
        ranked = []
        for sub_kinds, ensemble in zip(subsets, ensembles):
            t0 = time.perf_counter()
            X = vectorize.slice_table(table, sub_kinds).matrix().astype(np.float64)
            ranked.append(sglb.rank_by_uncertainty(ensemble, [ids[i] for i in pool],
                                                   X[pool], "KNOWLEDGE", 10))
            rank_times.append(time.perf_counter() - t0)
            rank_rows.append(len(pool))
            elapsed += rank_times[-1]
        run.attempted += len(ensembles)
        digest = [_sha256(json.dumps(sglb.ensemble_to_dict(e), sort_keys=True).encode())
                  for e in ensembles]
        digest.append(_sha256(json.dumps(ranked).encode()))
        if index == 0:
            digests.extend(digest)
            kept.update(table=table, pool=pool, y=y, all=ensembles[-1])
        else:
            for a, b in zip(digests, digest):
                if a != b:
                    run.fail("ensemble or ranking differs between passes")
        return elapsed

    pass_times, run.scaled_passes = run.passes(one_pass)
    run.tracer.restore()
    labels = [vectorize.KIND_ABBREV[k[0]] if len(k) == 1 else "ALL" for k in subsets]
    for label, digest in zip(labels, digests):
        run.check(f"ensemble_{label}", digest)
    run.check("ranked", digests[-1])
    X_all = kept["table"].matrix().astype(np.float64)[kept["pool"]]
    prediction = sglb.decompose(kept["all"], X_all).prediction
    test_rmse = float(np.sqrt(np.mean((prediction - kept["y"][kept["pool"]]) ** 2)))
    run.check("test_rmse", repr(test_rmse))
    run.figure("train_s", statistics.median(train_times), "s")
    run.figure("predict_rows_per_s", sum(rank_rows) / sum(rank_times), "rows/s")
    run.figure("test_rmse", test_rmse, "target")
    if run.trace:
        run.layers.update(train_layers(run.tracer, len(pass_times)))
    return setup_s, pass_times, _peak_rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# pipeline: `moltop bench --ablation` as a subprocess

def _normalized_report(path: Path, work: Path) -> bytes:
    """report.json with its two absolute paths made relative to the work dir."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    config = doc.get("config", {})
    for holder, key in ((config.get("dataset", {}), "path"), (config, "out_dir")):
        if isinstance(holder.get(key), str):
            holder[key] = os.path.relpath(holder[key], work)
    return json.dumps(doc, sort_keys=True).encode()


def run_pipeline(run: Run, m):
    sizes = run.sizes
    data_path = run.work / "data.jsonl"
    config_path = run.work / "config.json"
    out_dir = run.work / "out"
    # As in train, the molecules are fixed and the seed varies the run: the
    # config seed draws the split and the ensemble seeds.  Molecule sets with
    # matched row work still differ in k_grid and worker load balance.
    config = {"dataset": {"path": "data.jsonl"}, "task": "regression",
              "threads": 2, "seed": run.seed, "repeats": 1, "out_dir": "out",
              "sglb": {"iterations": sizes.pipeline_iterations, "max_depth": 4,
                       "learning_rate": 0.05, "ensemble_size": 3}}

    def make():
        docs = select_molecules(m, REFERENCE_SEED, sizes.pipeline_molecules)
        text = "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)
        data_path.write_text(text, encoding="utf-8")
        config_path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        return None, _sha256(text.encode())

    _, setup_s = run.setup(make)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "moltop.cli", "bench", "--config",
               str(config_path), "--ablation"]
    first = {}
    stages = []
    if run.trace:
        run.tracer.wrap(m["harness"], "load_graph_json", "molgraph.load")
        run.tracer.wrap(m["harness"], "parse_smiles", "molgraph.load")
        run.tracer.wrap(m["harness"], "load_dataset", "harness.load")

    def one_pass(index):
        shutil.rmtree(out_dir, ignore_errors=True)
        run.attempted += 1
        t0 = time.perf_counter()
        code = _run_child(command, env, run.work)
        wall = time.perf_counter() - t0
        try:
            if code != 0:
                raise ValueError(f"bench exited with code {code}")
            errors = json.loads((out_dir / "errors.json").read_text(encoding="utf-8"))
            if any(errors.values()):
                raise ValueError("errors.json is not empty")
            timing = json.loads((out_dir / "timing.json").read_text(encoding="utf-8"))
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            digest = {"report": _sha256(_normalized_report(out_dir / "report.json",
                                                           run.work)),
                      "fingerprints_csv": _sha256((out_dir / "fingerprints.csv")
                                                  .read_bytes())}
        except (OSError, ValueError, KeyError) as exc:
            run.fail(f"bench run failed: {exc}")
            return wall
        if index == 0:
            first.update(digest)
        elif any(first[k] != v for k, v in digest.items()):
            run.fail("bench outputs differ between passes")
        stages.append((wall, timing, report))
        if run.trace:
            m["harness"].load_dataset(str(data_path))
        return wall

    pass_times, run.scaled_passes = run.passes(one_pass)
    run.tracer.restore()
    for name in ("report", "fingerprints_csv"):
        if name in first:
            run.check(name, first[name], ops=run.attempted)
    if stages:
        _pipeline_figures(run, stages)
    return setup_s, pass_times, _peak_rss_mb(resource.RUSAGE_CHILDREN)


def _pipeline_figures(run: Run, stages):
    med = statistics.median
    fp = [t["fingerprint_seconds"] for _, t, _ in stages]
    train = [sum(sum(v) for v in t["train_seconds"].values()) for _, t, _ in stages]
    predict = [sum(sum(v) for v in t["predict_seconds"].values()) for _, t, _ in stages]
    total = [t["total_seconds"] for _, t, _ in stages]
    wall = [w for w, _, _ in stages]
    report = stages[0][2]
    run.figure("pipeline_s", med(wall), "s")
    run.figure("fp_mol_per_s", report["dataset"]["fingerprinted"] / med(fp), "mol/s")
    run.figure("train_s", med(train), "s")
    run.figure("predict_s", med(predict), "s")
    run.figure("test_rmse", report["runs"]["ALL"]["metrics"]["TEST"]["rmse"]["mean"],
               "target")
    run.figure("k_grid", report["k_grid"], "count")
    if run.trace:
        passes = len(stages)
        totals = run.tracer.totals()
        run.layers.update({
            "harness.load_s": totals.get("harness.load", (0, 0.0, 0.0))[1] / passes,
            "molgraph.load_s": totals.get("molgraph.load", (0, 0.0, 0.0))[1] / passes,
            "harness.fingerprint_s": med(fp),
            "harness.train_s": med(train),
            "harness.predict_s": med(predict),
            "harness.other_s": med([a - b - c - d for a, b, c, d
                                    in zip(total, fp, train, predict)]),
            "cli.startup_s": med([w - t for w, t in zip(wall, total)]),
        })


def _run_child(command, env, cwd) -> int:
    """Run the bench child in its own session; kill the group on timeout."""
    with open(os.devnull, "wb") as sink:
        child = subprocess.Popen(command, env=env, cwd=cwd, stdout=sink,
                                 stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return -signal.SIGKILL
    if child.returncode != 0:
        sys.stderr.write(err.decode("utf-8", "replace"))
    return child.returncode


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------

RUNNERS = {"fingerprint": run_fingerprint, "train": run_train, "pipeline": run_pipeline}


def _import_moltop():
    """Import the checkout's moltop from source, or None when src/ is absent."""
    if not (SRC / "moltop" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from moltop import datagen, filtration, harness, sglb, vectorize
    from moltop.molgraph import DatasetRecord
    if Path(vectorize.__file__).resolve().parent != SRC / "moltop":
        return None
    return {"datagen": datagen, "filtration": filtration,
            "harness": harness, "sglb": sglb, "vectorize": vectorize,
            "DatasetRecord": DatasetRecord}


def execute(workload, seed, seconds, trace, sizes=SIZES):
    """Run one workload; returns (detail, result) as printed by ``main``."""
    from tracer import Tracer

    modules = _import_moltop()
    if modules is None:
        raise SystemExit(f"error: no moltop sources under {SRC}")
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh).get(workload, {}).get(str(seed), {})
    if sizes != SIZES:
        reference = {}  # references hold for the benchmark's own sizes only
    run = Run(workload, seed, seconds, trace, sizes, reference, Tracer())
    facts = machine_facts()
    ticks0 = _cpu_ticks()
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, pass_times, rss = RUNNERS[workload](run, modules)
    finally:
        run.tracer.restore()
        shutil.rmtree(run.work, ignore_errors=True)
    ticks1 = _cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        facts["steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        facts["steal_s"] = (ticks1[0] - ticks0[0]) / os.sysconf("SC_CLK_TCK")
    run.figure("passes", len(pass_times), "count")
    run.figure("pass_raw_s", statistics.median(pass_times), "s")
    end_to_end = {"setup_s": setup_s,
                  "pass_s": statistics.median(run.scaled_passes),
                  "peak_rss_mb": rss}
    e2e = {name: {"value": end_to_end[name], "unit": unit} for name, unit, _ in END_TO_END}
    metrics = ({name: {"value": run.layers.get(name, 0), "unit": unit}
                for name, unit, _ in PER_LAYER} if trace else e2e)
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": facts, "hashes": run.hashes,
              "reference_checked": sorted(k for k in run.hashes if k in run.reference),
              "failures": dict(run.reasons), "pass_times_s": pass_times,
              "scaled_pass_times_s": run.scaled_passes, "end_to_end": e2e, "figures": run.figures}
    result = {"correct": run.failed == 0, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    if trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        untraced = RESULTS / f"{workload}-seed{seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text(encoding="utf-8"))["end_to_end"]["pass_s"]
            detail["tracing_overhead_pass_s"] = end_to_end["pass_s"] - base["value"]
        run.tracer.write(RESULTS / f"trace-{workload}-seed{seed}.json",
                         {"workload": workload, "seed": seed, "passes": len(pass_times),
                          "detail": detail})
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    detail, result = execute(args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**detail, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
