import json
import math
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from moltop import sglb
from moltop.datagen import generate_dataset
from moltop.errors import ConfigError, DataError, LayoutMismatchError, MoltopError
from moltop.filtration import FILTRATION_KINDS
from moltop.molgraph import DatasetRecord
from moltop.sglb import (
    SglbConfig,
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    TASKS,
    classification_uncertainty,
    decompose,
    ensemble_from_dict,
    ensemble_to_dict,
    fit,
    fit_ensemble,
    fit_ensembles,
    quantile_bin_edges,
    rank_by_uncertainty,
    regression_uncertainty,
)
from moltop.vectorize import FingerprintLayout, fingerprint_dataset, slice_table

from oracles import (
    LoopBinned,
    ReferenceBinned,
    ReferenceTreeGrower,
    fit_classical_reference,
    quantile_bin_edges_loop,
    raw_predict_tree_by_tree,
    tree_leaves,
    tree_predict,
)


def toy_regression(n=120, features=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, features))
    y = X[:, 0] * 2.0 - X[:, 1] + 0.1 * rng.normal(size=n)
    return X, y


def toy_classification(n=160, features=5, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, features))
    y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(float)
    return X, y


class TestConfig:
    def test_defaults_match_documented_values(self):
        cfg = SglbConfig()
        assert cfg.iterations == 1000
        assert cfg.max_depth == 6
        assert cfg.learning_rate == 0.05
        assert cfg.min_samples_split == 2
        assert cfg.gamma == 1e-4
        assert cfg.ensemble_size == 10
        assert cfg.max_bins == 255

    @pytest.mark.parametrize("kwargs", [
        {"iterations": 0}, {"max_depth": 0}, {"ensemble_size": 0},
        {"learning_rate": 0.0}, {"learning_rate": 1.5},
        {"beta": 0.0}, {"gamma": -1.0}, {"gamma": math.nan},
        {"gamma": 30.0, "learning_rate": 0.05},  # gamma * eta >= 1
        {"task": "MULTICLASS"},
        {"min_samples_split": 0}, {"min_samples_split": -5},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="|".join(kwargs)):
            SglbConfig(**kwargs)

    def test_min_samples_split_one_trains_as_two(self):
        # A node of one row has no cut, so 1 is valid and grows the trees 2 grows.
        X, y = toy_regression(n=40)
        one, two = (fit(X, y, SglbConfig(iterations=5, max_depth=6, min_samples_split=m,
                                         seed=3)) for m in (1, 2))
        assert one.config.min_samples_split == 1
        assert one.trees == two.trees

    def test_beta_inf_roundtrips_via_json(self):
        cfg = SglbConfig(beta=math.inf)
        back = SglbConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg


class TestFit:
    def test_constant_targets_reach_fixed_point(self):
        X = np.random.default_rng(0).normal(size=(80, 4))
        y = np.full(80, 5.0)
        cfg = SglbConfig(iterations=500, max_depth=3, gamma=0.0, beta=math.inf,
                         seed=3)
        model = fit(X, y, cfg)
        assert np.allclose(model.raw_predict(X)[:, 0], 5.0, atol=1e-6)

    def test_reduction_to_classical_boosting(self):
        X, y = toy_regression()
        cfg = SglbConfig(iterations=40, max_depth=4, gamma=0.0, beta=math.inf,
                         seed=7)
        noisy_path = fit(X, y, cfg)
        reference = fit_classical_reference(X, y, cfg)
        assert len(noisy_path.trees) == len(reference.trees)
        for ours, ref in zip(noisy_path.trees, reference.trees):
            assert ours == ref
        assert np.allclose(noisy_path.raw_predict(X)[:, 0], reference.raw_predict(X)[:, 0],
                           atol=1e-12)

    def test_classification_reduction_to_classical(self):
        X, y = toy_classification()
        cfg = SglbConfig(task=TASK_CLASSIFICATION, iterations=30, max_depth=3,
                         gamma=0.0, beta=math.inf, seed=2)
        assert fit(X, y, cfg).trees == fit_classical_reference(X, y, cfg).trees

    def test_noise_makes_seeds_differ(self):
        X, y = toy_regression()
        cfg = SglbConfig(iterations=30, max_depth=3, seed=0)
        a = fit(X, y, cfg)
        b = fit(X, y, SglbConfig(iterations=30, max_depth=3, seed=1))
        assert not np.allclose(a.raw_predict(X)[:, 0], b.raw_predict(X)[:, 0])

    def test_shrinkage_law_single_iteration(self):
        X, y = toy_regression(seed=4)
        cfg = SglbConfig(iterations=1, max_depth=3, gamma=0.3, beta=math.inf,
                         seed=0)
        model = fit(X, y, cfg)
        keep = 1.0 - cfg.gamma * cfg.learning_rate
        expected = keep * model.base[0] + cfg.learning_rate * tree_predict(model.trees[0], X)[:, 0]
        assert np.array_equal(model.raw_predict(X)[:, 0], expected)

    def test_non_finite_inputs_rejected(self):
        X, y = toy_regression()
        X[0, 0] = np.nan
        with pytest.raises(DataError):
            fit(X, y, SglbConfig(iterations=2))

    def test_single_class_classification_rejected(self):
        X, _ = toy_classification()
        with pytest.raises(DataError):
            fit(X, np.zeros(len(X)), SglbConfig(task=TASK_CLASSIFICATION, iterations=2))

    def test_quantile_binning_marks_constant_columns(self):
        X = np.column_stack([np.zeros(50), np.arange(50.0)])
        edges = quantile_bin_edges(X, 255)
        assert edges[0].size == 0
        assert edges[1].size > 0

    def test_deterministic_rerun(self):
        X, y = toy_regression()
        cfg = SglbConfig(iterations=25, max_depth=3, seed=9)
        a, b = fit(X, y, cfg), fit(X, y, cfg)
        assert a.trees == b.trees
        assert np.array_equal(a.raw_predict(X)[:, 0], b.raw_predict(X)[:, 0])


def awkward_columns(n=96, seed=5):
    """Duplicate, constant and tied columns around a few informative ones."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    b = rng.integers(0, 4, size=n).astype(float)     # four tied levels
    c = np.round(rng.normal(size=n), 1)              # many ties
    X = np.column_stack([np.zeros(n), a, b, a, c, np.full(n, 3.0), b,
                         2.0 * a + 1.0,              # same codes as a, other edges
                         c, rng.normal(size=n)])
    y = a - 0.5 * b + 0.3 * c + 0.1 * rng.normal(size=n)
    return X, y


def random_matrices(seed, signed_zeros=False):
    """Matrices of normal, tied, huge-and-tiny and nearly equal columns, or of
    -0.0, 0.0, 1.0 and -1.0 entries."""
    rng = np.random.default_rng(seed)
    for trial in range(120):
        n, m = int(rng.integers(2, 60)), int(rng.integers(1, 6))
        if signed_zeros:
            yield rng.choice([-0.0, 0.0, 1.0, -1.0], size=(n, m))
        elif trial % 4 == 0:
            yield rng.normal(size=(n, m))
        elif trial % 4 == 1:
            yield rng.integers(0, 4, size=(n, m)).astype(float)
        elif trial % 4 == 2:
            yield rng.normal(size=(n, m)) * 10.0 ** rng.integers(-300, 300, size=(n, m))
        else:
            yield 1e15 * np.round(rng.normal(size=(n, m)), 1) + rng.integers(0, 3, (n, m))


class TestQuantileEdges:
    """The edges from one sort are np.quantile's distinct values, bit for bit,
    except that a column holding both -0.0 and 0.0 may give a zero edge the
    other sign.  ``x <= -0.0`` is the test ``x <= 0.0`` is, so the codes,
    splits and predictions stay the same; only model.json's text can differ."""

    @pytest.mark.parametrize("max_bins", [2, 7, 255])
    def test_bit_equal_to_np_quantile(self, max_bins):
        for X in random_matrices(max_bins):
            edges, expected = quantile_bin_edges(X, max_bins), quantile_bin_edges_loop(X, max_bins)
            assert [e.tobytes() for e in edges] == [e.tobytes() for e in expected]

    def test_fingerprint_matrix_bit_equal(self, small_records):
        records = [DatasetRecord(r["record_id"], r["target"], r["graph"])
                   for r in small_records[:60]]
        X = fingerprint_dataset(records, FILTRATION_KINDS, 14).matrix()
        for max_bins in (2, 7, 255):
            edges, expected = quantile_bin_edges(X, max_bins), quantile_bin_edges_loop(X, max_bins)
            assert [e.tobytes() for e in edges] == [e.tobytes() for e in expected]

    @pytest.mark.parametrize("max_bins", [2, 7, 255])
    def test_signed_zeros_change_no_code_split_or_prediction(self, monkeypatch, max_bins):
        flipped = 0
        for seed, X in enumerate(random_matrices(max_bins, signed_zeros=True)):
            edges, expected = quantile_bin_edges(X, max_bins), quantile_bin_edges_loop(X, max_bins)
            assert all(np.array_equal(a, b) for a, b in zip(edges, expected))
            flipped += [e.tobytes() for e in edges] != [e.tobytes() for e in expected]
            assert_binned_as_loops(X, max_bins)  # LoopBinned bins by np.quantile's edges
            if seed % 10 == 0:
                y = X.sum(axis=1) + 0.1 * seed
                cfg = SglbConfig(iterations=5, max_depth=3, max_bins=max_bins, seed=seed)
                model = fit(X, y, cfg)
                with monkeypatch.context() as patched:
                    patched.setattr(sglb, "_Binned", LoopBinned)
                    expected_model = fit(X, y, cfg)
                assert all(a == b for a, b in zip(model.trees, expected_model.trees))
                assert np.array_equal(model.raw_predict(X), expected_model.raw_predict(X))
        assert flipped  # the exception is real, not hypothetical


def assert_binned_as_loops(X, max_bins):
    binned, loops = sglb._Binned(X, max_bins), LoopBinned(X, max_bins)
    assert np.array_equal(binned.active, loops.active)
    assert binned.codes.dtype == loops.codes.dtype and np.array_equal(binned.codes, loops.codes)
    assert len(binned.occupied) == len(loops.occupied)
    assert all(np.array_equal(a, b) for a, b in zip(binned.occupied, loops.occupied))
    assert binned.width == loops.width
    assert binned.slots.dtype == loops.slots.dtype and np.array_equal(binned.slots, loops.slots)
    assert all(np.array_equal(a, b) for a, b in zip(binned.edges, loops.edges))


def binning_cases(n=80, seed=12):
    """Random, tied, constant and duplicate columns, and two rank-equal ones: the
    same rows in the same order, in other bins, since the quantile edges between
    1 and the next float can only be one or the other."""
    rng = np.random.default_rng(seed)
    random, tied = rng.normal(size=(n, 3)), np.round(rng.normal(size=(n, 3)), 1)
    levels = rng.integers(0, 3, n)
    rank_equal = [levels * 1.0, np.array([0.0, 1.0, np.nextafter(1.0, 2.0)])[levels]]
    return np.column_stack([random, tied, np.full((n, 2), 3.0), tied[:, 1], random[:, 0],
                            2.0 * random[:, 2] + 1.0, *rank_equal])


class TestBinnedMatchesLoops:
    """``_Binned`` from whole-matrix steps equals the per-column loops."""

    @pytest.mark.parametrize("max_bins", [2, 7, 255])
    def test_random_tied_constant_duplicate_and_rank_equal_columns(self, max_bins):
        X = binning_cases()
        for rows in (X, X[:1], X[:2], X[:7]):
            assert_binned_as_loops(rows, max_bins)
        for X in random_matrices(max_bins):
            assert_binned_as_loops(X, max_bins)

    def test_rank_equal_columns_are_both_kept(self):
        X = binning_cases()
        binned = sglb._Binned(X, 255)
        assert binned.active[-2:].tolist() == [X.shape[1] - 2, X.shape[1] - 1]
        assert np.array_equal(binned.codes[:, -2], binned.codes[:, -1])

    @pytest.mark.parametrize("kinds", [(k,) for k in FILTRATION_KINDS] + [FILTRATION_KINDS],
                             ids=lambda kinds: "+".join(k[:4] for k in kinds))
    def test_datagen_ablation_slices(self, datagen_matrix, kinds):
        X = slice_table(datagen_matrix[0], kinds).matrix().astype(np.float64)
        for max_bins in (2, 7, 255):
            assert_binned_as_loops(X, max_bins)


def distinct_value_columns(n=300, seed=6):
    """One column per distinct-value count 1..255, each value drawn at least once."""
    rng = np.random.default_rng(seed)
    cols = [rng.permutation(np.arange(n) % k).astype(float) * 0.5 for k in range(1, 256)]
    X = np.column_stack(cols)
    y = X[:, 4] - 0.01 * X[:, 200] + 0.1 * rng.normal(size=n)
    return X, y


def few_level_columns(n=96, seed=9):
    """Integer columns of a few far-apart levels, as in Betti curves: their
    quantile edges far outnumber the bins they occupy.  Column 0 holds fewer
    levels than the widest column."""
    rng = np.random.default_rng(seed)
    levels = np.array([0.0, 1.0, 2.0, 5.0, 40.0])
    p = np.array([0.4, 0.25, 0.15, 0.12, 0.08])
    X = np.column_stack([rng.choice(levels[[0, 3, 4]], n, p=[0.6, 0.3, 0.1])]
                        + [rng.choice(levels, n, p=p) for _ in range(4)]
                        + [rng.choice(levels[:3], n)])
    y = X[:, 1] - 0.1 * X[:, 0] + np.sqrt(X[:, 2]) + 0.1 * rng.normal(size=n)
    return X, y


_COLUMN_KINDS = ("levels", "rounded", "normal", "constant", "duplicate", "affine")


def grower_case(n, kinds, seed, noise, dim):
    """X of n rows with columns of the given kinds, and (n, dim) targets.

    Columns are tied, constant, continuous, or copies of an earlier column
    (exact, or under an affine map, which keeps the order but not the edges).
    Targets have one column or two, as the two tasks' gradients do.  They are
    a step of one column, with noise on the rows where another column is above
    its median, so a tree can end both in pure leaves, whose search finds no
    positive gain, and in leaves that split until max_depth or
    min_samples_split stops them."""
    rng = np.random.default_rng(seed)
    cols = []
    for kind in kinds:
        if kind in ("duplicate", "affine") and cols:
            col = cols[rng.integers(len(cols))]
            cols.append(col if kind == "duplicate" else 3.0 * col - 1.0)
        elif kind == "levels":
            cols.append(rng.integers(0, 4, n) * 1.5)
        elif kind == "rounded":
            cols.append(np.round(rng.normal(size=n), 1))
        elif kind == "normal":
            cols.append(rng.normal(size=n))
        else:
            cols.append(np.full(n, 2.0))
    X = np.column_stack(cols)
    step, noisy = X[:, rng.integers(X.shape[1], size=2)].T
    y = np.sign(step - np.median(step))
    y += noise * rng.normal(size=n) * (noisy > np.median(noisy))
    return X, np.column_stack([y, y * y - 1.0][:dim])


@st.composite
def grower_cases(draw):
    """(X, targets, max_depth, min_samples_split, max_bins) on 2-60 rows."""
    X, targets = grower_case(
        draw(st.integers(2, 60)),
        draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=6)),
        draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from([0.0, 0.3])),
        draw(st.sampled_from([1, 2])))
    return (X, targets, draw(st.integers(1, 5)), draw(st.integers(2, 30)),
            draw(st.sampled_from([2, 7, 255])))


@pytest.fixture(scope="module")
def datagen_matrix():
    records = [DatasetRecord(r["record_id"], r["target"], graph=r["graph"])
               for r in generate_dataset(48, seed=13)]
    table = fingerprint_dataset(records, FILTRATION_KINDS, 10)
    targets = {r.record_id: r.target for r in records}
    return table, np.array([targets[rid] for rid in table.ids()])


class TestCompactTrainerMatchesReference:
    """The compact-histogram grower gives the 256-slot reference grower's trees."""

    @staticmethod
    def assert_same_trees(monkeypatch, X, y, cfg):
        ours = fit(X, y, cfg).trees
        with monkeypatch.context() as patched:
            patched.setattr(sglb, "_Binned", ReferenceBinned)
            patched.setattr(sglb, "_TreeGrower", ReferenceTreeGrower)
            reference = fit(X, y, cfg).trees
        assert len(ours) == len(reference)
        assert all(a == b for a, b in zip(ours, reference))
        edges = quantile_bin_edges(X, cfg.max_bins)
        expected = quantile_bin_edges_loop(X, cfg.max_bins)
        assert len(edges) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(edges, expected))

    @pytest.mark.parametrize("max_bins", [2, 7, 255])
    @pytest.mark.parametrize("min_samples_split", [2, 9])
    def test_duplicate_constant_and_tied_columns(self, monkeypatch, max_bins,
                                                 min_samples_split):
        X, y = awkward_columns()
        cfg = SglbConfig(iterations=15, max_depth=4, max_bins=max_bins,
                         min_samples_split=min_samples_split, seed=1)
        self.assert_same_trees(monkeypatch, X, y, cfg)

    @pytest.mark.parametrize("max_depth,min_samples_split", [(1, 2), (2, 2), (4, 40)])
    def test_leaf_children(self, monkeypatch, max_depth, min_samples_split):
        # Children at max_depth, or both below min_samples_split, are leaves
        # whose histograms hold code column 0 alone.
        X, y = awkward_columns()
        cfg = SglbConfig(iterations=15, max_depth=max_depth,
                         min_samples_split=min_samples_split, seed=6)
        self.assert_same_trees(monkeypatch, X, y, cfg)

    def test_leaf_ids_predict_the_training_rows(self, datagen_matrix):
        table, y = datagen_matrix
        for X, targets in (awkward_columns(), (table.matrix().astype(np.float64), y)):
            grower = sglb._TreeGrower(sglb._Binned(X, 255), 4, 2)
            tree, leaf_of = grower.grow(np.column_stack([targets, targets ** 2]))
            assert tree.n_nodes > 1
            assert np.array_equal(leaf_of, tree_leaves(tree, X))

    @settings(max_examples=200, deadline=None)
    @given(grower_cases())
    # Each example's tree mixes leaf pairs at max_depth, leaf pairs below
    # min_samples_split and leaves where no cut had positive gain.
    @example((*grower_case(60, _COLUMN_KINDS, 1, 0.3, 1), 4, 6, 255))
    @example((*grower_case(60, _COLUMN_KINDS, 4, 0.3, 2), 5, 8, 255))
    @example((*grower_case(60, _COLUMN_KINDS, 5, 0.3, 2), 4, 6, 7))
    def test_grower_matches_reference_on_drawn_matrices(self, case):
        X, targets, max_depth, min_samples_split, max_bins = case
        tree, leaf_of = sglb._TreeGrower(sglb._Binned(X, max_bins), max_depth,
                                         min_samples_split).grow(targets)
        reference, _ = ReferenceTreeGrower(ReferenceBinned(X, max_bins), max_depth,
                                           min_samples_split).grow(targets)
        assert tree == reference
        assert np.array_equal(leaf_of, tree_leaves(reference, X))

    def test_duplicates_keep_their_first_column(self):
        X, _ = awkward_columns()
        binned = sglb._Binned(X, 255)
        assert binned.active.tolist() == [1, 2, 4, 9]  # 3, 6, 7, 8 repeat earlier codes
        # a row is as wide as the most bins any kept column occupies
        assert binned.width == max(
            np.unique(np.searchsorted(binned.edges[f], X[:, f], side="left")).size
            for f in binned.active)

    @pytest.mark.parametrize("max_bins", [2, 7, 255])
    def test_one_to_255_distinct_values(self, monkeypatch, max_bins):
        X, y = distinct_value_columns()
        cfg = SglbConfig(iterations=6, max_depth=3, max_bins=max_bins,
                         min_samples_split=5, seed=2)
        self.assert_same_trees(monkeypatch, X, y, cfg)

    @pytest.mark.parametrize("max_bins", [2, 7, 255])
    def test_classification(self, monkeypatch, max_bins):
        X, y = awkward_columns(seed=8)
        y = (y > np.median(y)).astype(float)
        cfg = SglbConfig(task=TASK_CLASSIFICATION, iterations=15, max_depth=3,
                         max_bins=max_bins, min_samples_split=4, seed=3)
        self.assert_same_trees(monkeypatch, X, y, cfg)

    @pytest.mark.parametrize("max_bins", [2, 7, 255])
    @pytest.mark.parametrize("task", TASKS)
    def test_few_occupied_bins(self, monkeypatch, task, max_bins):
        X, y = few_level_columns()
        if task == TASK_CLASSIFICATION:
            y = (y > np.median(y)).astype(float)
        binned = sglb._Binned(X, max_bins)
        if max_bins == 255:
            assert max(e.size for e in binned.edges) > 2 * binned.width
        cfg = SglbConfig(task=task, iterations=15, max_depth=3, max_bins=max_bins,
                         min_samples_split=4, seed=8)
        self.assert_same_trees(monkeypatch, X, y, cfg)

    def test_every_feature_constant(self, monkeypatch):
        X = np.ones((20, 3))
        y = np.arange(20.0)
        self.assert_same_trees(monkeypatch, X, y, SglbConfig(iterations=3, seed=4))

    @pytest.mark.parametrize("kinds", [(k,) for k in FILTRATION_KINDS] + [FILTRATION_KINDS],
                             ids=lambda kinds: "+".join(k[:4] for k in kinds))
    def test_datagen_ablation_slices(self, monkeypatch, datagen_matrix, kinds):
        table, y = datagen_matrix
        X = slice_table(table, kinds).matrix().astype(np.float64)
        cfg = SglbConfig(iterations=20, max_depth=4, seed=5)
        self.assert_same_trees(monkeypatch, X, y, cfg)


class TestStackedPredict:
    """raw_predict walks all of a member's trees at once; it must give the
    tree-by-tree fold of the one-tree walk bit for bit."""

    @staticmethod
    def queries(X):
        """The training rows, none, one, and rows far outside the training range."""
        far = np.vstack([X.max(axis=0) + 1e6, X.min(axis=0) - 1e6, 1e300 * np.sign(X[:3])])
        return X, X[:0], X[:1], X[[5]], far, np.vstack([far, X])

    @pytest.mark.parametrize("walk_cells", [sglb._WALK_CELLS, 50, 1])
    @pytest.mark.parametrize("task", TASKS)
    def test_equals_the_tree_by_tree_fold(self, monkeypatch, task, walk_cells):
        # walk_cells 50 and 1 walk the trees in blocks, down to one tree per walk.
        monkeypatch.setattr(sglb, "_WALK_CELLS", walk_cells)
        X, y = awkward_columns(seed=12)
        if task == TASK_CLASSIFICATION:
            y = (y > np.median(y)).astype(float)
        cfg = SglbConfig(task=task, iterations=12, max_depth=5, ensemble_size=2, seed=4)
        ensemble = fit_ensemble(X, y, cfg)
        back = ensemble_from_dict(json.loads(json.dumps(ensemble_to_dict(ensemble))))
        model = ensemble.members[0]
        stump = sglb.Tree(np.array([-1], dtype=np.int32), np.zeros(1),
                          np.array([-1], dtype=np.int32), np.array([-1], dtype=np.int32),
                          np.full((1, model.base.size), 0.75))
        mixed = replace(model, trees=(stump, *model.trees[:5], stump, *model.trees[5:], stump))
        # every feature constant: every tree is one leaf
        stumps = fit(np.ones((20, 3)), np.arange(20.0) % 2, replace(cfg, iterations=4))
        assert max(t.n_nodes for t in mixed.trees) > 15  # full-depth trees among the stumps
        for member in (*ensemble.members, *back.members, mixed):
            for Q in self.queries(X):
                assert (member.raw_predict(Q).tobytes()
                        == raw_predict_tree_by_tree(member, Q).tobytes())
        for Q in self.queries(np.ones((20, 3))):
            assert stumps.raw_predict(Q).tobytes() == raw_predict_tree_by_tree(stumps, Q).tobytes()


class TestEnsemble:
    def test_member_seeds_and_count(self):
        X, y = toy_regression()
        cfg = SglbConfig(iterations=10, max_depth=3, ensemble_size=4, seed=100)
        ens = fit_ensemble(X, y, cfg)
        assert [m.config.seed for m in ens.members] == [100, 101, 102, 103]

    def test_members_equal_separate_fits(self, datagen_matrix):
        # The members share one binning; each is still the model fit() trains alone.
        table, y = datagen_matrix
        X = table.matrix().astype(np.float64)
        cfg = SglbConfig(iterations=8, max_depth=3, ensemble_size=3, seed=20)
        ens = fit_ensemble(X, y, cfg)
        for m, member in enumerate(ens.members):
            alone = fit(X, y, replace(cfg, seed=cfg.seed + m))
            assert member.trees == alone.trees
            assert np.array_equal(member.base, alone.base)

    def test_single_member_has_zero_knowledge(self):
        X, y = toy_regression()
        cfg = SglbConfig(iterations=15, max_depth=3, ensemble_size=1, seed=0)
        report = decompose(fit_ensemble(X, y, cfg), X)
        assert np.allclose(report.knowledge, 0.0)

    def test_ten_members_are_distinct(self):
        X, y = toy_regression()
        cfg = SglbConfig(iterations=12, max_depth=3, ensemble_size=10, seed=0)
        ens = fit_ensemble(X, y, cfg)
        preds = np.vstack([m.raw_predict(X)[:, 0] for m in ens.members])
        assert len({tuple(np.round(p, 12)) for p in preds}) == 10

    def test_bit_identical_rerun_and_thread_independence(self):
        X, y = toy_regression()
        cfg = SglbConfig(iterations=10, max_depth=3, ensemble_size=3, seed=5)
        a = fit_ensemble(X, y, cfg, threads=1)
        b = fit_ensemble(X, y, cfg, threads=3)
        for ma, mb in zip(a.members, b.members):
            assert ma.trees == mb.trees
        assert np.array_equal(decompose(a, X).total,
                              decompose(b, X).total)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers inherit the patched function")
    def test_dead_worker_names_the_ensemble(self, monkeypatch):
        X, y = toy_regression(n=40)
        cfg = SglbConfig(iterations=3, max_depth=2, ensemble_size=3, seed=7)
        real = sglb.fit

        def dies_on_seed_8(X, y, config, *args):
            if config.seed == 8:
                os._exit(1)
            return real(X, y, config, *args)

        monkeypatch.setattr(sglb, "fit", dies_on_seed_8)
        with pytest.raises(MoltopError, match="3-member ensemble with seed 7") as info:
            fit_ensemble(X, y, cfg, threads=2)
        assert type(info.value) is MoltopError  # the CLI's exit 4, not a data error

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers inherit the patched function")
    def test_dead_worker_in_a_later_ensemble_names_that_ensemble(self, monkeypatch,
                                                                 tmp_path):
        # The second ensemble is wider, so its members (seeds 20-21) are
        # submitted first.  The member with seed 21 dies only once the first
        # ensemble's members (seeds 7-9) have returned, so one result (seed 20)
        # came back and the first missing one belongs to the second ensemble,
        # while the second member in job order belongs to the first.
        X, y = toy_regression(n=40)
        first = SglbConfig(iterations=3, max_depth=2, ensemble_size=3, seed=7)
        second = replace(first, ensemble_size=2, seed=20)
        real = sglb.fit

        def dies_on_seed_21(X, y, config, *args):
            if config.seed == 21:
                for _ in range(1000):
                    if len(list(tmp_path.iterdir())) == 3:
                        break
                    time.sleep(0.01)
                time.sleep(0.5)  # lets the returned results reach the parent
                os._exit(1)
            model = real(X, y, config, *args)
            if config.seed < 20:
                (tmp_path / str(config.seed)).touch()
            return model

        monkeypatch.setattr(sglb, "fit", dies_on_seed_21)
        with pytest.raises(MoltopError, match="2-member ensemble with seed 20") as info:
            fit_ensembles([(X[:, :3], y, first, None), (X, y, second, None)], threads=2)
        assert type(info.value) is MoltopError  # the CLI's exit 4, not a data error

    def test_members_are_submitted_widest_first_and_returned_in_job_order(self, monkeypatch):
        X, y = toy_regression(n=40)
        base = SglbConfig(iterations=2, max_depth=2, ensemble_size=2)
        jobs = [(X[:, :2], y, replace(base, seed=1), None), (X, y, replace(base, seed=5), None),
                (X[:, :4], y, replace(base, seed=9), None)]
        submitted, real = [], sglb.process_map

        def recording(fn, tasks, threads, lost):
            submitted.extend((task[2].seed, task[4].codes.size) for task in tasks)
            return real(fn, tasks, threads, lost)

        monkeypatch.setattr(sglb, "process_map", recording)
        ensembles = fit_ensembles(jobs)
        assert submitted == [(5, 240), (6, 240), (9, 160), (10, 160), (1, 80), (2, 80)]
        assert [[m.config.seed for m in e.members] for e in ensembles] == [[1, 2], [5, 6], [9, 10]]
        for ensemble, job in zip(ensembles, jobs):
            assert ensemble_to_dict(ensemble) == ensemble_to_dict(fit_ensemble(*job))

    def test_one_fan_out_equals_separate_serial_fits(self):
        # Jobs differing in task, column count, layout and ensemble size: one
        # fan-out on two workers fits each ensemble as fit_ensemble does alone.
        X, y = toy_regression(n=80)
        Xc, yc = toy_classification(n=80)
        layout = FingerprintLayout("1", ("ATOMIC_MASS",), 5)
        rng = np.random.default_rng(4)
        wide = np.hstack([X, rng.integers(0, 5, (80, layout.length - X.shape[1]))])
        base = SglbConfig(iterations=6, max_depth=3)
        jobs = [(X[:, :3], y, replace(base, ensemble_size=1, seed=3), None),
                (wide, y, replace(base, ensemble_size=2, seed=10), layout),
                (Xc, yc, replace(base, task=TASK_CLASSIFICATION, ensemble_size=3,
                                 seed=0), None)]
        ensembles = fit_ensembles(jobs, threads=2)
        assert len(ensembles) == len(jobs)
        for ensemble, job in zip(ensembles, jobs):
            alone = fit_ensemble(*job, threads=1)
            assert ensemble_to_dict(ensemble) == ensemble_to_dict(alone)
            assert ensemble.train_seconds > 0

    @pytest.mark.parametrize("task", TASKS)
    def test_one_row_decomposes_as_within_the_batch(self, task):
        # Ten members: numpy would sum a lone row's member column pairwise
        # but a wider matrix member by member.
        X, y = toy_regression(n=60) if task != TASK_CLASSIFICATION else toy_classification(n=60)
        cfg = SglbConfig(task=task, iterations=6, max_depth=2, ensemble_size=10, seed=3)
        ens = fit_ensemble(X, y, cfg)
        batch = decompose(ens, X)
        for i in range(len(X)):
            alone, within = decompose(ens, X[[i]]), batch.take([i])
            for field in ("prediction", "total", "knowledge", "data"):
                assert getattr(alone, field).tobytes() == getattr(within, field).tobytes(), \
                    (i, field)


class TestUncertainty:
    def test_all_members_half_probability(self):
        report = classification_uncertainty(np.full((8, 3), 0.5))
        assert np.allclose(report.total, math.log(2))
        assert np.allclose(report.data, math.log(2))
        assert np.allclose(report.knowledge, 0.0)

    def test_members_split_zero_one(self):
        probs = np.array([[0.0], [1.0], [0.0], [1.0]])
        report = classification_uncertainty(probs)
        assert report.total[0] == pytest.approx(math.log(2))
        assert report.data[0] == 0.0
        assert report.knowledge[0] == pytest.approx(math.log(2))

    def test_entropy_identity_random_members(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(0, 1, size=(16, 50))
        report = classification_uncertainty(probs)
        assert np.all(np.abs(report.total - (report.knowledge + report.data)) < 1e-12)
        assert np.all(report.knowledge >= -1e-12)

    def test_total_variance_example(self):
        report = regression_uncertainty(np.array([[0.0], [2.0]]),
                                        np.array([[1.0], [1.0]]))
        assert report.knowledge[0] == pytest.approx(1.0)
        assert report.data[0] == pytest.approx(1.0)
        assert report.total[0] == pytest.approx(2.0)

    def test_variance_identity_random_members(self):
        rng = np.random.default_rng(1)
        means = rng.normal(size=(12, 40))
        variances = rng.uniform(0.1, 2.0, size=(12, 40))
        report = regression_uncertainty(means, variances)
        assert np.all(np.abs(report.total - (report.knowledge + report.data)) < 1e-12)

    def test_ood_knowledge_grows_off_support(self):
        # Steep structure at the right edge of the support forces thin,
        # contested boundary leaves; inputs beyond the support inherit them,
        # so ensemble disagreement is largest off-support.
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 400)
        y = 1.0 / (1.05 - x) + 0.05 * rng.normal(size=400)
        cfg = SglbConfig(iterations=150, max_depth=3, ensemble_size=8, seed=0)
        ens = fit_ensemble(x[:, None], y, cfg)
        on = decompose(ens, np.linspace(0, 1, 50)[:, None])
        off = decompose(ens, np.linspace(3, 4, 50)[:, None])
        assert np.median(off.knowledge) > np.median(on.knowledge)


class TestRanking:
    def make_ensemble(self):
        X, y = toy_regression()
        return fit_ensemble(X, y, SglbConfig(iterations=10, max_depth=3,
                                             ensemble_size=4, seed=0)), X

    def test_descending_scores_with_id_ties(self):
        ens, X = self.make_ensemble()
        ids = [f"id{i}" for i in range(len(X))]
        top = rank_by_uncertainty(ens, ids, X, "KNOWLEDGE", 5)
        report = decompose(ens, X)
        scores = dict(zip(ids, report.knowledge))
        assert len(top) == 5
        values = [scores[i] for i in top]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_k(self):
        ens, X = self.make_ensemble()
        assert rank_by_uncertainty(ens, ["a"], X[:1], "TOTAL", 0) == []

    def test_clamp_with_warning(self):
        ens, X = self.make_ensemble()
        with pytest.warns(UserWarning):
            top = rank_by_uncertainty(ens, ["a", "b"], X[:2], "TOTAL", 10)
        assert len(top) == 2

    def test_tie_break_on_ascending_id(self):
        # single member -> knowledge identically zero -> pure id ordering
        X, y = toy_regression()
        ens = fit_ensemble(X, y, SglbConfig(iterations=5, ensemble_size=1, seed=0))
        ids = ["w", "a", "m", "b"]
        top = rank_by_uncertainty(ens, ids, X[:4], "KNOWLEDGE", 4)
        assert top == ["a", "b", "m", "w"]

    def test_unknown_criterion(self):
        ens, X = self.make_ensemble()
        with pytest.raises(ConfigError):
            rank_by_uncertainty(ens, ["a"], X[:1], "SPICINESS", 1)


class TestSerialization:
    def test_roundtrip_is_bit_exact(self):
        X, y = toy_regression()
        layout = FingerprintLayout("1", ("ATOMIC_MASS",), 5)
        X = X[:, :1] @ np.ones((1, layout.length))  # widen to layout length
        cfg = SglbConfig(iterations=8, max_depth=3, ensemble_size=2, seed=0)
        ens = fit_ensemble(X, y, cfg, layout=layout)
        back = ensemble_from_dict(json.loads(json.dumps(ensemble_to_dict(ens))))
        assert back.config == ens.config
        assert np.array_equal(decompose(back, X).prediction,
                              decompose(ens, X).prediction)
        for ma, mb in zip(ens.members, back.members):
            assert ma.trees == mb.trees
            assert ma.layout == mb.layout

    @pytest.mark.parametrize("toy,task", [(toy_regression, TASK_REGRESSION),
                                          (toy_classification, TASK_CLASSIFICATION)])
    def test_saved_bytes_are_the_pure_python_encoders(self, tmp_path, toy, task):
        # JSONEncoder.iterencode without _one_shot is the encoder json.dump runs
        X, y = toy()
        ens = fit_ensemble(X, y, SglbConfig(task=task, iterations=6, max_depth=3,
                                            ensemble_size=2, seed=0))
        path = tmp_path / "model.json"
        sglb.save_ensemble(ens, path)
        want = "".join(json.JSONEncoder(sort_keys=True).iterencode(ensemble_to_dict(ens)))
        assert path.read_bytes() == (want + "\n").encode("utf-8")

    def test_layout_refusal(self):
        X, y = toy_regression()
        layout = FingerprintLayout("1", ("ATOMIC_MASS",), 5)
        X = X[:, :1] @ np.ones((1, layout.length))
        ens = fit_ensemble(X, y, SglbConfig(iterations=4, ensemble_size=2, seed=0),
                           layout=layout)
        other = FingerprintLayout("1", ("ATOMIC_MASS",), 6)
        with pytest.raises(LayoutMismatchError):
            ens.require_layout(other)

    def test_unsupported_format_version(self):
        X, y = toy_regression()
        ens = fit_ensemble(X, y, SglbConfig(iterations=3, ensemble_size=2, seed=0))
        doc = ensemble_to_dict(ens)
        doc["format_version"] = "99"
        with pytest.raises(ConfigError):
            ensemble_from_dict(doc)
