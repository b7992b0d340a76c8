import json
import math
from dataclasses import replace

import numpy as np
import pytest

from moltop import sglb
from moltop.datagen import generate_dataset
from moltop.errors import ConfigError, DataError, LayoutMismatchError
from moltop.filtration import FILTRATION_KINDS
from moltop.molgraph import DatasetRecord
from moltop.sglb import (
    SglbConfig,
    TASK_CLASSIFICATION,
    classification_uncertainty,
    decompose,
    ensemble_from_dict,
    ensemble_to_dict,
    fit,
    fit_ensemble,
    quantile_bin_edges,
    rank_by_uncertainty,
    regression_uncertainty,
)
from moltop.vectorize import FingerprintLayout, fingerprint_dataset, slice_table

from oracles import (
    ReferenceBinned,
    ReferenceTreeGrower,
    fit_classical_reference,
    quantile_bin_edges_loop,
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
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SglbConfig(**kwargs)

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
        expected = keep * model.base[0] + cfg.learning_rate * model.trees[0].predict(X)[:, 0]
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


def distinct_value_columns(n=300, seed=6):
    """One column per distinct-value count 1..255, each value drawn at least once."""
    rng = np.random.default_rng(seed)
    cols = [rng.permutation(np.arange(n) % k).astype(float) * 0.5 for k in range(1, 256)]
    X = np.column_stack(cols)
    y = X[:, 4] - 0.01 * X[:, 200] + 0.1 * rng.normal(size=n)
    return X, y


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
            assert np.array_equal(tree.value[leaf_of], tree.predict(X))

    def test_duplicates_keep_their_first_column(self):
        X, _ = awkward_columns()
        binned = sglb._Binned(X, 255)
        assert binned.active.tolist() == [1, 2, 4, 9]  # 3, 6, 7, 8 repeat earlier codes
        assert binned.width == 1 + max(e.size for e in binned.edges)

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
