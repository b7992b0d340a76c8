"""Gradient-boosted trees with Langevin noise and ensemble uncertainty.

Each boosting step fits a depth-bounded least-squares tree to the per-sample
negative gradients of the loss, optionally perturbed by Gaussian noise with
variance 2 / (beta * learning_rate), and folds it in with a shrinking update
F <- (1 - gamma * eta) * F + eta * h.  Regression trees carry a two-column
output (mean shift, log-variance shift) trained against the Gaussian
negative log-likelihood; classification trees carry one logit column trained
against log-loss.

Trees grow from histograms of quantile-binned codes, binned once per ensemble.
A column whose codes repeat an earlier column's is dropped, and each kept
column's codes are ranked among the codes it occupies, so a histogram row is
as wide as the most codes any kept column occupies.  One bincount fills the
count and target rows, and the split search scores only the cuts with rows on
both sides.  A leaf value reads code column 0 alone: when both children of a
split are leaves, one bincount after the walk counts that column for every
such pair's smaller child, and all leaf values come from one sum.  The
training predictions F are updated from each row's leaf id.  The trees equal a
256-slot grower's bit for bit: argmax keeps the first maximum, cumsum is
sequential so empty slots change no prefix, bincount adds each slot's rows in
ascending order, and a leaf value is summed over a zero-padded 256-slot row
with each total at its original code, because np.sum is pairwise and its
rounding depends on where the values sit.

Prediction walks all of a model's trees at once, one level per step, then
folds their values into F tree by tree in the order they were fitted.

Ensembles are independently seeded models; disagreement among members gives
the knowledge (epistemic) part of the uncertainty, the average per-member
spread gives the data (aleatoric) part.
"""

from dataclasses import asdict, dataclass, field, replace

import functools
import json
import math
import time
import typing
import warnings

import numpy as np

from .errors import ConfigError, DataError, LayoutMismatchError, process_map, read_json, typed
from .vectorize import FingerprintLayout, _distinct

TASK_REGRESSION = "REGRESSION_WITH_UNCERTAINTY"
TASK_CLASSIFICATION = "BINARY_CLASSIFICATION"
TASKS = (TASK_REGRESSION, TASK_CLASSIFICATION)

MODEL_FORMAT_VERSION = "1"
_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class SglbConfig:
    task: str = TASK_REGRESSION
    iterations: int = 1000
    max_depth: int = 6
    learning_rate: float = 0.05
    min_samples_split: int = 2
    # Inverse diffusion temperature; None means "training-set size" and
    # math.inf disables the gradient noise entirely.
    beta: float | None = None
    gamma: float = 1e-4
    ensemble_size: int = 10
    max_bins: int = 255
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.iterations < 1 or self.max_depth < 1 or self.ensemble_size < 1:
            raise ConfigError("iterations, max_depth and ensemble_size must be >= 1")
        if self.min_samples_split < 1:
            raise ConfigError(f"min_samples_split must be >= 1, got {self.min_samples_split}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate must be in (0, 1]")
        if self.beta is not None and not self.beta > 0:
            raise ConfigError("beta must be positive")
        if not self.gamma >= 0:  # `not >=` also rejects NaN
            raise ConfigError("gamma must be non-negative")
        if self.gamma * self.learning_rate >= 1.0:
            raise ConfigError("gamma * learning_rate must be below 1")
        if not 2 <= self.max_bins <= 255:
            raise ConfigError("max_bins must be in [2, 255]")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        doc = asdict(self)
        return {**doc, "beta": "inf"} if self.beta == math.inf else doc

    @classmethod
    def from_dict(cls, doc: dict, error=ConfigError) -> "SglbConfig":
        """Config from its JSON object; an unknown key or a value whose JSON type
        does not fit the field raises ``error``."""
        if not isinstance(doc, dict):
            raise error("sglb config is not an object")
        doc = {**doc, "beta": math.inf} if doc.get("beta") == "inf" else doc
        for key, value in doc.items():
            field = cls.__dataclass_fields__.get(key)
            if field is None:
                raise error(f"unknown sglb config key {key!r}")
            kinds = typing.get_args(field.type) or (field.type,)
            kinds += (int,) if float in kinds else ()
            typed(value, kinds, f"sglb config {key}", error)
        try:
            return cls(**doc)
        except ConfigError as exc:
            raise error(str(exc)) from None


@dataclass
class Tree:
    feature: np.ndarray    # int32, -1 at leaves
    threshold: np.ndarray  # float64; go left when x[feature] <= threshold
    left: np.ndarray       # int32 child ids
    right: np.ndarray
    value: np.ndarray      # float64 (nodes, out_dim); meaningful at leaves
    _ARRAYS = ("feature", "threshold", "left", "right", "value")  # not a field: no annotation

    def __eq__(self, other):
        return isinstance(other, Tree) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in self._ARRAYS)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def to_dict(self) -> dict:
        return {a: getattr(self, a).tolist() for a in self._ARRAYS}

    @classmethod
    def from_dict(cls, doc: dict) -> "Tree":
        """Tree from its JSON form; DataError unless every array holds one entry
        per node and each split node's children come after it."""
        feature, threshold, left, right, value = _fields(doc, cls._ARRAYS, "tree")
        feature, left, right = (_array(a, "iu", 1, "tree ids") for a in (feature, left, right))
        threshold = _array(threshold, "iuf", 1, "tree thresholds")
        value = _array(value, "iuf", 2, "tree values")
        n, split = len(feature), np.flatnonzero(feature >= 0)
        if any(len(a) != n for a in (threshold, left, right, value)):
            raise DataError("tree arrays differ in length")
        if not all(((c[split] > split) & (c[split] < n)).all() for c in (left, right)):
            raise DataError("a tree child id is not after its parent")
        return cls(feature.astype(np.int32), threshold.astype(np.float64),
                   left.astype(np.int32), right.astype(np.int32),
                   value.astype(np.float64))


# ---------------------------------------------------------------------------
# Histogram tree growing

def quantile_bin_edges(X: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """Per-feature ascending split-candidate values from training quantiles (see
    ``_column_edges``); none for a constant feature."""
    edges = [np.empty(0)] * X.shape[1]
    varying = np.flatnonzero((X != X[0]).any(axis=0))
    for f, e in zip(varying, _column_edges(X[:, varying], max_bins)):
        edges[f] = e
    return edges


def _column_edges(columns: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """Each column's distinct ``np.quantile(..., method="linear")`` values, taken
    from one sort of the columns by numpy's own rule (virtual index (n-1)q and
    its ``_lerp``), so the edges are numpy's up to the sign of a zero."""
    if columns.shape[1] == 0:  # nothing to sort, and maybe a single row
        return []
    ordered = np.sort(columns, axis=0)
    # every prob is below 1, so every index is below the last row's
    index = (len(columns) - 1) * np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    below = np.floor(index)
    gamma = (index - below)[:, None]
    low, high = ordered[below.astype(np.intp)], ordered[below.astype(np.intp) + 1]
    diff = high - low
    quantiles = np.where(gamma >= 0.5, high - diff * (1 - gamma), low + diff * gamma)
    # rising with the level, as np.unique would sort them: keep the first of
    # each run of equal values
    fresh = np.ones(quantiles.shape, dtype=bool)
    fresh[1:] = quantiles[1:] != quantiles[:-1]
    return [quantiles[fresh[:, j], j] for j in range(columns.shape[1])]


class _Binned:
    """Quantile-binned training features, one code column per distinct varying one.

    A kept column's code is the rank of the row's quantile bin among the bins
    the column occupies, so cut ``r`` of column ``j`` is the threshold
    ``edges[active[j]][occupied[j][r]]``.  Equal feature columns share their
    edges and bins, so each is binned once; of columns with equal bins, the
    first is kept."""

    def __init__(self, X: np.ndarray, max_bins: int):
        varying = np.flatnonzero((X != X[0]).any(axis=0))
        firsts, copy_of = _distinct(X[:, varying].T)
        columns = X[:, varying[firsts]]
        edges = _column_edges(columns, max_bins)
        self.edges = [np.empty(0)] * X.shape[1]
        for f, c in zip(varying.tolist(), copy_of.tolist()):
            self.edges[f] = edges[c]
        bins = np.empty((len(edges), X.shape[0]), dtype=np.uint8)
        for j, e in enumerate(edges):
            # bin <= c exactly when x <= e[c]
            bins[j] = np.searchsorted(e, columns[:, j], side="left")
        keep = _distinct(bins)[0]
        bins = bins[keep]
        self.active = varying[firsts[keep]]
        # a bin's rank among the bins its column occupies: the count of occupied
        # bins up to it, less one
        occupancy = np.zeros((keep.size, 256), dtype=bool)
        occupancy[np.arange(keep.size)[:, None], bins] = True
        rank = np.cumsum(occupancy, axis=1, dtype=np.uint8) - np.uint8(1)
        self.codes = np.take_along_axis(rank, bins, axis=1).T.copy()
        self.occupied = [np.flatnonzero(o) for o in occupancy]  # ascending codes
        self.width = int(occupancy.sum(axis=1).max(initial=0))
        # histogram slot of each row's code: column j's slots start at j * width
        self.slots = self.codes + np.arange(keep.size, dtype=np.intp) * self.width


class _TreeGrower:
    def __init__(self, binned: _Binned, max_depth: int, min_samples_split: int):
        self.binned = binned
        self.max_depth = max_depth
        self.min_split = max(2, min_samples_split)  # a node of one row has no cut

    def _histogram(self, slots: np.ndarray, idx: np.ndarray, targets: np.ndarray,
                   ncols: int) -> np.ndarray:
        """Row counts and target sums, (1 + dim, ncols, width), of the rows ``idx``;
        ``slots`` holds each row's slots, all below ncols * width."""
        width = self.binned.width
        rows, size = 1 + targets.shape[1], ncols * width
        flat = slots + np.arange(0, rows * size, size)[:, None, None]
        weights = np.empty(flat.shape)
        weights[0] = 1.0
        weights[1:] = targets[idx].T[:, :, None]
        hist = np.bincount(flat.ravel(), weights.ravel(), minlength=rows * size)
        return hist.reshape(rows, ncols, width)

    def _best_split(self, hist: np.ndarray):
        width = self.binned.width
        sums = hist.cumsum(axis=2).reshape(hist.shape[0], -1)
        cnt, m = sums[0], sums[0, width - 1]
        cand = ((cnt > 0) & (cnt < m)).nonzero()[0]  # never a column's last slot
        if cand.size == 0:
            return None
        # take and a contiguous total: broadcasting over strided views is slow
        nl, sl = cnt[cand], sums[1:].take(cand, axis=1)
        total = sums[1:, width - 1:width].copy()  # column 0's: others round differently
        gain = (sl * sl / nl + (total - sl) ** 2 / (m - nl)).sum(axis=0)
        gain -= (total * total / m).sum()
        best = int(gain.argmax())
        if not gain[best] > _MIN_GAIN:
            return None
        return divmod(int(cand[best]), width)

    def grow(self, targets: np.ndarray) -> tuple[Tree, np.ndarray]:
        """The tree fitted to ``targets`` and each training row's leaf id."""
        n, dim = targets.shape
        binned = self.binned
        ncand = len(binned.active)
        feature, threshold, left, right = [-1], [0.0], [-1], [-1]
        if ncand == 0:  # every feature constant: nothing to split on
            return Tree(np.array(feature, dtype=np.int32), np.array(threshold),
                        np.array(left, dtype=np.int32), np.array(right, dtype=np.int32),
                        targets.mean(axis=0)[None]), np.zeros(n, dtype=np.intp)
        # Each leaf's node id, rows and code column 0 of its histogram, the only
        # column a leaf value reads.  When both children of a split are leaves,
        # their histograms wait for one pass after the walk, which reads the
        # parent's column 0 and the smaller child's rows.
        leaves, leaf_rows, leaf_hists, pairs = [], [], [], []
        stack = [(0, np.arange(n, dtype=np.intp), 0, None)]
        while stack:
            node, idx, depth, hist = stack.pop()
            if hist is None:
                hist = self._histogram(binned.slots[idx], idx, targets, ncand)
            split = None
            if depth < self.max_depth and len(idx) >= self.min_split:
                split = self._best_split(hist)
            if split is None:
                leaves.append(node)
                leaf_rows.append(idx)
                leaf_hists.append(hist[:, 0].copy())  # frees the node's full histogram
                continue
            j, cut = split
            go_left = binned.codes[idx, j] <= cut
            left_idx, right_idx = idx[go_left], idx[~go_left]
            f = binned.active[j]
            feature[node] = int(f)
            threshold[node] = float(binned.edges[f][binned.occupied[j][cut]])
            lchild, rchild = len(feature), len(feature) + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            right += [-1, -1]
            left[node], right[node] = lchild, rchild
            if len(left_idx) <= len(right_idx):
                small_idx, big_idx, small_node, big_node = left_idx, right_idx, lchild, rchild
            else:
                small_idx, big_idx, small_node, big_node = right_idx, left_idx, rchild, lchild
            if depth + 1 >= self.max_depth or len(big_idx) < self.min_split:
                pairs.append((small_node, big_node, small_idx, big_idx, hist[:, 0].copy()))
                continue
            small_hist = self._histogram(binned.slots[small_idx], small_idx, targets, ncand)
            stack.append((big_node, big_idx, depth + 1, hist - small_hist))
            stack.append((small_node, small_idx, depth + 1, small_hist))

        if pairs:
            # One bincount gives every smaller child's column 0, pair p's at slot
            # offset p * width, each slot summing its rows in ascending order as a
            # histogram of that child alone would; the larger child's is the
            # parent's minus it.
            small_nodes, big_nodes, small_rows, big_rows, parents = zip(*pairs)
            rows = np.concatenate(small_rows)
            slots = binned.slots[rows, :1] + np.repeat(
                np.arange(len(pairs)) * binned.width, [len(r) for r in small_rows])[:, None]
            small = self._histogram(slots, rows, targets, len(pairs))
            big = np.stack(parents, axis=1) - small
            leaves += small_nodes + big_nodes
            leaf_rows += small_rows + big_rows
            leaf_hists += [*small.transpose(1, 0, 2), *big.transpose(1, 0, 2)]
        # np.sum is pairwise: its rounding depends on where the totals sit
        occupied = binned.occupied[0]
        padded = np.zeros((len(leaves), dim, 256))
        padded[:, :, occupied] = np.stack(leaf_hists)[:, 1:, :occupied.size]
        counts = np.array([len(rows) for rows in leaf_rows])
        value = np.zeros((len(feature), dim))
        value[leaves] = padded.sum(axis=2) / counts[:, None]
        leaf_of = np.empty(n, dtype=np.intp)
        leaf_of[np.concatenate(leaf_rows)] = np.repeat(leaves, counts)
        return Tree(np.array(feature, dtype=np.int32),
                    np.array(threshold, dtype=np.float64),
                    np.array(left, dtype=np.int32),
                    np.array(right, dtype=np.int32),
                    value), leaf_of


# ---------------------------------------------------------------------------
# Losses

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _regression_negative_gradients(F: np.ndarray, y: np.ndarray) -> np.ndarray:
    var = np.exp(np.clip(F[:, 1], -30.0, 30.0))
    resid = y - F[:, 0]
    out = np.empty_like(F)
    out[:, 0] = resid / var
    out[:, 1] = 0.5 * (resid * resid / var - 1.0)
    return out


def _classification_negative_gradients(F: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (y - _sigmoid(F[:, 0]))[:, None]


def _base_prediction(task: str, y: np.ndarray) -> np.ndarray:
    if task == TASK_REGRESSION:
        var = float(np.var(y))
        return np.array([float(np.mean(y)), math.log(max(var, 1e-12))])
    rate = min(max(float(np.mean(y)), 1e-6), 1.0 - 1e-6)
    return np.array([math.log(rate / (1.0 - rate))])


def _validate_training_data(X, y, task):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise DataError("features must be a non-empty 2-D table")
    if y.shape != (X.shape[0],):
        raise DataError("targets must align with the feature rows")
    if not np.isfinite(X).all():
        raise DataError("features contain non-finite values")
    if not np.isfinite(y).all():
        raise DataError("targets contain non-finite values")
    if task == TASK_CLASSIFICATION:
        binary_labels(y)
    return X, y


def binary_labels(y) -> np.ndarray:
    """``y`` as floats, if its labels are 0/1 and both classes occur."""
    y = np.asarray(y, dtype=np.float64)
    classes = np.unique(y)
    if not np.isin(classes, (0.0, 1.0)).all():
        raise DataError("classification targets must be 0/1")
    if classes.size < 2:
        raise DataError("classification needs both classes present")
    return y


# ---------------------------------------------------------------------------
# Models

@dataclass(frozen=True)
class SglbModel:
    config: SglbConfig
    base: np.ndarray                  # (out_dim,)
    trees: tuple[Tree, ...]
    feature_count: int
    layout: FingerprintLayout | None = None

    def raw_predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise DataError(f"expected {self.feature_count} feature columns")
        keep = 1.0 - self.config.gamma * self.config.learning_rate
        eta = self.config.learning_rate
        F = np.tile(self.base, (len(X), 1))
        block = max(1, _WALK_CELLS // max(1, len(X)))
        for first in range(0, len(self.trees), block):
            for value in _leaf_values(self.trees[first:first + block], X):
                F = keep * F + eta * value
        return F


_WALK_CELLS = 1 << 15  # (tree, row) cells per walk, or one tree: bounds the walk's arrays


def _leaf_values(trees: tuple[Tree, ...], X: np.ndarray) -> np.ndarray:
    """Each tree's prediction for each row of X, (trees, rows, out_dim).

    The trees are laid end to end and walked together, one level per step,
    until no row of any tree stands at a split node."""
    sizes = [len(t.feature) for t in trees]
    first = np.cumsum([0] + sizes[:-1])
    feature = np.concatenate([t.feature for t in trees])
    split = feature >= 0
    ids, offset = np.arange(len(feature)), np.repeat(first, sizes)
    # a leaf's children are itself, so a row that reaches it stays there
    left = np.where(split, np.concatenate([t.left for t in trees]) + offset, ids)
    right = np.where(split, np.concatenate([t.right for t in trees]) + offset, ids)
    threshold = np.concatenate([t.threshold for t in trees])
    node = np.repeat(first, len(X)).reshape(len(trees), len(X))
    rows = np.arange(len(X))
    while split[node].any():
        # a leaf's feature -1 reads the last column; its children ignore the result
        go_left = X[rows, feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return np.concatenate([t.value for t in trees])[node]


def _noise_std(config: SglbConfig, n: int) -> float:
    beta = float(n) if config.beta is None else config.beta
    if math.isinf(beta):
        return 0.0
    return math.sqrt(2.0 / (beta * config.learning_rate))


def fit(X, y, config: SglbConfig, layout: FingerprintLayout | None = None,
        binned: _Binned | None = None) -> SglbModel:
    """Train one model: noisy-gradient boosting with the shrinking update.

    ``binned`` is X's binning at ``config.max_bins``, if already built."""
    X, y = _validate_training_data(X, y, config.task)
    rng = np.random.default_rng(config.seed)
    noise_std = _noise_std(config, len(y))
    if binned is None:
        binned = _Binned(X, config.max_bins)
    grower = _TreeGrower(binned, config.max_depth, config.min_samples_split)
    grad_fn = (_regression_negative_gradients if config.task == TASK_REGRESSION
               else _classification_negative_gradients)
    base = _base_prediction(config.task, y)
    keep = 1.0 - config.gamma * config.learning_rate
    eta = config.learning_rate
    F = np.tile(base, (len(y), 1))
    trees = []
    for _ in range(config.iterations):
        grads = grad_fn(F, y)
        if noise_std > 0.0:
            grads = grads + rng.normal(0.0, noise_std, grads.shape)
        tree, leaf_of = grower.grow(grads)
        trees.append(tree)
        # tree.value[leaf_of] is the tree's prediction on X: a row goes left
        # exactly when x <= the cut threshold
        F = keep * F + eta * tree.value[leaf_of]
    return SglbModel(config, base, tuple(trees), X.shape[1], layout)


@dataclass(frozen=True)
class SglbEnsemble:
    config: SglbConfig
    members: tuple[SglbModel, ...]
    train_seconds: float = field(default=0.0, compare=False)  # binning + member fits

    @property
    def layout(self) -> FingerprintLayout | None:
        return self.members[0].layout

    def require_layout(self, layout: FingerprintLayout):
        if self.layout is not None and layout != self.layout:
            raise LayoutMismatchError(
                "fingerprint layout does not match the one the ensemble was "
                f"trained on: {layout.to_dict()} vs {self.layout.to_dict()}")


def _fit_member(args):
    t0 = time.perf_counter()
    return fit(*args), time.perf_counter() - t0


def fit_ensembles(jobs, threads: int = 1) -> list[SglbEnsemble]:
    """One ensemble per ``(X, y, config, layout)`` job: ensemble_size models with
    member seeds seed + m, from one binning of X made before any fit starts.  The
    members of all jobs share one fan-out on up to ``threads`` worker processes,
    submitted widest binned codes first so that the longest fits do not run last."""
    tasks, owners, binned_in = [], [], []
    for X, y, config, layout in jobs:
        t0 = time.perf_counter()
        X, y = _validate_training_data(X, y, config.task)
        binned = _Binned(X, config.max_bins)
        binned_in.append((config, time.perf_counter() - t0))
        tasks += [(X, y, replace(config, seed=config.seed + m), layout, binned)
                  for m in range(config.ensemble_size)]
        owners += [config] * config.ensemble_size
    order = sorted(range(len(tasks)), key=lambda t: -tasks[t][4].codes.size)
    fitted = process_map(_fit_member, [tasks[t] for t in order], threads, lambda done: (
        f"an SGLB worker died fitting the {owners[order[done]].ensemble_size}-member "
        f"ensemble with seed {owners[order[done]].seed}"))
    fitted = iter([member for _, member in sorted(zip(order, fitted))])
    groups = [tuple(zip(*(next(fitted) for _ in range(c.ensemble_size)))) for c, _ in binned_in]
    return [SglbEnsemble(config, members, seconds + sum(fit_seconds))
            for (config, seconds), (members, fit_seconds) in zip(binned_in, groups)]


def fit_ensemble(X, y, config: SglbConfig, layout: FingerprintLayout | None = None,
                 threads: int = 1) -> SglbEnsemble:
    """The ensemble ``fit_ensembles`` fits for the one job ``(X, y, config, layout)``."""
    return fit_ensembles([(X, y, config, layout)], threads)[0]


# ---------------------------------------------------------------------------
# Uncertainty decomposition

@dataclass(frozen=True)
class UncertaintyReport:
    prediction: np.ndarray  # mean / positive-class probability
    total: np.ndarray
    knowledge: np.ndarray   # epistemic: ensemble disagreement
    data: np.ndarray        # aleatoric: expected per-member spread


def binary_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of a Bernoulli(p), with 0 log 0 = 0."""
    # Imported here: scipy.special is slow to import and only classification needs it.
    from scipy.special import xlogy
    p = np.asarray(p, dtype=np.float64)
    return -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p))


def _member_mean(values: np.ndarray) -> np.ndarray:
    """Mean over the member axis, adding one member at a time.  numpy sums a
    lone column pairwise but a wider matrix member by member, so with
    ``mean(axis=0)`` a row decomposed alone could differ in the last bits
    from the same row decomposed in a batch."""
    return functools.reduce(np.add, values) / len(values)


def classification_uncertainty(member_probs: np.ndarray) -> UncertaintyReport:
    """Entropy decomposition: total = knowledge (mutual information) + data."""
    member_probs = np.atleast_2d(np.asarray(member_probs, dtype=np.float64))
    prediction = _member_mean(member_probs)
    total = binary_entropy(prediction)
    data = _member_mean(binary_entropy(member_probs))
    return UncertaintyReport(prediction, total, total - data, data)


def regression_uncertainty(member_means: np.ndarray,
                           member_variances: np.ndarray) -> UncertaintyReport:
    """Law of total variance: total = variance of means + mean of variances."""
    member_means = np.atleast_2d(np.asarray(member_means, dtype=np.float64))
    member_variances = np.atleast_2d(np.asarray(member_variances, dtype=np.float64))
    prediction = _member_mean(member_means)
    spread = member_means - prediction
    knowledge = _member_mean(spread * spread)
    data = _member_mean(member_variances)
    return UncertaintyReport(prediction, knowledge + data, knowledge, data)


def decompose(ensemble: SglbEnsemble, X) -> UncertaintyReport:
    """Uncertainty report for the ensemble's task, from one forward pass per member."""
    F = np.stack([m.raw_predict(X) for m in ensemble.members])  # (M, n, out_dim)
    if ensemble.config.task == TASK_REGRESSION:
        return regression_uncertainty(F[..., 0], np.exp(np.clip(F[..., 1], -30.0, 30.0)))
    return classification_uncertainty(_sigmoid(F[..., 0]))


RANK_CRITERIA = ("TOTAL", "KNOWLEDGE", "DATA")


def rank_by_uncertainty(ensemble: SglbEnsemble, record_ids, X,
                        criterion: str = "KNOWLEDGE", k: int = 10) -> list[str]:
    """Top-k record ids by descending uncertainty; ties break on ascending id."""
    if criterion not in RANK_CRITERIA:
        raise ConfigError(f"criterion must be one of {RANK_CRITERIA}")
    record_ids = list(record_ids)
    if k < 0:
        raise ConfigError("k must be non-negative")
    if k > len(record_ids):
        warnings.warn(f"k={k} exceeds the pool size {len(record_ids)}; clamping")
        k = len(record_ids)
    if k == 0:
        return []
    report = decompose(ensemble, X)
    scores = {"TOTAL": report.total, "KNOWLEDGE": report.knowledge,
              "DATA": report.data}[criterion]
    order = sorted(zip(record_ids, scores), key=lambda t: (-t[1], t[0]))
    return [rid for rid, _ in order[:k]]


# ---------------------------------------------------------------------------
# Serialization (versioned JSON)

def model_to_dict(model: SglbModel) -> dict:
    return {"format_version": MODEL_FORMAT_VERSION,
            "config": model.config.to_dict(),
            "base": model.base.tolist(),
            "feature_count": model.feature_count,
            "layout": None if model.layout is None else model.layout.to_dict(),
            "trees": [t.to_dict() for t in model.trees]}


def _fields(doc, keys, what) -> list:
    """``doc[key]`` for each key.  Raises DataError if doc is not an object or
    lacks a key, and ConfigError if a ``format_version`` key names another format."""
    if not isinstance(doc, dict):
        raise DataError(f"{what} is not an object")
    if "format_version" in keys and doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ConfigError(f"unsupported model format {doc.get('format_version')!r}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise DataError(f"{what} lacks {', '.join(missing)}")
    return [doc[k] for k in keys]


def _array(values, kinds, ndim, what) -> np.ndarray:
    """``values`` as an ``ndim``-D array of dtype kind in ``kinds`` ("iu" or "iuf")."""
    try:
        array = np.array(values)
    except ValueError:  # a ragged nested list
        array = None
    if array is None or array.ndim != ndim or array.dtype.kind not in kinds:
        raise DataError(f"{what}: expected a {ndim}-D array of "
                        + ("integers" if kinds == "iu" else "numbers"))
    if not np.isfinite(array).all():  # json reads NaN and Infinity
        raise DataError(f"{what}: non-finite number")
    return array


def model_from_dict(doc: dict) -> SglbModel:
    _, config, base, trees, feature_count = _fields(
        doc, ("format_version", "config", "base", "trees", "feature_count"), "member")
    config = SglbConfig.from_dict(config, DataError)
    base = _array(base, "iuf", 1, "member base").astype(np.float64)
    if not isinstance(trees, list):
        raise DataError("member trees must be a list")
    trees = tuple(Tree.from_dict(t) for t in trees)
    typed(feature_count, int, "member feature_count", DataError)
    out_dim = 2 if config.task == TASK_REGRESSION else 1
    if len(base) != out_dim or any(t.value.shape[1] != out_dim
                                   or t.feature.max() >= feature_count for t in trees):
        raise DataError("member trees do not fit its task and feature_count")
    layout = doc.get("layout")
    return SglbModel(config, base, trees, feature_count,
                     None if layout is None else FingerprintLayout.from_dict(layout))


def ensemble_to_dict(ensemble: SglbEnsemble) -> dict:
    return {"format_version": MODEL_FORMAT_VERSION,
            "config": ensemble.config.to_dict(),
            "members": [model_to_dict(m) for m in ensemble.members]}


def ensemble_from_dict(doc: dict) -> SglbEnsemble:
    _, config, members = _fields(doc, ("format_version", "config", "members"), "model")
    if not isinstance(members, list) or not members:
        raise DataError("model members must be a non-empty list")
    config = SglbConfig.from_dict(config, DataError)
    members = tuple(model_from_dict(m) for m in members)
    first = (config.task, members[0].layout, members[0].feature_count)
    if any((m.config.task, m.layout, m.feature_count) != first for m in members):
        raise DataError("model members must share the model's task, layout and feature_count")
    return SglbEnsemble(config, members)


def save_ensemble(ensemble: SglbEnsemble, path):
    """The model as one JSON line.  ``json.dumps`` runs the C encoder, which
    ``json.dump`` never does, and writes the same bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ensemble_to_dict(ensemble), sort_keys=True) + "\n")


def load_ensemble(path) -> SglbEnsemble:
    doc = read_json(path, "model")
    try:
        return ensemble_from_dict(doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
