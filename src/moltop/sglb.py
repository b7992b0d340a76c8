"""Gradient-boosted trees with Langevin noise and ensemble uncertainty.

Each boosting step fits a depth-bounded least-squares tree to the per-sample
negative gradients of the loss, optionally perturbed by Gaussian noise with
variance 2 / (beta * learning_rate), and folds it in with a shrinking update
F <- (1 - gamma * eta) * F + eta * h.  Regression trees carry a two-column
output (mean shift, log-variance shift) trained against the Gaussian
negative log-likelihood; classification trees carry one logit column trained
against log-loss.

Trees grow from histograms of quantile-binned codes.  A column whose codes
repeat an earlier column's is dropped, and a histogram row is one slot wider
than the longest edge list.  The trees equal a 256-slot grower's bit for bit:
argmax keeps the first maximum, cumsum is sequential so trailing empty slots
change no prefix, and a leaf value is summed over a zero-padded 256-slot row
because np.sum is pairwise and its rounding depends on the row length.

Ensembles are independently seeded models; disagreement among members gives
the knowledge (epistemic) part of the uncertainty, the average per-member
spread gives the data (aleatoric) part.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import json
import math
import warnings

import numpy as np

from .errors import ConfigError, DataError, LayoutMismatchError
from .vectorize import FingerprintLayout

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
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate must be in (0, 1]")
        if self.beta is not None and not self.beta > 0:
            raise ConfigError("beta must be positive")
        if self.gamma < 0:
            raise ConfigError("gamma must be non-negative")
        if self.gamma * self.learning_rate >= 1.0:
            raise ConfigError("gamma * learning_rate must be below 1")
        if not 2 <= self.max_bins <= 255:
            raise ConfigError("max_bins must be in [2, 255]")

    def to_dict(self) -> dict:
        beta = self.beta
        if beta is not None and math.isinf(beta):
            beta = "inf"
        return {"task": self.task, "iterations": self.iterations,
                "max_depth": self.max_depth, "learning_rate": self.learning_rate,
                "min_samples_split": self.min_samples_split, "beta": beta,
                "gamma": self.gamma, "ensemble_size": self.ensemble_size,
                "max_bins": self.max_bins, "seed": self.seed}

    @classmethod
    def from_dict(cls, doc: dict) -> "SglbConfig":
        doc = dict(doc)
        if doc.get("beta") == "inf":
            doc["beta"] = math.inf
        return cls(**doc)


@dataclass
class Tree:
    feature: np.ndarray    # int32, -1 at leaves
    threshold: np.ndarray  # float64; go left when x[feature] <= threshold
    left: np.ndarray       # int32 child ids
    right: np.ndarray
    value: np.ndarray      # float64 (nodes, out_dim); meaningful at leaves

    def __eq__(self, other):
        return (isinstance(other, Tree)
                and np.array_equal(self.feature, other.feature)
                and np.array_equal(self.threshold, other.threshold)
                and np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right)
                and np.array_equal(self.value, other.value))

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(len(X), dtype=np.int32)
        while True:
            f = self.feature[idx]
            active = np.nonzero(f >= 0)[0]
            if active.size == 0:
                break
            node = idx[active]
            go_left = X[active, f[active]] <= self.threshold[node]
            idx[active] = np.where(go_left, self.left[node], self.right[node])
        return self.value[idx]

    def to_dict(self) -> dict:
        return {"feature": self.feature.tolist(), "threshold": self.threshold.tolist(),
                "left": self.left.tolist(), "right": self.right.tolist(),
                "value": self.value.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Tree":
        return cls(np.array(doc["feature"], dtype=np.int32),
                   np.array(doc["threshold"], dtype=np.float64),
                   np.array(doc["left"], dtype=np.int32),
                   np.array(doc["right"], dtype=np.int32),
                   np.array(doc["value"], dtype=np.float64))


# ---------------------------------------------------------------------------
# Histogram tree growing

def quantile_bin_edges(X: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """Per-feature ascending split-candidate values from training quantiles."""
    probs = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    varying = np.flatnonzero((X != X[0]).any(axis=0))
    quantiles = np.quantile(X[:, varying], probs, axis=0)
    edges = [np.empty(0)] * X.shape[1]
    for j, f in enumerate(varying):
        edges[f] = np.unique(quantiles[:, j])
    return edges


class _Binned:
    """Quantile-binned training features, one code column per distinct varying one."""

    def __init__(self, X: np.ndarray, max_bins: int):
        self.edges = quantile_bin_edges(X, max_bins)
        varying = [f for f, e in enumerate(self.edges) if e.size]
        codes = np.zeros((X.shape[0], len(varying)), dtype=np.uint8)
        for j, f in enumerate(varying):
            # code <= c exactly when x <= edges[c]
            codes[:, j] = np.searchsorted(self.edges[f], X[:, f], side="left")
        keep = np.sort(np.unique(codes, axis=1, return_index=True)[1])
        self.active = np.array(varying, dtype=np.intp)[keep]
        self.codes = codes[:, keep]
        self.width = 1 + max((self.edges[f].size for f in self.active), default=0)
        self.offsets = np.arange(len(self.active), dtype=np.intp) * self.width


class _TreeGrower:
    def __init__(self, binned: _Binned, max_depth: int, min_samples_split: int):
        self.binned = binned
        self.max_depth = max_depth
        self.min_split = max(2, min_samples_split)

    def _histogram(self, idx: np.ndarray, targets: np.ndarray) -> np.ndarray:
        binned = self.binned
        ncand, width = len(binned.active), binned.width
        out = np.zeros((1 + targets.shape[1], ncand * width))
        flat = (binned.codes[idx].astype(np.intp) + binned.offsets[None, :]).ravel()
        out[0] = np.bincount(flat, minlength=ncand * width)
        for d in range(targets.shape[1]):
            out[1 + d] = np.bincount(flat, weights=np.repeat(targets[idx, d], ncand),
                                     minlength=ncand * width)
        return out.reshape(1 + targets.shape[1], ncand, width)

    def _best_split(self, hist: np.ndarray):
        sums = np.cumsum(hist, axis=2)
        m = sums[0, 0, -1]
        nl = sums[0, :, :-1]
        nr = m - nl
        valid = (nl > 0) & (nr > 0)
        if not valid.any():
            return None
        total = sums[1:, 0, -1, None, None]
        sl = sums[1:, :, :-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = (sl * sl / nl + (total - sl) ** 2 / nr).sum(axis=0)
        base = (total * total / m).sum()
        gain = np.where(valid, gain - base, -np.inf)
        flat_best = int(np.argmax(gain))
        j, cut = divmod(flat_best, gain.shape[1])
        if not gain[j, cut] > _MIN_GAIN:
            return None
        return j, cut

    def grow(self, targets: np.ndarray) -> Tree:
        n, dim = targets.shape
        feature, threshold, left, right, value = [], [], [], [], []

        def new_node():
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(np.zeros(dim))
            return len(feature) - 1

        root = new_node()
        binned = self.binned
        if len(binned.active) == 0:  # every feature constant: nothing to split on
            value[root] = targets.mean(axis=0)
            return Tree(np.array(feature, dtype=np.int32),
                        np.array(threshold, dtype=np.float64),
                        np.array(left, dtype=np.int32),
                        np.array(right, dtype=np.int32),
                        np.vstack(value))
        stack = [(root, np.arange(n, dtype=np.intp), 0, None)]
        while stack:
            node, idx, depth, hist = stack.pop()
            if hist is None:
                hist = self._histogram(idx, targets)
            m = len(idx)
            split = None
            if depth < self.max_depth and m >= self.min_split:
                split = self._best_split(hist)
            if split is None:
                # np.sum is pairwise: its rounding depends on the row length
                row = np.zeros((dim, 256))
                row[:, :binned.width] = hist[1:, 0, :]
                value[node] = row.sum(axis=1) / m
                continue
            j, cut = split
            codes = binned.codes[idx, j]
            go_left = codes <= cut
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            feature[node] = int(binned.active[j])
            threshold[node] = float(binned.edges[binned.active[j]][cut])
            lchild, rchild = new_node(), new_node()
            left[node], right[node] = lchild, rchild
            if len(left_idx) <= len(right_idx):
                small_idx, big_idx, small_node, big_node = left_idx, right_idx, lchild, rchild
            else:
                small_idx, big_idx, small_node, big_node = right_idx, left_idx, rchild, lchild
            small_hist = self._histogram(small_idx, targets)
            stack.append((big_node, big_idx, depth + 1, hist - small_hist))
            stack.append((small_node, small_idx, depth + 1, small_hist))

        return Tree(np.array(feature, dtype=np.int32),
                    np.array(threshold, dtype=np.float64),
                    np.array(left, dtype=np.int32),
                    np.array(right, dtype=np.int32),
                    np.vstack(value))


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
        labels = np.unique(y)
        if not np.isin(labels, (0.0, 1.0)).all():
            raise DataError("classification targets must be 0/1")
        if labels.size < 2:
            raise DataError("classification needs both classes present")
    return X, y


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
        for tree in self.trees:
            F = keep * F + eta * tree.predict(X)
        return F

    def predict(self, X: np.ndarray) -> np.ndarray:
        F = self.raw_predict(X)
        if self.config.task == TASK_REGRESSION:
            return F[:, 0]
        return _sigmoid(F[:, 0])


def _noise_std(config: SglbConfig, n: int) -> float:
    beta = float(n) if config.beta is None else config.beta
    if math.isinf(beta):
        return 0.0
    return math.sqrt(2.0 / (beta * config.learning_rate))


def fit(X, y, config: SglbConfig, layout: FingerprintLayout | None = None) -> SglbModel:
    """Train one model: noisy-gradient boosting with the shrinking update."""
    X, y = _validate_training_data(X, y, config.task)
    rng = np.random.default_rng(config.seed)
    noise_std = _noise_std(config, len(y))
    grower = _TreeGrower(_Binned(X, config.max_bins), config.max_depth,
                         config.min_samples_split)
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
        tree = grower.grow(grads)
        trees.append(tree)
        F = keep * F + eta * tree.predict(X)
    return SglbModel(config, base, tuple(trees), X.shape[1], layout)


@dataclass(frozen=True)
class SglbEnsemble:
    config: SglbConfig
    members: tuple[SglbModel, ...]

    @property
    def layout(self) -> FingerprintLayout | None:
        return self.members[0].layout

    @property
    def task(self) -> str:
        return self.config.task

    def require_layout(self, layout: FingerprintLayout):
        if self.layout is not None and layout != self.layout:
            raise LayoutMismatchError(
                "fingerprint layout does not match the one the ensemble was "
                f"trained on: {layout.to_dict()} vs {self.layout.to_dict()}")


def _member_seed(base_seed: int, m: int) -> int:
    return base_seed + m


def _fit_member(args):
    X, y, config, layout = args
    return fit(X, y, config, layout)


def fit_ensemble(X, y, config: SglbConfig, layout: FingerprintLayout | None = None,
                 threads: int = 1) -> SglbEnsemble:
    """Train ensemble_size independent models with member seeds seed + m."""
    tasks = [(X, y, replace(config, seed=_member_seed(config.seed, m)), layout)
             for m in range(config.ensemble_size)]
    if threads <= 1 or len(tasks) == 1:
        members = [_fit_member(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            members = list(pool.map(_fit_member, tasks))
    return SglbEnsemble(config, tuple(members))


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


def classification_uncertainty(member_probs: np.ndarray) -> UncertaintyReport:
    """Entropy decomposition: total = knowledge (mutual information) + data."""
    member_probs = np.atleast_2d(np.asarray(member_probs, dtype=np.float64))
    prediction = member_probs.mean(axis=0)
    total = binary_entropy(prediction)
    data = binary_entropy(member_probs).mean(axis=0)
    return UncertaintyReport(prediction, total, total - data, data)


def regression_uncertainty(member_means: np.ndarray,
                           member_variances: np.ndarray) -> UncertaintyReport:
    """Law of total variance: total = variance of means + mean of variances."""
    member_means = np.atleast_2d(np.asarray(member_means, dtype=np.float64))
    member_variances = np.atleast_2d(np.asarray(member_variances, dtype=np.float64))
    knowledge = member_means.var(axis=0)
    data = member_variances.mean(axis=0)
    return UncertaintyReport(member_means.mean(axis=0), knowledge + data,
                             knowledge, data)


def decompose(ensemble: SglbEnsemble, X) -> UncertaintyReport:
    """Uncertainty report for the ensemble's task, from one forward pass per member."""
    F = np.stack([m.raw_predict(X) for m in ensemble.members])  # (M, n, out_dim)
    if ensemble.task == TASK_REGRESSION:
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


def model_from_dict(doc: dict) -> SglbModel:
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ConfigError(f"unsupported model format {doc.get('format_version')!r}")
    layout = doc.get("layout")
    return SglbModel(SglbConfig.from_dict(doc["config"]),
                     np.array(doc["base"], dtype=np.float64),
                     tuple(Tree.from_dict(t) for t in doc["trees"]),
                     int(doc["feature_count"]),
                     None if layout is None else FingerprintLayout.from_dict(layout))


def ensemble_to_dict(ensemble: SglbEnsemble) -> dict:
    return {"format_version": MODEL_FORMAT_VERSION,
            "config": ensemble.config.to_dict(),
            "members": [model_to_dict(m) for m in ensemble.members]}


def ensemble_from_dict(doc: dict) -> SglbEnsemble:
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ConfigError(f"unsupported model format {doc.get('format_version')!r}")
    return SglbEnsemble(SglbConfig.from_dict(doc["config"]),
                        tuple(model_from_dict(m) for m in doc["members"]))


def save_ensemble(ensemble: SglbEnsemble, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ensemble_to_dict(ensemble), fh, sort_keys=True)
        fh.write("\n")


def load_ensemble(path) -> SglbEnsemble:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise DataError(f"{path}: cannot read model ({exc})") from None
    return ensemble_from_dict(doc)
