"""CART decision trees, bagged forest, standardizer, stratified K-fold.

Trees grow on Gini impurity over labels in {0, 1} with one randomly drawn
candidate feature per node (falling back to the remaining features when the
drawn one is constant within the node, so separable data is always grown to
purity). Each node sorts its candidate column once and scores every
midpoint threshold from prefix class counts. Leaves hold a majority vote
with ties going to class 1. The forest averages the tree votes; the
decision threshold maps 0.5 exactly to class 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deepagent.errors import UsageError


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    vote: int = -1  # leaf class when >= 0

    @property
    def is_leaf(self) -> bool:
        return self.vote >= 0


@dataclass
class DecisionTree:
    root: TreeNode


def _gini(zeros: np.ndarray, ones: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Elementwise Gini impurity 1 - (p0^2 + p1^2) of class counts."""
    p0 = zeros / total
    p1 = ones / total
    return 1.0 - (p0 * p0 + p1 * p1)


def _majority(y: np.ndarray) -> int:
    ones = int(y.sum())
    return 1 if ones >= len(y) - ones else 0


def _grow(X: np.ndarray, y: np.ndarray, idx: np.ndarray,
          rng: np.random.Generator) -> TreeNode:
    ys = y[idx]
    if len(idx) < 2 or ys.min() == ys.max():
        return TreeNode(vote=_majority(ys))
    n = len(idx)
    # mtry = 1: one uniformly drawn candidate feature; if it is constant
    # within the node, fall through to the remaining features in drawn order
    for f in rng.permutation(X.shape[1]):
        col = X[idx, f]
        order = np.argsort(col)
        sorted_col = col[order]
        edges = np.flatnonzero(sorted_col[1:] != sorted_col[:-1])
        thresholds = (sorted_col[edges] + sorted_col[edges + 1]) / 2.0
        # counting with side="right" keeps "col <= threshold" exact when a
        # midpoint rounds onto the upper value
        n_left = np.searchsorted(sorted_col, thresholds, side="right")
        keep = (n_left > 0) & (n_left < n)
        if not keep.any():
            continue
        thresholds, n_left = thresholds[keep], n_left[keep]
        ones_prefix = np.concatenate(([0], np.cumsum(ys[order])))
        ones_left = ones_prefix[n_left]
        ones_right = ones_prefix[-1] - ones_left
        n_right = n - n_left
        cost = (n_left * _gini(n_left - ones_left, ones_left, n_left)
                + n_right * _gini(n_right - ones_right, ones_right, n_right)) / n
        best_thr = thresholds[np.argmin(cost)]  # first minimum, lowest threshold
        mask = col <= best_thr
        node = TreeNode(feature=int(f), threshold=float(best_thr))
        node.left = _grow(X, y, idx[mask], rng)
        node.right = _grow(X, y, idx[~mask], rng)
        return node
    # every feature constant within the node but labels mixed
    return TreeNode(vote=_majority(ys))


def train_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> DecisionTree:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=int)
    if len(X) < 1:
        raise UsageError("cannot train a tree on an empty set")
    return DecisionTree(_grow(X, y, np.arange(len(X)), rng))


@dataclass
class Standardizer:
    mu: np.ndarray
    sigma: np.ndarray

    def apply(self, Z: np.ndarray) -> np.ndarray:
        return (np.asarray(Z, dtype=float) - self.mu) / self.sigma


def fit_standardizer(Z: np.ndarray) -> Standardizer:
    """Per-column population mean/std; constant columns get sigma 1."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if len(Z) == 0:
        raise UsageError("cannot fit a standardizer on an empty set")
    mu = Z.mean(axis=0)
    sigma = Z.std(axis=0)
    sigma = np.where(sigma == 0.0, 1.0, sigma)
    return Standardizer(mu, sigma)


@dataclass
class ForestModel:
    trees: list[DecisionTree]
    standardizer: Standardizer


def train_forest(Z: np.ndarray, y: np.ndarray, n_trees: int = 100,
                 seed: int = 0) -> ForestModel:
    """Fit the standardizer on Z, then bag ``n_trees`` CART trees.

    Each tree gets its own rng (derived from ``seed``) for the bootstrap
    draw and for the per-node feature choices.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.asarray(y, dtype=int)
    if len(np.unique(y)) < 2:
        raise UsageError("forest training needs both classes present")
    std = fit_standardizer(Z)
    Zs = std.apply(Z)
    n = len(Zs)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        idx = rng.integers(0, n, size=n)
        trees.append(train_tree(Zs[idx], y[idx], rng))
    return ForestModel(trees, std)


def predict_forest_batch(model: ForestModel, Z: np.ndarray):
    """(vote-fraction probabilities, labels) per row of Z; a label is 1 iff
    its probability is >= 0.5. Each tree routes row-index sets down its
    branches in one pass."""
    if not model.trees:
        raise UsageError("forest has no trained trees")
    Zs = model.standardizer.apply(np.atleast_2d(Z))
    votes = np.zeros(len(Zs), dtype=int)
    for tree in model.trees:
        stack = [(tree.root, np.arange(len(Zs)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                votes[rows] += node.vote
                continue
            left = Zs[rows, node.feature] <= node.threshold
            stack += [(node.left, rows[left]), (node.right, rows[~left])]
    probs = votes / len(model.trees)
    return probs, (probs >= 0.5).astype(int)


def stratified_kfold(labels, k: int = 5, seed: int = 0):
    """K disjoint (train, validation) index partitions preserving class mix.

    Within each class the indices are shuffled and chunked; chunk sizes
    differ by at most one, so each fold's class count is within one sample
    of the exact proportion.
    """
    y = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5F01D]))
    per_class_chunks: list[list[np.ndarray]] = []
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        if len(idx) < k:
            raise UsageError(
                f"class {c} has {len(idx)} samples, needs >= {k} for {k}-fold CV")
        idx = rng.permutation(idx)
        base, rem = divmod(len(idx), k)
        chunks, start = [], 0
        for f in range(k):
            size = base + (1 if f < rem else 0)
            chunks.append(idx[start:start + size])
            start += size
        per_class_chunks.append(chunks)
    folds = []
    all_idx = np.arange(len(y))
    for f in range(k):
        val = np.sort(np.concatenate([chunks[f] for chunks in per_class_chunks]))
        mask = np.ones(len(y), dtype=bool)
        mask[val] = False
        folds.append((all_idx[mask], val))
    return folds
