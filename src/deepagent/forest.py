"""CART decision trees, bagged forest, stratified K-fold.

Trees grow on Gini impurity over labels in {0, 1} with one randomly drawn
candidate feature per node (falling back to the remaining features in drawn
order when the drawn one has no split within the node, so separable data is
always grown to purity). Leaves hold a majority vote with ties going to
class 1. The forest averages the tree votes; the decision rule,
``metrics.decide``, maps 0.5 exactly to class 1. Trees grow on and route
the raw inputs: every threshold is the midpoint of two training values of
its feature, and a split depends only on each feature's order, so no
per-feature rescaling would change a prediction.

All trees of a forest grow together, level by level. Each open node is a
segment of (bootstrap row, node) entries, kept sorted by value for every
feature: sorted once at the root and stably partitioned at each split. A
level scores every midpoint threshold of every open node from segment
prefix class counts and keeps the first minimum of each segment. Per level,
each tree draws ``rng.random((k, d))`` for its ``k`` open nodes in level
order (left child before right); a node's feature order is the stable
argsort of its row. Tree ``t`` of a forest draws its bootstrap rows first,
from ``SeedSequence([seed, t])``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deepagent.errors import UsageError
from deepagent.metrics import decide


@dataclass(slots=True)
class TreeNode:
    """One node of a linked tree; slotted, since ``_link`` makes one per
    grown node, thousands per forest."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    vote: int = -1  # leaf class when >= 0

    @property
    def is_leaf(self) -> bool:
        return self.vote >= 0


@dataclass(slots=True)
class DecisionTree:
    root: TreeNode


def _gini(zeros: np.ndarray, ones: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Elementwise Gini impurity 1 - (p0^2 + p1^2) of class counts."""
    p0 = zeros / total
    p1 = ones / total
    return 1.0 - (p0 * p0 + p1 * p1)


def _best_splits(v, ys, seg, same, start, size, ones):
    """(node, threshold) of the first cheapest split of every node that has
    one, for one feature. ``v`` and ``ys`` are the entries' values and labels
    sorted by (node, value); ``seg`` is each entry's node and ``same`` marks
    adjacent entries of one node."""
    cut = np.flatnonzero((v[1:] != v[:-1]) & same)
    thr = (v[cut] + v[cut + 1]) / 2.0
    # rows "<= thr" end after the cut, or after the whole upper run when the
    # midpoint rounds onto the upper value
    stop = cut + 1
    up = thr == v[stop]
    if up.any():
        last = np.sort(np.concatenate((cut, start + size - 1)))
        stop[up] = last[np.searchsorted(last, stop[up])] + 1
    node = seg[cut]
    n_left = stop - start[node]
    keep = n_left < size[node]
    node, thr, stop, n_left = node[keep], thr[keep], stop[keep], n_left[keep]
    if not len(node):
        return node, thr
    ones_prefix = np.concatenate(([0], np.cumsum(ys)))
    ones_left = ones_prefix[stop] - ones_prefix[start[node]]
    n = size[node]
    n_right = n - n_left
    ones_right = ones[node] - ones_left
    cost = (n_left * _gini(n_left - ones_left, ones_left, n_left)
            + n_right * _gini(n_right - ones_right, ones_right, n_right)) / n
    heads = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    lowest = np.empty(len(size))
    lowest[node[heads]] = np.minimum.reduceat(cost, heads)
    hit = np.flatnonzero(cost == lowest[node])
    first = hit[np.r_[True, node[hit[1:]] != node[hit[:-1]]]]  # lowest threshold
    return node[first], thr[first]


def _grow(X: np.ndarray, y: np.ndarray, rows: np.ndarray, rngs: list):
    """Grow tree ``t`` on rows ``rows[t]`` of (X, y) with generator
    ``rngs[t]``, all trees level by level.

    Returns flat node arrays (feature, threshold, vote, left, right): node
    ``t`` is the root of tree ``t``, children are numbered after their
    parent, and a leaf has vote >= 0 and no children.
    """
    n_trees, m = rows.shape
    d = X.shape[1]
    row = rows.ravel()
    lab = y[row]
    cap = n_trees * (2 * m - 1)  # a tree has at most m leaves
    feature, vote = np.full(cap, -1), np.full(cap, -1)
    left, right = np.full(cap, -1), np.full(cap, -1)
    threshold = np.zeros(cap)
    gid = np.arange(n_trees)  # the current level's nodes
    tree = gid.copy()
    count = n_trees
    place = np.repeat(gid, m)  # each live entry's node within the level
    ords = [np.lexsort((X[row, f], place)) for f in range(d)]
    while len(gid):
        seg = place[ords[0]]
        size = np.bincount(seg, minlength=len(gid))
        ones = np.bincount(seg[lab[ords[0]] == 1], minlength=len(gid))
        majority = (2 * ones >= size).astype(int)
        open_ = (size >= 2) & (ones > 0) & (ones < size)
        vote[gid[~open_]] = majority[~open_]
        if not open_.any():
            break
        key = np.cumsum(open_) - 1
        key[~open_] = -1
        place[ords[0]] = key[seg]
        ords = [o[place[o] >= 0] for o in ords]
        gid, tree, size, ones, majority = (
            a[open_] for a in (gid, tree, size, ones, majority))
        k = len(gid)

        seg = place[ords[0]]
        same = seg[1:] == seg[:-1]
        start = np.cumsum(size) - size
        has, best = np.zeros((k, d), dtype=bool), np.zeros((k, d))
        for f, o in enumerate(ords):
            node, thr = _best_splits(X[row[o], f], lab[o], seg, same, start, size, ones)
            has[node, f] = True
            best[node, f] = thr
        # mtry = 1: each node takes the first feature in its drawn order that splits
        per_tree = np.bincount(tree, minlength=n_trees).tolist()
        draws = np.concatenate([rngs[t].random((c, d))
                                for t, c in enumerate(per_tree) if c])
        order = np.argsort(draws, axis=1, kind="stable")
        ranked = np.take_along_axis(has, order, axis=1)
        pick = ranked.argmax(axis=1)
        split = ranked[np.arange(k), pick]
        feat = order[np.arange(k), pick]
        thr = best[np.arange(k), feat]
        vote[gid[~split]] = majority[~split]  # every feature constant, labels mixed

        n_split = int(split.sum())
        sgid = gid[split]
        feature[sgid], threshold[sgid] = feat[split], thr[split]
        left[sgid] = count + 2 * np.arange(n_split)
        right[sgid] = left[sgid] + 1
        rank = np.cumsum(split) - 1
        live = ords[0]
        node = place[live]
        goes_left = X[row[live], feat[node]] <= thr[node]
        place[live] = np.where(split[node], 2 * rank[node] + 1 - goes_left, -1)
        for f, o in enumerate(ords):
            child = place[o]
            o, child = o[child >= 0], child[child >= 0]
            ords[f] = o[np.argsort(child, kind="stable")]
        gid = count + np.arange(2 * n_split)
        tree = np.repeat(tree[split], 2)
        count += 2 * n_split
    return (feature[:count], threshold[:count], vote[:count],
            left[:count], right[:count])


def _link(feature, threshold, vote, left, right, n_trees: int) -> list[DecisionTree]:
    """The ``n_trees`` trees of flat node arrays, as linked ``TreeNode``s."""
    nodes = [TreeNode(f, t, None, None, v) for f, t, v in
             zip(feature.tolist(), threshold.tolist(), vote.tolist())]
    inner = np.flatnonzero(left >= 0)
    for i, lo, hi in zip(inner.tolist(), left[inner].tolist(), right[inner].tolist()):
        nodes[i].left, nodes[i].right = nodes[lo], nodes[hi]
    return [DecisionTree(nodes[t]) for t in range(n_trees)]


@dataclass
class ForestModel:
    trees: list[DecisionTree]


def train_forest(Z: np.ndarray, y: np.ndarray, *, n_trees: int,
                 seed: int) -> ForestModel:
    """Bag ``n_trees`` CART trees on the rows of Z.

    Tree ``t`` gets its own rng, ``SeedSequence([seed, t])``, for its
    bootstrap draw and then for its feature orders; the trees grow together.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.asarray(y, dtype=int)
    if len(np.unique(y)) < 2:
        raise UsageError("forest training needs both classes present")
    n = len(Z)
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, t]))
            for t in range(n_trees)]
    rows = np.stack([rng.integers(0, n, size=n) for rng in rngs])
    return ForestModel(_link(*_grow(Z, y, rows, rngs), n_trees))


def predict_forest_batch(model: ForestModel, Z: np.ndarray):
    """(vote-fraction probabilities, labels) per row of Z; a label is 1 iff
    its probability is >= 0.5. Each row walks down each tree from its root
    to the leaf that votes for it."""
    if not model.trees:
        raise UsageError("forest has no trained trees")
    votes = []
    for z in np.atleast_2d(np.asarray(Z, dtype=float)).tolist():
        vote = 0
        for tree in model.trees:
            node = tree.root
            while node.vote < 0:
                node = node.left if z[node.feature] <= node.threshold else node.right
            vote += node.vote
        votes.append(vote)
    probs = np.array(votes, dtype=int) / len(model.trees)
    return probs, decide(probs).astype(int)


def stratified_kfold(labels, k: int, seed: int):
    """K disjoint (train, validation) index partitions preserving class mix.

    Within each class the indices are shuffled and split into k chunks
    whose sizes differ by at most one (``np.array_split``), so each fold's
    class count is within one sample of the exact proportion.
    """
    y = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5F01D]))
    per_class_chunks: list[list[np.ndarray]] = []
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        if len(idx) < k:
            raise UsageError(
                f"class {c} has {len(idx)} samples, needs >= {k} for {k}-fold CV")
        per_class_chunks.append(np.array_split(rng.permutation(idx), k))
    folds = []
    for f in range(k):
        val = np.sort(np.concatenate([chunks[f] for chunks in per_class_chunks]))
        folds.append((np.setdiff1d(np.arange(len(y)), val), val))
    return folds
