"""CART trees, bagged forest, stratified K-fold."""

import numpy as np
import numpy.testing as npt
import pytest

from deepagent import forest
from deepagent.errors import UsageError
from deepagent.forest import (
    DecisionTree,
    ForestModel,
    TreeNode,
    predict_forest_batch,
    stratified_kfold,
    train_forest,
)

from oracles import reference_grow, tree_vote


def grow_tree(X, y, rng):
    """One tree through the forest grower, on every row of (X, y)."""
    return forest._link(*forest._grow(X, y, np.arange(len(X))[None], [rng]), 1)[0]


def predict_one(model, z):
    """(probability, label) of one sample through the batched predictor."""
    probs, labels = predict_forest_batch(model, np.asarray(z)[None])
    return probs[0], labels[0]


def as_tuples(node):
    if node.is_leaf:
        return ("leaf", node.vote)
    return (node.feature, node.threshold, as_tuples(node.left), as_tuples(node.right))


class TestDecisionTree:
    def test_pure_input_single_leaf(self):
        tree = grow_tree(np.array([[0.1], [0.2]]), np.array([1, 1]),
                         np.random.default_rng(0))
        assert tree.root.is_leaf and tree.root.vote == 1

    def test_two_point_split_at_midpoint(self):
        tree = grow_tree(np.array([[0.0], [1.0]]), np.array([0, 1]),
                         np.random.default_rng(1))
        assert not tree.root.is_leaf
        assert tree.root.threshold == 0.5
        assert tree_vote(tree.root, np.array([0.2])) == 0
        assert tree_vote(tree.root, np.array([0.8])) == 1

    def test_separable_data_fit_to_purity(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(-2, 0.3, size=(30, 2)),
                       rng.normal(2, 0.3, size=(30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        tree = grow_tree(X, y, np.random.default_rng(3))
        npt.assert_array_equal([tree_vote(tree.root, x) for x in X], y)

    def test_constant_feature_falls_through(self):
        # feature 0 constant, feature 1 separates; purity still reached
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        for seed in range(10):
            tree = grow_tree(X, y, np.random.default_rng(seed))
            npt.assert_array_equal([tree_vote(tree.root, x) for x in X], y)

    def test_tie_votes_class_one(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([0, 1])
        tree = grow_tree(X, y, np.random.default_rng(4))
        assert tree.root.is_leaf and tree.root.vote == 1

    def test_linked_nodes_carry_no_instance_dict(self):
        # ``_link`` makes one node per grown node, thousands per forest
        tree = grow_tree(np.array([[0.0], [1.0]]), np.array([0, 1]),
                         np.random.default_rng(1))
        for node in (tree, tree.root, tree.root.left, tree.root.right):
            assert not hasattr(node, "__dict__")


def random_split_set(rng):
    """Small labeled set mixing the cases a threshold search can get wrong:
    ties, duplicated rows, a constant column, adjacent-float pairs."""
    n = int(rng.integers(2, 40))
    d = int(rng.integers(1, 4))
    X = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
    kind = rng.integers(4)
    if kind == 1:
        X[:, rng.integers(d)] = rng.normal()
    elif kind == 2:
        X[rng.integers(0, n, size=n // 2)] = X[rng.integers(0, n, size=n // 2)]
    elif kind == 3:
        col = rng.integers(d)
        base = X[rng.integers(n), col]
        pick = rng.random(n)
        X[pick < 0.4, col] = base
        X[pick > 0.6, col] = np.nextafter(base, np.inf)
    y = rng.integers(0, 2, n)
    return X, y


class TestSplitSearchOracle:
    def test_identical_trees_to_bincount_reference(self):
        rng = np.random.default_rng(53)
        for case in range(240):
            X, y = random_split_set(rng)
            got = grow_tree(X, y, np.random.default_rng(case)).root
            ref = reference_grow(X, y, np.arange(len(X)), np.random.default_rng(case))
            assert as_tuples(got) == ref, f"case {case}"

    def test_adjacent_float_midpoint_splits_like_reference(self):
        # lo has an odd last mantissa bit, so (lo + hi) / 2 rounds onto hi
        lo = np.nextafter(1.0, np.inf)
        hi = np.nextafter(lo, np.inf)
        assert (lo + hi) / 2.0 == hi
        X = np.array([[lo], [hi], [hi], [lo], [2.0], [lo]])
        y = np.array([0, 1, 1, 0, 1, 1])
        got = grow_tree(X, y, np.random.default_rng(0)).root
        ref = reference_grow(X, y, np.arange(6), np.random.default_rng(0))
        assert as_tuples(got) == ref


class TestForest:
    def test_single_tree_matches_tree_on_bootstrap_draw(self):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(20, 2))
        y = (Z[:, 0] > 0).astype(int)
        model = train_forest(Z, y, n_trees=1, seed=9)
        probs, labels = predict_forest_batch(model, Z)
        # tree t draws its bootstrap rows, then grows, from SeedSequence([seed, t])
        tree_rng = np.random.default_rng(np.random.SeedSequence([9, 0]))
        idx = tree_rng.integers(0, len(Z), size=len(Z))
        single = grow_tree(Z[idx], y[idx], tree_rng)
        assert as_tuples(single.root) == as_tuples(model.trees[0].root)
        for z, p in zip(Z, probs):
            assert p == float(tree_vote(single.root, z))

    @pytest.mark.parametrize("d", [2, 4])
    def test_every_tree_matches_tree_on_its_bootstrap_draw(self, d):
        # ties and duplicated rows; at d = 4 nodes also fall back to later
        # features. Growing the trees together must leak nothing between them.
        rng = np.random.default_rng(11 + d)
        Z = np.round(rng.normal(size=(60, d)), 1)
        Z[rng.integers(0, 60, size=20)] = Z[rng.integers(0, 60, size=20)]
        Z[:, -1] = np.round(Z[:, -1])
        y = rng.integers(0, 2, 60)
        model = train_forest(Z, y, n_trees=100, seed=13)
        for t, tree in enumerate(model.trees):
            tree_rng = np.random.default_rng(np.random.SeedSequence([13, t]))
            idx = tree_rng.integers(0, len(Z), size=len(Z))
            single = grow_tree(Z[idx], y[idx], tree_rng)
            assert as_tuples(single.root) == as_tuples(tree.root), f"tree {t}"

    def test_thresholds_are_midpoints_of_raw_training_values(self):
        # trees split the scores as given: no rescaling sits before them
        rng = np.random.default_rng(14)
        Z = np.round(rng.random((50, 2)), 2)
        y = rng.integers(0, 2, 50)
        model = train_forest(Z, y, n_trees=30, seed=6)
        midpoints = []
        for f in range(2):
            values = np.unique(Z[:, f])
            midpoints.append({(a + b) / 2.0 for i, a in enumerate(values)
                              for b in values[i + 1:]})
        inner = 0
        for tree in model.trees:
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    assert node.threshold in midpoints[node.feature]
                    inner += 1
                    stack += [node.left, node.right]
        assert inner > 30

    def test_unanimous_vote_gives_probability_one(self):
        Z = np.vstack([np.full((10, 2), -1.0) + np.random.default_rng(6).normal(0, .01, (10,2)),
                       np.full((10, 2), 1.0) + np.random.default_rng(7).normal(0, .01, (10,2))])
        y = np.array([0] * 10 + [1] * 10)
        model = train_forest(Z, y, n_trees=25, seed=1)
        prob, label = predict_one(model, np.array([1.0, 1.0]))
        assert prob == 1.0 and label == 1

    def test_probability_equals_vote_fraction(self):
        rng = np.random.default_rng(8)
        Z = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, 30)
        y[:2] = [0, 1]
        model = train_forest(Z, y, n_trees=17, seed=3)
        for _ in range(50):
            z = rng.normal(size=2)
            prob, label = predict_one(model, z)
            votes = [tree_vote(t.root, z) for t in model.trees]
            assert prob == sum(votes) / 17
            assert label == int(prob >= 0.5)

    def test_threshold_boundary_maps_to_one(self):
        # hand-built forest voting exactly half and half
        rng = np.random.default_rng(9)
        Z = rng.normal(size=(10, 2))
        y = rng.integers(0, 2, 10)
        y[:2] = [0, 1]
        model = train_forest(Z, y, n_trees=2, seed=4)
        model.trees = [DecisionTree(TreeNode(vote=0)), DecisionTree(TreeNode(vote=1))]
        prob, label = predict_one(model, np.zeros(2))
        assert prob == 0.5 and label == 1
        model.trees = [DecisionTree(TreeNode(vote=0)), DecisionTree(TreeNode(vote=0))]
        model.trees.append(DecisionTree(TreeNode(vote=1)))
        prob, label = predict_one(model, np.zeros(2))
        assert prob < 0.5 and label == 0

    def test_adding_positive_tree_never_decreases_probability(self):
        rng = np.random.default_rng(10)
        votes = [TreeNode(vote=int(v)) for v in rng.integers(0, 2, 9)]
        model = ForestModel([DecisionTree(n) for n in votes])
        before, _ = predict_one(model, np.array([0.5, 0.5]))
        model.trees.append(DecisionTree(TreeNode(vote=1)))
        after, _ = predict_one(model, np.array([0.5, 0.5]))
        assert after >= before

    def test_single_class_rejected(self):
        with pytest.raises(UsageError):
            train_forest(np.zeros((4, 2)), np.ones(4, dtype=int), n_trees=2, seed=0)

    def test_empty_forest_rejected(self):
        model = ForestModel([])
        with pytest.raises(UsageError):
            predict_one(model, np.zeros(2))


class TestStratifiedKfold:
    def test_balanced_hundred(self):
        y = np.array([0] * 50 + [1] * 50)
        for train_idx, val_idx in stratified_kfold(y, 5, seed=42):
            assert len(val_idx) == 20
            assert (y[val_idx] == 0).sum() == 10
            assert (y[val_idx] == 1).sum() == 10

    def test_52_48_split(self):
        y = np.array([1] * 52 + [0] * 48)
        for _, val_idx in stratified_kfold(y, 5, seed=7):
            fake = int((y[val_idx] == 1).sum())
            assert fake in (10, 11)

    def test_partition_property(self):
        rng = np.random.default_rng(51)
        y = rng.integers(0, 2, 83)
        y[:5] = [0, 0, 0, 1, 1]
        y[5:10] = [1, 1, 1, 0, 0]
        folds = stratified_kfold(y, 5, seed=3)
        seen = np.concatenate([v for _, v in folds])
        assert sorted(seen) == list(range(83))
        for train_idx, val_idx in folds:
            assert set(train_idx) | set(val_idx) == set(range(83))
            assert not set(train_idx) & set(val_idx)

    def test_small_class_rejected(self):
        y = np.array([0] * 20 + [1] * 4)
        with pytest.raises(UsageError):
            stratified_kfold(y, 5, seed=0)

    def test_balance_bound_random_sweep(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            n = int(rng.integers(12, 120))
            y = rng.integers(0, 2, n)
            counts = np.bincount(y, minlength=2)
            if counts.min() < 5:
                continue
            for _, val_idx in stratified_kfold(y, 5, seed=int(rng.integers(1e6))):
                for c in (0, 1):
                    got = int((y[val_idx] == c).sum())
                    assert abs(got - counts[c] / 5) <= 1.0
