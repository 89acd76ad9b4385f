"""The cross-validated fusion loop over the N x 2 score matrix."""

import hashlib

import numpy as np
import pytest

from deepagent import files, fusion
from deepagent.errors import UsageError
from deepagent.forest import stratified_kfold
from deepagent.nn.layers import Standardize


def make_scores(n, rng, separable):
    """(N x 2 score matrix, labels)."""
    labels = np.array([0, 1] * (n // 2))
    if separable:
        a1 = labels + rng.uniform(-0.01, 0.01, n)
        a2 = labels + rng.uniform(-0.01, 0.01, n)
    else:
        a1 = np.full(n, 0.5)
        a2 = np.full(n, 0.5)
    return np.clip(np.column_stack([a1, a2]), 0, 1), labels


class TestCrossValidate:
    def test_separable_scores_reach_perfect_f1(self):
        rng = np.random.default_rng(61)
        scores, labels = make_scores(60, rng, separable=True)
        rows = fusion.cross_validate_meta(scores, labels, folds=5, n_trees=25, seed=42)
        assert np.mean([r["f1"] for r in rows]) == 1.0

    def test_uninformative_scores_near_chance(self):
        rng = np.random.default_rng(62)
        scores, labels = make_scores(100, rng, separable=False)
        rows = fusion.cross_validate_meta(scores, labels, folds=5, n_trees=25, seed=42)
        acc = np.mean([r["accuracy"] for r in rows])
        assert 0.4 <= acc <= 0.6

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(63)
        scores, labels = make_scores(40, rng, separable=True)
        a = fusion.cross_validate_meta(scores, labels, folds=5, n_trees=11, seed=5)
        b = fusion.cross_validate_meta(scores, labels, folds=5, n_trees=11, seed=5)
        assert a == b

    def test_scores_not_matching_labels_rejected(self):
        labels = np.array([0, 1] * 5)
        for scores in (np.zeros((9, 2)), np.zeros((10, 3)), np.zeros(10)):
            with pytest.raises(UsageError, match="N x 2"):
                fusion.cross_validate_meta(scores, labels, folds=2, n_trees=1)

    def test_standardizer_fit_on_training_split_only(self):
        # train columns center to ~0 under the fold's standardizer while the
        # validation columns generally do not
        rng = np.random.default_rng(65)
        Z = rng.normal(loc=2.0, size=(50, 2))
        y = np.array([0, 1] * 25)
        off_center = 0
        for train_idx, val_idx in stratified_kfold(y, 5, seed=9):
            std = Standardize(2).fit(Z[train_idx])
            train_means = std.forward(Z[train_idx]).mean(axis=0)
            val_means = std.forward(Z[val_idx]).mean(axis=0)
            assert np.abs(train_means).max() < 1e-12
            if np.abs(val_means).max() > 1e-6:
                off_center += 1
        assert off_center >= 4


class TestFoldReport:
    def test_rows_plus_mean(self):
        rng = np.random.default_rng(66)
        scores, labels = make_scores(40, rng, separable=True)
        rows = fusion.fold_report(
            fusion.cross_validate_meta(scores, labels, folds=5, n_trees=9, seed=2))
        assert len(rows) == 6
        assert rows[-1]["fold"] == "mean"
        assert "roc" in rows[0] and "roc" not in rows[-1]
        for key in ("accuracy", "precision", "recall", "f1", "auc"):
            assert key in rows[-1]

    def test_roc_sentinels_are_json_safe(self):
        import json
        rng = np.random.default_rng(67)
        scores, labels = make_scores(20, rng, separable=True)
        rows = fusion.fold_report(
            fusion.cross_validate_meta(scores, labels, folds=5, n_trees=5, seed=3))
        text = json.dumps(rows)
        assert "Infinity" not in text
        parsed = json.loads(text)
        assert parsed[0]["roc"][0][2] == "inf"

    def test_bytes_are_pinned(self, tmp_path):
        # sha256 of the ``files.write_json`` bytes of a seeded 120-row fold
        # report: a change to any fold value or key order changes the file
        rng = np.random.default_rng(2702)
        labels = np.array([0, 1] * 60)
        scores = np.clip(np.column_stack([0.3 * labels + rng.uniform(0, 0.7, 120),
                                          0.2 * labels + rng.uniform(0, 0.8, 120)]),
                         0, 1)
        rows = fusion.fold_report(
            fusion.cross_validate_meta(scores, labels, folds=5, n_trees=15, seed=42))
        path = tmp_path / "fold_report.json"
        files.write_json(path, rows)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "129cfec44de07c55de2539873241472727f5467f62bc534967a9c8e9421f25a0")
