"""The cross-validated fusion loop over the N x 2 score matrix."""

import hashlib

import numpy as np
import pytest

from deepagent import files, fusion
from deepagent.errors import UsageError


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
                fusion.cross_validate_meta(scores, labels, folds=2, n_trees=1, seed=0)

    def test_column_scaling_changes_no_row(self):
        # a tree split depends on each column's order and midpoints alone;
        # scaling by a power of two keeps every midpoint comparison exact
        rng = np.random.default_rng(65)
        labels = np.array([0, 1] * 30)
        scores = np.column_stack([0.3 * labels + rng.uniform(0, 0.7, 60),
                                  rng.uniform(0, 1, 60)])
        plain = fusion.cross_validate_meta(scores, labels, folds=5, n_trees=15, seed=4)
        scaled = fusion.cross_validate_meta(scores * [8.0, 0.25], labels, folds=5,
                                            n_trees=15, seed=4)
        assert plain == scaled


class TestFoldReport:
    def test_rows_plus_mean(self):
        rng = np.random.default_rng(66)
        scores, labels = make_scores(40, rng, separable=True)
        rows = fusion.cross_validate_meta(scores, labels, folds=5, n_trees=9, seed=2)
        assert len(rows) == 6
        assert rows[-1]["fold"] == "mean"
        assert "roc" in rows[0] and "roc" not in rows[-1]
        for key in ("accuracy", "precision", "recall", "f1", "auc"):
            assert key in rows[-1]

    def test_roc_sentinels_are_json_safe(self):
        import json
        rng = np.random.default_rng(67)
        scores, labels = make_scores(20, rng, separable=True)
        rows = fusion.cross_validate_meta(scores, labels, folds=5, n_trees=5, seed=3)
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
        rows = fusion.cross_validate_meta(scores, labels, folds=5, n_trees=15, seed=42)
        path = tmp_path / "fold_report.json"
        files.write_json(path, rows)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "129cfec44de07c55de2539873241472727f5467f62bc534967a9c8e9421f25a0")
