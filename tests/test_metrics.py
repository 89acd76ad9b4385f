"""Confusion counts, F1 variants, ROC/AUC against the pairwise oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from deepagent import metrics
from deepagent.errors import UsageError

from oracles import pairwise_auc


class TestConfusion:
    def test_perfect_predictions(self):
        cm = metrics.confusion([1, 0, 1, 0], [1, 0, 1, 0])
        # cm[true, predicted]; for class 1: TP cm[1, 1], TN cm[0, 0],
        # FP cm[0, 1], FN cm[1, 0]
        assert cm[1, 1] == 2 and cm[0, 0] == 2
        assert cm[0, 1] == 0 and cm[1, 0] == 0

    def test_all_wrong_zero_diagonal(self):
        cm = metrics.confusion([1, 0], [0, 1])
        assert np.trace(cm) == 0

    def test_hand_count(self):
        cm = metrics.confusion([1, 1, 0, 0], [1, 0, 1, 0])
        assert (cm[1, 1], cm[1, 0], cm[0, 1], cm[0, 0]) == (1, 1, 1, 1)

    def test_class0_tp_equals_class1_tn(self):
        rng = np.random.default_rng(40)
        y = rng.integers(0, 2, 50)
        p = rng.integers(0, 2, 50)
        cm = metrics.confusion(y, p)
        assert cm.shape == (2, 2) and cm.sum() == 50
        # class 0's TP is class 1's TN, and the counts are the hand tally
        tally = [[int(((y == i) & (p == j)).sum()) for j in (0, 1)] for i in (0, 1)]
        assert cm.tolist() == tally

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            metrics.confusion([1, 0], [1])


class TestMacroF1:
    def test_perfect_is_one(self):
        cm = metrics.confusion([1, 0, 1], [1, 0, 1])
        assert metrics.macro_f1(cm) == 1.0

    def test_hand_count_half(self):
        cm = metrics.confusion([1, 1, 0, 0], [1, 0, 1, 0])
        npt.assert_allclose(metrics.macro_f1(cm), 0.5)

    def test_all_one_predictions_on_balanced(self):
        cm = metrics.confusion([0, 0, 1, 1], [1, 1, 1, 1])
        npt.assert_allclose(metrics.f1_per_class(cm, 1), 2.0 / 3.0)
        assert metrics.f1_per_class(cm, 0) == 0.0
        npt.assert_allclose(metrics.macro_f1(cm), 1.0 / 3.0)

    def test_invariant_under_simultaneous_label_swap(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            y = rng.integers(0, 2, 30)
            p = rng.integers(0, 2, 30)
            a = metrics.macro_f1(metrics.confusion(y, p))
            b = metrics.macro_f1(metrics.confusion(1 - y, 1 - p))
            npt.assert_allclose(a, b, rtol=1e-12)


class TestAccuracyPrecisionRecall:
    def test_perfect(self):
        cm = metrics.confusion([1, 0], [1, 0])
        assert metrics.accuracy(cm) == 1.0
        assert metrics.precision(cm, 1) == (1.0, True)
        assert metrics.recall(cm, 1) == (1.0, True)

    def test_hand_count_values(self):
        cm = metrics.confusion([1, 1, 0, 0], [1, 0, 1, 0])
        assert metrics.precision(cm, 1)[0] == 0.5
        assert metrics.recall(cm, 1)[0] == 0.5

    def test_no_positive_predictions_flagged(self):
        cm = metrics.confusion([1, 0], [0, 0])
        value, defined = metrics.precision(cm, 1)
        assert value == 0.0 and not defined

    def test_accuracy_is_trace_over_n(self):
        rng = np.random.default_rng(42)
        y = rng.integers(0, 2, 200)
        p = rng.integers(0, 2, 200)
        cm = metrics.confusion(y, p)
        assert metrics.accuracy(cm) == np.trace(cm) / 200


class TestRocAuc:
    def test_perfect_separation(self):
        _, auc = metrics.roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
        assert auc == 1.0

    def test_identical_scores_give_half(self):
        _, auc = metrics.roc_auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5])
        npt.assert_allclose(auc, 0.5)

    def test_worked_example(self):
        _, auc = metrics.roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1])
        npt.assert_allclose(auc, 0.75)

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(43)
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        points, _ = metrics.roc_auc(y, rng.normal(size=40))
        assert tuple(points[0][:2]) == (0.0, 0.0)
        assert tuple(points[-1][:2]) == (1.0, 1.0)
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert all(b >= a for a, b in zip(fprs, fprs[1:]))
        assert all(b >= a for a, b in zip(tprs, tprs[1:]))

    def test_matches_pairwise_probability(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            n = int(rng.integers(4, 200))
            y = rng.integers(0, 2, n)
            y[:2] = [0, 1]
            scores = np.round(rng.normal(size=n), 2)  # force some ties
            _, auc = metrics.roc_auc(y, scores)
            npt.assert_allclose(auc, pairwise_auc(y, scores), atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(UsageError):
            metrics.roc_auc([1, 1], [0.5, 0.6])


class TestMetricReport:
    def test_schema_and_fractions(self):
        report = metrics.metric_report([1, 0, 1, 0], [1, 0, 0, 0],
                                       scores=[0.9, 0.2, 0.4, 0.1])
        for key in ("accuracy", "precision_per_class", "recall_per_class",
                    "f1_per_class", "macro_f1", "auc", "confusion", "undefined"):
            assert key in report
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["auc"] == 1.0

    def test_undefined_flags_present(self):
        report = metrics.metric_report([1, 0], [0, 0])
        assert "precision_1" in report["undefined"]
