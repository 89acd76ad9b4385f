"""Acceptance gate: one test per criterion, one printed line per criterion.

The headline dataset-scale numbers are out of reach at desk scale, so
acceptance is property- and oracle-based: gradient checks, independent
audio/forest/AUC references, structural audits, and the synthetic-fixture
end-to-end workflow.
"""

import json
import time

import numpy as np
import pytest

from deepagent import agents, audio, metrics
from deepagent.cli import main
from deepagent.forest import (
    DecisionTree,
    TreeNode,
    predict_forest_batch,
    stratified_kfold,
    train_forest,
)
from deepagent.nn import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    SoftmaxLayer,
)
from deepagent.nn.losses import bce_batch, cce_batch
from deepagent.semantic import build_feature, lexical_similarity

from oracles import (
    agent1_shape_chain,
    gradient_check,
    pairwise_auc,
    reference_mfcc_mean,
    tree_vote,
)


def report_line(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# --- criterion 1: gradient suite -------------------------------------------

def _cce_loss(out, y):
    return cce_batch(out, y)


def _bce_loss(out, y):
    loss, grad = bce_batch(out[:, 0], y)
    return loss, grad[:, None]


def _weighted_sum(out, _):
    w = np.random.default_rng(99).normal(size=out.shape)
    return float((w * out).sum()), w


def _gradient_suite():
    """(name, net, x, y, loss) for every layer kind and both agent heads."""
    rng = np.random.default_rng(2024)
    suite = []

    def add(name, layers, x, y=None, loss=_weighted_sum):
        suite.append((name, Sequential(layers), x, y, loss))

    add("dense", [Dense(4, 3, rng=rng)], rng.normal(size=(5, 4)))
    add("relu", [Dense(4, 4, rng=rng), ReLU(), Dense(4, 2, rng=rng)],
        rng.normal(size=(4, 4)))
    add("conv_valid", [Conv2D(2, 3, 3, rng=rng)], rng.normal(size=(2, 6, 6, 2)))
    add("conv_same_strided", [Conv2D(2, 2, 3, stride=2, padding="same", rng=rng)],
        rng.normal(size=(2, 7, 7, 2)))
    add("maxpool", [Conv2D(1, 2, 3, rng=rng), MaxPool2D(2, 2)],
        rng.normal(size=(2, 6, 6, 1)))
    add("batchnorm_dense", [Dense(3, 4, rng=rng), ReLU(), BatchNorm(4)],
        rng.normal(size=(6, 3)))
    add("batchnorm_conv", [Conv2D(2, 3, 3, padding="same", rng=rng), ReLU(),
                           BatchNorm(3)], rng.normal(size=(3, 5, 5, 2)))
    add("gap", [Conv2D(2, 3, 3, rng=rng), GlobalAvgPool()],
        rng.normal(size=(2, 5, 5, 2)))
    add("dropout", [Dense(6, 6, rng=rng), Dropout(0.4, rng=np.random.default_rng(1)),
                    Dense(6, 2, rng=rng)], rng.normal(size=(4, 6)))
    add("softmax_cce", [Dense(5, 6, rng=rng), ReLU(), Dense(6, 3, rng=rng),
                        SoftmaxLayer()],
        rng.normal(size=(4, 5)), np.eye(3)[[0, 2, 1, 1]], _cce_loss)
    add("sigmoid_bce", [Dense(3, 1, rng=rng), Sigmoid()],
        rng.normal(size=(4, 3)), np.array([0.0, 1.0, 1.0, 0.0]), _bce_loss)
    add("agent1_head", [
        Conv2D(2, 3, 3, stride=2, rng=rng), ReLU(), BatchNorm(3),
        MaxPool2D(2, 1),
        Conv2D(3, 4, 3, padding="same", rng=rng), ReLU(), BatchNorm(4),
        GlobalAvgPool(),
        Dense(4, 6, rng=rng), ReLU(),
        Dropout(0.5, rng=np.random.default_rng(2)), BatchNorm(6),
        Dense(6, 4, rng=rng), ReLU(), Dropout(0.5, rng=np.random.default_rng(3)),
        Dense(4, 2, rng=rng, init="xavier"), SoftmaxLayer(),
    ], rng.normal(size=(3, 9, 9, 2)), np.eye(2)[[0, 1, 0]], _cce_loss)
    add("agent2_head", [
        Dense(4, 4, rng=rng), ReLU(), Dropout(0.2, rng=np.random.default_rng(4)),
        Dense(4, 4, rng=rng), ReLU(), Dropout(0.2, rng=np.random.default_rng(5)),
        Dense(4, 4, rng=rng), ReLU(),
        Dense(4, 1, rng=rng, init="xavier"), Sigmoid(),
    ], rng.normal(size=(5, 4)), np.array([1.0, 0.0, 1.0, 0.0, 1.0]), _bce_loss)
    return suite


def test_criterion_1_gradient_suite():
    start = time.time()
    worst = 0.0
    nudge = np.random.default_rng(17)
    for name, net, x, y, loss in _gradient_suite():
        for p in net.params():
            if not p.value.any():
                p.value += nudge.uniform(-0.2, 0.2, size=p.value.shape)
        err = gradient_check(net, loss, x, y)
        assert err < 1e-4, f"{name}: max relative error {err}"
        worst = max(worst, err)
    elapsed = time.time() - start
    report_line(1, f"gradient suite (worst {worst:.2e}, {elapsed:.1f}s)",
                worst < 1e-4 and elapsed < 60.0)


# --- criterion 2: MFCC oracle ----------------------------------------------

def test_criterion_2_mfcc_oracle():
    t = np.arange(3200) / 16000.0
    sine = 0.5 * np.sin(2 * np.pi * 440 * t)
    noise = np.random.default_rng(7).uniform(-0.8, 0.8, size=3200)
    worst = 0.0
    for samples in (sine, noise):
        got = audio.embed_audio(audio.Waveform(samples, 16000))
        ref = reference_mfcc_mean(samples)
        worst = max(worst, float(np.abs(got - ref).max()))
    report_line(2, f"MFCC naive-DFT oracle (max dev {worst:.2e})", worst < 1e-6)


# --- criterion 3: shape audit -----------------------------------------------

def test_criterion_3_shape_audit():
    chain = agent1_shape_chain(agents.build_agent1(seed=0, input_size=224))
    expected = [
        (224, 224, 3), (54, 54, 64), (26, 26, 64), (26, 26, 128),
        (12, 12, 128), (12, 12, 256), (12, 12, 256), (12, 12, 128),
        (5, 5, 128), (128,), (1024,), (512,), (2,),
    ]
    report_line(3, "agent1 layer-shape audit", chain == expected)


# --- criterion 4: forest vote oracle -----------------------------------------

def test_criterion_4_forest_vote_oracle():
    rng = np.random.default_rng(11)
    Z = rng.normal(size=(60, 2))
    y = rng.integers(0, 2, 60)
    y[:2] = [0, 1]
    model = train_forest(Z, y, n_trees=100, seed=5)
    ok = True
    queries = rng.normal(size=(50, 2))
    probs, labels = predict_forest_batch(model, queries)
    for z, prob, label in zip(queries, probs, labels):
        zs = model.standardizer.apply(z[None])[0]
        votes = sum(tree_vote(t.root, zs) for t in model.trees)
        ok &= prob == votes / 100
        ok &= label == int(prob >= 0.5)
    # decision boundary: exactly half the votes means label 1
    model.trees = [DecisionTree(TreeNode(vote=v)) for v in (0, 1)]
    probs, labels = predict_forest_batch(model, np.zeros((1, 2)))
    ok &= probs[0] == 0.5 and labels[0] == 1
    report_line(4, "forest probability equals vote fraction", ok)


# --- criterion 5: AUC oracle --------------------------------------------------

def test_criterion_5_auc_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 201))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        scores = np.round(rng.normal(size=n), 2)
        _, got = metrics.roc_auc(labels, scores)
        worst = max(worst, abs(got - pairwise_auc(labels, scores)))
    report_line(5, f"trapezoid AUC vs pairwise oracle (max dev {worst:.1e})",
                worst <= 1e-12)


# --- criterion 6: stratification -----------------------------------------------

def test_criterion_6_stratification():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(12, 150))
        labels = rng.integers(0, 2, n)
        counts = np.bincount(labels, minlength=2)
        if counts.min() < 5:
            continue
        folds = stratified_kfold(labels, 5, seed=int(rng.integers(1 << 31)))
        seen = np.sort(np.concatenate([v for _, v in folds]))
        ok &= np.array_equal(seen, np.arange(n))
        for train_idx, val_idx in folds:
            ok &= not set(train_idx) & set(val_idx)
            for c in (0, 1):
                got = int((labels[val_idx] == c).sum())
                ok &= abs(got - counts[c] / 5) <= 1.0
    report_line(6, "stratified 5-fold balance and partition", ok)


# --- criteria 7 + 10: end-to-end fixture run ------------------------------------

@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_e2e")
    fx = root / "fx"
    start = time.time()
    steps = [
        ["gen-fixtures", "--out", str(fx), "--n", "200",
         "--strength", "1.0", "--gap", "1.0", "--seed", "42"],
        ["extract", "--manifest", str(fx / "manifest.json"),
         "--out", str(root / "cache.daft")],
        ["train", "agent1", "--manifest", str(fx / "manifest.json"),
         "--out", str(root / "agent1.damc"), "--desk-scale", "--epochs", "12"],
        ["train", "agent2", "--manifest", str(fx / "manifest.json"),
         "--cache", str(root / "cache.daft"), "--out", str(root / "agent2.damc")],
        ["fuse", "--manifest", str(fx / "manifest.json"),
         "--agent1", str(root / "agent1.damc"),
         "--agent2", str(root / "agent2.damc"),
         "--cache", str(root / "cache.daft"),
         "--out", str(root / "fold_report.json")],
        ["report", "--fold-report", str(root / "fold_report.json"),
         "--out", str(root / "report.txt"), "--roc-dir", str(root / "roc")],
    ]
    for args in steps:
        assert main(args) == 0, f"command failed: {' '.join(args)}"
    elapsed = time.time() - start
    return {"root": root, "elapsed": elapsed}


def test_criterion_7_end_to_end(e2e_run, tmp_path):
    root = e2e_run["root"]
    rows = json.loads((root / "fold_report.json").read_text())
    mean_f1 = [r for r in rows if r["fold"] == "mean"][0]["f1"]

    # chance-level companion: label-independent fixtures stay near 0.5
    fx0 = tmp_path / "fx0"
    for args in (
        ["gen-fixtures", "--out", str(fx0), "--n", "100",
         "--strength", "0.0", "--gap", "0.0", "--seed", "42"],
        ["extract", "--manifest", str(fx0 / "manifest.json"),
         "--out", str(tmp_path / "cache0.daft")],
        ["train", "agent1", "--manifest", str(fx0 / "manifest.json"),
         "--out", str(tmp_path / "a1.damc"), "--desk-scale", "--epochs", "4"],
        ["train", "agent2", "--manifest", str(fx0 / "manifest.json"),
         "--cache", str(tmp_path / "cache0.daft"),
         "--out", str(tmp_path / "a2.damc")],
        ["fuse", "--manifest", str(fx0 / "manifest.json"),
         "--agent1", str(tmp_path / "a1.damc"),
         "--agent2", str(tmp_path / "a2.damc"),
         "--cache", str(tmp_path / "cache0.daft"),
         "--out", str(tmp_path / "fold0.json")],
    ):
        assert main(args) == 0
    rows0 = json.loads((tmp_path / "fold0.json").read_text())
    chance_acc = [r for r in rows0 if r["fold"] == "mean"][0]["accuracy"]

    ok = mean_f1 >= 0.95 and 0.4 <= chance_acc <= 0.6 and e2e_run["elapsed"] < 600
    report_line(7, f"end-to-end (F1 {mean_f1:.3f}, chance acc {chance_acc:.2f}, "
                   f"{e2e_run['elapsed']:.0f}s)", ok)


# --- criterion 8: determinism ----------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    def run(root):
        fx = root / "fx"
        for args in (
            ["gen-fixtures", "--out", str(fx), "--n", "40",
             "--strength", "1.0", "--gap", "1.0", "--seed", "42"],
            ["extract", "--manifest", str(fx / "manifest.json"),
             "--out", str(root / "cache.daft")],
            ["train", "agent1", "--manifest", str(fx / "manifest.json"),
             "--out", str(root / "agent1.damc"), "--desk-scale", "--epochs", "3"],
            ["train", "agent2", "--manifest", str(fx / "manifest.json"),
             "--cache", str(root / "cache.daft"),
             "--out", str(root / "agent2.damc")],
            ["fuse", "--manifest", str(fx / "manifest.json"),
             "--agent1", str(root / "agent1.damc"),
             "--agent2", str(root / "agent2.damc"),
             "--cache", str(root / "cache.daft"),
             "--out", str(root / "fold_report.json")],
        ):
            assert main(args) == 0

    r1, r2 = tmp_path / "run1", tmp_path / "run2"
    r1.mkdir(), r2.mkdir()
    run(r1)
    run(r2)
    ok = True
    for name in ("agent1.damc", "agent2.damc", "fold_report.json", "cache.daft"):
        ok &= (r1 / name).read_bytes() == (r2 / name).read_bytes()
    report_line(8, "byte-identical reports and checkpoints across runs", ok)


# --- criterion 9: similarity and feature-assembly battery -------------------------

def test_criterion_9_similarity_battery():
    ok = True
    # lexical similarity
    ok &= lexical_similarity(frozenset({"a", "b"}), frozenset({"b", "c"})) == 0.5
    ok &= lexical_similarity(frozenset(), frozenset({"x"})) == 0.0
    ok &= lexical_similarity(frozenset({"p", "q"}), frozenset({"p", "q", "r"})) == 1.0
    # feature assembly
    emb = np.arange(13.0)
    x, _ = build_feature(emb, frozenset({"a", "b"}), frozenset({"b"}))
    ok &= x.shape == (14,) and x[13] == 0.5
    absent, _ = build_feature(None, frozenset({"a"}), frozenset({"a"}))
    ok &= not absent[:13].any()
    no_text, flags = build_feature(emb, None, None)
    ok &= no_text[13] == 0.0 and not flags[1]
    report_line(9, "similarity and feature-assembly battery", ok)


# --- criterion 10: report parity ----------------------------------------------------

def test_criterion_10_report_parity(e2e_run):
    root = e2e_run["root"]
    table = (root / "report.txt").read_text()
    rows = json.loads((root / "fold_report.json").read_text())
    lines = table.strip().splitlines()
    header, body = lines[0], lines[1:]
    ok = all(col in header for col in
             ("Fold", "Accuracy (%)", "Precision (%)", "Recall (%)",
              "F1 Score (%)", "AUC (%)"))
    ok &= body[-1].split()[0] == "Mean"
    ok &= len(body) == len(rows)
    # values render as fold-report fractions x100 at two decimals
    first = rows[0]
    for key in ("accuracy", "precision", "recall", "f1", "auc"):
        ok &= f"{first[key] * 100.0:.2f}" in body[0]
    mean_row = rows[-1]
    ok &= f"{mean_row['f1'] * 100.0:.2f}" in body[-1]
    roc_files = sorted((root / "roc").glob("roc_fold*.csv"))
    ok &= len(roc_files) == 5
    report_line(10, "fold-table and ROC report parity", ok)
