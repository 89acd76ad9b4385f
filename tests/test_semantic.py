"""Tokenization, lexical similarity, and feature assembly."""

import numpy as np
import numpy.testing as npt

from deepagent import semantic
from deepagent.semantic import build_feature, lexical_similarity, tokenize


class TestTokenize:
    def test_punctuation_stripped(self):
        assert tokenize("Hello, world!") == {"hello", "world"}

    def test_empty_text(self):
        assert tokenize("") == set()

    def test_hyphen_chain(self):
        assert tokenize("state-of-the-art") == {"state", "of", "the", "art"}

    def test_underscore_splits(self):
        assert tokenize("a_b") == {"a", "b"}

    def test_set_semantics(self):
        assert tokenize("go go GO") == {"go"}


class TestLexicalSimilarity:
    def test_half_overlap(self):
        a = frozenset({"a", "b"})
        v = frozenset({"b", "c"})
        assert lexical_similarity(a, v) == 0.5

    def test_empty_audio_tokens_guarded(self):
        assert lexical_similarity(frozenset(), frozenset({"x"})) == 0.0

    def test_subset_gives_one(self):
        a = frozenset({"p", "q"})
        v = frozenset({"p", "q", "r"})
        assert lexical_similarity(a, v) == 1.0

    def test_asymmetric_by_construction(self):
        a = frozenset({"a"})
        v = frozenset({"a", "b", "c", "d"})
        assert lexical_similarity(a, v) == 1.0
        assert lexical_similarity(v, a) == 0.25

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(30)
        pool = [f"w{i}" for i in range(30)]
        for _ in range(300):
            a = frozenset(rng.choice(pool, rng.integers(0, 10), replace=False))
            v = frozenset(rng.choice(pool, rng.integers(0, 10), replace=False))
            assert 0.0 <= lexical_similarity(a, v) <= 1.0


class TestBuildFeature:
    def test_assembly_ends_with_similarity(self):
        audio_emb = np.arange(13.0)
        a = frozenset({"a", "b"})
        v = frozenset({"b", "c"})
        x = build_feature(audio_emb, a, v)
        assert x.shape == (14,)
        npt.assert_array_equal(x[:13], np.arange(13.0))
        assert x[13] == 0.5

    def test_absent_audio_zero_filled(self):
        x = build_feature(None, frozenset({"a"}), frozenset({"a"}))
        npt.assert_array_equal(x[:13], 0.0)
        assert x[13] == 1.0

    def test_absent_text_zero_similarity(self):
        audio_emb = np.ones(13)
        for a, v in ((None, None), (frozenset({"a"}), None),
                     (None, frozenset({"a"}))):
            x = build_feature(audio_emb, a, v)
            assert x[13] == 0.0

    def test_always_14_and_finite(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            coeffs = rng.normal(size=13) * 100
            emb = coeffs if rng.integers(2) else None
            x = build_feature(emb, frozenset({"x"}), frozenset({"y"}))
            assert x.shape == (semantic.FEATURE_DIM,)
            assert np.isfinite(x).all()
