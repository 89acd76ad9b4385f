"""Cross-modal lexical similarity and the 14-dimensional feature vector.

A transcript or frame text becomes a ``frozenset`` of tokens. The
similarity score measures how much of the spoken-word token set shows up
in the frame-text token set; it is deliberately asymmetric (normalized by
the spoken set's size only). The feature vector is the 13 audio
coefficients followed by that score, with zero fills for absent
modalities, and travels with a two-value presence-flag array.
"""

from __future__ import annotations

import re

import numpy as np

from deepagent.audio import N_COEFFS

FEATURE_DIM = N_COEFFS + 1

_SPLIT = re.compile(r"[\W_]+", re.UNICODE)


def tokenize(text: str) -> frozenset[str]:
    """Lowercase and split on every non-alphanumeric codepoint."""
    return frozenset(p for p in _SPLIT.split(text.lower()) if p)


def lexical_similarity(audio_tokens: frozenset[str],
                       visual_tokens: frozenset[str]) -> float:
    """|intersection| / max(|audio tokens|, 1); always in [0, 1]."""
    return len(audio_tokens & visual_tokens) / max(len(audio_tokens), 1)


def build_feature(coeffs: np.ndarray | None, audio_tokens: frozenset[str] | None,
                  visual_tokens: frozenset[str] | None) -> tuple[np.ndarray, np.ndarray]:
    """The 14-vector [audio coeffs, similarity] and the flags
    [audio present, text present] as floats; absent modalities contribute
    zeros (``coeffs`` None means no usable audio)."""
    x = np.zeros(FEATURE_DIM)
    if coeffs is not None:
        x[:N_COEFFS] = coeffs
    text_present = audio_tokens is not None and visual_tokens is not None
    if text_present:
        x[N_COEFFS] = lexical_similarity(audio_tokens, visual_tokens)
    return x, np.array([float(coeffs is not None), float(text_present)])
