"""Audio ingestion and the 13-dimensional cepstral mean embedding.

The chain is: PCM-16 RIFF/WAVE -> mono waveform in [-1, 1] -> linear
resampling to 16 kHz -> short-time magnitude spectra (25 ms Hann window,
10 ms hop) -> triangular mel filterbank energies -> log + cosine transform
-> temporal mean of the first 13 coefficients. Spectrograms are plain
``frames x bins`` magnitude matrices and the filterbank an ``M x bins``
weight matrix. Missing or too-short audio never raises from
:func:`embed_audio`; it returns None, and feature assembly zero-fills and
flags it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from deepagent.errors import (
    ConfigurationError,
    FeatureExtractionError,
    IngestionError,
    UsageError,
)

TARGET_RATE = 16000
MIN_RATE = 8000
FRAME_LENGTH = 400  # 25 ms at 16 kHz
HOP = 160           # 10 ms at 16 kHz
N_COEFFS = 13
ENERGY_FLOOR = 1e-10


@dataclass
class Waveform:
    samples: np.ndarray          # float64 in [-1, 1]
    sample_rate: int


def read_wav(path) -> Waveform:
    """Parse a PCM-16 RIFF/WAVE file; stereo is averaged to mono.

    Integer samples are scaled by 1/32768, so -32768 maps to -1.0 exactly.
    Malformed or truncated files raise :class:`IngestionError` naming the
    byte offset of the problem.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[0:4] != b"RIFF":
        raise IngestionError(f"{path}: missing RIFF header at byte 0")
    if blob[8:12] != b"WAVE":
        raise IngestionError(f"{path}: missing WAVE tag at byte 8")

    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body_at = pos + 8
        if body_at + size > len(blob):
            raise IngestionError(f"{path}: chunk {cid!r} truncated at byte {pos}")
        if cid == b"fmt ":
            if size < 16:
                raise IngestionError(f"{path}: fmt chunk too small at byte {pos}")
            audio_format, channels, rate, _, _, bits = struct.unpack_from(
                "<HHIIHH", blob, body_at)
            if audio_format != 1:
                raise IngestionError(
                    f"{path}: not PCM (format {audio_format}) at byte {body_at}")
            if bits != 16:
                raise IngestionError(
                    f"{path}: expected 16-bit samples, got {bits} at byte {body_at + 14}")
            if channels not in (1, 2):
                raise IngestionError(
                    f"{path}: expected mono or stereo, got {channels} channels"
                    f" at byte {body_at + 2}")
            if rate < MIN_RATE:
                raise IngestionError(
                    f"{path}: sample rate {rate} Hz is below {MIN_RATE} Hz"
                    f" at byte {body_at + 4}")
            fmt = (channels, rate)
        elif cid == b"data":
            data = (body_at, size)
        pos = body_at + size + (size & 1)

    if fmt is None:
        raise IngestionError(f"{path}: no fmt chunk found")
    if data is None:
        raise IngestionError(f"{path}: no data chunk found")
    channels, rate = fmt
    offset, size = data
    frames = size // (2 * channels)
    if frames == 0:
        raise IngestionError(f"{path}: data chunk holds no samples at byte {offset}")
    raw = np.frombuffer(blob, dtype="<i2", count=frames * channels, offset=offset)
    samples = raw.reshape(-1, channels).mean(axis=1) / 32768.0
    return Waveform(np.clip(samples, -1.0, 1.0), rate)


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write float samples in [-1, 1] as mono PCM-16."""
    pcm = np.clip(np.asarray(samples) * 32768.0, -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    hdr = b"".join([
        b"RIFF", struct.pack("<I", 36 + len(body)), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, 1, 1, sample_rate,
                             sample_rate * 2, 2, 16),
        b"data", struct.pack("<I", len(body)),
    ])
    with open(path, "wb") as fh:
        fh.write(hdr + body)


def resample(w: Waveform, target: int = TARGET_RATE) -> Waveform:
    """Linear-interpolation resampling to ``target`` Hz."""
    if w.sample_rate < MIN_RATE:
        raise UsageError(f"source rate must be >= {MIN_RATE} Hz, got {w.sample_rate}")
    if w.sample_rate == target:
        return Waveform(w.samples.copy(), target)
    n = len(w.samples)
    out_len = int(round(n * target / w.sample_rate))
    positions = np.arange(out_len) * (w.sample_rate / target)
    out = np.interp(positions, np.arange(n), w.samples)
    return Waveform(out, target)


def hann_window(n: int) -> np.ndarray:
    # periodic form, the usual choice for spectral analysis
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(w: Waveform, frame_length: int = FRAME_LENGTH,
         hop: int = HOP) -> np.ndarray:
    """``frames x (frame_length // 2 + 1)`` magnitude spectrogram over
    Hann-windowed frames (no padding)."""
    x = np.asarray(w.samples, dtype=np.float64)
    if len(x) < frame_length:
        raise FeatureExtractionError(
            f"signal of {len(x)} samples is shorter than one {frame_length}-sample frame")
    n_frames = (len(x) - frame_length) // hop + 1
    window = hann_window(frame_length)
    idx = np.arange(frame_length)[None, :] + hop * np.arange(n_frames)[:, None]
    return np.abs(np.fft.rfft(x[idx] * window, axis=1))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int = N_COEFFS, n_bins: int = FRAME_LENGTH // 2 + 1,
                   sample_rate: int = TARGET_RATE, f_min: float = 0.0,
                   f_max: float | None = None) -> np.ndarray:
    """``n_filters x n_bins`` triangular weights with peaks equally spaced
    on the mel scale."""
    if f_max is None:
        f_max = sample_rate / 2.0
    points = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_filters + 2))
    bin_hz = np.arange(n_bins) * sample_rate / ((n_bins - 1) * 2)
    weights = np.zeros((n_filters, n_bins))
    for m in range(n_filters):
        left, center, right = points[m], points[m + 1], points[m + 2]
        rising = (bin_hz - left) / max(center - left, 1e-12)
        falling = (right - bin_hz) / max(right - center, 1e-12)
        weights[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return weights


def mel_energies(magnitudes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-frame filterbank energies: weighted sums of the power spectrum."""
    if weights.shape[1] != magnitudes.shape[1]:
        raise ConfigurationError(
            f"filterbank has {weights.shape[1]} bins, spectrogram has "
            f"{magnitudes.shape[1]}")
    return magnitudes ** 2 @ weights.T


def mfcc(energies: np.ndarray, n_coeffs: int = N_COEFFS) -> np.ndarray:
    """Cosine-transform the log energies into cepstral coefficients.

    Coefficient c of a frame is sum_m log(E_m) * cos(pi * c * (m - 0.5) / M)
    over the M filters, for c in 0..n_coeffs-1. Energies are floored at
    1e-10 so silent frames stay finite.
    """
    energies = np.asarray(energies, dtype=np.float64)
    log_e = np.log(np.maximum(energies, ENERGY_FLOOR))
    n_filters = energies.shape[1]
    m = np.arange(1, n_filters + 1)
    c = np.arange(n_coeffs)
    basis = np.cos(np.pi * c[:, None] * (m[None, :] - 0.5) / n_filters)
    return log_e @ basis.T


def embed_audio(w: Waveform | None, *, mel_filters: int = N_COEFFS) -> np.ndarray | None:
    """Temporal mean of the MFCC matrix (13 values); None when the audio is
    absent or shorter than one analysis frame."""
    if w is None or len(w.samples) == 0:
        return None
    if w.sample_rate != TARGET_RATE:
        w = resample(w, TARGET_RATE)
    try:
        mags = stft(w)
    except FeatureExtractionError:
        return None
    weights = mel_filterbank(n_filters=mel_filters, n_bins=mags.shape[1])
    return mfcc(mel_energies(mags, weights)).mean(axis=0)
