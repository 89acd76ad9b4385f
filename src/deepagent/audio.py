"""Audio ingestion and the 13-dimensional cepstral mean embedding.

The chain is: PCM-16 RIFF/WAVE -> mono waveform in [-1, 1] -> resampling to
16 kHz (band-limited interpolation with a windowed sinc, which low-passes
at 8 kHz when downsampling) -> short-time magnitude spectra (25 ms Hann window,
10 ms hop) -> triangular mel filterbank energies -> log + cosine transform
-> temporal mean of the first 13 coefficients. The analysis is fixed:
``FRAME_LENGTH``/``HOP`` samples per frame and hop, ``N_COEFFS`` filters
spanning 0 Hz to the Nyquist frequency of ``TARGET_RATE``, and as many
coefficients. Spectrograms are plain ``frames x bins`` magnitude matrices
and the filterbank an ``N_COEFFS x bins`` weight matrix. Each input rule
has one owner: ``read_wav`` bounds the sample rate, so ``resample``
converts any rate it passes to 16 kHz only, and :func:`embed_audio`
returns None for missing or too-short audio (feature assembly zero-fills
it), so ``stft`` always sees at least one frame.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from deepagent.errors import IngestionError

TARGET_RATE = 16000
MIN_RATE = 8000
# the highest sample rate read, the top rate of studio PCM; a header that
# claims more would set ``resample``'s kernel width from a corrupt field
MAX_RATE = 384000
FRAME_LENGTH = 400  # 25 ms at 16 kHz
HOP = 160           # 10 ms at 16 kHz
N_COEFFS = 13
ENERGY_FLOOR = 1e-10
# resampling kernel: a Kaiser-windowed sinc, SINC_ZEROS zero crossings on
# each side of its centre (about 90 dB of stopband attenuation from 1.25x
# the lower Nyquist frequency up), evaluated for blocks of output samples
# whose input windows hold at most RESAMPLE_VALUES values
SINC_ZEROS = 16
KAISER_BETA = 8.6
RESAMPLE_VALUES = 2 ** 19


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
            if rate > MAX_RATE:
                raise IngestionError(
                    f"{path}: sample rate {rate} Hz is above {MAX_RATE} Hz"
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


def resample(w: Waveform) -> Waveform:
    """Band-limited resampling to ``TARGET_RATE`` (J. O. Smith, *Digital
    Audio Resampling*); ``read_wav`` bounds the source rate.

    Output sample k lies at input position t = k * rate / TARGET_RATE. It
    is the sum of the input samples within ``SINC_ZEROS`` zero crossings of
    t, each weighted by a Kaiser-windowed sinc evaluated at its fractional
    distance from t. The sinc's cutoff is the lower of the two Nyquist
    frequencies, so downsampling removes content above the target's
    instead of aliasing it into the band. Each output's weights sum to one
    (unit gain at 0 Hz), and the input is zero beyond its ends. A
    ``TARGET_RATE`` source is returned as it is.
    """
    if w.sample_rate == TARGET_RATE:
        return w
    g = np.gcd(w.sample_rate, TARGET_RATE)
    up, down = TARGET_RATE // g, w.sample_rate // g  # output k at k * down / up
    half = SINC_ZEROS * max(down / up, 1.0)     # kernel half-width, input samples
    reach = np.arange(-int(half), int(half) + 2)
    x = np.pad(w.samples, len(reach))
    out = np.empty(int(round(len(w.samples) * TARGET_RATE / w.sample_rate)))
    rows = max(1, RESAMPLE_VALUES // len(reach))
    taps_for = None  # the phases the current taps were computed for
    for start in range(0, len(out), rows):
        k = np.arange(start, min(start + rows, len(out)))
        base, phase = np.divmod(k * down, up)
        # one row of weights per fractional phase r / up the block uses,
        # kept from the previous block when it used the same phases
        used, row = np.unique(phase, return_inverse=True)
        if taps_for is None or not np.array_equal(used, taps_for):
            d = (used[:, None] / up - reach) / half
            taps = np.sinc(d * SINC_ZEROS) * np.i0(
                KAISER_BETA * np.sqrt(np.clip(1.0 - d * d, 0.0, None)))
            taps[np.abs(d) > 1.0] = 0.0
            taps /= taps.sum(axis=1, keepdims=True)
            taps_for = used
        out[k] = (x[base[:, None] + reach + len(reach)] * taps[row]).sum(axis=1)
    return Waveform(out, TARGET_RATE)


def hann_window(n: int) -> np.ndarray:
    # periodic form, the usual choice for spectral analysis
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(w: Waveform) -> np.ndarray:
    """``frames x (FRAME_LENGTH // 2 + 1)`` magnitude spectrogram over
    Hann-windowed frames (no padding)."""
    x = np.asarray(w.samples, dtype=np.float64)
    n_frames = (len(x) - FRAME_LENGTH) // HOP + 1
    window = hann_window(FRAME_LENGTH)
    idx = np.arange(FRAME_LENGTH)[None, :] + HOP * np.arange(n_frames)[:, None]
    return np.abs(np.fft.rfft(x[idx] * window, axis=1))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank() -> np.ndarray:
    """``N_COEFFS x n_bins`` triangular weights over ``stft``'s
    ``FRAME_LENGTH // 2 + 1`` bins, one filter per cepstral coefficient,
    with peaks equally spaced on the mel scale from 0 Hz to the Nyquist
    frequency of ``TARGET_RATE``. Built once per process; every call
    returns the same read-only array."""
    n_bins = FRAME_LENGTH // 2 + 1
    f_max = TARGET_RATE / 2.0
    points = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(f_max), N_COEFFS + 2))
    bin_hz = np.arange(n_bins) * TARGET_RATE / ((n_bins - 1) * 2)
    weights = np.zeros((N_COEFFS, n_bins))
    for m in range(N_COEFFS):
        left, center, right = points[m], points[m + 1], points[m + 2]
        rising = (bin_hz - left) / max(center - left, 1e-12)
        falling = (right - bin_hz) / max(right - center, 1e-12)
        weights[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    weights.flags.writeable = False
    return weights


def mel_energies(magnitudes: np.ndarray) -> np.ndarray:
    """Per-frame ``mel_filterbank`` energies: weighted sums of the power
    spectrum of ``stft``'s magnitudes."""
    return magnitudes ** 2 @ mel_filterbank().T


def mfcc(energies: np.ndarray) -> np.ndarray:
    """Cosine-transform the log energies into cepstral coefficients.

    Coefficient c of a frame is sum_m log(E_m) * cos(pi * c * (m - 0.5) / M)
    over the M filters, for c in 0..N_COEFFS-1. Energies are floored at
    1e-10 so silent frames stay finite.
    """
    energies = np.asarray(energies, dtype=np.float64)
    log_e = np.log(np.maximum(energies, ENERGY_FLOOR))
    n_filters = energies.shape[1]
    m = np.arange(1, n_filters + 1)
    c = np.arange(N_COEFFS)
    basis = np.cos(np.pi * c[:, None] * (m[None, :] - 0.5) / n_filters)
    return log_e @ basis.T


def embed_audio(w: Waveform | None) -> np.ndarray | None:
    """Temporal mean of the MFCC matrix (13 values); None when the audio is
    absent or shorter than one analysis frame."""
    if w is None or len(w.samples) == 0:
        return None
    w = resample(w)
    if len(w.samples) < FRAME_LENGTH:
        return None
    return mfcc(mel_energies(stft(w))).mean(axis=0)
