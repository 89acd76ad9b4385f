"""Waveform ingestion and MFCC chain, checked against naive-DFT references."""

import struct

import numpy as np
import numpy.testing as npt
import pytest

from deepagent import audio
from deepagent.errors import ConfigurationError, FeatureExtractionError, IngestionError

from oracles import (
    mel_energies_triple_loop,
    mfcc_double_loop,
    naive_dft_magnitudes,
    reference_mfcc_mean,
)


def sine(freq, seconds=1.0, rate=16000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


class TestReadWav:
    def test_mono_length_and_rate(self, tmp_path):
        path = tmp_path / "mono.wav"
        audio.write_wav(path, sine(440, 0.25), 16000)
        w = audio.read_wav(path)
        assert len(w.samples) == 4000
        assert w.sample_rate == 16000

    def test_stereo_opposite_channels_cancel(self, tmp_path):
        x = (sine(300, 0.1) * 32767).astype("<i2")
        interleaved = np.empty(2 * len(x), dtype="<i2")
        interleaved[0::2] = x
        interleaved[1::2] = -x
        body = interleaved.tobytes()
        blob = b"".join([
            b"RIFF", struct.pack("<I", 36 + len(body)), b"WAVE",
            b"fmt ", struct.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16),
            b"data", struct.pack("<I", len(body)), body,
        ])
        path = tmp_path / "stereo.wav"
        path.write_bytes(blob)
        w = audio.read_wav(path)
        npt.assert_array_equal(w.samples, 0.0)

    def test_full_scale_negative_maps_to_minus_one(self, tmp_path):
        body = struct.pack("<h", -32768)
        blob = b"".join([
            b"RIFF", struct.pack("<I", 36 + len(body)), b"WAVE",
            b"fmt ", struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16),
            b"data", struct.pack("<I", len(body)), body,
        ])
        path = tmp_path / "neg.wav"
        path.write_bytes(blob)
        assert audio.read_wav(path).samples[0] == -1.0

    def test_non_pcm_rejected_with_offset(self, tmp_path):
        blob = b"".join([
            b"RIFF", struct.pack("<I", 36), b"WAVE",
            b"fmt ", struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 16),
            b"data", struct.pack("<I", 0),
        ])
        path = tmp_path / "float.wav"
        path.write_bytes(blob)
        with pytest.raises(IngestionError, match="byte"):
            audio.read_wav(path)

    def test_rate_below_8khz_rejected_with_offset(self, tmp_path):
        path = tmp_path / "slow.wav"
        audio.write_wav(path, sine(440, 0.1, rate=4000), 4000)
        with pytest.raises(IngestionError,
                           match="slow.wav: sample rate 4000 Hz is below 8000 Hz at byte 24"):
            audio.read_wav(path)

    def test_truncated_rejected_with_offset(self, tmp_path):
        path = tmp_path / "trunc.wav"
        audio.write_wav(path, sine(440, 0.1), 16000)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(IngestionError, match="byte"):
            audio.read_wav(path)


class TestResample:
    def test_same_rate_is_identity(self):
        w = audio.Waveform(sine(440, 0.2), 16000)
        out = audio.resample(w, 16000)
        npt.assert_array_equal(out.samples, w.samples)

    def test_half_rate_halves_length(self):
        w = audio.Waveform(np.zeros(8000), 32000)
        assert len(audio.resample(w, 16000).samples) == 4000

    def test_sine_dominant_bin_preserved(self):
        # 440 Hz at 44.1 kHz, resampled; naive DFT over the first 1600
        # samples gives 10 Hz bins, so 440 Hz should land on bin 44
        w = audio.Waveform(np.sin(2 * np.pi * 440 * np.arange(22050) / 44100), 44100)
        out = audio.resample(w, 16000)
        mags = naive_dft_magnitudes(out.samples[:1600])
        assert abs(int(mags.argmax()) - 44) <= 1


class TestStft:
    def test_zero_signal_zero_magnitudes(self):
        mags = audio.stft(audio.Waveform(np.zeros(4000), 16000))
        npt.assert_array_equal(mags, 0.0)

    def test_one_second_gives_98_frames(self):
        mags = audio.stft(audio.Waveform(np.zeros(16000), 16000))
        assert mags.shape == (98, 201)

    def test_1khz_peak_bin(self):
        mags = audio.stft(audio.Waveform(sine(1000), 16000))
        peaks = mags.argmax(axis=1)
        npt.assert_array_equal(peaks, 25)

    def test_short_signal_raises_feature_error(self):
        with pytest.raises(FeatureExtractionError):
            audio.stft(audio.Waveform(np.zeros(399), 16000))


class TestMelFilterbank:
    def test_zero_spectrum_zero_energies(self):
        weights = audio.mel_filterbank()
        npt.assert_array_equal(audio.mel_energies(np.zeros((5, 201)), weights), 0.0)

    def test_unit_spectrum_collapses_to_weight_sums(self):
        weights = audio.mel_filterbank()
        energies = audio.mel_energies(np.ones((3, 201)), weights)
        for row in energies:
            npt.assert_allclose(row, weights.sum(axis=1), rtol=1e-12)

    def test_white_noise_matches_triple_loop(self):
        rng = np.random.default_rng(20)
        mags = np.abs(rng.normal(size=(7, 201)))
        weights = audio.mel_filterbank()
        fast = audio.mel_energies(mags, weights)
        slow = mel_energies_triple_loop(mags, weights)
        npt.assert_allclose(fast, slow, atol=1e-9)

    def test_weights_nonnegative_and_unimodal(self):
        weights = audio.mel_filterbank()
        assert (weights >= 0).all()
        for row in weights:
            peak = row.argmax()
            assert (np.diff(row[:peak + 1]) >= 0).all()
            assert (np.diff(row[peak:]) <= 0).all()

    def test_bin_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            audio.mel_energies(np.ones((2, 101)), audio.mel_filterbank(n_bins=201))


class TestMfcc:
    def test_constant_energies(self):
        energies = np.full((4, 13), 2.5)
        coeffs = audio.mfcc(energies)
        npt.assert_allclose(coeffs[:, 0], 13 * np.log(2.5), rtol=1e-12)
        npt.assert_allclose(coeffs[:, 1:], 0.0, atol=1e-12)

    def test_floor_makes_frames_identical(self):
        coeffs = audio.mfcc(np.zeros((5, 13)))
        for row in coeffs[1:]:
            npt.assert_array_equal(row, coeffs[0])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(21)
        energies = rng.uniform(0.0, 4.0, size=(6, 13))
        npt.assert_allclose(audio.mfcc(energies), mfcc_double_loop(energies),
                            atol=1e-9)


class TestEmbedAudio:
    def test_mean_of_frames(self):
        rows = np.vstack([np.ones(13), 3 * np.ones(13)])
        npt.assert_allclose(rows.mean(axis=0), np.full(13, 2.0))
        # and through the public op: a constant-amplitude signal yields the
        # frame-mean of its own coefficients
        w = audio.Waveform(sine(500, 0.5), 16000)
        coeffs = audio.mfcc(audio.mel_energies(audio.stft(w), audio.mel_filterbank()))
        emb = audio.embed_audio(w)
        npt.assert_allclose(emb, coeffs.mean(axis=0), rtol=1e-12)

    def test_empty_audio_flagged_absent(self):
        # absent audio is None; feature assembly zero-fills and flags it
        assert audio.embed_audio(audio.Waveform(np.zeros(0), 16000)) is None
        assert audio.embed_audio(None) is None

    def test_too_short_audio_flagged_absent(self):
        assert audio.embed_audio(audio.Waveform(np.zeros(100), 16000)) is None

    def test_length_always_13(self):
        for seconds in (0.05, 0.2, 1.0):
            emb = audio.embed_audio(audio.Waveform(sine(440, seconds), 16000))
            assert emb.shape == (13,)

    def test_sine_matches_naive_dft_reference(self):
        samples = sine(440, 0.2)
        emb = audio.embed_audio(audio.Waveform(samples, 16000))
        ref = reference_mfcc_mean(samples)
        npt.assert_allclose(emb, ref, atol=1e-6)

    def test_deterministic_across_runs(self):
        samples = sine(330, 0.3)
        a = audio.embed_audio(audio.Waveform(samples.copy(), 16000))
        b = audio.embed_audio(audio.Waveform(samples.copy(), 16000))
        npt.assert_array_equal(a, b)
