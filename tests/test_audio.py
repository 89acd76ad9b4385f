"""Waveform ingestion and MFCC chain, checked against naive-DFT references."""

import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from deepagent import audio
from deepagent.errors import ConfigurationError, IngestionError

from oracles import (
    mel_energies_triple_loop,
    mfcc_double_loop,
    naive_dft_magnitudes,
    reference_mfcc_mean,
    table_resample,
)

# allocation peak allowed to resample a clip at any legal rate: sixteen
# float64 blocks of ``audio.RESAMPLE_VALUES`` values (64 MiB), room for a
# block's gather, index, weights and their temporaries. A weight table of
# one row per phase took 931 MiB for 0.1 s at 383,999 Hz
RESAMPLE_PEAK_BLOCKS = 16


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
        out = audio.resample(w)
        npt.assert_array_equal(out.samples, w.samples)

    def test_half_rate_halves_length(self):
        w = audio.Waveform(np.zeros(8000), 32000)
        assert len(audio.resample(w).samples) == 4000

    def test_sine_dominant_bin_preserved(self):
        # 440 Hz at 44.1 kHz, resampled; naive DFT over the first 1600
        # samples gives 10 Hz bins, so 440 Hz should land on bin 44
        w = audio.Waveform(np.sin(2 * np.pi * 440 * np.arange(22050) / 44100), 44100)
        out = audio.resample(w)
        mags = naive_dft_magnitudes(out.samples[:1600])
        assert abs(int(mags.argmax()) - 44) <= 1

    @pytest.mark.parametrize("rate", [44100, 48000])
    def test_tone_above_target_nyquist_is_filtered_out(self, rate):
        # 12 kHz lies above the 8 kHz Nyquist frequency of 16 kHz; without a
        # low-pass it aliases to 4 kHz at about the in-band tone's power
        def power_db(freq):
            out = audio.resample(audio.Waveform(sine(freq, rate=rate), rate))
            return 10.0 * np.log10(np.mean(out.samples ** 2))

        assert power_db(12000) <= power_db(3000) - 40.0

    @pytest.mark.parametrize("rate, tol", [(44100, 0.02), (48000, 0.02)])
    def test_embedding_matches_resample_poly_oracle(self, rate, tol):
        # noise band-limited to 7 kHz; the oracle resamples by polyphase
        # filtering. The two filters differ near 7 kHz: over 10 seeds the
        # largest coefficient difference is 0.014 at 44.1 kHz and 0.012 at
        # 48 kHz (0.44 at 44.1 kHz with linear interpolation)
        signal = pytest.importorskip("scipy.signal")
        n = int(1.5 * rate)
        spectrum = np.fft.rfft(np.random.default_rng(3).normal(size=n))
        spectrum[np.fft.rfftfreq(n, 1.0 / rate) > 7000] = 0.0
        x = np.fft.irfft(spectrum, n)
        x *= 0.3 / np.abs(x).max()
        g = np.gcd(16000, rate)
        oracle = audio.embed_audio(audio.Waveform(
            signal.resample_poly(x, 16000 // g, rate // g), 16000))
        npt.assert_allclose(audio.embed_audio(audio.Waveform(x, rate)), oracle,
                            rtol=0, atol=tol)

    @pytest.mark.parametrize("rate, tol", [(44100, 6.5), (48000, 2.5)])
    def test_tone_mix_embedding_matches_band_limited_reference(self, rate, tol):
        # a 3 kHz plus a 12 kHz tone: band-limited to 8 kHz, it is the 3 kHz
        # tone sampled at 16 kHz. The nearly empty mel bands take the log of
        # whatever leaks into them: the 12 kHz residue at about -90 dB moves
        # the coefficients by up to 5.9 at 44.1 kHz and 2.0 at 48 kHz, and
        # linear interpolation's distortion moved them by 159 at 44.1 kHz
        mix = sine(3000, 1.5, rate, 0.25) + sine(12000, 1.5, rate, 0.25)
        reference = audio.embed_audio(audio.Waveform(sine(3000, 1.5, 16000, 0.25),
                                                     16000))
        npt.assert_allclose(audio.embed_audio(audio.Waveform(mix, rate)), reference,
                            rtol=0, atol=tol)

    @pytest.mark.parametrize("rate", [8000, 22050, 44100, 48000, 96000])
    def test_blocks_keep_the_bits_of_a_whole_weight_table(self, rate):
        x = np.random.default_rng(rate).uniform(-0.5, 0.5, int(rate * 0.4))
        out = audio.resample(audio.Waveform(x, rate)).samples
        assert out.tobytes() == table_resample(x, rate).tobytes()

    @pytest.mark.parametrize("seconds", [0.1, 1.0])
    def test_coprime_rate_peak_is_set_by_the_block(self, seconds):
        # 383,999 and 16,000 share no factor, so every output sits at its
        # own phase: a table of one weight row per phase has 16,000 rows
        rate = audio.MAX_RATE - 1
        x = np.random.default_rng(7).uniform(-0.5, 0.5, int(rate * seconds))
        tracemalloc.start()
        try:
            out = audio.resample(audio.Waveform(x, rate))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.samples) == round(seconds * 16000)
        assert peak <= RESAMPLE_PEAK_BLOCKS * audio.RESAMPLE_VALUES * 8, peak / 2 ** 20


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
            audio.mel_energies(np.ones((2, 101)), audio.mel_filterbank())

    def test_one_shared_read_only_filterbank(self):
        weights = audio.mel_filterbank()
        assert audio.mel_filterbank() is weights
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0


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
        # absent audio is None; feature assembly zero-fills it
        assert audio.embed_audio(audio.Waveform(np.zeros(0), 16000)) is None
        assert audio.embed_audio(None) is None

    def test_too_short_audio_flagged_absent(self):
        # 399 samples, one short of a frame, never reach stft
        for n in (100, audio.FRAME_LENGTH - 1):
            assert audio.embed_audio(audio.Waveform(np.zeros(n), 16000)) is None

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
