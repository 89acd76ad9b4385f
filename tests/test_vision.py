"""Frame ingestion, geometry transforms, sampling policies, augmentation."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from deepagent import pipeline, vision
from deepagent.config import load_config
from deepagent.errors import ConfigurationError, IngestionError
from deepagent.manifest import SampleRecord
from deepagent.vision import AugmentPolicy

from oracles import matmul3, naive_affine_sample, naive_bilinear_resize


class TestLoadFrame:
    def test_pgm_values_preserved(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        frame = vision.load_frame(path)
        assert frame.shape == (2, 2, 1)
        npt.assert_array_equal(frame[..., 0], [[0, 128], [255, 64]])

    def test_ppm_pixel(self, tmp_path):
        path = tmp_path / "b.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        frame = vision.load_frame(path)
        npt.assert_array_equal(frame[0, 0], [255, 0, 0])

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made by hand\n1 1\n255\n" + bytes([42]))
        assert vision.load_frame(path)[0, 0, 0] == 42

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + bytes([0, 0]))
        with pytest.raises(IngestionError, match="maxval"):
            vision.load_frame(path)

    def test_malformed_header_names_path(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\nxx 2\n255\n")
        with pytest.raises(IngestionError, match="e.pgm"):
            vision.load_frame(path)

    def test_short_payload_rejected(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(IngestionError):
            vision.load_frame(path)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        frame = rng.integers(0, 256, size=(5, 4, 3)).astype(float)
        vision.save_frame(tmp_path / "g.ppm", frame)
        back = vision.load_frame(tmp_path / "g.ppm")
        npt.assert_array_equal(back, frame)


class TestResize:
    def test_same_size_bitwise_identity(self):
        rng = np.random.default_rng(5)
        frame = rng.uniform(0, 255, size=(7, 9, 3))
        out = vision.resize_bilinear(frame, 7, 9)
        npt.assert_array_equal(out, frame)

    def test_constant_image_stays_constant(self):
        frame = np.full((3, 5, 1), 77.0)
        out = vision.resize_bilinear(frame, 224, 224)
        npt.assert_allclose(out, 77.0, rtol=1e-12)

    def test_checker_upsample_matches_naive_loop(self):
        checker = np.array([[0.0, 255.0], [255.0, 0.0]])[..., None]
        out = vision.resize_bilinear(checker, 4, 4)
        ref = naive_bilinear_resize(checker, 4, 4)
        npt.assert_allclose(out, ref, atol=1e-9)

    def test_random_resizes_match_naive_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            h, w = rng.integers(2, 9, size=2)
            oh, ow = rng.integers(2, 17, size=2)
            pixels = rng.uniform(0, 255, size=(h, w, 2))
            out = vision.resize_bilinear(pixels, int(oh), int(ow))
            npt.assert_allclose(out, naive_bilinear_resize(pixels, int(oh), int(ow)),
                                atol=1e-9)


class TestNormalize:
    """Frame batches reach the agents rescaled from [0, 255] to [0, 1]."""

    @staticmethod
    def normalized(tmp_path, values):
        """The first pixel row after ``load_sample_frames`` of a square gray
        frame whose first row holds ``values`` (loaded at its own size, so
        no resize happens)."""
        n = len(values)
        pixels = np.zeros((n, n, 1))
        pixels[0, :, 0] = values
        vision.save_frame(tmp_path / "n.pgm", pixels)
        record = SampleRecord("n", 0, frames=[tmp_path / "n.pgm"])
        batch = pipeline.load_sample_frames(record, load_config(None, {}), size=n)
        return batch[0, 0, :, 0]

    def test_endpoints_and_midpoint(self, tmp_path):
        out = self.normalized(tmp_path, [255.0, 0.0, 128.0])
        npt.assert_allclose(out, [1.0, 0.0, 128.0 / 255.0])

    def test_preserves_ordering(self, tmp_path):
        rng = np.random.default_rng(7)
        # frames store whole byte values, so draw two distinct ones
        lo, hi = sorted(rng.choice(256, size=2, replace=False))
        out = self.normalized(tmp_path, [lo, hi])
        assert out[0] < out[1]


class TestSampling:
    def test_interval_basic(self):
        assert vision.sample_interval(20) == [0, 5, 10, 15]

    def test_interval_short(self):
        assert vision.sample_interval(3) == [0]

    def test_interval_count(self):
        assert len(vision.sample_interval(100)) == 20

    def test_even_take_all(self):
        assert vision.sample_even(5, 10) == [0, 1, 2, 3, 4]

    def test_even_spread(self):
        assert vision.sample_even(100, 10) == [0, 11, 22, 33, 44, 55, 66, 77, 88, 99]

    def test_even_single_frame(self):
        assert vision.sample_even(1, 7) == [0]

    def test_even_invariants(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            m = int(rng.integers(1, 50))
            idx = vision.sample_even(n, m)
            assert 1 <= len(idx) <= m
            assert all(b > a for a, b in zip(idx, idx[1:]))
            if n > 1 and m >= 2:
                assert idx[0] == 0 and idx[-1] == n - 1


class TestAugment:
    def test_identity_policy_is_bitwise_identity(self):
        rng = np.random.default_rng(9)
        frame = rng.uniform(0, 1, size=(12, 12, 3))
        policy = AugmentPolicy(0.0, 0.0, 0.0, (1.0, 1.0), False)
        out = vision.augment(frame, policy, np.random.default_rng(0))
        npt.assert_array_equal(out, frame)

    def test_flip_only_on_symmetric_image(self):
        base = np.array([[1.0, 2.0, 1.0], [3.0, 0.5, 3.0]])[..., None]
        policy = AugmentPolicy(0.0, 0.0, 0.0, (1.0, 1.0), True)
        for seed in range(6):  # both coin outcomes appear
            out = vision.augment(base, policy, np.random.default_rng(seed))
            npt.assert_array_equal(out, base)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(10)
        frame = rng.uniform(0, 1, size=(16, 16, 3))
        policy = AugmentPolicy()
        a = vision.augment(frame, policy, np.random.default_rng(77))
        b = vision.augment(frame, policy, np.random.default_rng(77))
        npt.assert_array_equal(a, b)

    def test_brightness_clamped(self):
        frame = np.full((4, 4, 1), 0.99)
        policy = AugmentPolicy(0.0, 0.0, 0.0, (1.1, 1.1), False)
        out = vision.augment(frame, policy, np.random.default_rng(0))
        assert out.max() <= 1.0

    def test_policy_ranges_validated(self):
        with pytest.raises(ConfigurationError):
            AugmentPolicy(rotation_deg=45.0)
        with pytest.raises(ConfigurationError):
            AugmentPolicy(brightness=(0.5, 1.0))


class TestAugmentOracle:
    """One resample through the composed map, against a per-pixel loop."""

    @staticmethod
    def expected(frame, policy, rng):
        """Draw as augment does, compose rotation o shift o zoom by hand,
        sample naively, then brightness and flip."""
        h, w, _ = frame.shape
        angle = rng.uniform(-policy.rotation_deg, policy.rotation_deg)
        dx = rng.uniform(-policy.shift_frac, policy.shift_frac) * w
        dy = rng.uniform(-policy.shift_frac, policy.shift_frac) * h
        zoom = rng.uniform(1.0 - policy.zoom_frac, 1.0 + policy.zoom_frac)
        bright = rng.uniform(*policy.brightness)
        flip = rng.random() < 0.5
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
        # each map sends a destination pixel to its source pixel
        rotation = [[c, s, cx - c * cx - s * cy], [-s, c, cy + s * cx - c * cy],
                    [0.0, 0.0, 1.0]]
        shift = [[1.0, 0.0, -dx], [0.0, 1.0, -dy], [0.0, 0.0, 1.0]]
        z = 1.0 / zoom
        scale = [[z, 0.0, cx * (1.0 - z)], [0.0, z, cy * (1.0 - z)],
                 [0.0, 0.0, 1.0]]
        matrix = matmul3(rotation, matmul3(shift, scale))
        pixels = np.clip(naive_affine_sample(frame, matrix) * bright, 0.0, 1.0)
        return pixels[:, ::-1, :] if flip else pixels

    @pytest.mark.parametrize("shape", [(9, 13, 3), (16, 16, 3), (7, 5, 1)])
    def test_matches_naive_sampler_on_composed_matrix(self, shape):
        policy = AugmentPolicy()
        for seed in range(8):
            frame = np.random.default_rng(seed).uniform(0, 1, size=shape)
            rng = np.random.default_rng(100 + seed)
            mirror = np.random.default_rng(100 + seed)
            out = vision.augment(frame, policy, rng)
            npt.assert_allclose(out, self.expected(frame, policy, mirror),
                                rtol=0, atol=1e-12)
            # six draws, no more and no fewer
            assert rng.bit_generator.state == mirror.bit_generator.state

    def test_draw_count_without_flip(self):
        policy = AugmentPolicy(horizontal_flip=False)
        rng = np.random.default_rng(7)
        vision.augment(np.zeros((4, 4, 3)), policy, rng)
        mirror = np.random.default_rng(7)
        mirror.uniform(size=5)
        assert rng.bit_generator.state == mirror.bit_generator.state
