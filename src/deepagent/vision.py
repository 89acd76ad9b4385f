"""Frame ingestion, resizing, augmentation, and subsampling.

A frame is a plain float64 ``H x W x C`` ndarray, channels 1 (gray) or 3
(RGB). Ingestion keeps raw byte values in [0, 255]; the pipeline rescales a
stacked batch to [0, 1], and augmentation operates on that range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deepagent.errors import ConfigurationError, IngestionError


@dataclass
class AugmentPolicy:
    """Ranges for the train-time augmentation draws.

    All draws are uniform: rotation in +-rotation_deg degrees, shifts in
    +-shift_frac of each dimension, zoom in 1 +- zoom_frac, brightness
    multiplier in [brightness[0], brightness[1]], and a fair coin for the
    horizontal flip when enabled.
    """

    rotation_deg: float = 10.0
    shift_frac: float = 0.1
    zoom_frac: float = 0.1
    brightness: tuple[float, float] = (0.9, 1.1)
    horizontal_flip: bool = True

    def __post_init__(self):
        if not 0.0 <= self.rotation_deg <= 10.0:
            raise ConfigurationError(f"rotation_deg outside [0, 10]: {self.rotation_deg}")
        if not 0.0 <= self.shift_frac <= 0.1:
            raise ConfigurationError(f"shift_frac outside [0, 0.1]: {self.shift_frac}")
        if not 0.0 <= self.zoom_frac <= 0.1:
            raise ConfigurationError(f"zoom_frac outside [0, 0.1]: {self.zoom_frac}")
        lo, hi = self.brightness
        if not (0.9 <= lo <= hi <= 1.1):
            raise ConfigurationError(f"brightness range outside [0.9, 1.1]: {self.brightness}")


def _read_header_token(blob: bytes, pos: int, path) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header tokens
    n = len(blob)
    while pos < n:
        if blob[pos:pos + 1].isspace():
            pos += 1
        elif blob[pos:pos + 1] == b"#":
            while pos < n and blob[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not blob[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise IngestionError(f"{path}: truncated image header")
    return blob[start:pos], pos


def load_frame(path) -> np.ndarray:
    """Load a binary PGM (P5) or PPM (P6) image with maxval 255 as an
    ``H x W x C`` float64 array of the raw byte values."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise IngestionError(f"{path}: expected binary PGM/PPM, got magic {magic!r}")
    channels = 1 if magic == b"P5" else 3
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(blob, pos, path)
        try:
            fields.append(int(token))
        except ValueError:
            raise IngestionError(f"{path}: non-numeric header field {token!r}") from None
    width, height, maxval = fields
    if maxval != 255:
        raise IngestionError(f"{path}: only maxval 255 supported, got {maxval}")
    if width < 1 or height < 1:
        raise IngestionError(f"{path}: bad dimensions {width}x{height}")
    pos += 1  # single whitespace byte separates header from payload
    expected = width * height * channels
    payload = blob[pos:pos + expected]
    if len(payload) != expected:
        raise IngestionError(
            f"{path}: expected {expected} pixel bytes, found {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    return pixels.reshape(height, width, channels)


def save_frame(path, pixels: np.ndarray) -> None:
    """Write an ``H x W x C`` frame (raw [0, 255] values) as binary PGM/PPM."""
    height, width, channels = pixels.shape
    raw = np.clip(np.round(pixels), 0, 255).astype(np.uint8)
    magic = b"P5" if channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, width, height)
    with open(path, "wb") as fh:
        fh.write(header + raw.tobytes())


def _bilinear_axis(n: int, out: int):
    """Source neighbours and the upper weight per output index along one axis
    (half-pixel centers, clamped to the edge)."""
    src = np.clip((np.arange(out) + 0.5) * n / out - 0.5, 0.0, n - 1.0)
    lo = np.floor(src).astype(int)
    return lo, np.minimum(lo + 1, n - 1), src - lo


def resize_bilinear(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel centers (corner-aligned false),
    separable: rows are interpolated first, then columns."""
    h, w = pixels.shape[:2]
    if h == out_h and w == out_w:
        return pixels.copy()
    y0, y1, fy = _bilinear_axis(h, out_h)
    x0, x1, fx = _bilinear_axis(w, out_w)
    fy, fx = fy[:, None, None], fx[None, :, None]
    rows = pixels[y0] * (1 - fy) + pixels[y1] * fy
    return rows[:, x0] * (1 - fx) + rows[:, x1] * fx


def sample_interval(n_frames: int, interval: int = 5) -> list[int]:
    """Every interval-th frame index starting at 0."""
    return list(range(0, n_frames, interval))


def sample_even(n_frames: int, m: int) -> list[int]:
    """Up to m indices spread evenly across 0..n_frames-1."""
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    if n_frames <= m:
        return list(range(n_frames))
    if m == 1:
        return [0]
    raw = [int(np.floor(i * (n_frames - 1) / (m - 1) + 0.5)) for i in range(m)]
    return sorted(set(raw))


def _affine_sample(pixels: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Bilinear sampling of an inverse affine map with edge-replicate fill.

    ``matrix`` is 2x3 mapping destination (x, y, 1) to source (x, y);
    source coordinates are clipped to the image before interpolation.
    """
    h, w, c = pixels.shape
    ys, xs = np.mgrid[0:h, 0:w]
    src_x = matrix[0, 0] * xs + matrix[0, 1] * ys + matrix[0, 2]
    src_y = matrix[1, 0] * xs + matrix[1, 1] * ys + matrix[1, 2]
    src_x = np.clip(src_x, 0.0, w - 1.0)
    src_y = np.clip(src_y, 0.0, h - 1.0)
    x0 = np.floor(src_x).astype(int)
    y0 = np.floor(src_y).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (src_x - x0)[..., None]
    fy = (src_y - y0)[..., None]
    flat = pixels.reshape(h * w, c)
    row0, row1 = y0 * w, y1 * w
    top = flat.take(row0 + x0, axis=0) * (1 - fx) + flat.take(row0 + x1, axis=0) * fx
    bottom = flat.take(row1 + x0, axis=0) * (1 - fx) + flat.take(row1 + x1, axis=0) * fx
    return top * (1 - fy) + bottom * fy


def augment(pixels: np.ndarray, policy: AugmentPolicy,
            rng: np.random.Generator) -> np.ndarray:
    """Apply rotation, shift, zoom, brightness, and flip, in that order.

    The draws (rotation, x shift, y shift, zoom, brightness, then the flip
    coin when flipping is enabled) are always consumed in the same order,
    so a fixed seed reproduces the exact augmented frame. Works on an
    ``H x W x C`` frame of normalized [0, 1] pixels and returns a new one.

    The three inverse maps compose into one matrix, rotation o shift o zoom
    (each about the image center where it applies), and the frame is
    resampled once, with edge-replicate fill, as Keras
    ``ImageDataGenerator.apply_transform`` does; a draw whose product is the
    identity skips the resample.
    """
    height, width = pixels.shape[:2]
    angle = rng.uniform(-policy.rotation_deg, policy.rotation_deg)
    dx = rng.uniform(-policy.shift_frac, policy.shift_frac) * width
    dy = rng.uniform(-policy.shift_frac, policy.shift_frac) * height
    zoom = rng.uniform(1.0 - policy.zoom_frac, 1.0 + policy.zoom_frac)
    bright = rng.uniform(policy.brightness[0], policy.brightness[1])
    flip = policy.horizontal_flip and rng.random() < 0.5

    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    theta = np.deg2rad(angle)
    c, s = np.cos(theta), np.sin(theta)
    inv = 1.0 / zoom
    # inverse maps (destination -> source), rotation and zoom about the center
    rotation = np.array([
        [c, s, cx - c * cx - s * cy],
        [-s, c, cy + s * cx - c * cy],
        [0.0, 0.0, 1.0],
    ])
    shift = np.array([[1.0, 0.0, -dx], [0.0, 1.0, -dy], [0.0, 0.0, 1.0]])
    scale = np.array([
        [inv, 0.0, cx * (1.0 - inv)],
        [0.0, inv, cy * (1.0 - inv)],
        [0.0, 0.0, 1.0],
    ])
    matrix = rotation @ shift @ scale
    out = pixels
    if not np.array_equal(matrix, np.eye(3)):
        out = _affine_sample(out, matrix)
    if bright != 1.0:
        out = np.clip(out * bright, 0.0, 1.0)
    if flip:
        out = out[:, ::-1, :]
    if out is pixels:
        out = out.copy()
    return np.ascontiguousarray(out)
