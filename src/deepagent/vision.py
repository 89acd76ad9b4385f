"""Frame ingestion, resizing, augmentation, and subsampling.

A frame is a plain float64 ``H x W x C`` ndarray, channels 1 (gray) or 3
(RGB). Ingestion keeps raw byte values in [0, 255]; the pipeline rescales a
stacked batch to [0, 1], and augmentation operates on that range. Its
ranges are fixed module constants, with no policy object to vary them.
"""

from __future__ import annotations

import numpy as np

from deepagent.errors import IngestionError


# train-time augmentation ranges, all drawn uniformly: rotation in
# +-ROTATION_DEG degrees, shifts in +-SHIFT_FRAC of each dimension, zoom in
# 1 +- ZOOM_FRAC, a brightness multiplier in BRIGHTNESS, and a fair coin for
# the horizontal flip
ROTATION_DEG = 10.0
SHIFT_FRAC = 0.1
ZOOM_FRAC = 0.1
BRIGHTNESS = (0.9, 1.1)


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


def _mix(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``a * (1 - f) + b * f``, computed in place in ``a`` and ``b``."""
    a *= 1 - f
    b *= f
    a += b
    return a


def resize_bilinear(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel centers (corner-aligned false),
    separable: columns are interpolated first, then rows. Each pass takes
    whole runs of values (a column's C values as flat indices into a row of
    ``W * C``, then whole rows) and does a fixed amount of work per value it
    writes, whatever the source size."""
    h, w, c = pixels.shape
    if h == out_h and w == out_w:
        return pixels.copy()
    y0, y1, fy = _bilinear_axis(h, out_h)
    x0, x1, fx = _bilinear_axis(w, out_w)
    flat = pixels.reshape(h, w * c)
    x0, x1 = ((x[:, None] * c + np.arange(c)).ravel() for x in (x0, x1))
    cols = _mix(np.take(flat, x0, axis=1), np.take(flat, x1, axis=1),
                np.repeat(fx, c))
    out = _mix(np.take(cols, y0, axis=0), np.take(cols, y1, axis=0), fy[:, None])
    return out.reshape(out_h, out_w, c)


def sample_interval(n_frames: int) -> list[int]:
    """Every fifth frame index starting at 0: the "interval5" policy."""
    return list(range(0, n_frames, 5))


def sample_even(n_frames: int, m: int) -> list[int]:
    """Up to m >= 1 indices spread evenly across 0..n_frames-1."""
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
    xs, ys = np.arange(w), np.arange(h)[:, None]
    src_x = matrix[0, 0] * xs + matrix[0, 1] * ys + matrix[0, 2]
    src_y = matrix[1, 0] * xs + matrix[1, 1] * ys + matrix[1, 2]
    src_x = np.clip(src_x, 0.0, w - 1.0)
    src_y = np.clip(src_y, 0.0, h - 1.0)
    x0 = np.floor(src_x).astype(int)
    y0 = np.floor(src_y).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    # weights repeated over the channels and corners gathered as flat runs,
    # so each product runs over h * w * c values, not c at a time
    fx = np.repeat(src_x - x0, c)
    fy = np.repeat(src_y - y0, c)
    flat = pixels.reshape(h * w, c)
    corner = lambda rows, cols: flat.take(rows + cols, axis=0).reshape(-1)
    row0, row1 = y0 * w, y1 * w
    gx = 1 - fx
    top = corner(row0, x0) * gx + corner(row0, x1) * fx
    bottom = corner(row1, x0) * gx + corner(row1, x1) * fx
    return (top * (1 - fy) + bottom * fy).reshape(h, w, c)


def augment(pixels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply rotation, shift, zoom, brightness, and flip, in that order.

    The six draws (rotation, x shift, y shift, zoom, brightness, then the
    flip coin) are always consumed in the same order, so a fixed seed
    reproduces the exact augmented frame. Works on an ``H x W x C`` frame of
    normalized [0, 1] pixels and returns a new one.

    The three inverse maps compose into one matrix, rotation o shift o zoom
    (each about the image center where it applies), and the frame is
    resampled once, with edge-replicate fill, as Keras
    ``ImageDataGenerator.apply_transform`` does.
    """
    height, width = pixels.shape[:2]
    angle = rng.uniform(-ROTATION_DEG, ROTATION_DEG)
    dx = rng.uniform(-SHIFT_FRAC, SHIFT_FRAC) * width
    dy = rng.uniform(-SHIFT_FRAC, SHIFT_FRAC) * height
    zoom = rng.uniform(1.0 - ZOOM_FRAC, 1.0 + ZOOM_FRAC)
    bright = rng.uniform(*BRIGHTNESS)
    flip = rng.random() < 0.5

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
    out = np.clip(_affine_sample(pixels, rotation @ shift @ scale) * bright, 0.0, 1.0)
    if flip:
        out = out[:, ::-1, :]
    return np.ascontiguousarray(out)
